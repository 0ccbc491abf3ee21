"""cutval: exact cut-monoid arithmetic over lexicographic integer value
groups, stable bases and nice subalgebras of algebras over fraction
fields, and filter quasi-valuations extending a valuation from the base
field."""

from .cuts import (INF, Cut, Value, at_most, bottom, cut_add, cut_compare,
                   cut_scale, cut_translate, embed_phi, format_value,
                   parse_value, top, value_add, value_compare, value_min,
                   value_translate, zero_cut)
from .numfield import (Polynomial, RationalFunction, ValuedField,
                       composite_valuation, vp)
from .basedomain import BaseDomain, integers, is_subdomain, p_local, valuation_ring
from .algebra import (PolynomialAlgebra, StructureAlgebra,
                      check_associative_unital, matrix_algebra,
                      matrix_element, quadratic_algebra)
from .stability import (StableBasisCertificate, certificate_from_json,
                        certificate_to_json, insert_into_basis, insert_many,
                        is_stable, stabilizer_finite)
from .orders import (DescendChain, IdealSpec, LatticeModule, MatrixChain,
                     PolySubring, SubringOracle, descend_chain, going_down,
                     intersect_oracles, lattice_membership, left_order,
                     matrix_nice_chain, nice_from_certificate,
                     nice_with_ideal, oracle_to_json, verify_nice)
from .quasival import (AuditReport, FilterQV, SupportValue, eval_via_clearing,
                       filter_qv, filter_qv_eval, qv_audit, qv_compare,
                       support_mu)
from .oracle import (BruteSupportResult, Window, WindowSumResult, brute_support,
                     enumerate_canonical, window_cut_sum, window_left_set)
from .sampling import SampleSpec, SplitMix64

__version__ = "0.1.0"
