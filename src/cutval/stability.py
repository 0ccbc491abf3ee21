"""S-stable bases: verification, stabilizer construction, basis insertion.

A basis B of A over F is S-stable when some basis C multiplies it into the
S-span of B (all coordinates of c*b on B lie in S, for every c in C and
b in B); C is said to stabilize B.  At finite dimension every basis is
stable: C = {delta_i * b_i} for delta_i one clearing of the coordinates of
every product b_i * b_j.

A certificate inverts B once, for its coordinate rows, and builds its
product rows x -> coords_B(x*b_j) from them with no product formed
(`algebra.product_rows`; over Q each row is a QVector, made canonical
as it is built, over Q(t) a QtVector, left as the clearing it was summed
in): it is their only builder, and the clearing stabilizer,
insertion and `orders` read them as they are.  The stabilizer clears
what `BaseDomain.reads` takes off the row values, with no value built
over Q: there one read for all n^2 rows at b_i, the gcd of their packed
sums over L*e (`algebra._Rows.content`).  `is_stable` forms its own
products with `StructureAlgebra.mul` and tests them with `contains`, as
the independent check.

Insertion swaps a new element x0 into a stable basis in place of some
basis element carrying a nonzero coordinate of x0, rescaling the
stabilizer so stability is preserved.  Iterating insertion embeds any
finite independent set into a stable basis, provided the already-inserted
elements are protected from eviction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .algebra import (StructureAlgebra, _Rows, coordinate_rows, is_independent,
                      product_rows)
from .basedomain import BaseDomain
from .errors import DomainError, StructuralError
from .numfield import QtVector, QVector


@dataclass(frozen=True)
class StableBasisCertificate:
    """A basis of A, checked to be one, with a stabilizer (by default the
    clearing one), its coordinate rows `coords` and its product rows: row
    j*n + k of `algebra.product_rows`, whose value at x is coordinate k of
    x*b_j.  `rows` is a `_Rows` of QVectors over Q and of QtVectors over
    Q(t), which the stabilizer, the left order and the ideal variant read
    as they are."""

    algebra: StructureAlgebra
    domain: BaseDomain
    basis: tuple
    stabilizer: tuple | None = None
    coords: _Rows = dataclasses.field(init=False, repr=False, compare=False)
    rows: _Rows = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alg, domain = self.algebra, self.domain
        domain.check_field(alg.field)
        # a basis given as tuples is cleared once, here
        object.__setattr__(self, "basis", tuple(map(QVector.of if alg._q else QtVector.of, self.basis)))
        object.__setattr__(self, "coords", coordinate_rows(alg, self.basis))
        object.__setattr__(self, "rows", product_rows(alg, self.coords, self.basis))
        if self.stabilizer is None:  # delta_i clears the row values at b_i: coords(b_i*b_j), all j
            object.__setattr__(self, "stabilizer", tuple(
                alg.smul(domain._clearing(domain.reads(self.rows, b)), b) for b in self.basis))
        elif len(self.basis) != len(self.stabilizer):
            raise StructuralError("basis and stabilizer must have the same size")


@dataclass(frozen=True)
class StabilityReport:
    ok: bool
    # (stabilizer index, basis index, coordinate index, offending coordinate)
    violations: tuple = ()

    def __str__(self):
        if self.ok:
            return "stable: yes"
        c, b, k, coord = self.violations[0]
        return (f"stable: no ({len(self.violations)} violations; first at "
                f"c[{c}]*b[{b}] coordinate {k} = {coord})")


def is_stable(alg: StructureAlgebra, basis, stabilizer, domain: BaseDomain) -> StabilityReport:
    """Check every product c*b has all B-coordinates in S; C must be a basis."""
    basis, stabilizer = list(basis), list(stabilizer)
    coords = coordinate_rows(alg, basis)
    if len(stabilizer) != alg.dim or not is_independent(alg.field, stabilizer):
        raise StructuralError("stabilizer is not a basis of A")
    violations = []
    for ci, c in enumerate(stabilizer):
        for bi, b in enumerate(basis):
            for k, coord in enumerate(coords.values(alg.mul(c, b))):
                if not domain.contains(coord):
                    violations.append((ci, bi, k, coord))
    return StabilityReport(not violations, tuple(violations))


def stabilizer_finite(alg: StructureAlgebra, basis, domain: BaseDomain) -> StableBasisCertificate:
    """Denominator-clearing stabilizer {delta_i * b_i}: delta_i is one
    clear_many of coords(b_i * b_j) for all j (the lcm of the denominators
    over Z, the least p^M over Z_(p)), read off the certificate's product
    rows.  Canonical as clearing is."""
    return StableBasisCertificate(alg, domain, tuple(basis))


def insert_into_basis(cert: StableBasisCertificate, x0,
                      protected=frozenset()) -> StableBasisCertificate:
    """The certificate with x0 swapped into the basis in place of the first
    basis element b0 that has a nonzero coordinate in x0's expansion and
    is not protected; each stabilizer element c becomes s_c * s0 * c, s0
    clearing b0's coordinates over the new basis and s_c those of s0*c*x0.
    They are read off the old coordinate rows by the swap update."""
    alg, domain = cert.algebra, cert.domain
    if alg.is_zero(x0):
        raise DomainError("cannot insert 0 into a basis")
    if x0 in cert.basis:
        raise DomainError("element is already in the basis")
    coords = tuple(cert.coords.values(x0))
    b0_idx = next((i for i, c in enumerate(coords) if c and cert.basis[i] not in protected), None)
    if b0_idx is None:
        raise StructuralError("x0 lies in the span of the protected elements")
    new_basis = tuple(x0 if i == b0_idx else b for i, b in enumerate(cert.basis))
    c0 = coords[b0_idx]

    def swapped(a):  # sum a_k b_k = f x0 + sum_(k != b0) (a_k - f c_k) b_k
        f = a[b0_idx] / c0
        return [f if k == b0_idx else ak - f * ck for k, (ak, ck) in enumerate(zip(a, coords))]

    s0 = domain.clear_many(swapped(alg.basis_vector(b0_idx)))  # b0's old coordinates
    new_stab = []
    for c in cert.stabilizer:
        t = alg.smul(s0, c)
        s_c = domain.clear_many(swapped(tuple(cert.coords.values(alg.mul(t, x0)))))
        new_stab.append(alg.smul(s_c, t))
    return StableBasisCertificate(alg, domain, new_basis, tuple(new_stab))


def insert_many(cert: StableBasisCertificate, elements) -> StableBasisCertificate:
    """Insert a finite independent set, protecting earlier insertions (and
    elements already present) from eviction.  Members of the current basis
    are kept as they are."""
    protected, current = set(), cert
    for x in elements:
        if x not in current.basis:
            current = insert_into_basis(current, x, frozenset(protected))
        protected.add(x)
    return current


def certificate_to_json(cert: StableBasisCertificate) -> dict:
    """Basis and stabilizer coordinate matrices plus the domain descriptor."""
    from .basedomain import domain_to_descriptor
    ser = cert.algebra.field.scalar_to_json
    return {
        "domain": domain_to_descriptor(cert.domain),
        "basis": [[ser(c) for c in b] for b in cert.basis],
        "stabilizer": [[ser(c) for c in s] for s in cert.stabilizer],
    }


def certificate_from_json(alg: StructureAlgebra, domain: BaseDomain,
                          data: dict) -> StableBasisCertificate:
    basis = tuple(alg.element(v) for v in data["basis"])
    stab = tuple(alg.element(v) for v in data["stabilizer"])
    return StableBasisCertificate(alg, domain, basis, stab)

