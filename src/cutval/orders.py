"""Lattices, their left orders, and nice-subalgebra constructions.

A lattice M = sum_b S*b is given by a basis; its left order is
R = { x : xM subset M }, realized as a conjunction of linear constraints
"functional of x lands in S" (one functional per coordinate of each
product x*b), read off the product rows of the lattice's stable-basis
certificate, their only builder.  Over a valuation-like S (Z_(p) or
O_v) those n^2 rows are reduced by min-valuation-pivot elimination to a
triangular system T of n rows.  Every elimination multiplier lies in S,
so T spans the same S-module as the rows it came from and decides the
same membership.  Over Z_(p) T is that module's Hermite form, read off
the pivot search in Z/p^K, with pivots p^k and every entry above a pivot
p^k in [0, p^k); over O_v of Q(t) the pivot rows (`algebra._ov_pivots`).
T is the oracle's only row set, and R is the free S-lattice with basis
the columns of T^-1.  Over Z only the predicate on the full rows is kept
(R need not be a free Z-module in any preferred basis), and the
certificate's stabilizer is the basis contained in R.

The same machinery hosts the ideal-containing variant (a subset of its
certificate's rows), going-down, finite intersections and the chains built
from basis insertion.  The ascending matrix-algebra chain writes no rows of
its own: each term is the left order of its lattice.  Rows are read
only through `algebra._Rows`, built once per oracle, which refuses an
element of the wrong length; membership reads them through the domain.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

from .algebra import (PolynomialAlgebra, StructureAlgebra, _ov_pivots, _padic_pivots, _Rows,
                      column_rows, coordinate_rows, extend_to_basis, invert, is_independent,
                      matrix_algebra)
from .basedomain import BaseDomain, is_subdomain
from .errors import ConfigError, DomainError, StructuralError
from .samplers import (sample_in_domain, sample_member, sample_scalar)
from .sampling import SampleSpec, check_sample_count
from .stability import StableBasisCertificate, insert_many, stabilizer_finite


@dataclass(frozen=True, eq=False)
class LatticeModule:
    """M = sum_b S*b; basis None marks the monomial lattice of F[y].  The
    basis is validated when its coordinate rows `coords` are built, on
    first use, and membership reads them through the domain."""

    algebra: object
    domain: BaseDomain
    basis: tuple | None

    def __post_init__(self):
        self.domain.check_field(self.algebra.field)
        if isinstance(self.algebra, PolynomialAlgebra):
            if self.basis is not None:
                raise ConfigError("polynomial backend uses the monomial lattice")
        elif self.basis is None:
            raise ConfigError("finite-dimensional lattice needs a basis")

    @cached_property
    def coords(self) -> _Rows:
        return coordinate_rows(self.algebra, self.basis)


def lattice_membership(M: LatticeModule, x) -> bool:
    if isinstance(M.algebra, PolynomialAlgebra):
        return all(M.domain.contains(c) for c in x.values())
    return M.domain.admits(M.coords, x)


@dataclass(frozen=True, eq=False)
class SubringOracle:
    """Membership oracle for an S-subring of A.

    constraints: groups (domain, rows); x is a member when every row of
    every group lands in that group's domain.  Construction makes each
    rows a _Rows, which evaluates the rows and iterates as them; a _Rows,
    such as a lattice's T, QVectors over Z_(p) and canonical QtVectors over
    O_v, is kept as it is.  A lattice oracle (S valuation-like) has
    one group, the dim triangular rows T over S, and lattice_basis, the
    columns of T^-1 (one `invert` on both fields): x's coordinates in that
    basis are the values of T at x (lattice_rows, lattice_coords).
    contained_basis certifies RF = A; a lattice oracle sets it to its
    lattice basis.  Membership asks each group's domain (`BaseDomain.admits`),
    which reads the row values' denominators or valuations, never the values:
    over Q one read of the whole group, over Q(t) one a row.
    """

    algebra: object
    domain: BaseDomain
    provenance: str
    constraints: tuple
    lattice_basis: tuple | None = None
    contained_basis: tuple | None = None
    certificate: StableBasisCertificate | None = None

    def __post_init__(self):
        if self.lattice_basis is not None and not (
                len(self.constraints) == 1 and self.constraints[0][0] == self.domain
                and len(self.constraints[0][1]) == self.algebra.dim):
            raise ConfigError("a lattice oracle needs one constraint group of dim rows over its domain")
        fieldobj = self.algebra.field
        object.__setattr__(self, "constraints", tuple(
            (dom, _Rows(fieldobj, rows)) for dom, rows in self.constraints))

    @cached_property
    def _basis_rows(self) -> _Rows | None:
        """The contained basis as the columns of rows (None without one),
        made for the first member drawn."""
        return column_rows(self.algebra, self.contained_basis) if self.contained_basis else None

    @property
    def lattice_rows(self) -> tuple | None:
        """T, whose values at x are x's lattice coordinates; None off a lattice."""
        return None if self.lattice_basis is None else self.constraints[0][1]

    def contains(self, x) -> bool:
        return all(dom.admits(rows, x) for dom, rows in self.constraints)

    def lattice_coords(self, x) -> tuple:
        return tuple(self._lattice_rows().values(x))

    def lattice_valuations(self, x):
        """x's lattice coordinates as the domain reads them (`BaseDomain.reads`):
        over Q(t) their valuations, None for 0; over Q their least one."""
        return self.domain.reads(self._lattice_rows(), x)

    def basis_combination(self, coeffs):
        """sum c_i * b_i over the contained basis, as one row evaluation
        (`_Rows.element`)."""
        if self._basis_rows is None:
            raise StructuralError("oracle carries no basis to sample members from")
        return self._basis_rows.element(coeffs)

    def _lattice_rows(self) -> _Rows:
        if self.lattice_basis is None:
            raise ConfigError("oracle has no lattice representation")
        return self.constraints[0][1]


def oracle_to_json(oracle: "SubringOracle") -> dict:
    """Provenance, domain and (when present) the lattice basis matrix."""
    from .basedomain import domain_to_descriptor
    ser = oracle.algebra.field.scalar_to_json
    out = {"provenance": oracle.provenance,
           "domain": domain_to_descriptor(oracle.domain)}
    if oracle.lattice_basis is not None:
        out["lattice_basis"] = [[ser(c) for c in b] for b in oracle.lattice_basis]
    if oracle.contained_basis is not None:
        out["contained_basis"] = [[ser(c) for c in b] for b in oracle.contained_basis]
    return out


@dataclass(frozen=True, eq=False)
class PolySubring:
    """The S-coefficient polynomials inside F[y]."""

    algebra: PolynomialAlgebra
    domain: BaseDomain
    provenance: str = "poly-left-order"
    # No triangular system: verify_nice samples its lying-over check.
    lattice_rows = None

    def contains(self, f: dict) -> bool:
        return all(self.domain.contains(c) for c in f.values())

    def lattice_coords(self, f: dict) -> tuple:
        """f's coordinates in the monomial basis: its coefficients."""
        return tuple(f.values())

    def lattice_valuations(self, f: dict):
        """The valuations of f's coefficients."""
        return map(self.domain.field.value, f.values())


def _lattice(alg: StructureAlgebra, domain: BaseDomain, rows, provenance: str,
             certificate: StableBasisCertificate | None) -> SubringOracle:
    """The lattice oracle of { x : every row lands in S }.

    Min-valuation pivots make every elimination multiplier lie in S, so the
    pivot rows T span the same S-module as the rows and become the oracle's
    one row set.  Over Q, T is the Hermite form of that module, from
    `algebra._padic_pivots`, kept as the QVectors it was built as; over
    Q(t), T is the pivot rows of one `_bareiss` (`_ov_pivots`).  The lattice
    basis, the columns of T^-1, is the rows of one `invert` of T's rows,
    over Q(t) each made canonical once, as members and audits multiply by
    it.  The basis is checked against the full rows (a certificate's own
    `_Rows`); `left_order` also checks that 1 and the stabilizer lie in the
    lattice.  None when the rows lack full column rank, as an ideal
    variant's always do; a left order's never do, since x = sum
    u_j*(x*b_j) for the unit 1 = sum u_j*b_j.
    """
    rows, n = _Rows(alg.field, rows), alg.dim
    t_rows = (_padic_pivots if alg._q else _ov_pivots)(rows.stored, n, domain.valued_field.p)
    if t_rows is None:
        return None
    t_rows = _Rows(alg.field, t_rows)
    basis = tuple(b if alg._q else b._settle() for b in invert(alg.field, t_rows.stored).stored)
    if not all(domain.admits(rows, b) for b in basis):
        raise StructuralError("lattice basis disagrees with the predicate")
    return SubringOracle(
        algebra=alg, domain=domain, provenance=provenance, constraints=((domain, t_rows),),
        lattice_basis=basis, contained_basis=basis, certificate=certificate,
    )


def left_order(M: LatticeModule, certificate: StableBasisCertificate | None = None):
    """R = { x : xM subset M } as a membership oracle.

    Finite-dimensional case: the rows are the product rows of the given
    certificate of M's basis, else of its clearing one, which R carries.
    Over a valuation ring they are reduced to the lattice oracle (see
    _lattice), which must hold 1 and the certificate's stabilizer; over Z
    the stabilizer is the contained basis.
    The polynomial backend returns the S-coefficient polynomial subring.
    """
    alg, domain = M.algebra, M.domain
    if isinstance(alg, PolynomialAlgebra):
        return PolySubring(alg, domain)
    cert = certificate or stabilizer_finite(alg, M.basis, domain)
    if (cert.algebra, cert.domain, tuple(cert.basis)) != (alg, domain, tuple(M.basis)):
        raise ConfigError("certificate is for another lattice")
    if domain.is_valuation_like:
        oracle = _lattice(alg, domain, cert.rows, "left-order", cert)
        if not all(map(oracle.contains, (alg.unit, *cert.stabilizer))):
            raise StructuralError("1 or the stabilizer lies outside the left order")
        return oracle
    return SubringOracle(
        algebra=alg, domain=domain, provenance="left-order",
        constraints=((domain, cert.rows),),
        contained_basis=cert.stabilizer, certificate=cert,
    )


def nice_from_certificate(cert: StableBasisCertificate) -> SubringOracle:
    """Left order of the certificate's lattice, carrying the certificate."""
    M = LatticeModule(cert.algebra, cert.domain, cert.basis)
    return left_order(M, certificate=cert)


# --- verification ----------------------------------------------------------


@dataclass(frozen=True)
class NiceCheck:
    name: str
    method: str  # "exact" | "sampled"
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class NiceReport:
    provenance: str
    spec_text: str
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __str__(self):
        lines = [f"nice-subalgebra audit [{self.provenance}] samples: {self.spec_text}"]
        for c in self.checks:
            status = "PASS" if c.ok else "FAIL"
            detail = f" -- {c.detail}" if c.detail else ""
            lines.append(f"  {status} {c.name} ({c.method}){detail}")
        return "\n".join(lines)


def verify_nice(oracle, spec: SampleSpec) -> NiceReport:
    """Audit R for S-niceness: ring closure and S*1 (sampled), RF = A by a
    basis exhibited inside R (exact; the monomials for F[y]), lying over S
    (exact via the lattice scalar test when available, sampled otherwise).
    A SubringOracle and a PolySubring go through the same checks."""
    check_sample_count(spec)
    alg, domain = oracle.algebra, oracle.domain
    field = alg.field
    rng = spec.rng()
    checks = []

    # S*1 inside R, including the designated non-invertible element.
    failures = []
    if not oracle.contains(alg.unit):
        failures.append("1")
    if not oracle.contains(alg.smul(domain.noninvertible(), alg.unit)):
        failures.append("s0*1")
    for _ in range(spec.count):
        s = sample_in_domain(rng, spec, domain)
        if not oracle.contains(alg.smul(s, alg.unit)):
            failures.append(f"{field.scalar_text(s)}*1")
            break
    checks.append(NiceCheck("contains S*1", "sampled", not failures,
                            f"witness {failures[0]}" if failures else ""))

    # Ring closure on sampled members.
    closure_fail = ""
    try:
        for _ in range(spec.count):
            x = sample_member(rng, spec, oracle)
            y = sample_member(rng, spec, oracle)
            if not oracle.contains(alg.add(x, y)):
                closure_fail = f"x+y with x={alg.format_element(x)} y={alg.format_element(y)}"
                break
            if not oracle.contains(alg.mul(x, y)):
                closure_fail = f"x*y with x={alg.format_element(x)} y={alg.format_element(y)}"
                break
        checks.append(NiceCheck("closed under + and *", "sampled", not closure_fail, closure_fail))
    except StructuralError as exc:
        checks.append(NiceCheck("closed under + and *", "sampled", False, str(exc)))

    # RF = A: a basis of A inside R, checked exactly.
    if isinstance(oracle, PolySubring):
        checks.append(NiceCheck("RF = A (monomials inside R)", "exact",
                                all(oracle.contains(alg.monomial(n)) for n in range(8))))
    elif (basis := oracle.contained_basis) is None:
        checks.append(NiceCheck("RF = A (basis inside R)", "exact", False,
                                "no contained basis available"))
    else:
        ok = (len(basis) == alg.dim and is_independent(field, basis)
              and all(oracle.contains(b) for b in basis))
        checks.append(NiceCheck("RF = A (basis inside R)", "exact", ok,
                                "" if ok else "exhibited set is not a basis inside R"))

    # Lying over: R cap F subset S.
    if oracle.lattice_rows is not None:
        m = min(v for v in oracle.lattice_valuations(alg.unit) if v is not None)
        zero = (0,) * len(m)
        if m == zero:
            checks.append(NiceCheck("R cap F = S", "exact", True,
                                    "scalar test: alpha*1 in R iff v(alpha) >= 0"))
        elif m > zero:
            # alpha*1 in R iff v(alpha) >= -m, so v = -m slips below S
            alpha = domain.valued_field.element_with_value(tuple(-c for c in m))
            checks.append(NiceCheck("R cap F = S", "exact", False,
                                    f"witness alpha = {field.scalar_text(alpha)}"))
        else:
            checks.append(NiceCheck("R cap F = S", "exact", False,
                                    "unit expansion leaves S (1 is not in the lattice)"))
    else:
        witness = ""
        for _ in range(spec.count):
            alpha = sample_scalar(rng, spec, field)
            if oracle.contains(alg.smul(alpha, alg.unit)) and not domain.contains(alpha):
                witness = f"witness alpha = {field.scalar_text(alpha)}"
                break
        checks.append(NiceCheck("R cap F = S", "sampled", not witness, witness))

    return NiceReport(oracle.provenance, spec.describe(), tuple(checks))


# --- ideal-containing variant ----------------------------------------------


@dataclass(frozen=True, eq=False)
class IdealSpec:
    """Basis of a proper two-sided ideal (`nice_with_ideal` checks it is one)."""

    algebra: StructureAlgebra
    basis: tuple

    def validate(self) -> tuple:
        """Check it is nonzero, proper and independent; extend it by ambient e_i."""
        alg = self.algebra
        if not self.basis or len(self.basis) >= alg.dim:
            raise DomainError("ideal must be proper and nonzero")
        if not is_independent(alg.field, self.basis):
            raise StructuralError("ideal basis is dependent")
        return tuple(extend_to_basis(alg, list(self.basis)))


def nice_with_ideal(ideal: IdealSpec, domain: BaseDomain) -> SubringOracle:
    """R = { x : xN subset N } for N = I + sum_{b in B \\ B1} S*b.

    The ideal is checked on the certificate's product rows (b_j, k), with
    m = |B1|.  Entry i of row (b_j, k) is coordinate k of e_i*b_j, so I is
    a left ideal when the rows with j < m <= k are zero.  Then x*I stays in
    I, membership only constrains the rows with j, k >= m, and I is a
    right ideal when they vanish on B1 (b_j = e_i for j >= m): I is in R.
    """
    alg, basis = ideal.algebra, ideal.validate()
    cert = stabilizer_finite(alg, basis, domain)
    m, n = len(ideal.basis), alg.dim
    left = [r for r in cert.rows.subset([j * n + k for j in range(m) for k in range(m, n)])
            if not alg.is_zero(r)]
    if left:
        i = next(i for i, c in enumerate(left[0]) if c)
        raise DomainError(f"not a left ideal: e{i} * b escapes the span")
    rows = cert.rows.subset([j * n + k for j in range(m, n) for k in range(m, n)])
    oracle = SubringOracle(algebra=alg, domain=domain, provenance="ideal-variant",
                           constraints=((domain, rows),), contained_basis=cert.stabilizer)
    right = [r for b in ideal.basis for r, v in enumerate(rows.values(b)) if v]
    if right:
        i = list(basis[m + right[0] // (n - m)]).index(alg.field.one)
        raise DomainError(f"not a right ideal: b * e{i} escapes the span")
    if not all(map(oracle.contains, cert.stabilizer)):
        raise StructuralError("stabilizer element fails ideal-variant membership")
    return oracle


# --- intersections, going down, chains ---------------------------------------


def _scale_into_all(oracles, element, domain: BaseDomain):
    """s * element lying in every oracle, s the domain's clearing of the
    element's row values in every group, read off `domain.reads`."""
    s = domain._clearing(r for o in oracles for _, rows in o.constraints
                         for r in domain.reads(rows, element))
    scaled = oracles[0].algebra.smul(s, element)
    if not all(o.contains(scaled) for o in oracles):
        raise StructuralError("could not scale a basis element into the intersection")
    return scaled


def intersect_oracles(oracles, domain: BaseDomain | None = None,
                      provenance: str | None = None,
                      certificate: StableBasisCertificate | None = None) -> SubringOracle:
    """Conjunction of finitely many subring oracles.

    When every constraint group lives over the valuation ring of one
    valuation (Z_(p) is O_v(Q, p)) and the groups' stored rows, stacked,
    have full rank, the lattice oracle of the intersection is recomputed
    from them; otherwise only the predicate (and a rescaled contained
    basis, when obtainable) survives.
    """
    oracles = list(oracles)
    if not oracles:
        raise DomainError("intersection of an empty family")
    alg = oracles[0].algebra
    for o in oracles[1:]:
        if o.algebra is not alg:
            raise ConfigError("oracles live over different algebras")
    domain = domain or oracles[0].domain
    domain.check_field(alg.field)
    provenance = provenance or ("intersection(" + ", ".join(o.provenance for o in oracles) + ")")
    groups = tuple(g for o in oracles for g in o.constraints)
    if domain.is_valuation_like and all(g[0].valued_field == domain.valued_field for g in groups):
        stacked = _Rows._make([r for _, rows in groups for r in rows.stored], alg.field.kind == "Q")
        if (oracle := _lattice(alg, domain, stacked, provenance, certificate)) is not None:
            return oracle
    seed = next((o.contained_basis for o in oracles if o.contained_basis), None)
    return SubringOracle(
        algebra=alg, domain=domain, provenance=provenance, constraints=groups,
        contained_basis=(tuple(_scale_into_all(oracles, b, domain) for b in seed)
                         if seed is not None else None),
        certificate=certificate,
    )


def going_down(r2: SubringOracle, s1: BaseDomain, basis) -> SubringOracle:
    """An S1-nice subalgebra inside R2, for S1 inside R2's domain: the
    intersection of R2 with the left order of the S1-lattice on the given
    (S1-stable) basis."""
    if not is_subdomain(s1, r2.domain):
        raise DomainError(f"{s1.describe()} is not contained in {r2.domain.describe()}")
    if not r2.domain.contains(s1.noninvertible()):
        raise DomainError("designated generator of S1 escapes S2")
    cert = stabilizer_finite(r2.algebra, tuple(basis), s1)
    r1 = nice_from_certificate(cert)
    return intersect_oracles([r1, r2], domain=s1,
                             provenance=f"going-down({s1.describe()} in {r2.domain.describe()})",
                             certificate=cert)


@dataclass(frozen=True)
class ChainStep:
    witness: tuple
    inserted: tuple
    oracle: SubringOracle


@dataclass(frozen=True)
class DescendChain:
    oracles: tuple
    steps: tuple


def descend_chain(start: SubringOracle, k: int) -> DescendChain:
    """k strictly descending S-nice terms below `start`.

    Per step: y is the first stabilizer element of the running certificate
    outside F*1, s0 the designated non-invertible element; a stable basis
    containing {1, s0*y} is produced by insertion (earlier insertions
    protected), and the next term intersects the current one with the left
    order of its lattice.  y itself witnesses strict descent: its expansion
    over the new basis has coordinate 1/s0 on s0*y.
    """
    if k < 1:
        raise DomainError("chain needs k >= 1")
    if start.certificate is None:
        raise DomainError("descend_chain needs an oracle built from a certificate")
    alg, domain = start.algebra, start.domain
    current, cert = start, start.certificate
    oracles = [start]
    steps = []
    for step in range(1, k + 1):
        y = next((c for c in cert.stabilizer if alg.scalar_of(c) is None), None)
        if y is None:
            raise DomainError("no stabilizer element outside F*1 (is A = F?)")
        if not current.contains(y):
            raise StructuralError("chain invariant broken: y escaped the current term")
        s0 = domain.noninvertible()
        s0y = alg.smul(s0, y)
        cert = insert_many(cert, [alg.unit, s0y])
        inner = nice_from_certificate(cert)
        nxt = intersect_oracles([current, inner],
                                provenance=f"descend-step-{step}",
                                certificate=cert)
        if inner.contains(y) or nxt.contains(y):
            raise StructuralError("descent witness failed to leave the next term")
        steps.append(ChainStep(witness=y, inserted=s0y, oracle=nxt))
        oracles.append(nxt)
        current = nxt
    return DescendChain(tuple(oracles), tuple(steps))


@dataclass(frozen=True)
class MatrixChain:
    algebra: StructureAlgebra
    generators: tuple
    oracles: tuple
    witnesses: tuple  # per consecutive pair: g_{k+1} * e_{1,n}


def matrix_nice_chain(fieldobj, domain: BaseDomain, ideal_gens, n: int) -> MatrixChain:
    """Ascending chain of C-nice subalgebras of M_n(F): entries of rows
    1..n-1 in the last column confined to the principal ideal (g_k), all
    other entries in C.  Ideals must ascend strictly: g_{k+1} properly
    divides g_k.  Term g is the left order of M_g, the matrix units with
    g*e_in in place of e_in for i < n: M_g holds 1 and is closed under *,
    so that left order, and the stabilizer of M_g, is M_g itself."""
    if n < 2:
        raise DomainError("matrix chain needs n >= 2")
    gens = [fieldobj.scalar(g) for g in ideal_gens]
    if not gens:
        raise DomainError("need at least one ideal generator")
    for g in gens:
        if not g or not domain.contains(g):
            raise DomainError("ideal generators must be nonzero elements of the domain")
    for g, h in zip(gens, gens[1:]):
        if not (domain.contains(g / h) and not domain.contains(h / g)):
            raise DomainError(f"ideals must ascend strictly: ({fieldobj.scalar_text(g)}) "
                              f"is not properly inside ({fieldobj.scalar_text(h)})")
    alg = matrix_algebra(fieldobj, n)
    last_column = {i * n + n - 1 for i in range(n - 1)}
    oracles = []
    for g in gens:
        M_g = tuple(alg.smul(g, alg.basis_vector(a)) if a in last_column else alg.basis_vector(a)
                    for a in range(alg.dim))
        oracles.append(dataclasses.replace(
            nice_from_certificate(stabilizer_finite(alg, M_g, domain)),
            provenance=f"matrix-chain(I=({fieldobj.scalar_text(g)}))"))
    witnesses = []
    for (g, h), (o1, o2) in zip(zip(gens, gens[1:]), zip(oracles, oracles[1:])):
        w = alg.smul(h, alg.basis_vector(n - 1))  # h * e_{1,n}
        if o1.contains(w) or not o2.contains(w):
            raise StructuralError("matrix-chain strictness witness failed")
        witnesses.append(w)
    return MatrixChain(alg, tuple(gens), tuple(oracles), tuple(witnesses))
