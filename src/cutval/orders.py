"""Lattices, their left orders, and nice-subalgebra constructions.

A lattice M = sum_b S*b is given by a basis; its left order is
R = { x : xM subset M }, realized as a conjunction of linear constraints
"functional of x lands in S" (one functional per coordinate of each
product x*b).  Over a valuation-like S (Z_(p) or O_v) the constraint rows
are reduced by min-valuation-pivot elimination to a triangular system T,
and R is the free S-lattice with basis the columns of T^-1; predicate and
lattice agree and tests check it.  Over Z only the predicate is kept
(R need not be a free Z-module in any preferred basis).

The same constraint-group machinery hosts the ideal-containing variant,
going-down, finite intersections, the strictly descending chains built
from basis insertion, and the ascending matrix-algebra chain.

Every membership test, lattice coordinate and evaluator coordinate is the
value of a fixed linear row at a point x.  Over Q each row is cleared once,
when its oracle or evaluator is built, to integers a_1..a_n over
d = lcm of its denominators; each call clears x the same way to b_1..b_n
over e, and each row value is then Fraction(sum a_i*b_i, d*e): integer
multiplies and one normalizing gcd instead of a Fraction multiply and add
(each with its own gcd) per entry.  The values are the same exact
rationals.  Rows over Q(t) are summed term by term.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .algebra import (PolynomialAlgebra, StructureAlgebra, extend_to_basis,
                      in_span, is_independent, matrix_algebra, solve_columns)
from .basedomain import BaseDomain, is_subdomain
from .errors import ConfigError, DomainError, StructuralError
from .samplers import (sample_in_domain, sample_member, sample_scalar)
from .sampling import SampleSpec, check_sample_count
from .stability import StableBasisCertificate, insert_many, stabilizer_finite


def _dot(row, x):
    it = iter(zip(row, x))
    r0, x0 = next(it)
    acc = r0 * x0
    for r, c in it:
        if r and c:
            acc = acc + r * c
    return acc


class _Rows:
    """Fixed linear rows over the field `fieldobj`, evaluated at points x.

    Over Q every row is stored cleared to integers: (a_1..a_n, d) with
    row = (a_1..a_n) / d.  Rows over Q(t) are kept as they are.
    """

    __slots__ = ("rows", "cleared")

    def __init__(self, fieldobj, rows):
        self.rows = rows
        self.cleared = (tuple(_clear(row) for row in rows)
                        if fieldobj.kind == "Q" else None)

    def values(self, x):
        """The row values at x, in row order, computed as they are consumed."""
        if self.cleared is None:
            return (_dot(row, x) for row in self.rows)
        b, e = _clear(x)
        return (Fraction(sum(map(mul, a, b)), d * e) for a, d in self.cleared)


def _clear(v):
    """(integers, d) with v = integers / d and d the lcm of v's denominators."""
    d = lcm(*(c.denominator for c in v))
    return [c.numerator * (d // c.denominator) for c in v], d


@dataclass(frozen=True, eq=False)
class LatticeModule:
    """M = sum_b S*b; basis None marks the monomial lattice of F[y]."""

    algebra: object
    domain: BaseDomain
    basis: tuple | None

    def __post_init__(self):
        if isinstance(self.algebra, PolynomialAlgebra):
            if self.basis is not None:
                raise ConfigError("polynomial backend uses the monomial lattice")
        else:
            if self.basis is None:
                raise ConfigError("finite-dimensional lattice needs a basis")
            if self.algebra.field.kind != self.domain.fraction_field_kind:
                raise ConfigError("domain fraction field differs from the algebra's field")
            if not is_independent(self.algebra.field, self.basis):
                raise StructuralError("lattice basis is dependent")


def lattice_membership(M: LatticeModule, x) -> bool:
    if isinstance(M.algebra, PolynomialAlgebra):
        return all(M.domain.contains(c) for c in x.values())
    if len(x) != M.algebra.dim:
        raise ConfigError("element does not belong to the lattice's algebra")
    coords = solve_columns(M.algebra.field, list(M.basis), x)
    return all(M.domain.contains(c) for c in coords)


@dataclass(frozen=True, eq=False)
class SubringOracle:
    """Membership oracle for an S-subring of A.

    constraints: groups (domain, rows); x is a member when every row of
    every group lands in that group's domain.  lattice_basis/lattice_rows
    are the free-module representation when S is valuation-like (x's
    coordinates in the lattice basis are lattice_rows @ x).
    contained_basis certifies RF = A.
    """

    algebra: object
    domain: BaseDomain
    provenance: str
    constraints: tuple
    lattice_basis: tuple | None = None
    lattice_rows: tuple | None = None
    contained_basis: tuple | None = None
    certificate: StableBasisCertificate | None = None
    # The rows above in evaluable form (see _Rows), built once per oracle.
    _constraint_rows: tuple = dataclasses.field(init=False, repr=False, compare=False)
    _lattice_rows: _Rows | None = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fieldobj = self.algebra.field
        object.__setattr__(self, "_constraint_rows", tuple(
            (dom, _Rows(fieldobj, rows)) for dom, rows in self.constraints))
        object.__setattr__(self, "_lattice_rows", None if self.lattice_rows is None
                           else _Rows(fieldobj, self.lattice_rows))

    def contains(self, x) -> bool:
        if len(x) != self.algebra.dim:
            raise ConfigError("element does not belong to the oracle's algebra")
        return all(dom.contains(c) for dom, rows in self._constraint_rows
                   for c in rows.values(x))

    def lattice_coords(self, x) -> tuple:
        if self._lattice_rows is None:
            raise ConfigError("oracle has no lattice representation")
        return tuple(self._lattice_rows.values(x))


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

    def contains(self, f: dict) -> bool:
        return all(self.domain.contains(c) for c in f.values())


def _invert(fieldobj, rows):
    """Exact inverse of a square matrix given as a list of rows."""
    n = len(rows)
    aug = [list(r) + [fieldobj.one if i == j else fieldobj.zero for j in range(n)]
           for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise StructuralError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [a / pv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _min_valuation_eliminate(domain: BaseDomain, rows, n: int):
    """Triangular S-basis of the S-module generated by the rows.

    Pivot rule: among remaining rows with a nonzero entry in the current
    column, minimal valuation of that entry, ties to the lowest row index.
    Every elimination coefficient then lies in S, so the S-span is
    preserved; full column rank is required.
    """
    pool = [list(r) for r in rows]
    pivots = []
    for col in range(n):
        best = None
        best_val = None
        for idx, row in enumerate(pool):
            if not row[col]:
                continue
            v = domain.value(row[col])
            if best is None or v < best_val:
                best, best_val = idx, v
        if best is None:
            raise StructuralError("constraint rows do not have full rank")
        pivot = pool.pop(best)
        pv = pivot[col]
        for row in pool:
            if row[col]:
                f = row[col] / pv
                for i in range(n):
                    row[i] = row[i] - f * pivot[i]
        pivots.append(pivot)
    for row in pool:
        if any(row):
            raise StructuralError("elimination left a nonzero residual row")
    return [tuple(r) for r in pivots]


def left_order(M: LatticeModule, stabilizer=None,
               certificate: StableBasisCertificate | None = None):
    """R = { x : xM subset M } as a membership oracle.

    Finite-dimensional case: M's basis must be a full basis of A; the
    constraint rows are the coordinates of x*b over that basis.  When S is
    valuation-like the free-lattice representation is computed as well.
    The polynomial backend returns the S-coefficient polynomial subring.
    """
    alg, domain = M.algebra, M.domain
    if isinstance(alg, PolynomialAlgebra):
        return PolySubring(alg, domain)
    n = alg.dim
    if len(M.basis) != n:
        raise StructuralError("left order needs a full basis of A")
    binv = _Rows(alg.field, _invert(alg.field, [[M.basis[i][r] for i in range(n)]
                                                 for r in range(n)]))
    rows = []
    for b in M.basis:
        # column i of the map x -> coords of x*b is coords(e_i * b)
        cols = [list(binv.values(alg.mul(alg.basis_vector(i), b))) for i in range(n)]
        for r in range(n):
            rows.append(tuple(cols[i][r] for i in range(n)))
    lattice_basis = lattice_rows = None
    if domain.is_valuation_like:
        t_rows = _min_valuation_eliminate(domain, rows, n)
        tinv = _invert(alg.field, [list(r) for r in t_rows])
        lattice_basis = tuple(tuple(tinv[r][i] for r in range(n)) for i in range(n))
        lattice_rows = tuple(t_rows)
    oracle = SubringOracle(
        algebra=alg, domain=domain, provenance="left-order",
        constraints=((domain, tuple(rows)),),
        lattice_basis=lattice_basis, lattice_rows=lattice_rows,
        contained_basis=lattice_basis or (tuple(stabilizer) if stabilizer else None),
        certificate=certificate,
    )
    if lattice_basis is not None:
        for e in lattice_basis:
            if not oracle.contains(e):
                raise StructuralError("lattice basis disagrees with the predicate")
    if oracle.contained_basis and oracle.lattice_basis is None:
        for e in oracle.contained_basis:
            if not oracle.contains(e):
                raise StructuralError("stabilizer element fails left-order membership")
    return oracle


def nice_from_certificate(cert: StableBasisCertificate) -> SubringOracle:
    """Left order of the certificate's lattice, carrying the certificate."""
    M = LatticeModule(cert.algebra, cert.domain, cert.basis)
    return left_order(M, stabilizer=cert.stabilizer, certificate=cert)


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
    basis exhibited inside R (exact), lying over S (exact via the lattice
    scalar test when available, sampled otherwise)."""
    check_sample_count(spec)
    if isinstance(oracle, PolySubring):
        return _verify_nice_poly(oracle, spec)
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
    basis = oracle.lattice_basis or oracle.contained_basis
    if basis is None:
        checks.append(NiceCheck("RF = A (basis inside R)", "exact", False,
                                "no contained basis available"))
    else:
        ok = (len(basis) == alg.dim and is_independent(field, basis)
              and all(oracle.contains(b) for b in basis))
        checks.append(NiceCheck("RF = A (basis inside R)", "exact", ok,
                                "" if ok else "exhibited set is not a basis inside R"))

    # Lying over: R cap F subset S.
    if oracle.lattice_rows is not None:
        u = oracle.lattice_coords(alg.unit)
        vals = [domain.value(c) for c in u if c]
        m = min(vals)
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


def _verify_nice_poly(oracle: PolySubring, spec: SampleSpec) -> NiceReport:
    alg, domain = oracle.algebra, oracle.domain
    rng = spec.rng()
    checks = []
    ok = oracle.contains(alg.unit) and oracle.contains(
        alg.smul(domain.noninvertible(), alg.unit))
    checks.append(NiceCheck("contains S*1", "exact", ok))
    closure_fail = ""
    for _ in range(spec.count):
        x = sample_member(rng, spec, oracle)
        y = sample_member(rng, spec, oracle)
        if not (oracle.contains(alg.add(x, y)) and oracle.contains(alg.mul(x, y))):
            closure_fail = "closure violated"
            break
    checks.append(NiceCheck("closed under + and *", "sampled", not closure_fail, closure_fail))
    checks.append(NiceCheck("RF = A (monomials inside R)", "exact",
                            all(oracle.contains(alg.monomial(n)) for n in range(8))))
    # alpha*1 is the constant polynomial alpha: membership iff alpha in S.
    checks.append(NiceCheck("R cap F = S", "exact", True,
                            "constant polynomials: membership iff the constant is in S"))
    return NiceReport(oracle.provenance, spec.describe(), tuple(checks))


# --- ideal-containing variant ----------------------------------------------


@dataclass(frozen=True, eq=False)
class IdealSpec:
    """Basis of a proper two-sided ideal of a finite-dimensional algebra."""

    algebra: StructureAlgebra
    basis: tuple

    def validate(self) -> None:
        alg = self.algebra
        if not self.basis or len(self.basis) >= alg.dim:
            raise DomainError("ideal must be proper and nonzero")
        if not is_independent(alg.field, self.basis):
            raise StructuralError("ideal basis is dependent")
        for i in range(alg.dim):
            e = alg.basis_vector(i)
            for b in self.basis:
                if not in_span(alg, alg.mul(e, b), self.basis):
                    raise DomainError(f"not a left ideal: e{i} * b escapes the span")
                if not in_span(alg, alg.mul(b, e), self.basis):
                    raise DomainError(f"not a right ideal: b * e{i} escapes the span")


def nice_with_ideal(ideal: IdealSpec, domain: BaseDomain) -> SubringOracle:
    """R = { x : xN subset N } for N = I + sum_{b in B \\ B1} S*b.

    x*I stays in I for any x, so membership only constrains the
    B-minus-B1 coordinates of the products x*b for b outside the ideal.
    """
    ideal.validate()
    alg = ideal.algebra
    if alg.field.kind != domain.fraction_field_kind:
        raise ConfigError("domain fraction field differs from the algebra's field")
    basis = extend_to_basis(alg, list(ideal.basis))
    t = len(ideal.basis)
    n = alg.dim
    binv = _Rows(alg.field, _invert(alg.field, [[basis[i][r] for i in range(n)]
                                                 for r in range(n)]))
    rows = []
    for b in basis[t:]:
        cols = [list(binv.values(alg.mul(alg.basis_vector(i), b))) for i in range(n)]
        for r in range(t, n):
            rows.append(tuple(cols[i][r] for i in range(n)))
    cert = stabilizer_finite(alg, tuple(basis), domain)
    oracle = SubringOracle(
        algebra=alg, domain=domain, provenance="ideal-variant",
        constraints=((domain, tuple(rows)),),
        contained_basis=cert.stabilizer,
    )
    for c in cert.stabilizer:
        if not oracle.contains(c):
            raise StructuralError("stabilizer element fails ideal-variant membership")
    for b in ideal.basis:
        if not oracle.contains(b):
            raise StructuralError("ideal element fails ideal-variant membership")
    return oracle


# --- intersections, going down, chains ---------------------------------------


def _scale_into_all(oracles, element, domain: BaseDomain, tries: int = 64):
    """s * element lying in every oracle, for s a power of the designated
    non-invertible element of the target domain."""
    s0 = domain.noninvertible()
    s = domain.one
    for _ in range(tries):
        scaled = oracles[0].algebra.smul(s, element)
        if all(o.contains(scaled) for o in oracles):
            return scaled
        s = s * s0
    raise StructuralError("could not scale a basis element into the intersection")


def intersect_oracles(oracles, domain: BaseDomain | None = None,
                      provenance: str | None = None,
                      certificate: StableBasisCertificate | None = None) -> SubringOracle:
    """Conjunction of finitely many subring oracles.

    When every constraint group lives over the same valuation-like domain
    the free-lattice representation of the intersection is recomputed from
    the stacked rows; otherwise only the predicate (and a rescaled
    contained basis, when obtainable) survives.
    """
    oracles = list(oracles)
    if not oracles:
        raise DomainError("intersection of an empty family")
    alg = oracles[0].algebra
    for o in oracles[1:]:
        if o.algebra is not alg:
            raise ConfigError("oracles live over different algebras")
    domain = domain or oracles[0].domain
    groups = tuple(g for o in oracles for g in o.constraints)
    lattice_basis = lattice_rows = None
    if (domain.is_valuation_like
            and all(g[0] == domain for g in groups)):
        rows = [r for _, rws in groups for r in rws]
        t_rows = _min_valuation_eliminate(domain, rows, alg.dim)
        tinv = _invert(alg.field, [list(r) for r in t_rows])
        lattice_basis = tuple(tuple(tinv[r][i] for r in range(alg.dim)) for i in range(alg.dim))
        lattice_rows = tuple(t_rows)
    if lattice_basis is not None:
        contained = lattice_basis
    else:
        seed = next((o.lattice_basis or o.contained_basis for o in oracles
                     if o.lattice_basis or o.contained_basis), None)
        contained = (tuple(_scale_into_all(oracles, b, domain) for b in seed)
                     if seed is not None else None)
    return SubringOracle(
        algebra=alg, domain=domain,
        provenance=provenance or ("intersection(" + ", ".join(o.provenance for o in oracles) + ")"),
        constraints=groups,
        lattice_basis=lattice_basis, lattice_rows=lattice_rows,
        contained_basis=contained, certificate=certificate,
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
    divides g_k."""
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
    z, o = fieldobj.zero, fieldobj.one
    oracles = []
    for g in gens:
        rows = []
        contained = []
        for a in range(alg.dim):
            i, j = divmod(a, n)
            scale = (o / g) if (j == n - 1 and i < n - 1) else o
            rows.append(tuple(scale if b == a else z for b in range(alg.dim)))
            contained.append(alg.smul(g if (j == n - 1 and i < n - 1) else o,
                                      alg.basis_vector(a)))
        oracles.append(SubringOracle(
            algebra=alg, domain=domain,
            provenance=f"matrix-chain(I=({fieldobj.scalar_text(g)}))",
            constraints=((domain, tuple(rows)),),
            contained_basis=tuple(contained),
        ))
    witnesses = []
    for (g, h), (o1, o2) in zip(zip(gens, gens[1:]), zip(oracles, oracles[1:])):
        w = alg.smul(h, alg.basis_vector(n - 1))  # h * e_{1,n}
        if o1.contains(w) or not o2.contains(w):
            raise StructuralError("matrix-chain strictness witness failed")
        witnesses.append(w)
    return MatrixChain(alg, tuple(gens), tuple(oracles), tuple(witnesses))
