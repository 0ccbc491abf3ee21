"""Filter quasi-valuations of lattice orders, with audits.

For a lattice order R with basis {r_1..r_n} over the valuation ring O_v,
the support of x in R is { a in O_v : xR subset aR }; writing x*r_j in the
basis {r}, a clears every coordinate exactly when v(a) <= mu(x), the
minimum coordinate valuation.  The corresponding initial subset of the
value group is { g <= mu(x) }, so the evaluator is

    W(x) = phi(mu(x))   for x != 0,      W(0) = INF.

Because R is finitely generated the minimum is attained and the value is
always a principal cut; non-principal cuts arise from the cut monoid
itself and from chain intersections of values, not from these evaluators.
Evaluation is extended from R to all of A = RF through the same formula:
scaling x by c multiplies every coordinate by c, so mu(cx) = v(c) + mu(x),
which is exactly the scalar law the localization construction needs.  The
audit cross-checks this against the explicit clearing path
W(x) = W(s*x) - v(s) on every sample.

Caveat recorded: for a general O_v-algebra w(1) need not be zero, and then
w(c*1) = v(c) + w(1) differs from v(c); for the unital lattice orders
built here w(1) = phi(0) always (1's coordinates in its own order's basis
include a unit), and the audit asserts it.

The polynomial backend's evaluator is the min-coefficient (Gauss)
valuation, the same formula over the monomial basis.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .algebra import PolynomialAlgebra
from .basedomain import BaseDomain
from .cuts import (INF, Value, embed_phi, format_value, value_add,
                   value_compare, value_min, value_translate, zero_cut)
from .errors import ConfigError, DomainError
from .orders import PolySubring, SubringOracle, _Rows
from .samplers import (sample_algebra_element, sample_in_domain,
                       sample_member, sample_poly_element, sample_scalar)
from .sampling import SampleSpec, check_sample_count


@dataclass(frozen=True)
class SupportValue:
    """mu = max of v over the support's clearing scalars; None for x = 0."""

    mu: tuple | None


@dataclass(frozen=True, eq=False)
class FilterQV:
    oracle: object
    product_rows: tuple | None  # per lattice-basis element: rows of x -> coords(x * r_j)
    # product_rows in evaluable form (see orders._Rows), built once per evaluator.
    _product_rows: _Rows | None = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_product_rows", None if self.product_rows is None
                           else _Rows(self.algebra.field, self.product_rows))

    @property
    def algebra(self):
        return self.oracle.algebra

    @property
    def domain(self) -> BaseDomain:
        return self.oracle.domain

    @property
    def field(self):
        return self.domain.valued_field

    @property
    def rank(self) -> int:
        return self.field.rank


def filter_qv(oracle) -> FilterQV:
    """Build the evaluator for a lattice order or the polynomial subring."""
    if not oracle.domain.is_valuation_like:
        raise ConfigError("filter quasi-valuation needs a valuation ring as base")
    if isinstance(oracle, PolySubring):
        return FilterQV(oracle, None)
    if not isinstance(oracle, SubringOracle) or oracle.lattice_basis is None:
        raise ConfigError("filter quasi-valuation needs a lattice-represented order")
    alg = oracle.algebra
    n = alg.dim
    rows = []
    for r in oracle.lattice_basis:
        cols = [oracle.lattice_coords(alg.mul(alg.basis_vector(i), r)) for i in range(n)]
        rows.extend(tuple(cols[i][k] for i in range(n)) for k in range(n))
    return FilterQV(oracle, tuple(rows))


def support_mu(qv: FilterQV, x) -> SupportValue:
    """Minimum coordinate valuation of the products x*r_j; None iff x = 0."""
    field = qv.field
    if qv.product_rows is None:
        vals = [field.value(c) for c in x.values() if c]
    else:
        if len(x) != qv.algebra.dim:
            raise ConfigError("element does not belong to the evaluator's algebra")
        vals = [field.value(c) for c in qv._product_rows.values(x) if c]
    if not vals:
        return SupportValue(None)
    return SupportValue(min(vals))


def filter_qv_eval(qv: FilterQV, x) -> Value:
    sv = support_mu(qv, x)
    if sv.mu is None:
        return INF
    return embed_phi(sv.mu)


def eval_via_clearing(qv: FilterQV, x) -> Value:
    """Second path: clear x into R, evaluate there, translate back."""
    field = qv.field
    if qv.product_rows is None:
        coeffs = list(x.values())
    else:
        coeffs = list(qv._product_rows.values(x))
    if all(not c for c in coeffs):
        return INF
    s = qv.domain.clear_many(coeffs)
    inner = filter_qv_eval(qv, qv.algebra.smul(s, x))
    return value_translate(inner, field.value(s))


# --- audits -----------------------------------------------------------------


@dataclass(frozen=True)
class AuditCheck:
    name: str
    count: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class AuditReport:
    provenance: str
    spec_text: str
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __str__(self):
        lines = [f"quasi-valuation audit [{self.provenance}] samples: {self.spec_text}"]
        for c in self.checks:
            if c.ok:
                lines.append(f"  PASS {c.name} (n={c.count})")
            else:
                lines.append(f"  FAIL {c.name} (n={c.count}): {c.failures[0]}")
        return "\n".join(lines)


def _sample_pair(rng, spec, qv):
    if qv.product_rows is None:
        return (sample_poly_element(rng, spec, qv.algebra),
                sample_poly_element(rng, spec, qv.algebra))
    return (sample_algebra_element(rng, spec, qv.algebra),
            sample_algebra_element(rng, spec, qv.algebra))


def _fmt(qv, x) -> str:
    return qv.algebra.format_element(x)


def qv_audit(qv: FilterQV, spec: SampleSpec) -> AuditReport:
    """Axioms B1-B3, the O_v scalar law, extension of v on F*1, the
    quasi-valuation-ring law O_W = R, Bottom-freedom of the image, unit
    normalization, and agreement with the clearing-based second path."""
    check_sample_count(spec)
    alg, field, domain = qv.algebra, qv.field, qv.domain
    rng = spec.rng()
    rank = qv.rank
    zc = zero_cut(rank)

    b1_fail = () if filter_qv_eval(qv, alg.zero) is INF else ("W(0) != INF",)
    unit_fail = () if filter_qv_eval(qv, alg.unit) == zc else ("W(1) != phi(0)",)

    b2, b3, no_bottom, clearing = [], [], [], []
    for _ in range(spec.count):
        x, y = _sample_pair(rng, spec, qv)
        wx, wy = filter_qv_eval(qv, x), filter_qv_eval(qv, y)
        wxy = filter_qv_eval(qv, alg.mul(x, y))
        if value_compare(wxy, value_add(wx, wy)) < 0:
            b2.append(f"x={_fmt(qv, x)} y={_fmt(qv, y)}: "
                      f"W(xy)={format_value(wxy)} < W(x)+W(y)={format_value(value_add(wx, wy))}")
        wsum = filter_qv_eval(qv, alg.add(x, y))
        if value_compare(wsum, value_min([wx, wy])) < 0:
            b3.append(f"x={_fmt(qv, x)} y={_fmt(qv, y)}: "
                      f"W(x+y)={format_value(wsum)} < min={format_value(value_min([wx, wy]))}")
        for z, wz in ((x, wx), (y, wy)):
            if wz is not INF and wz.kind == "bot":
                no_bottom.append(f"W({_fmt(qv, z)}) = BOT")
            if eval_via_clearing(qv, z) != wz:
                clearing.append(f"clearing path disagrees at {_fmt(qv, z)}")

    scalar = []
    for _ in range(spec.count * 3 // 5 or 1):
        c = sample_in_domain(rng, spec, domain)
        x, _ = _sample_pair(rng, spec, qv)
        lhs = filter_qv_eval(qv, alg.smul(c, x))
        if not c:
            expect = INF
        else:
            expect = value_add(embed_phi(field.value(c)), filter_qv_eval(qv, x))
        if value_compare(lhs, expect) != 0:
            scalar.append(f"c={field.scalar_text(c)} x={_fmt(qv, x)}: "
                          f"{format_value(lhs)} != {format_value(expect)}")

    extends = []
    for _ in range(max(1, spec.count * 2 // 5)):
        alpha = sample_scalar(rng, spec, field)
        lhs = filter_qv_eval(qv, alg.smul(alpha, alg.unit))
        expect = INF if not alpha else embed_phi(field.value(alpha))
        if value_compare(lhs, expect) != 0:
            extends.append(f"alpha={field.scalar_text(alpha)}: "
                           f"{format_value(lhs)} != {format_value(expect)}")

    ow = []
    for i in range(spec.count):
        if i % 2 == 0:
            x, _ = _sample_pair(rng, spec, qv)
        else:
            x = sample_member(rng, spec, qv.oracle)
        w = filter_qv_eval(qv, x)
        nonneg = value_compare(w, zc) >= 0
        if nonneg != qv.oracle.contains(x):
            ow.append(f"x={_fmt(qv, x)}: W={format_value(w)} vs member={qv.oracle.contains(x)}")

    checks = (
        AuditCheck("B1: W(0) = INF", 1, b1_fail),
        AuditCheck("W(1) = phi(0)", 1, unit_fail),
        AuditCheck("B2: W(xy) >= W(x) + W(y)", spec.count, tuple(b2)),
        AuditCheck("B3: W(x+y) >= min(W(x), W(y))", spec.count, tuple(b3)),
        AuditCheck("scalar law W(cx) = v(c) + W(x)", spec.count * 3 // 5 or 1, tuple(scalar)),
        AuditCheck("extension W(alpha*1) = phi(v(alpha))", max(1, spec.count * 2 // 5), tuple(extends)),
        AuditCheck("O_W = R (W >= 0 iff membership)", spec.count, tuple(ow)),
        AuditCheck("Bottom never in the image", 2 * spec.count, tuple(no_bottom)),
        AuditCheck("clearing-path agreement", 2 * spec.count, tuple(clearing)),
    )
    return AuditReport(getattr(qv.oracle, "provenance", "?"), spec.describe(), checks)


# --- pointwise comparison -----------------------------------------------------


@dataclass(frozen=True)
class CompareVerdict:
    relation: str  # "equal-on-samples" | "le" | "ge" | "incomparable-on-samples"
    lt_witness: object | None
    gt_witness: object | None
    samples: int

    def __str__(self):
        return f"qv-compare: {self.relation} (n={self.samples})"


def qv_compare(q1: FilterQV, q2: FilterQV, spec: SampleSpec,
               extra_points=()) -> CompareVerdict:
    """Pointwise order on samples: le means W1(x) <= W2(x) everywhere
    sampled with at least one strict witness recorded when present."""
    if q1.algebra is not q2.algebra:
        raise ConfigError("evaluators live over different algebras")
    if q1.field != q2.field:
        raise ConfigError("evaluators extend different valuations")
    rng = spec.rng()
    lt = gt = None
    total = 0
    points = list(extra_points)
    for _ in range(spec.count):
        x, y = _sample_pair(rng, spec, q1)
        points.append(x)
        points.append(y)
    for x in points:
        total += 1
        c = value_compare(filter_qv_eval(q1, x), filter_qv_eval(q2, x))
        if c < 0 and lt is None:
            lt = x
        if c > 0 and gt is None:
            gt = x
    if lt is None and gt is None:
        relation = "equal-on-samples"
    elif gt is None:
        relation = "le"
    elif lt is None:
        relation = "ge"
    else:
        relation = "incomparable-on-samples"
    return CompareVerdict(relation, lt, gt, total)


def qv_chain_values(values) -> Value:
    """Greatest lower bound of finitely many chain values (their minimum)."""
    values = list(values)
    if not values:
        raise DomainError("empty value list")
    return value_min(values)
