from __future__ import annotations

from fractions import Fraction

import pytest

from cutval.algebra import (PolynomialAlgebra, _Rows, coordinate_rows, matrix_algebra,
                            matrix_element, quadratic_algebra)
from cutval.basedomain import integers, p_local, valuation_ring
from cutval.cuts import INF, at_most, embed_phi, value_compare, zero_cut
from cutval.errors import ConfigError, DomainError
from cutval.numfield import RationalFunction, ValuedField
from cutval.oracle import brute_support
from cutval.orders import (IdealSpec, LatticeModule, SubringOracle, _lattice, descend_chain,
                           left_order, nice_from_certificate, nice_with_ideal)
from cutval.quasival import (eval_via_clearing, filter_qv, filter_qv_eval,
                             qv_audit, qv_compare, support_mu)
from cutval.samplers import sample_algebra_element, sample_member, sample_poly_element
from cutval.sampling import SampleSpec, SplitMix64
from cutval.stability import stabilizer_finite
from test_orders import (chain_entry, clearing_reference, full_product_rows,
                         mu_reference, random_basis)


@pytest.fixture
def m2(field_q):
    return matrix_algebra(field_q, 2)


@pytest.fixture
def m2_qv(m2):
    M = LatticeModule(m2, p_local(2), tuple(m2.basis_vector(i) for i in range(4)))
    return filter_qv(left_order(M))


# --- support -----------------------------------------------------------------


def test_support_examples(m2, m2_qv):
    x = matrix_element(m2, [["1/2", "0"], ["0", "4"]])
    assert support_mu(m2_qv, x).mu == (-1,)
    assert support_mu(m2_qv, m2.unit).mu == (0,)
    assert support_mu(m2_qv, m2.zero).mu is None
    # characterization: a in S_x iff a in O_v and v(a) <= mu
    y = matrix_element(m2, [["4", "0"], ["0", "8"]])
    assert support_mu(m2_qv, y).mu == (2,)
    # for x in R, mu >= 0
    assert support_mu(m2_qv, m2.basis_vector(1)).mu >= (0,)
    # brute cross-check for the off-lattice example: clear x into R by 2
    # and subtract v(2) = 1 from the scanned exponent
    from cutval.oracle import brute_support
    scan = brute_support(m2_qv.oracle, m2.smul(Fraction(2), x), 8)
    assert scan.exponent - 1 == -1


def test_eval_examples(m2, m2_qv):
    x = matrix_element(m2, [["1/2", "0"], ["0", "4"]])
    assert filter_qv_eval(m2_qv, x) == at_most(1, 0, (-1,))
    assert filter_qv_eval(m2_qv, m2.zero) is INF
    scaled_unit = m2.smul(Fraction(3, 4), m2.unit)
    assert filter_qv_eval(m2_qv, scaled_unit) == embed_phi((-2,))


def test_audit_m2(m2_qv):
    report = qv_audit(m2_qv, SampleSpec(seed=42, count=500))
    assert report.ok, str(report)


def test_strict_b2_zero_divisor_witness(m2, m2_qv):
    e12 = m2.basis_vector(1)
    w_prod = filter_qv_eval(m2_qv, m2.mul(e12, e12))
    w_sum = filter_qv_eval(m2_qv, e12)
    assert w_prod is INF
    assert w_sum == zero_cut(1)
    assert value_compare(w_prod, w_sum) > 0  # strictly greater


def test_sqrt2_half_lattice_audit(field_q):
    sqrt2 = quadratic_algebra(field_q, 2)
    S = p_local(2)
    B = (sqrt2.unit, sqrt2.element(["0", "1/2"]))
    qv = filter_qv(left_order(LatticeModule(sqrt2, S, B)))
    report = qv_audit(qv, SampleSpec(seed=43, count=500))
    assert report.ok, str(report)


def test_composite_rank2_audit(field_qt):
    alg = matrix_algebra(field_qt, 2)
    S = valuation_ring(field_qt)
    qv = filter_qv(left_order(LatticeModule(alg, S, tuple(alg.basis_vector(i) for i in range(4)))))
    report = qv_audit(qv, SampleSpec(seed=44, count=60, poly_degree=1))
    assert report.ok, str(report)
    # rank-2 values
    t_unit = alg.smul(field_qt.scalar({"num": ["0", "1"]}), alg.unit)
    assert filter_qv_eval(qv, t_unit) == embed_phi((1, 0))


def test_audit_reports_a_wrong_valuation_read(field_qt, monkeypatch):
    """The unit-basis M2(Q(t)) order over O_v, with the valuation read of
    its first row (0, 1) too high wherever it is negative: W no longer
    agrees with the clearing path, which scales x into R first, nor with
    xR inside R, and the report renders both witnesses.  A read too high
    everywhere would commute with that scaling, and the clearing path
    could not see it."""
    alg = matrix_algebra(field_qt, 2)
    S = valuation_ring(field_qt)
    qv = filter_qv(left_order(LatticeModule(alg, S, tuple(alg.basis_vector(i) for i in range(4)))))
    spec = SampleSpec(seed=48, count=10, poly_degree=1)
    assert qv_audit(qv, spec).ok
    reads = _Rows.valuations

    def wrong(self, x, vf):
        for k, v in enumerate(reads(self, x, vf)):
            yield (v[0], v[1] + 1) if k == 0 and v is not None and v < (0, 0) else v
    monkeypatch.setattr(_Rows, "valuations", wrong)
    report = qv_audit(qv, spec)
    failed = {c.name: c.failures[0] for c in report.checks if not c.ok}
    assert failed["clearing-path agreement"].startswith("clearing path disagrees at ([")
    assert failed["O_W = R (W >= 0 iff membership)"].endswith(": W=AM(0;0,0) vs xR in R=False")
    text = str(report)
    for name, witness in failed.items():
        assert f"FAIL {name} (n=" in text and witness in text


def test_gauss_case(field_q):
    A = PolynomialAlgebra(field_q)
    S = p_local(2)
    qv = filter_qv(left_order(LatticeModule(A, S, None)))
    f = A.element({0: "1/2", 2: 6})
    assert filter_qv_eval(qv, f) == embed_phi((-1,))
    rng = SplitMix64(45)
    spec = SampleSpec(seed=45, count=300)
    for _ in range(300):
        g = sample_poly_element(rng, spec, A)
        h = sample_poly_element(rng, spec, A)
        wg, wh = filter_qv_eval(qv, g), filter_qv_eval(qv, h)
        wprod = filter_qv_eval(qv, A.mul(g, h))
        # Gauss multiplicativity: B2 holds with equality
        if wg is INF or wh is INF:
            assert wprod is INF
        else:
            assert wprod == embed_phi(tuple(a + b for a, b in zip(wg.bound, wh.bound)))
    report = qv_audit(qv, SampleSpec(seed=46, count=200))
    assert report.ok, str(report)


def test_filter_qv_requires_valuation_ring(m2):
    M = LatticeModule(m2, p_local(2), tuple(m2.basis_vector(i) for i in range(4)))
    R = left_order(M)
    fake = SubringOracle(algebra=m2, domain=integers(), provenance="z-order",
                         constraints=R.constraints, contained_basis=R.contained_basis)
    with pytest.raises(ConfigError):
        filter_qv(fake)


def test_filter_qv_refuses_an_order_without_a_lattice(field_q):
    """An ideal variant over Z_(2) has no lattice rows to read values off."""
    dual = quadratic_algebra(field_q, 0)
    R = nice_with_ideal(IdealSpec(dual, (dual.basis_vector(1),)), p_local(2))
    assert R.lattice_basis is None
    with pytest.raises(ConfigError, match="filter quasi-valuation needs a lattice-represented order"):
        filter_qv(R)


# --- invariants ----------------------------------------------------------------


def test_basis_independence_of_mu(m2):
    S = p_local(2)
    R = left_order(LatticeModule(m2, S, tuple(m2.basis_vector(i) for i in range(4))))
    qv1 = filter_qv(R)
    # S-unimodular change of lattice basis: r0 += 2*r1, swap r2, r3
    b = R.lattice_basis
    nb = (m2.add(b[0], m2.smul(Fraction(2), b[1])), b[1], b[3], b[2])
    M2 = LatticeModule(m2, S, nb)
    qv2 = filter_qv(left_order(M2))
    rng = SplitMix64(51)
    spec = SampleSpec(seed=51, count=200)
    for _ in range(200):
        x = sample_algebra_element(rng, spec, m2)
        assert support_mu(qv1, x).mu == support_mu(qv2, x).mu


def test_o_w_law_and_clearing(m2, m2_qv):
    rng = SplitMix64(53)
    spec = SampleSpec(seed=53, count=300)
    zc = zero_cut(1)
    for _ in range(300):
        x = sample_algebra_element(rng, spec, m2)
        w = filter_qv_eval(m2_qv, x)
        assert (value_compare(w, zc) >= 0) == m2_qv.oracle.contains(x)
        # localization second path agrees (restriction compatibility)
        assert eval_via_clearing(m2_qv, x) == w


def test_chain_evaluators_monotone(m2):
    S = p_local(2)
    basis = (m2.unit, m2.basis_vector(1), m2.basis_vector(2), m2.basis_vector(3))
    start = nice_from_certificate(stabilizer_finite(m2, basis, S))
    chain = descend_chain(start, 3)
    qvs = [filter_qv(o) for o in chain.oracles]
    spec = SampleSpec(seed=57, count=150)
    for i, step in enumerate(chain.steps):
        lo, hi = qvs[i + 1], qvs[i]
        verdict = qv_compare(lo, hi, spec, extra_points=[step.witness])
        assert verdict.relation == "le"
        assert verdict.lt_witness is not None
        # the step witness itself is strict
        assert value_compare(filter_qv_eval(lo, step.witness),
                             filter_qv_eval(hi, step.witness)) < 0
        swapped = qv_compare(hi, lo, spec, extra_points=[step.witness])
        assert swapped.relation == "ge" and swapped.lt_witness is None
        assert value_compare(filter_qv_eval(hi, swapped.gt_witness),
                             filter_qv_eval(lo, swapped.gt_witness)) > 0


def test_qv_compare_incomparable_orders(m2, m2_qv):
    """M2(Z_(2)) and its conjugate by diag(2, 1), the order of the matrices
    (a, 2b; c/2, d): e12 lies only in the first and e21/2 only in the
    second, so the conjugate's W is lower at e12 and higher at e21."""
    conj = filter_qv(left_order(LatticeModule(m2, p_local(2), (
        matrix_element(m2, [["1", "0"], ["0", "0"]]), matrix_element(m2, [["0", "2"], ["0", "0"]]),
        matrix_element(m2, [["0", "0"], ["1/2", "0"]]), matrix_element(m2, [["0", "0"], ["0", "1"]])))))
    e12, e21 = m2.basis_vector(1), m2.basis_vector(2)
    verdict = qv_compare(conj, m2_qv, SampleSpec(seed=61, count=20), extra_points=[e12, e21])
    assert verdict.relation == "incomparable-on-samples" and verdict.samples == 42
    assert (verdict.lt_witness, verdict.gt_witness) == (e12, e21)
    assert value_compare(filter_qv_eval(conj, e12), filter_qv_eval(m2_qv, e12)) < 0
    assert value_compare(filter_qv_eval(conj, e21), filter_qv_eval(m2_qv, e21)) > 0


def test_compare_verdict_renders_relation_and_samples(m2_qv):
    verdict = qv_compare(m2_qv, m2_qv, SampleSpec(seed=59, count=5))
    assert str(verdict) == "qv-compare: equal-on-samples (n=10)"


@pytest.mark.parametrize("count", [0, -5])
def test_qv_compare_refuses_a_spec_without_samples(m2, m2_qv, count):
    """With no samples the comparison would read equal on nothing, and
    with only extra points on those alone: both are refused."""
    spec = SampleSpec(seed=59, count=count)
    for extra in ((), (m2.basis_vector(1),)):
        with pytest.raises(DomainError, match="at least one sample"):
            qv_compare(m2_qv, m2_qv, spec, extra_points=extra)


def test_qv_compare_self_and_mismatch(m2, m2_qv, field_q):
    spec = SampleSpec(seed=59, count=100)
    assert qv_compare(m2_qv, m2_qv, spec).relation == "equal-on-samples"
    sqrt2 = quadratic_algebra(field_q, 2)
    other = filter_qv(left_order(LatticeModule(sqrt2, p_local(2),
                                               (sqrt2.unit, sqrt2.basis_vector(1)))))
    with pytest.raises(ConfigError):
        qv_compare(m2_qv, other, spec)


# --- against the n^2-row reference evaluator ------------------------------------


@pytest.fixture(scope="module")
def families():
    """Lattice orders of every kind filter_qv takes: random left orders over
    Z_(2), Z_(3) and O_v, descend-chain intersections, the unit M2(Q(t))."""
    q2, q3, qt = ValuedField("Q", 2), ValuedField("Q", 3), ValuedField("Qt", 2)
    m3 = matrix_algebra(q3, 3)
    m2q = matrix_algebra(q2, 2)
    sqrt2 = quadratic_algebra(q2, 2)
    qx = quadratic_algebra(qt, RationalFunction.T)
    m2t = matrix_algebra(qt, 2)

    def orders(alg, domain, seeds, **draw):
        return [left_order(LatticeModule(alg, domain, random_basis(alg, seed, **draw)))
                for seed in seeds]

    return {
        "M3(Q)/Z_(3)": orders(m3, p_local(3), range(7, 11), coef_bound=5, max_p_exp=2),
        "M2(Q)/Z_(2)": orders(m2q, p_local(2), range(20, 26), coef_bound=5, max_p_exp=2),
        "Q(sqrt2)/Z_(2)": orders(sqrt2, p_local(2), range(30, 36), coef_bound=5, max_p_exp=2),
        "descend chain": list(descend_chain(chain_entry(m2q), 4).oracles),
        "M2(Q(t))/O_v": [left_order(LatticeModule(m2t, valuation_ring(qt),
                                                  tuple(m2t.basis_vector(i) for i in range(4))))],
        "Q(t)[x]/(x^2-t)/O_v": orders(qx, valuation_ring(qt), range(303, 309),
                                      coef_bound=3, max_p_exp=1, poly_degree=2),
    }


def probe_points(R, spec):
    """0, 1, the lattice basis, random elements, members and members pushed
    out of R by 1/s0."""
    alg = R.algebra
    rng = spec.rng()
    out_by = R.domain.one / R.domain.noninvertible()
    points = [alg.zero, alg.unit] + list(R.lattice_basis)
    for _ in range(spec.count):
        x = sample_member(rng, spec, R)
        points += [sample_algebra_element(rng, spec, alg), x, alg.smul(out_by, x)]
    return points


@pytest.mark.parametrize("name", ["M3(Q)/Z_(3)", "M2(Q)/Z_(2)", "Q(sqrt2)/Z_(2)",
                                  "descend chain", "M2(Q(t))/O_v", "Q(t)[x]/(x^2-t)/O_v"])
def test_evaluator_matches_product_row_reference(families, name):
    """support_mu, filter_qv_eval and eval_via_clearing read R's n rows T;
    the reference reads the n^2 rows of every x*r_j.  On rank-1 families
    brute_support rescans members by membership alone."""
    poly_degree = 1 if "Q(t)" in name else 0
    for k, R in enumerate(families[name]):
        qv = filter_qv(R)
        rows = full_product_rows(R.algebra, R.lattice_basis)
        spec = SampleSpec(seed=400 + k, count=4, poly_degree=poly_degree)
        for x in probe_points(R, spec):
            mu = mu_reference(qv, rows, x)
            assert support_mu(qv, x).mu == mu
            assert filter_qv_eval(qv, x) == (INF if mu is None else embed_phi(mu))
            assert eval_via_clearing(qv, x) == clearing_reference(qv, rows, x)
            if qv.field.rank == 1 and mu is not None and R.contains(x):
                brute = brute_support(R, x, 6)
                assert brute.inconclusive or brute.exponent == mu[0]


def test_non_ring_lattice_fails_o_w_and_b2(m2):
    """Z_(2){e11, e12/2, e21/2, e22} holds 1 but (e12/2)(e21/2) = e11/4 leaves
    it: W >= 0 no longer means xR inside R, and W(xy) drops below W(x)+W(y)."""
    half = Fraction(1, 2)
    basis = (m2.basis_vector(0), m2.smul(half, m2.basis_vector(1)),
             m2.smul(half, m2.basis_vector(2)), m2.basis_vector(3))
    lattice = _lattice(m2, p_local(2), coordinate_rows(m2, basis), "non-ring", None)
    report = qv_audit(filter_qv(lattice), SampleSpec(seed=61, count=60))
    failed = {c.name for c in report.checks if not c.ok}
    assert "O_W = R (W >= 0 iff membership)" in failed
    assert "B2: W(xy) >= W(x) + W(y)" in failed
