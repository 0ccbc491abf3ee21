from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import lcm

import pytest

from cutval import algebra, orders
from cutval.algebra import (PolynomialAlgebra, StructureAlgebra, _Rows, coordinate_rows,
                            extend_to_basis, matrix_algebra, matrix_element, product_rows,
                            quadratic_algebra, rank_of, solve_columns)
from cutval.basedomain import BaseDomain, integers, p_local, valuation_ring
from cutval.cuts import INF, embed_phi, value_translate
from cutval.errors import ConfigError, DomainError, StructuralError
from cutval.numfield import QtVector, QVector, RationalFunction, ValuedField
from cutval.orders import (IdealSpec, LatticeModule, PolySubring,
                           SubringOracle, descend_chain, going_down,
                           intersect_oracles, lattice_membership, left_order,
                           matrix_nice_chain, nice_from_certificate,
                           nice_with_ideal, verify_nice)
from cutval.quasival import eval_via_clearing, filter_qv, qv_audit, support_mu
from cutval.samplers import (sample_algebra_element, sample_in_domain, sample_member,
                             sample_poly_element, sample_scalar)
from cutval.sampling import SampleSpec, SplitMix64
from cutval.stability import is_stable, stabilizer_finite


@pytest.fixture
def m2(field_q):
    return matrix_algebra(field_q, 2)


@pytest.fixture
def sqrt2(field_q):
    return quadratic_algebra(field_q, 2)


def units_of(alg):
    return tuple(alg.basis_vector(i) for i in range(alg.dim))


def m2_z2_order(m2):
    M = LatticeModule(m2, p_local(2), units_of(m2))
    return left_order(M)


# --- lattice membership -----------------------------------------------------


def test_lattice_membership_examples(m2, field_q):
    M = LatticeModule(m2, p_local(2), units_of(m2))
    assert lattice_membership(M, matrix_element(m2, [["3/5", "0"], ["0", "1"]]))
    assert not lattice_membership(M, matrix_element(m2, [["1/2", "0"], ["0", "0"]]))
    A = PolynomialAlgebra(field_q)
    Mp = LatticeModule(A, p_local(2), None)
    assert lattice_membership(Mp, A.element({0: 2, 1: "1/3"}))
    assert not lattice_membership(Mp, A.element({1: "1/2"}))


@pytest.mark.parametrize("domain", [integers(), p_local(3)], ids=["Z", "Z_(3)"])
def test_lattice_membership_inverts_once(domain, monkeypatch):
    """M's coordinate rows are built on the first call and kept: 90 calls
    make one dense inverse, one `_bareiss`, and each verdict is the one
    that asks `contains` of every coordinate solved afresh, both verdicts
    occurring."""
    field = ValuedField("Q", 3)
    alg = matrix_algebra(field, 3)
    spec = SampleSpec(seed=91, count=0, coef_bound=5, max_p_exp=2)
    rng = spec.rng()
    basis = tuple(sample_algebra_element(rng, spec, alg) for _ in range(alg.dim))
    assert rank_of(field, basis) == alg.dim
    third = field.scalar("1/3")
    points = [sample_algebra_element(rng, spec, alg) for _ in range(70)]
    points += list(basis) + [alg.smul(third, b) for b in basis] + [alg.zero, alg.unit]
    assert len(points) == 90
    expected = [all(map(domain.contains, solve_columns(field, basis, x))) for x in points]
    assert True in expected and False in expected
    calls, invert, bareiss = [], algebra.invert, algebra._bareiss
    monkeypatch.setattr(algebra, "invert", lambda *a: calls.append("invert") or invert(*a))
    monkeypatch.setattr(algebra, "_bareiss", lambda *a: calls.append("_bareiss") or bareiss(*a))
    M = LatticeModule(alg, domain, basis)
    assert [lattice_membership(M, x) for x in points] == expected
    assert calls == ["invert", "_bareiss"]


# --- left orders ------------------------------------------------------------


def lattices_equal(oracle, basis, domain, alg):
    """Mutual S-membership of the two generating sets."""
    return (all(oracle.contains(b) for b in basis)
            and all(all(domain.contains(c)
                        for c in solve_columns(alg.field, list(basis), r))
                    for r in oracle.lattice_basis))


def test_left_order_sqrt2_half(sqrt2):
    # M = Z_(2)*1 + Z_(2)*(s/2): left order has lattice {1, s}
    S = p_local(2)
    B = (sqrt2.unit, sqrt2.element(["0", "1/2"]))
    R = left_order(LatticeModule(sqrt2, S, B))
    expected = (sqrt2.unit, sqrt2.basis_vector(1))
    assert lattices_equal(R, expected, S, sqrt2)
    # cross-check the membership oracle against the hand rule a, b in Z_(2)
    rng = SplitMix64(83)
    spec = SampleSpec(seed=83, count=200)
    for _ in range(200):
        x = sample_algebra_element(rng, spec, sqrt2)
        assert R.contains(x) == (S.contains(x[0]) and S.contains(x[1]))


def test_left_order_self_stable_with_unit(m2, sqrt2):
    # 1 in M and M self-stable force R = M
    S = p_local(2)
    basis = (m2.unit, m2.basis_vector(1), m2.basis_vector(2), m2.basis_vector(3))
    R = left_order(LatticeModule(m2, S, basis))
    assert lattices_equal(R, basis, S, m2)
    rng = SplitMix64(89)
    spec = SampleSpec(seed=89, count=150)
    M = LatticeModule(m2, S, basis)
    for _ in range(150):
        x = sample_algebra_element(rng, spec, m2)
        assert R.contains(x) == lattice_membership(M, x)

    B2 = (sqrt2.unit, sqrt2.basis_vector(1))
    R2 = left_order(LatticeModule(sqrt2, S, B2))
    assert lattices_equal(R2, B2, S, sqrt2)


def test_left_order_poly_backend(field_q):
    A = PolynomialAlgebra(field_q)
    S = p_local(2)
    R = left_order(LatticeModule(A, S, None))
    assert isinstance(R, PolySubring)
    rng = SplitMix64(97)
    spec = SampleSpec(seed=97, count=200)
    for _ in range(200):
        f = sample_poly_element(rng, spec, A)
        member = all(S.contains(c) for c in f.values())
        assert R.contains(f) == member
        # shift argument: multiplying by y^n does not change membership
        assert R.contains(A.mul(f, A.monomial(3))) == member


def test_left_order_requires_full_basis(m2):
    M = LatticeModule(m2, p_local(2), (m2.unit, m2.basis_vector(1)))
    with pytest.raises(StructuralError):
        left_order(M)


@pytest.mark.parametrize("kind", ["Q", "Qt"])
def test_lattice_self_check_fires(monkeypatch, kind):
    """_lattice checks its basis against the full rows: a basis pushed out
    by 1/s0 is refused; a dependent full-length basis never gets that far."""
    field = ValuedField(kind, 2)
    alg = matrix_algebra(field, 2)
    domain = p_local(2) if kind == "Q" else valuation_ring(field)
    dependent = LatticeModule(alg, domain, units_of(alg)[:3] + (alg.basis_vector(0),))
    with pytest.raises(StructuralError, match="basis is dependent"):
        left_order(dependent)
    with pytest.raises(StructuralError, match="basis is dependent"):
        lattice_membership(dependent, alg.unit)
    # T^-1 comes from `invert` on both fields
    invert, s0 = orders.invert, domain.noninvertible()
    monkeypatch.setattr(orders, "invert", lambda fieldobj, rows: _Rows(fieldobj, [
        [c / s0 for c in row] for row in invert(fieldobj, rows)]))
    with pytest.raises(StructuralError, match="lattice basis disagrees with the predicate"):
        left_order(LatticeModule(alg, domain, units_of(alg)))


def test_left_order_refuses_an_order_without_1(monkeypatch):
    """T over Z_(2) divided by 2, or over O_v of Q(t) divided by t, spans
    a lattice too large, whose order 2R or tR is too small: its basis
    passes the check against the full rows, and the left order refuses it
    because 1 and the stabilizer are not in it."""
    alg = matrix_algebra(ValuedField("Q", 2), 2)
    padic_pivots = orders._padic_pivots
    monkeypatch.setattr(orders, "_padic_pivots", lambda pool, ncols, p: [
        QVector._canonical(r.ints, 2 * r.den) for r in padic_pivots(pool, ncols, p)])
    with pytest.raises(StructuralError, match="1 or the stabilizer lies outside the left order"):
        left_order(LatticeModule(alg, p_local(2), units_of(alg)))
    field = ValuedField("Qt", 2)
    alg, ov_pivots = matrix_algebra(field, 2), orders._ov_pivots
    monkeypatch.setattr(orders, "_ov_pivots", lambda pool, ncols, p: [
        QtVector._clearing([a[:] for a in r.nums], [0, *r.den]) for r in ov_pivots(pool, ncols, p)])
    with pytest.raises(StructuralError, match="1 or the stabilizer lies outside the left order"):
        left_order(LatticeModule(alg, valuation_ring(field), units_of(alg)))


def test_predicate_lattice_agreement_fuzz(m2):
    rng = SplitMix64(101)
    spec = SampleSpec(seed=101, count=100, coef_bound=4)
    S = p_local(2)
    from test_stability import random_basis
    for _ in range(6):
        B = tuple(random_basis(rng, spec, m2))
        R = left_order(LatticeModule(m2, S, B))
        for _ in range(40):
            x = sample_algebra_element(rng, spec, m2)
            by_lattice = all(S.contains(c) for c in R.lattice_coords(x))
            assert R.contains(x) == by_lattice


# --- verify_nice ------------------------------------------------------------


def test_verify_nice_m2(m2):
    R = m2_z2_order(m2)
    report = verify_nice(R, SampleSpec(seed=42, count=200))
    assert report.ok
    assert any(c.name == "R cap F = S" and c.method == "exact" for c in report.checks)


def test_verify_nice_detects_non_ring(sqrt2):
    # the lattice Z_(2)*1 + Z_(2)*(s/2) treated as a subring oracle:
    # multiplicative closure fails at (s/2)^2 = 1/2
    S = p_local(2)
    half_s = sqrt2.element(["0", "1/2"])
    rows = ((S, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2)))),)
    fake = SubringOracle(algebra=sqrt2, domain=S, provenance="lattice-as-oracle",
                         constraints=rows, contained_basis=(sqrt2.unit, half_s))
    assert fake.contains(half_s)
    assert not fake.contains(sqrt2.mul(half_s, half_s))
    report = verify_nice(fake, SampleSpec(seed=7, count=300))
    closure = next(c for c in report.checks if c.name.startswith("closed"))
    assert not closure.ok


def test_verify_nice_detects_lying_over_failure(m2):
    # corrupted oracle Q*1 + M2(Z_(2)): off-diagonal and the diagonal
    # difference constrained, the scalar direction left free
    S = p_local(2)
    z, o = Fraction(0), Fraction(1)
    rows = ((S, ((z, o, z, z), (z, z, o, z), (o, z, z, -o))),)
    fake = SubringOracle(algebra=m2, domain=S, provenance="corrupted",
                         constraints=rows, contained_basis=units_of(m2))
    half = m2.smul(Fraction(1, 2), m2.unit)
    assert fake.contains(half) and not S.contains(Fraction(1, 2))
    report = verify_nice(fake, SampleSpec(seed=11, count=400))
    lying = next(c for c in report.checks if c.name == "R cap F = S")
    assert not lying.ok and lying.method == "sampled"


def refusing(oracle, refused):
    """A copy of a SubringOracle with the elements in refused taken out."""
    class Refusing(SubringOracle):
        def contains(self, x):
            return x not in refused and super().contains(x)
    return Refusing(**{f.name: getattr(oracle, f.name)
                       for f in dataclasses.fields(oracle) if f.init})


def failing_checks(report):
    """(name, detail) of each failed check, each also rendered in the report."""
    failed, lines = [c for c in report.checks if not c.ok], str(report).splitlines()
    for c in failed:
        assert f"  FAIL {c.name} ({c.method}) -- {c.detail}" in lines
    return [(c.name, c.detail) for c in failed]


def test_verify_nice_contains_s1_failures(m2):
    """Each witness of "contains S*1": 1 itself, s0*1, and the first sampled
    s*1, on M2(Z_(2)) with that one element refused."""
    R, S = m2_z2_order(m2), p_local(2)
    spec = SampleSpec(seed=42, count=20)
    s = sample_in_domain(spec.rng(), spec, S)  # verify_nice's first draw
    assert s not in (1, S.noninvertible())
    for refused, witness in [(m2.unit, "1"), (m2.smul(S.noninvertible(), m2.unit), "s0*1"),
                             (m2.smul(s, m2.unit), f"{m2.field.scalar_text(s)}*1")]:
        report = verify_nice(refusing(R, [refused]), spec)
        assert failing_checks(report) == [("contains S*1", f"witness {witness}")]


def test_verify_nice_without_a_contained_basis(m2):
    """A predicate oracle with no contained basis: RF = A has nothing to
    exhibit, and closure has nothing to sample members from."""
    S = p_local(2)
    bare = SubringOracle(algebra=m2, domain=S, provenance="no-basis",
                         constraints=((S, coordinate_rows(m2, units_of(m2))),))
    report = verify_nice(bare, SampleSpec(seed=42, count=20))
    assert failing_checks(report) == [
        ("closed under + and *", "oracle carries no basis to sample members from"),
        ("RF = A (basis inside R)", "no contained basis available")]


def test_verify_nice_unit_expansion_leaves_s(m2):
    """The lattice 2*M2(Z_(2)) as a lattice oracle: 1 has coordinates 1/2,
    so the exact lying-over test finds the unit outside the lattice."""
    S = p_local(2)
    basis = tuple(m2.smul(Fraction(2), b) for b in units_of(m2))
    lattice = SubringOracle(algebra=m2, domain=S, provenance="2*M2",
                            constraints=((S, coordinate_rows(m2, basis)),),
                            lattice_basis=basis, contained_basis=basis)
    report = verify_nice(lattice, SampleSpec(seed=42, count=20))
    assert failing_checks(report) == [
        ("contains S*1", "witness 1"),
        ("R cap F = S", "unit expansion leaves S (1 is not in the lattice)")]


class EverythingPolySubring(PolySubring):
    """A vacuous poly oracle: every polynomial is a member."""

    def contains(self, f):
        return True


def test_poly_audit_refuses_vacuous_membership(field_q):
    A = PolynomialAlgebra(field_q)
    S = p_local(2)
    spec = SampleSpec(seed=5, count=60)
    genuine = verify_nice(left_order(LatticeModule(A, S, None)), spec)
    assert genuine.ok, str(genuine)
    assert [(c.name, c.method) for c in genuine.checks] == [
        ("contains S*1", "sampled"), ("closed under + and *", "sampled"),
        ("RF = A (monomials inside R)", "exact"), ("R cap F = S", "sampled")]
    report = verify_nice(EverythingPolySubring(A, S), spec)
    lying = next(c for c in report.checks if c.name == "R cap F = S")
    assert not lying.ok and lying.detail.startswith("witness alpha = ")
    assert not S.contains(field_q.scalar(lying.detail.removeprefix("witness alpha = ")))


def test_poly_audit_renders_a_refused_product(field_q, monkeypatch):
    """A PolySubring whose contains refuses every product fails the closure
    check on the first sampled pair, rendered by format_element."""
    A, S = PolynomialAlgebra(field_q), p_local(2)
    products, mul, contains = [], PolynomialAlgebra.mul, PolySubring.contains
    monkeypatch.setattr(PolynomialAlgebra, "mul",
                        lambda self, f, g: products.append(mul(self, f, g)) or products[-1])
    monkeypatch.setattr(PolySubring, "contains",
                        lambda self, f: all(f is not q for q in products) and contains(self, f))
    report = verify_nice(PolySubring(A, S), SampleSpec(seed=5, count=3))
    assert failing_checks(report) == [
        ("closed under + and *", "x*y with x=-2/3*y^0 + -3*y^1 y=1/3*y^0 + 9/7*y^1")]


# --- ideal variant ----------------------------------------------------------


@pytest.fixture
def dual(field_q):
    return quadratic_algebra(field_q, 0)  # Q[x]/(x^2)


def test_nice_with_ideal_closed_form(dual):
    ideal = IdealSpec(dual, (dual.basis_vector(1),))
    for domain in (p_local(2), integers()):
        R = nice_with_ideal(ideal, domain)
        rng = SplitMix64(13)
        spec = SampleSpec(seed=13, count=200)
        for _ in range(200):
            x = sample_algebra_element(rng, spec, dual)
            assert R.contains(x) == domain.contains(x[0])
        # I-part unconstrained
        assert R.contains(dual.element(["0", "1/1000"]))
        report = verify_nice(R, spec)
        assert report.ok, str(report)


def table_algebra(field, names, products, unit):
    """The algebra on `names` whose nonzero products of basis vectors are
    products[(i, j)] = k, meaning e_i * e_j = e_k."""
    n = len(names)
    vec = lambda k: tuple(field.one if i == k else field.zero for i in range(n))
    table = tuple(tuple(vec(products.get((i, j))) for j in range(n)) for i in range(n))
    return StructureAlgebra(field, names, table, unit)


@pytest.mark.parametrize("name", ["(x^2) in Q[x]/(x^3)", "(e12) in T2(Q)"])
def test_ideal_variant_rows_match_reference(field_q, name):
    """The ideal variant's rows are the product rows of x -> coords(x*b) for
    b outside the ideal, at the coordinates outside it, in that order."""
    one, zero = field_q.one, field_q.zero
    if name.startswith("(x^2)"):
        alg = table_algebra(field_q, ("1", "x", "x2"),
                            {(i, j): i + j for i in range(3) for j in range(3) if i + j < 3},
                            (one, zero, zero))
        ideal = IdealSpec(alg, (alg.basis_vector(2),))
    else:  # upper-triangular 2x2 matrices on e11, e12, e22
        alg = table_algebra(field_q, ("e11", "e12", "e22"),
                            {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}, (one, zero, one))
        ideal = IdealSpec(alg, (alg.basis_vector(1),))
    m = len(ideal.basis)
    basis = extend_to_basis(alg, list(ideal.basis))
    assert alg.dim - m >= 2
    outside = _Rows(field_q, list(coordinate_rows(alg, basis))[m:])
    expected = product_rows(alg, outside, basis[m:])
    for domain in (integers(), p_local(2)):
        R = nice_with_ideal(ideal, domain)
        ((dom, rows),) = R.constraints
        assert dom == domain and tuple(rows) == tuple(expected)
        assert verify_nice(R, SampleSpec(seed=41, count=30)).ok


def test_ideal_validation(dual, m2):
    with pytest.raises(DomainError):
        IdealSpec(dual, (dual.unit, dual.basis_vector(1))).validate()  # not proper
    with pytest.raises(DomainError, match="not a left ideal: e2 \\* b escapes the span"):
        nice_with_ideal(IdealSpec(m2, (m2.basis_vector(1),)), integers())  # e21*e12 = e22
    first_column = IdealSpec(m2, (m2.basis_vector(0), m2.basis_vector(2)))  # e11, e21
    with pytest.raises(DomainError, match="not a right ideal: b \\* e1 escapes the span"):
        nice_with_ideal(first_column, integers())  # e11*e12 = e12


def test_ideal_variant_stabilizer_post_check_fires(monkeypatch, dual):
    """nice_with_ideal checks its stabilizer inside R: a stabilizer pushed
    out by 1/2 is refused.  (The ideal itself lies in R once the right-ideal
    check has passed, since every row then vanishes on it.)  The halved
    stabilizer is set after construction, which would clear it back."""
    ideal = IdealSpec(dual, (dual.basis_vector(1),))
    half = dual.field.scalar("1/2")
    stabilizer_finite = orders.stabilizer_finite

    def scaled(alg, basis, domain):
        cert = stabilizer_finite(alg, basis, domain)
        object.__setattr__(cert, "stabilizer", tuple(alg.smul(half, s) for s in cert.stabilizer))
        return cert
    monkeypatch.setattr(orders, "stabilizer_finite", scaled)
    with pytest.raises(StructuralError, match="stabilizer element fails ideal-variant membership"):
        nice_with_ideal(ideal, p_local(2))


# --- going down, intersections ------------------------------------------------


def test_intersecting_ideal_variants_over_a_valuation_ring(dual):
    """An ideal variant's rows never have full rank, so the stacked rows of
    two variants over Z_(2) give no lattice: the intersection keeps the
    predicate and a rescaled contained basis, as over Z."""
    R = nice_with_ideal(IdealSpec(dual, (dual.basis_vector(1),)), p_local(2))
    both = intersect_oracles([R, R])
    assert both.lattice_basis is None and both.constraints == R.constraints * 2
    spec = SampleSpec(seed=17, count=40)
    report = verify_nice(both, spec)
    assert report.ok, str(report)
    rng = SplitMix64(17)
    points = [sample_algebra_element(rng, spec, dual) for _ in range(60)]
    verdicts = [R.contains(x) for x in points]
    assert [both.contains(x) for x in points] == verdicts
    assert True in verdicts and False in verdicts


def test_intersecting_ideal_variants_over_ov_gives_no_lattice(field_qt):
    """Over Q(t) too: `_ov_pivots` finds a column of the stacked ideal
    variant rows with no nonzero entry left, so the intersection keeps the
    predicate."""
    dual = quadratic_algebra(field_qt, 0)
    R = nice_with_ideal(IdealSpec(dual, (dual.basis_vector(1),)), valuation_ring(field_qt))
    both = intersect_oracles([R, R])
    assert both.lattice_basis is None and both.constraints == R.constraints * 2
    spec = SampleSpec(seed=18, count=10)
    rng = SplitMix64(18)
    points = [sample_algebra_element(rng, spec, dual) for _ in range(30)]
    verdicts = [R.contains(x) for x in points]
    assert [both.contains(x) for x in points] == verdicts
    assert True in verdicts and False in verdicts
    assert all(map(both.contains, both.contained_basis))


def test_going_down_example(m2):
    r2 = m2_z2_order(m2)
    R = going_down(r2, integers(), units_of(m2))
    bad = matrix_element(m2, [["1/3", "0"], ["0", "1"]])
    good = matrix_element(m2, [["7", "1"], ["0", "2"]])
    assert not R.contains(bad) and r2.contains(bad)
    assert R.contains(good)
    rng = SplitMix64(17)
    spec = SampleSpec(seed=17, count=300)
    Z = integers()
    for _ in range(300):
        x = sample_algebra_element(rng, spec, m2)
        assert R.contains(x) == all(Z.contains(c) for c in x)
    report = verify_nice(R, spec)
    assert report.ok, str(report)


def test_going_down_rejects_non_subdomain(m2):
    r2 = m2_z2_order(m2)
    with pytest.raises(DomainError):
        going_down(r2, p_local(3), units_of(m2))


def test_intersection_examples(m2):
    S2, S3 = p_local(2), p_local(3)
    R2 = left_order(LatticeModule(m2, S2, units_of(m2)))
    R3 = left_order(LatticeModule(m2, S3, units_of(m2)))
    both = intersect_oracles([R2, R3], domain=integers())
    assert both.contains(matrix_element(m2, [["1/5", "0"], ["0", "1"]]))
    assert not both.contains(matrix_element(m2, [["1/2", "0"], ["0", "1"]]))
    assert not both.contains(matrix_element(m2, [["1/3", "0"], ["0", "1"]]))
    single = intersect_oracles([R2])
    rng = SplitMix64(19)
    spec = SampleSpec(seed=19, count=100)
    for _ in range(100):
        x = sample_algebra_element(rng, spec, m2)
        assert single.contains(x) == R2.contains(x)
    with pytest.raises(DomainError):
        intersect_oracles([])


def test_intersection_scaling_self_check_fires(m2, monkeypatch):
    """Over Z the intersection keeps the predicate and scales the first
    contained basis into every term; a clearing that ignores the reads
    leaves e12 outside {[a, 3b], [c/3, d]}, and the scaling check says so."""
    e = units_of(m2)
    R1 = left_order(LatticeModule(m2, integers(), e))
    R3 = left_order(LatticeModule(m2, integers(), (e[0], e[1], m2.smul(Fraction(1, 3), e[2]),
                                                   m2.smul(Fraction(1, 3), e[3]))))
    assert not R3.contains(e[1]) and R3.contains(m2.smul(Fraction(3), e[1]))
    assert intersect_oracles([R1, R3]).contained_basis is not None
    monkeypatch.setattr(BaseDomain, "_clearing", lambda self, reads: self.one)
    with pytest.raises(StructuralError,
                       match="^could not scale a basis element into the intersection$"):
        intersect_oracles([R1, R3])


def test_z_p_and_o_v_of_q_p_are_one_ring(m2, field_q):
    # p_local(2) and valuation_ring(Q, 2) print differently but are the same
    # ring: their intersection and going-down between them stay lattices
    ov = valuation_ring(field_q)
    r_ov = left_order(LatticeModule(m2, ov, units_of(m2)))
    half_e12 = m2.smul(Fraction(1, 2), m2.basis_vector(1))
    r_zp = left_order(LatticeModule(m2, p_local(2), (m2.unit, half_e12, m2.basis_vector(2),
                                                     m2.basis_vector(3))))
    both = intersect_oracles([r_zp, r_ov])
    assert both.lattice_basis is not None and len(both.constraints) == 1
    rng = SplitMix64(131)
    spec = SampleSpec(seed=131, count=60)
    for k in range(60):
        x = sample_member(rng, spec, r_ov) if k % 2 else sample_algebra_element(rng, spec, m2)
        assert both.contains(x) == (r_zp.contains(x) and r_ov.contains(x))
    down = going_down(r_ov, p_local(2), units_of(m2))
    assert down.lattice_basis is not None
    report = verify_nice(down, spec)
    assert report.ok, str(report)
    lying_over = next(c for c in report.checks if c.name == "R cap F = S")
    assert lying_over.method == "exact"
    audit = qv_audit(filter_qv(down), spec)
    assert audit.ok, str(audit)


# --- descending chain ---------------------------------------------------------


def chain_entry(m2):
    basis = (m2.unit, m2.basis_vector(1), m2.basis_vector(2), m2.basis_vector(3))
    cert = stabilizer_finite(m2, basis, p_local(2))
    return nice_from_certificate(cert)


def test_descend_chain_m2(m2):
    start = chain_entry(m2)
    chain = descend_chain(start, 2)
    assert len(chain.oracles) == 3
    e12 = m2.basis_vector(1)
    assert chain.steps[0].witness == e12
    # witness flips exactly at its step and inclusions never increase
    assert chain.oracles[0].contains(e12)
    assert not chain.oracles[1].contains(e12)
    assert not chain.oracles[2].contains(e12)
    w2 = chain.steps[1].witness
    assert chain.oracles[1].contains(w2) and not chain.oracles[2].contains(w2)
    spec = SampleSpec(seed=23, count=150)
    for oracle in chain.oracles:
        report = verify_nice(oracle, spec)
        assert report.ok, str(report)
    # inclusion monotonicity on samples
    rng = SplitMix64(29)
    for _ in range(150):
        x = sample_algebra_element(rng, spec, m2)
        mem = [o.contains(x) for o in chain.oracles]
        assert all(a or not b for a, b in zip(mem, mem[1:]))  # later implies earlier


def test_descend_chain_sqrt2(sqrt2):
    S = p_local(2)
    B = (sqrt2.unit, sqrt2.basis_vector(1))
    cert = stabilizer_finite(sqrt2, B, S)
    start = nice_from_certificate(cert)
    chain = descend_chain(start, 1)
    s = sqrt2.basis_vector(1)
    assert chain.steps[0].witness == s
    assert start.contains(s) and not chain.oracles[1].contains(s)


def test_descend_chain_self_checks_fire(m2, monkeypatch):
    """Each step checks that its witness y lies in the current term and
    leaves the next: a membership that loses y breaks the first check, and
    an insertion that keeps the old basis breaks the second."""
    start = chain_entry(m2)
    e12 = m2.basis_vector(1)
    contains = SubringOracle.contains
    with monkeypatch.context() as patch:
        patch.setattr(SubringOracle, "contains", lambda self, x: x != e12 and contains(self, x))
        with pytest.raises(StructuralError,
                           match="^chain invariant broken: y escaped the current term$"):
            descend_chain(start, 1)
    with monkeypatch.context() as patch:
        patch.setattr(orders, "insert_many", lambda cert, elements: cert)
        with pytest.raises(StructuralError,
                           match="^descent witness failed to leave the next term$"):
            descend_chain(start, 1)


def test_descend_chain_needs_certificate(m2):
    R = dataclasses.replace(m2_z2_order(m2), certificate=None)
    with pytest.raises(DomainError):
        descend_chain(R, 1)


def test_bare_left_order_carries_its_clearing_certificate(m2):
    e = units_of(m2)
    B = (m2.unit, m2.smul(Fraction(1, 3), e[1]), e[2], e[3])
    R = left_order(LatticeModule(m2, integers(), B))
    assert R.certificate == stabilizer_finite(m2, B, integers())
    assert R.contained_basis == R.certificate.stabilizer
    with pytest.raises(ConfigError, match="certificate is for another lattice"):
        left_order(LatticeModule(m2, integers(), e), certificate=R.certificate)
    report = verify_nice(R, SampleSpec(seed=37, count=40))
    assert report.ok and len(report.checks) == 4, str(report)
    # a bare Z_(2) left order starts a descending chain
    chain = descend_chain(left_order(LatticeModule(m2, p_local(2), B)), 2)
    assert len(chain.oracles) == 3
    for step, (outer, inner) in zip(chain.steps, zip(chain.oracles, chain.oracles[1:])):
        assert outer.contains(step.witness) and not inner.contains(step.witness)


# --- matrix chain ---------------------------------------------------------------


def test_matrix_chain_example(field_q):
    chain = matrix_nice_chain(field_q, integers(), ["4", "2"], 2)
    o4, o2 = chain.oracles
    alg = chain.algebra
    two_e12 = alg.smul(Fraction(2), alg.basis_vector(1))
    assert not o4.contains(two_e12) and o2.contains(two_e12)
    assert chain.witnesses == (two_e12,)
    assert o4.contains(matrix_element(alg, [["1", "4"], ["5", "7"]]))
    assert not o4.contains(matrix_element(alg, [["1", "2"], ["5", "7"]]))
    spec = SampleSpec(seed=31, count=200)
    for oracle in chain.oracles:
        report = verify_nice(oracle, spec)
        assert report.ok, str(report)


def test_matrix_chain_strictness_self_check_fires(field_q, monkeypatch):
    """A chain whose terms all stabilize the unit basis does not ascend:
    2*e12 already lies in the first term, and the witness check says so."""
    unit_stabilizer = orders.stabilizer_finite
    monkeypatch.setattr(orders, "stabilizer_finite", lambda alg, basis, domain: unit_stabilizer(
        alg, tuple(alg.basis_vector(a) for a in range(alg.dim)), domain))
    with pytest.raises(StructuralError, match="^matrix-chain strictness witness failed$"):
        matrix_nice_chain(field_q, integers(), ["4", "2"], 2)


def test_matrix_chain_requires_ascending(field_q):
    with pytest.raises(DomainError):
        matrix_nice_chain(field_q, integers(), ["2", "4"], 2)
    with pytest.raises(DomainError):
        matrix_nice_chain(field_q, integers(), ["2", "2"], 2)


def matrix_chain_reference(fieldobj, domain, gens, n):
    """The chain's terms as hand-written constraint rows: entry a of x is
    divided by g when it sits in the last column above the last row, so
    that entry must lie in gS and every other entry in S."""
    alg = matrix_algebra(fieldobj, n)
    z, o = fieldobj.zero, fieldobj.one
    oracles = []
    for g in (fieldobj.scalar(g) for g in gens):
        rows, contained = [], []
        for a in range(alg.dim):
            i, j = divmod(a, n)
            in_ideal = j == n - 1 and i < n - 1
            rows.append(tuple(((o / g) if in_ideal else o) if b == a else z
                              for b in range(alg.dim)))
            contained.append(alg.smul(g if in_ideal else o, alg.basis_vector(a)))
        oracles.append(SubringOracle(
            algebra=alg, domain=domain,
            provenance=f"matrix-chain(I=({fieldobj.scalar_text(g)}))",
            constraints=((domain, tuple(rows)),), contained_basis=tuple(contained)))
    return alg, oracles


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("domain", [integers(), p_local(2)], ids=["Z", "Z_(2)"])
def test_matrix_chain_matches_hand_written_rows(field_q, domain, n):
    gens = ["8", "2", "1"]
    chain = matrix_nice_chain(field_q, domain, gens, n)
    alg, reference = matrix_chain_reference(field_q, domain, gens, n)
    spec = SampleSpec(seed=40 + n, count=300, coef_bound=9, max_p_exp=3)
    rng = spec.rng()
    for oracle, ref in zip(chain.oracles, reference):
        assert oracle.provenance == ref.provenance
        assert oracle.contained_basis == ref.contained_basis
        verdicts = []
        for k in range(spec.count):
            x = sample_member(rng, spec, ref) if k % 3 == 0 else sample_algebra_element(rng, spec, alg)
            verdicts.append(ref.contains(x))
            assert oracle.contains(x) == verdicts[-1], alg.format_element(x)
        assert 100 <= verdicts.count(True) < spec.count
        if domain.is_valuation_like:
            assert lattices_equal(oracle, ref.contained_basis, domain, alg)
            lying_over = verify_nice(oracle, SampleSpec(seed=5, count=20)).checks[-1]
            assert lying_over.method == "exact" and lying_over.ok
        else:
            audit = SampleSpec(seed=90 + n, count=60)
            assert str(verify_nice(oracle, audit)) == str(verify_nice(ref, audit))


@pytest.mark.parametrize("case", ["M2(Q)/Z_(2)", "M2(Q)/Z", "M2(Q(t))/O_v"])
def test_wrong_length_element_is_refused(case, field_q, field_qt):
    fieldobj, domain = {"M2(Q)/Z_(2)": (field_q, p_local(2)),
                        "M2(Q)/Z": (field_q, integers()),
                        "M2(Q(t))/O_v": (field_qt, valuation_ring(field_qt))}[case]
    alg = matrix_algebra(fieldobj, 2)
    R = left_order(LatticeModule(alg, domain, units_of(alg)))
    half = fieldobj.scalar("1/2")
    for x in ((fieldobj.one, half), tuple(alg.unit) + (half,)):
        with pytest.raises(ConfigError):
            R.contains(x)
        if not domain.is_valuation_like:
            continue
        with pytest.raises(ConfigError):
            R.lattice_coords(x)
        with pytest.raises(ConfigError):
            support_mu(filter_qv(R), x)


# --- remarks ---------------------------------------------------------------------


def test_unit_in_basis_forces_r_inside_m(m2):
    S = p_local(2)
    basis = (m2.unit, m2.basis_vector(1), m2.basis_vector(2), m2.basis_vector(3))
    M = LatticeModule(m2, S, basis)
    R = left_order(M)
    rng = SplitMix64(37)
    spec = SampleSpec(seed=37, count=200)
    for _ in range(200):
        x = sample_member(rng, spec, R)
        assert lattice_membership(M, x)
        alpha = sample_scalar(rng, spec, m2.field)
        if lattice_membership(M, m2.smul(alpha, m2.unit)):
            assert S.contains(alpha)


def test_lattice_need_not_lie_over_s(sqrt2):
    # a basis containing 1/2 gives M with 1/2 in M but not in S
    Z = integers()
    B = (sqrt2.smul(Fraction(1, 2), sqrt2.unit), sqrt2.basis_vector(1))
    M = LatticeModule(sqrt2, Z, B)
    assert lattice_membership(M, sqrt2.smul(Fraction(1, 2), sqrt2.unit))
    assert not Z.contains(Fraction(1, 2))


def test_oracle_serialization(m2):
    from cutval.orders import oracle_to_json
    R = m2_z2_order(m2)
    data = oracle_to_json(R)
    assert data["provenance"] == "left-order"
    assert data["domain"] == {"kind": "Zp", "p": 2}
    assert len(data["lattice_basis"]) == 4
    rebuilt = tuple(m2.element(v) for v in data["lattice_basis"])
    assert rebuilt == R.lattice_basis


def test_intersection_of_chain_terms_equals_later(m2):
    # two nested descending-chain terms: intersecting them is the later one
    chain = descend_chain(chain_entry(m2), 2)
    o1, o2 = chain.oracles[1], chain.oracles[2]
    both = intersect_oracles([o1, o2])
    rng = SplitMix64(41)
    spec = SampleSpec(seed=41, count=200)
    for _ in range(200):
        x = sample_algebra_element(rng, spec, m2)
        assert both.contains(x) == o2.contains(x)


def test_exact_lying_over_failure_witness(m2):
    # artificial lattice whose unit expansion has no unit coordinate:
    # basis {(1/2)*1, e12, e21, e22} over Z_(2); alpha = 1/2 slips in
    from fractions import Fraction as F
    S = p_local(2)
    z, o, tw = F(0), F(1), F(2)
    rows = ((S, ((tw, z, z, z), (z, o, z, z), (z, z, o, z), (-o, z, z, o))),)
    basis = (m2.smul(F(1, 2), m2.unit), m2.basis_vector(1), m2.basis_vector(2),
             m2.basis_vector(3))
    fake = SubringOracle(algebra=m2, domain=S, provenance="half-unit-lattice",
                         constraints=rows, lattice_basis=basis, contained_basis=basis)
    assert fake.contains(m2.smul(F(1, 2), m2.unit))
    report = verify_nice(fake, SampleSpec(seed=43, count=50))
    lying = next(c for c in report.checks if c.name == "R cap F = S")
    assert not lying.ok and lying.method == "exact"
    assert "1/2" in lying.detail


def test_lattice_oracle_needs_one_group_of_dim_rows(m2):
    R = m2_z2_order(m2)
    (group,) = R.constraints
    for constraints in ((group, group), ((group[0], group[1].subset(range(m2.dim - 1))),),
                        ((p_local(3), group[1]),)):
        with pytest.raises(ConfigError):
            SubringOracle(algebra=m2, domain=R.domain, provenance="bad", constraints=constraints,
                          lattice_basis=R.lattice_basis, contained_basis=R.lattice_basis)


def test_left_order_composite_nontrivial_basis(field_qt):
    # exercises min-valuation pivoting with genuine rank-2 valuations
    from cutval.basedomain import valuation_ring
    from cutval.numfield import RationalFunction
    alg = matrix_algebra(field_qt, 2)
    S = valuation_ring(field_qt)
    t = RationalFunction.T
    two = field_qt.scalar(2)
    e = [alg.basis_vector(i) for i in range(4)]
    B = (alg.add(e[0], alg.smul(t, e[1])),       # e11 + t*e12
         alg.smul(field_qt.one / t, e[1]),       # e12 / t
         alg.smul(two, e[2]),                    # 2*e21
         alg.add(e[3], alg.smul(two, e[0])))     # e22 + 2*e11
    R = left_order(LatticeModule(alg, S, B))
    rng = SplitMix64(73)
    spec = SampleSpec(seed=73, count=60, poly_degree=1)
    for _ in range(60):
        x = sample_algebra_element(rng, spec, alg)
        by_lattice = all(S.contains(c) for c in R.lattice_coords(x))
        assert R.contains(x) == by_lattice
    report = verify_nice(R, SampleSpec(seed=74, count=40, poly_degree=1))
    assert report.ok, str(report)


def test_descend_chain_from_plain_units(m2):
    # starting certificate need not contain 1; insertion protects it per step
    cert = stabilizer_finite(m2, units_of(m2), p_local(2))
    chain = descend_chain(nice_from_certificate(cert), 2)
    for i, step in enumerate(chain.steps):
        assert chain.oracles[i].contains(step.witness)
        assert not chain.oracles[i + 1].contains(step.witness)
    spec = SampleSpec(seed=47, count=80)
    for oracle in chain.oracles:
        assert verify_nice(oracle, spec).ok


# --- row evaluation against the term-by-term Fraction reference --------------


def full_product_rows(alg, basis):
    """The n^2 rows of the left order of the lattice on `basis`, rebuilt by
    one solve per product: row (b, k) holds coordinate k of e_i * b."""
    rows = []
    for b in basis:
        cols = [solve_columns(alg.field, list(basis), alg.mul(alg.basis_vector(i), b))
                for i in range(alg.dim)]
        rows.extend(zip(*cols))
    return rows


def dot_reference(row, x):
    """Row value at x as a chain of Fraction multiplies and adds."""
    it = iter(zip(row, x))
    r0, x0 = next(it)
    acc = r0 * x0
    for r, c in it:
        if r and c:
            acc = acc + r * c
    return acc


def big_int(rng, bits):
    """A positive integer of exactly `bits` bits."""
    v = 0
    for _ in range(bits // 64 + 1):
        v = (v << 64) | rng.next_u64()
    return v % (1 << (bits - 1)) | (1 << (bits - 1))


def random_entry(rng, integral):
    """Zero, a small integer, or (unless integral) a small or huge rational;
    either sign."""
    kind = rng.randrange(5 if not integral else 3)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    if kind == 2:
        return Fraction(big_int(rng, 1100) * (-1) ** rng.randrange(2))
    if kind == 3:
        return Fraction(rng.randint(-99, 99), rng.randint(1, 60))
    return Fraction(big_int(rng, 1030) * (-1) ** rng.randrange(2), big_int(rng, 1010))


def test_rows_match_fraction_reference(field_q):
    rng = SplitMix64(97)
    huge = 0
    for _ in range(150):
        n = rng.randint(1, 9)
        rows = [tuple(random_entry(rng, integral=rng.randrange(3) == 0) for _ in range(n))
                for _ in range(rng.randint(1, 6))]
        rows.append((Fraction(0),) * n)
        x = tuple(random_entry(rng, integral=rng.randrange(3) == 0) for _ in range(n))
        got = list(_Rows(field_q, rows).values(x))
        assert got == [dot_reference(row, x) for row in rows]
        assert all(type(c) is Fraction for c in got)
        huge += any(c.numerator.bit_length() > 1000 for row in rows for c in row)
    assert huge > 50


def test_rows_over_qt_keep_the_term_loop(field_qt):
    t = RationalFunction.T
    one = field_qt.one
    rows = [(one / t, field_qt.scalar(3), field_qt.zero), (t * t, one / (one + t), t)]
    x = (t, field_qt.scalar("1/2"), one / (t + one))
    assert list(_Rows(field_qt, rows).values(x)) == [dot_reference(r, x) for r in rows]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_row_valuations_match_reduced_values(p):
    """Rows over Q with p = 3, read by Z_(p) for p = 2, 3, 5 and by Z: the
    one read of a set is the least v_p of its reduced values (None when
    all are 0) and the lcm of their denominators, and the read of each
    row alone is that row's v_p; zero rows and nonzero rows with a zero
    value included."""
    vf, domain = ValuedField("Q", p), p_local(p)
    rng = SplitMix64(131 + p)
    zeros, signs = 0, set()
    for _ in range(150):
        n = rng.randint(2, 9)
        rows = [tuple(random_entry(rng, integral=rng.randrange(3) == 0) for _ in range(n))
                for _ in range(rng.randint(1, 6))]
        x = tuple(random_entry(rng, integral=rng.randrange(3) == 0) for _ in range(n))
        x = x[:-1] + (x[-1] or Fraction(1),)
        rows.append((Fraction(0),) * n)
        rows.append((x[-1],) + (Fraction(0),) * (n - 2) + (-x[0],))  # row . x = 0
        cleared = _Rows(ValuedField("Q", 3), rows)
        values = list(cleared.values(x))
        vals = [vf.value(c) for c in values if c]
        assert list(domain.reads(cleared, x)) == [min(vals) if vals else None]
        assert list(integers().reads(cleared, x)) == [lcm(*(c.denominator for c in values))]
        got = [domain.reads(_Rows(ValuedField("Q", 3), [row]), x)[0] for row in rows]
        assert got == [vf.value(c) if c else None for c in values]
        zeros += got.count(None)
        signs.update((v[0] > 0) - (v[0] < 0) for v in got if v is not None)
    assert zeros >= 300 and signs == {-1, 0, 1}
    with pytest.raises(ConfigError):
        _Rows(vf, [(Fraction(1), Fraction(2))]).content((Fraction(1),))


def test_row_valuations_over_qt_are_the_values_valuations(field_qt):
    t = RationalFunction.T
    one = field_qt.one
    rows = [(one / t, field_qt.scalar(3), field_qt.zero), (t * t, one / (one + t), t),
            (field_qt.zero,) * 3]
    x = (t, field_qt.scalar("1/2"), one / (t + one))
    cleared = _Rows(field_qt, rows)
    assert list(cleared.valuations(x, field_qt)) == [field_qt.value(c) for c in cleared.values(x)]


def test_membership_reads_the_domain_prime():
    """M2 over Q with p = 3 and its left orders over Z_(2): contains and
    support_mu read v_2, checked against the full product rows and the
    reduced coordinates."""
    alg, domain = matrix_algebra(ValuedField("Q", 3), 2), p_local(2)
    vf = domain.valued_field
    for seed in (11, 12, 13):
        basis = random_basis(alg, seed, coef_bound=5, max_p_exp=2)
        R = left_order(LatticeModule(alg, domain, basis))
        assert_lattice_matches_full_rows(R, full_product_rows(alg, basis),
                                         SampleSpec(seed=seed, count=12))
        qv = filter_qv(R)
        spec = SampleSpec(seed=seed, count=12)
        rng = spec.rng()
        for k in range(12):
            x = sample_member(rng, spec, R) if k % 2 else sample_algebra_element(rng, spec, alg)
            vals = [vf.value(c) for c in R.lattice_coords(x) if c]
            assert support_mu(qv, x).mu == (min(vals) if vals else None)
        assert support_mu(qv, alg.zero).mu is None


def sample_member_reference(rng, spec, oracle):
    """The member draw that folded add and smul over the contained basis."""
    alg = oracle.algebra
    x = alg.zero
    for b in oracle.contained_basis:
        x = alg.add(x, alg.smul(sample_in_domain(rng, spec, oracle.domain), b))
    return x


@pytest.mark.parametrize("name", ["M3(Q)/Z_(3) lattice", "M3(Q)/Z predicate",
                                  "M2(Q(t))/O_v", "Q(t)[x]/(x^2-t)/O_v"])
def test_sample_member_matches_fold(name):
    q3, qt = ValuedField("Q", 3), ValuedField("Qt", 2)
    spec = SampleSpec(seed=137, count=0)
    if name.startswith("M3"):
        alg = matrix_algebra(q3, 3)
        domain = p_local(3) if "Z_(3)" in name else integers()
        R = nice_from_certificate(stabilizer_finite(
            alg, random_basis(alg, 7, coef_bound=5, max_p_exp=2), domain))
    elif name.startswith("M2"):
        alg = matrix_algebra(qt, 2)
        R = left_order(LatticeModule(alg, valuation_ring(qt), units_of(alg)))
        spec = SampleSpec(seed=137, count=0, poly_degree=1)
    else:
        alg = quadratic_algebra(qt, RationalFunction.T)
        R = left_order(LatticeModule(alg, valuation_ring(qt), random_basis(
            alg, 303, coef_bound=3, max_p_exp=1, poly_degree=2)))
        spec = SampleSpec(seed=137, count=0, poly_degree=1)
    assert (R.lattice_basis is None) == (name == "M3(Q)/Z predicate")
    rng, ref_rng = spec.rng(), spec.rng()
    for _ in range(40):
        x = sample_member(rng, spec, R)
        assert x == sample_member_reference(ref_rng, spec, R)
        assert rng.state == ref_rng.state
        assert R.contains(x)


def mu_reference(qv, rows, x):
    """mu(x) by the definition of the support: the least valuation of the
    coordinates of every x*r_j in R's basis, read on R's n^2 product rows."""
    vals = [qv.field.value(c) for c in (dot_reference(row, x) for row in rows) if c]
    return min(vals) if vals else None


def clearing_reference(qv, rows, x):
    """eval_via_clearing on the n^2 product rows' values."""
    coeffs = [dot_reference(row, x) for row in rows]
    if not any(coeffs):
        return INF
    s = qv.domain.clear_many(coeffs)
    return value_translate(embed_phi(mu_reference(qv, rows, qv.algebra.smul(s, x))),
                           qv.field.value(s))


@pytest.mark.parametrize("domain", [p_local(3), integers()], ids=["Z_(3)", "Z"])
def test_m3_random_basis_rows_match_reference(domain):
    field = ValuedField("Q", 3)
    alg = matrix_algebra(field, 3)
    draw = SampleSpec(seed=7, count=0, coef_bound=5, max_p_exp=2)
    rng = draw.rng()
    basis = None
    while basis is None:
        cand = [tuple(sample_scalar(rng, draw, field) for _ in range(alg.dim))
                for _ in range(alg.dim)]
        if rank_of(field, cand) == alg.dim:
            basis = tuple(cand)
    R = nice_from_certificate(stabilizer_finite(alg, basis, domain))
    rows = full_product_rows(alg, R.certificate.basis)
    qv = filter_qv(R) if domain.is_valuation_like else None
    qv_rows = full_product_rows(alg, R.lattice_basis) if qv else None
    spec = SampleSpec(seed=101, count=12)
    rng = spec.rng()
    members = 0
    for k in range(12):
        x = sample_member(rng, spec, R) if k % 2 else sample_algebra_element(rng, spec, alg)
        inside = all(domain.contains(dot_reference(row, x)) for row in rows)
        assert R.contains(x) == inside
        members += inside
        if qv is None:
            continue
        assert R.lattice_coords(x) == tuple(dot_reference(row, x) for row in R.lattice_rows)
        assert support_mu(qv, x).mu == mu_reference(qv, qv_rows, x)
        assert eval_via_clearing(qv, x) == clearing_reference(qv, qv_rows, x)
    assert members >= 6


# --- lattice oracles against their full product rows ------------------------------


def random_basis(alg, seed, **draw):
    spec = SampleSpec(seed=seed, count=0, **draw)
    rng = spec.rng()
    while True:
        cand = [tuple(sample_scalar(rng, spec, alg.field) for _ in range(alg.dim))
                for _ in range(alg.dim)]
        if rank_of(alg.field, cand) == alg.dim:
            return tuple(cand)


def assert_lattice_matches_full_rows(R, rows, spec):
    """contains and lattice_coords in S^n both equal "every full row lands
    in S" on random elements, members, and members pushed out by 1/s0."""
    alg, domain = R.algebra, R.domain
    assert len(R.constraints) == 1 and len(R.lattice_rows) == alg.dim
    assert R.contained_basis == R.lattice_basis
    rng = spec.rng()
    out_by = domain.one / domain.noninvertible()
    points = list(R.lattice_basis) + [alg.smul(out_by, b) for b in R.lattice_basis]
    for k in range(spec.count):
        x = sample_member(rng, spec, R) if k % 2 else sample_algebra_element(rng, spec, alg)
        points += [x, alg.smul(out_by, x)]
    verdicts = set()
    for x in points:
        inside = all(domain.contains(dot_reference(row, x)) for row in rows)
        assert R.contains(x) == inside
        assert all(domain.contains(c) for c in R.lattice_coords(x)) == inside
        verdicts.add(inside)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", ["M3(Q)/Z_(3)", "Q(t)[x]/(x^2-t)/O_v", "M2(Qt)/O_v"])
def test_lattice_oracle_matches_full_product_rows(name):
    if name == "M3(Q)/Z_(3)":
        alg, domain = matrix_algebra(ValuedField("Q", 3), 3), p_local(3)
        bases = [random_basis(alg, seed, coef_bound=5, max_p_exp=2) for seed in (7, 8)]
        spec = SampleSpec(seed=109, count=10)
    elif name == "M2(Qt)/O_v":
        # the random M2(Q(t)) basis of the ROADMAP baseline, whose lattice
        # entries reach t-degree 21; its points are the basis and the basis
        # pushed out, as one sampled member costs seconds on that basis
        field = ValuedField("Qt", 2)
        alg, domain = matrix_algebra(field, 2), valuation_ring(field)
        bases = [random_basis(alg, 7, coef_bound=4, max_p_exp=2, poly_degree=1)]
        cert = stabilizer_finite(alg, bases[0], domain)
        assert is_stable(alg, cert.basis, cert.stabilizer, domain).ok
        spec = SampleSpec(seed=109, count=0)
    else:
        field = ValuedField("Qt", 2)
        alg, domain = quadratic_algebra(field, RationalFunction.T), valuation_ring(field)
        bases = [random_basis(alg, seed, coef_bound=3, max_p_exp=1, poly_degree=2)
                 for seed in (303, 304, 305)]
        spec = SampleSpec(seed=109, count=10, poly_degree=1)
    for basis in bases:
        R = left_order(LatticeModule(alg, domain, basis))
        assert_lattice_matches_full_rows(R, full_product_rows(alg, basis), spec)


def test_descend_chain_steps_match_full_product_rows(m2):
    # step k is the intersection of the left orders of the first k + 1
    # certificates' lattices: its full rows are theirs, stacked
    chain = descend_chain(chain_entry(m2), 2)
    rows = []
    for oracle in chain.oracles:
        rows += full_product_rows(m2, oracle.certificate.basis)
        assert_lattice_matches_full_rows(oracle, rows, SampleSpec(seed=113, count=20))


def test_going_down_scales_by_the_target_denominators(m2):
    # Z_(3) -> Z on {1, e12/3, 3*e21, e22}: powers of 2 cannot clear the 1/3
    r2 = left_order(LatticeModule(m2, p_local(3), units_of(m2)))
    basis = (m2.unit, m2.smul(Fraction(1, 3), m2.basis_vector(1)),
             m2.smul(Fraction(3), m2.basis_vector(2)), m2.basis_vector(3))
    r1 = going_down(r2, integers(), basis)
    assert all(r1.contains(b) for b in r1.contained_basis)
    report = verify_nice(r1, SampleSpec(seed=127, count=60))
    assert report.ok, str(report)
