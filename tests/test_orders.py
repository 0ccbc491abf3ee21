from __future__ import annotations

from fractions import Fraction

import pytest

from cutval.algebra import (PolynomialAlgebra, coords_in_basis, matrix_algebra,
                            matrix_element, quadratic_algebra, rank_of)
from cutval.basedomain import integers, p_local
from cutval.cuts import INF, embed_phi, value_translate
from cutval.errors import DomainError, StructuralError
from cutval.numfield import RationalFunction, ValuedField
from cutval.orders import (IdealSpec, LatticeModule, PolySubring,
                           SubringOracle, _Rows, descend_chain, going_down,
                           intersect_oracles, lattice_membership, left_order,
                           matrix_nice_chain, nice_from_certificate,
                           nice_with_ideal, verify_nice)
from cutval.quasival import eval_via_clearing, filter_qv, support_mu
from cutval.samplers import (sample_algebra_element, sample_member,
                             sample_poly_element, sample_scalar)
from cutval.sampling import SampleSpec, SplitMix64
from cutval.stability import stabilizer_finite


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


# --- left orders ------------------------------------------------------------


def lattices_equal(oracle, basis, domain, alg):
    """Mutual S-membership of the two generating sets."""
    return (all(oracle.contains(b) for b in basis)
            and all(all(domain.contains(c)
                        for c in coords_in_basis(alg, r, list(basis)))
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


def test_ideal_validation(dual, m2):
    with pytest.raises(DomainError):
        IdealSpec(dual, (dual.unit, dual.basis_vector(1))).validate()  # not proper
    with pytest.raises(DomainError):
        nice_with_ideal(IdealSpec(m2, (m2.basis_vector(1),)), integers())  # not an ideal


# --- going down, intersections ------------------------------------------------


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


def test_descend_chain_needs_certificate(m2):
    R = m2_z2_order(m2)  # built without a certificate
    with pytest.raises(DomainError):
        descend_chain(R, 1)


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


def test_matrix_chain_requires_ascending(field_q):
    with pytest.raises(DomainError):
        matrix_nice_chain(field_q, integers(), ["2", "4"], 2)
    with pytest.raises(DomainError):
        matrix_nice_chain(field_q, integers(), ["2", "2"], 2)


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
                         constraints=rows, lattice_basis=basis,
                         lattice_rows=rows[0][1], contained_basis=basis)
    assert fake.contains(m2.smul(F(1, 2), m2.unit))
    report = verify_nice(fake, SampleSpec(seed=43, count=50))
    lying = next(c for c in report.checks if c.name == "R cap F = S")
    assert not lying.ok and lying.method == "exact"
    assert "1/2" in lying.detail


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


def clearing_reference(qv, x):
    """eval_via_clearing on reference row values."""
    coeffs = [dot_reference(row, x) for row in qv.product_rows]
    if not any(coeffs):
        return INF
    s = qv.domain.clear_many(coeffs)
    sx = qv.algebra.smul(s, x)
    vals = [qv.field.value(c) for c in (dot_reference(row, sx) for row in qv.product_rows) if c]
    return value_translate(embed_phi(min(vals)), qv.field.value(s))


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
    qv = filter_qv(R) if domain.is_valuation_like else None
    spec = SampleSpec(seed=101, count=12)
    rng = spec.rng()
    members = 0
    for k in range(12):
        x = sample_member(rng, spec, R) if k % 2 else sample_algebra_element(rng, spec, alg)
        inside = all(dom.contains(dot_reference(row, x))
                     for dom, rows in R.constraints for row in rows)
        assert R.contains(x) == inside
        members += inside
        if qv is None:
            continue
        assert R.lattice_coords(x) == tuple(dot_reference(row, x) for row in R.lattice_rows)
        vals = [qv.field.value(c) for c in (dot_reference(row, x) for row in qv.product_rows)
                if c]
        assert support_mu(qv, x).mu == (min(vals) if vals else None)
        assert eval_via_clearing(qv, x) == clearing_reference(qv, x)
    assert members >= 6
