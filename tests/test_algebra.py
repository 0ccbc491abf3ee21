from __future__ import annotations

from fractions import Fraction

import pytest

from cutval.algebra import (PolynomialAlgebra, StructureAlgebra, TableReport, _Rows,
                            check_associative_unital, extend_to_basis,
                            is_independent, matrix_algebra, matrix_element,
                            quadratic_algebra, solve_columns)
from cutval.basedomain import integers, p_local
from cutval.errors import StructuralError
from cutval.numfield import QVector, RationalFunction, ValuedField, _cleared
from cutval.orders import LatticeModule, left_order
from cutval.samplers import sample_algebra_element, sample_in_domain, sample_member, sample_scalar
from cutval.sampling import SampleSpec, SplitMix64, sample_int
from test_kernel import FRACTIONAL, M3_DRAW, draw_bases, mul_reference


@pytest.fixture
def m2(field_q):
    return matrix_algebra(field_q, 2)


@pytest.fixture
def sqrt2(field_q):
    return quadratic_algebra(field_q, 2)


def test_matrix_unit_rule(m2):
    e12, e21, e11 = m2.basis_vector(1), m2.basis_vector(2), m2.basis_vector(0)
    assert m2.mul(e12, e21) == e11
    assert m2.mul(e12, e12) == m2.zero


def test_sqrt2_table(sqrt2):
    s = sqrt2.basis_vector(1)
    assert sqrt2.mul(s, s) == sqrt2.element(["2", "0"])


def test_poly_backend_product(field_q):
    A = PolynomialAlgebra(field_q)
    one_plus_y = A.element({0: 1, 1: 1})
    one_minus_y = A.element({0: 1, 1: -1})
    assert A.mul(one_plus_y, one_minus_y) == A.element({0: 1, 2: -1})
    assert A.format_element(A.zero) == "0"
    assert A.format_element(one_minus_y) == "1*y^0 + -1*y^1"


def test_coords_examples(m2, sqrt2):
    B = [sqrt2.element(["1", "1"]), sqrt2.element(["1", "-1"])]  # 1+s, 1-s
    assert solve_columns(sqrt2.field, B, sqrt2.unit) == (Fraction(1, 2), Fraction(1, 2))
    units = [m2.basis_vector(i) for i in range(4)]
    assert solve_columns(m2.field, units, m2.unit) == tuple(map(Fraction, (1, 0, 0, 1)))
    B2 = [sqrt2.unit, sqrt2.element(["0", "1/3"])]
    assert solve_columns(sqrt2.field, B2, sqrt2.basis_vector(1)) == (Fraction(0), Fraction(3))
    with pytest.raises(StructuralError):
        solve_columns(sqrt2.field, [sqrt2.unit, sqrt2.smul(Fraction(2), sqrt2.unit)], sqrt2.unit)


def test_check_associative_unital(m2, field_q):
    assert check_associative_unital(m2).ok
    dual = quadratic_algebra(field_q, 0)  # Q[x]/(x^2)
    assert check_associative_unital(dual).ok
    # corrupt one structure constant of M2: e12*e21 := e11 + e22
    table = [list(row) for row in m2.table]
    table[1][2] = m2.element(["1", "0", "0", "1"])
    bad = StructureAlgebra(m2.field, m2.names, tuple(tuple(r) for r in table), m2.unit)
    report = check_associative_unital(bad)
    assert not report.ok and report.witness is not None
    i, j, k = report.witness
    b = [bad.basis_vector(t) for t in range(4)]
    assert bad.mul(bad.mul(b[i], b[j]), b[k]) != bad.mul(b[i], bad.mul(b[j], b[k]))


def test_coords_roundtrip_fuzz(m2):
    rng = SplitMix64(41)
    spec = SampleSpec(seed=41, count=100)
    units = [m2.basis_vector(i) for i in range(4)]
    for _ in range(100):
        x = sample_algebra_element(rng, spec, m2)
        coords = solve_columns(m2.field, units, x)
        acc = m2.zero
        for c, b in zip(coords, units):
            acc = m2.add(acc, m2.smul(c, b))
        assert acc == x


def _as_matrix(x):
    return [[x[0], x[1]], [x[2], x[3]]]


def _matmul(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]


def test_m2_multiply_matches_textbook(m2):
    rng = SplitMix64(43)
    spec = SampleSpec(seed=43, count=200)
    for _ in range(200):
        x = sample_algebra_element(rng, spec, m2)
        y = sample_algebra_element(rng, spec, m2)
        prod = _matmul(_as_matrix(x), _as_matrix(y))
        assert m2.mul(x, y) == matrix_element(m2, prod)


def test_solve_inconsistent(sqrt2):
    with pytest.raises(StructuralError):
        solve_columns(sqrt2.field, [sqrt2.unit], sqrt2.basis_vector(1))


def test_extend_to_basis(m2):
    out = extend_to_basis(m2, [m2.unit])
    assert len(out) == 4 and is_independent(m2.field, out)
    assert out[0] == m2.unit


def test_qt_matrix_algebra(field_qt):
    alg = matrix_algebra(field_qt, 2)
    assert check_associative_unital(alg).ok
    rng = SplitMix64(47)
    spec = SampleSpec(seed=47, count=10, poly_degree=1)
    x = sample_algebra_element(rng, spec, alg)
    y = sample_algebra_element(rng, spec, alg)
    prod = _matmul(_as_matrix(x), _as_matrix(y))
    assert alg.mul(x, y) == matrix_element(alg, prod)


def table_check_reference(alg):
    """The scan the cell-based check replaced: 3n^3 general products."""
    n = alg.dim
    basis = [alg.basis_vector(i) for i in range(n)]
    for i in range(n):
        ei = basis[i]
        if alg.mul(alg.unit, ei) != ei:
            return TableReport(False, n, "left unit law fails", (i,))
        if alg.mul(ei, alg.unit) != ei:
            return TableReport(False, n, "right unit law fails", (i,))
    for i in range(n):
        for j in range(n):
            ij = alg.mul(basis[i], basis[j])
            for k in range(n):
                left = alg.mul(ij, basis[k])
                right = alg.mul(basis[i], alg.mul(basis[j], basis[k]))
                if left != right:
                    return TableReport(False, n, "associativity fails", (i, j, k))
    return TableReport(True, n)


def table_algebras():
    q, qt = ValuedField("Q", 3), ValuedField("Qt", 3)
    algs = [matrix_algebra(q, 2), matrix_algebra(q, 3), quadratic_algebra(q, 0),
            quadratic_algebra(q, 2), matrix_algebra(qt, 2),
            quadratic_algebra(qt, RationalFunction.T)]
    return algs + [make() for make in FRACTIONAL.values()]


def test_cell_table_check_matches_full_scan():
    """Same report, text and first witness, on valid tables and on tables
    with one structure constant replaced."""
    rng = SplitMix64(331)
    spec = SampleSpec(seed=331, count=0, coef_bound=3, max_p_exp=1, poly_degree=1)
    failures = set()
    for alg in table_algebras():
        report = check_associative_unital(alg)
        assert report.ok and report == table_check_reference(alg)
        for _ in range(12):
            i, j, k = (rng.randrange(alg.dim) for _ in range(3))
            table = [[list(vec) for vec in row] for row in alg.table]
            table[i][j][k] = table[i][j][k] + (sample_scalar(rng, spec, alg.field) or alg.field.one)
            bad = StructureAlgebra(alg.field, alg.names,
                                   tuple(tuple(map(tuple, row)) for row in table), alg.unit)
            report = check_associative_unital(bad)
            assert report == table_check_reference(bad)
            assert str(report) == str(table_check_reference(bad))
            failures.add(report.failure)
    assert failures >= {"associativity fails", "left unit law fails", "right unit law fails"}


# --- elements over Q as one clearing, against the Fraction tuples they replaced ---


def add_reference(x, y):
    return tuple(a + b for a, b in zip(x, y))


def smul_reference(c, x):
    return tuple(c * a for a in x)


def is_zero_reference(x):
    return all(not c for c in x)


def scalar_of_reference(unit, x):
    pivot = next((i for i, u in enumerate(unit) if u), None)
    alpha = x[pivot] / unit[pivot]
    if x == smul_reference(alpha, unit):
        return alpha
    return None


def sample_algebra_element_reference(rng, spec, alg):
    """The Fraction sampler that the cleared one replaced, verbatim."""
    coords = []
    for _ in range(alg.dim):
        if rng.randrange(4) == 0:
            coords.append(alg.field.zero)
        else:
            coords.append(sample_scalar(rng, spec, alg.field))
    return tuple(coords)


def sample_in_domain_reference(rng, spec, domain):
    """sample_in_domain's Fraction draw in Z or Z_(p), as it was written."""
    field = domain.valued_field
    if field is None:
        return Fraction(sample_int(rng, spec.coef_bound))
    p = field.p
    num = sample_int(rng, spec.coef_bound) * p ** rng.randint(0, 1)
    while True:
        den = rng.randint(1, 9)
        if den % p != 0:
            break
    return Fraction(num, den)


def sample_member_reference(rng, spec, oracle):
    """The member draw that the cleared one replaced: sample_in_domain
    coefficients of the contained basis, summed in Fractions."""
    basis = [tuple(b) for b in oracle.contained_basis]
    coeffs = [sample_in_domain_reference(rng, spec, oracle.domain) for _ in basis]
    return tuple(sum((c * b[k] for c, b in zip(coeffs, basis)), Fraction(0))
                 for k in range(oracle.algebra.dim))


def assert_cleared(got, ref):
    """got is the QVector of the Fraction tuple ref: its one canonical
    clearing, equal to ref both ways, hashed as ref, and read back as ref."""
    assert type(got) is QVector
    assert (list(got.ints), got.den) == _cleared(ref)
    assert got == ref and ref == got and not got != ref and hash(got) == hash(ref)
    assert tuple(got) == ref and tuple(got[i] for i in range(len(ref))) == ref == got[:]


Q_ELEMENT_ALGEBRAS = {
    "M3(Q)": lambda: matrix_algebra(ValuedField("Q", 3), 3),
    "Q(sqrt 2)": lambda: quadratic_algebra(ValuedField("Q", 2), 2),
    "Q[x]/(x^2-3/4)": FRACTIONAL["Q[x]/(x^2-3/4)"],  # a table over D = 4
}


@pytest.mark.parametrize("name", sorted(Q_ELEMENT_ALGEBRAS))
def test_cleared_elements_match_the_fraction_tuples(name):
    """Over Q, sample_algebra_element draws the Fraction sampler's values
    and leaves the stream where it did; add, smul, mul, is_zero and
    scalar_of agree with the Fraction tuple arithmetic they replaced, on
    drawn elements, 0, 1, the basis vectors and scalars, given as QVectors
    or as tuples; equality and hashing are the tuple's."""
    alg = Q_ELEMENT_ALGEBRAS[name]()
    spec = SampleSpec(seed=71, count=0, coef_bound=5, max_p_exp=2)
    rng, ref_rng = spec.rng(), spec.rng()
    points = []
    for _ in range(24):
        x = sample_algebra_element(rng, spec, alg)
        ref = sample_algebra_element_reference(ref_rng, spec, alg)
        assert_cleared(x, ref)
        assert rng.state == ref_rng.state
        points.append((x, ref))
    unit = tuple(alg.unit)
    special = [alg.zero, alg.unit] + [alg.basis_vector(i) for i in range(alg.dim)]
    special.append(alg.smul(Fraction(-9, 4), alg.unit))
    assert_cleared(alg.zero, (Fraction(0),) * alg.dim)
    assert alg.zero.den == 1 and alg.add(alg.unit, alg.smul(Fraction(-1), alg.unit)) == alg.zero
    points += [(x, tuple(x)) for x in special]
    scalars = [Fraction(0), Fraction(1), Fraction(-1), Fraction(-7, 12), Fraction(27, 2)]
    pairs = [(a, b) for a in points[:10] + points[-4:] for b in points[5:15] + points[-4:]]
    for (x, xr), (y, yr) in pairs:
        assert_cleared(alg.add(x, y), add_reference(xr, yr))
        assert_cleared(alg.mul(x, y), mul_reference(alg, xr, yr))
        assert alg.mul(xr, yr) == alg.mul(x, y) and alg.add(xr, y) == alg.add(x, yr)
        assert (x == y) == (xr == yr) and (x == yr) == (xr == y)
    for x, xr in points:
        for c in scalars:
            assert_cleared(alg.smul(c, x), smul_reference(c, xr))
            assert alg.scalar_of(alg.smul(c, alg.unit)) == c
        assert alg.is_zero(x) == alg.is_zero(xr) == is_zero_reference(xr)
        assert alg.scalar_of(x) == scalar_of_reference(unit, xr)
        assert xr in {x} and x in {xr} and {x: 1}[xr] == 1
        bumped = (xr[0] + 1,) + xr[1:]
        assert x != bumped and bumped != x and x != list(xr)


def test_arithmetic_over_q_builds_no_fraction(monkeypatch):
    """On QVectors add, smul, mul and is_zero, and the valuation and
    denominator reads of a _Rows, make no Fraction."""
    alg = matrix_algebra(ValuedField("Q", 3), 3)
    spec = SampleSpec(seed=72, count=0, coef_bound=5, max_p_exp=2)
    rng = spec.rng()
    xs = [sample_algebra_element(rng, spec, alg) for _ in range(8)]
    rows = _Rows(alg.field, [tuple(x) for x in xs])
    made, new = [0], Fraction.__new__

    def counted(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counted)
    assert Fraction(1, 2) and made == [1]
    c = xs[0][0] or Fraction(5, 3)
    made[0] = 0
    for x, y in zip(xs, xs[1:]):
        alg.add(x, y), alg.smul(c, x), alg.mul(x, y), alg.is_zero(x)
        list(rows.valuations(x, alg.field)), list(rows.denominators(x))
    assert made == [0]


@pytest.mark.parametrize("case", ["M3(Q)/Z_(3)", "Q(sqrt 2)/Z_(2)", "Q(sqrt 2)/Z"])
def test_sample_member_draws_the_fraction_members(case):
    """sample_member, now integer draws and one integer evaluation of the
    basis rows, draws the members that the Fraction sum of sample_in_domain
    coefficients times the contained basis drew, and leaves the stream
    where it did; sample_in_domain still draws its Fractions."""
    if case == "M3(Q)/Z_(3)":
        alg = matrix_algebra(ValuedField("Q", 3), 3)
        basis, domain = draw_bases(alg, 73, M3_DRAW, 1)[0], p_local(3)
    else:
        alg = quadratic_algebra(ValuedField("Q", 2), 2)
        basis = (alg.unit, alg.smul(Fraction(1, 4), alg.basis_vector(1)))
        domain = p_local(2) if case.endswith("Z_(2)") else integers()
    R = left_order(LatticeModule(alg, domain, basis))
    spec = SampleSpec(seed=74, count=0, coef_bound=9, max_p_exp=3)
    rng, ref_rng = spec.rng(), spec.rng()
    for _ in range(30):
        assert_cleared(sample_member(rng, spec, R), sample_member_reference(ref_rng, spec, R))
        assert rng.state == ref_rng.state
        assert sample_in_domain(rng, spec, domain) == sample_in_domain_reference(ref_rng, spec, domain)
        assert rng.state == ref_rng.state
