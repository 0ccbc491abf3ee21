from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import pytest

from cutval.algebra import (PolynomialAlgebra, StructureAlgebra, TableReport, _Rows,
                            check_associative_unital, extend_to_basis,
                            is_independent, matrix_algebra, matrix_element,
                            quadratic_algebra, solve_columns)
from cutval import orders
from cutval.basedomain import integers, p_local, valuation_ring
from cutval.errors import StructuralError
from cutval.numfield import (Polynomial, QtVector, QVector, RationalFunction, ValuedField, _cleared,
                             _zt_gcd)
from cutval.orders import LatticeModule, left_order
from cutval.samplers import sample_algebra_element, sample_in_domain, sample_member, sample_scalar
from cutval.sampling import SampleSpec, SplitMix64, rational_pair, sample_int
from cutval.stability import stabilizer_finite
from test_kernel import FRACTIONAL, M3_DRAW, draw_bases, mul_reference, t_order


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
    """On QVectors add, smul, mul and is_zero, and the one read of a
    _Rows (`content`) and the Z and Z_(3) reads made of it, make no
    Fraction."""
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
        rows.content(x), integers().reads(rows, x), p_local(3).reads(rows, x)
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


# --- elements over Q(t) as one clearing, against the RationalFunction tuples they replaced ---


QT2 = ValuedField("Qt", 2)
E2E_QT_DRAW = dict(coef_bound=4, max_p_exp=2, poly_degree=1)  # tests/e2e_random_basis.py "M2(Q(t))"
QT_ELEMENT_ALGEBRAS = {
    "M2(Q(t))": lambda: matrix_algebra(QT2, 2),
    "Q(t)[x]/(x^2-t)": lambda: quadratic_algebra(QT2, RationalFunction.T),
    # a table over D = t, so a product that drops the table's denominator shows
    "Q(t)[x]/(x^2-1/t)": lambda: quadratic_algebra(QT2, QT2.scalar({"num": ["1"], "den": ["0", "1"]})),
}


def sample_ratfunc_reference_before_clearing(rng, spec, p):
    """sample_ratfunc as it was before Q(t) elements were cleared, with the
    reducing constructor in place of its own cancellation: the same draws
    from the stream, reduced by Euclid."""
    deg = rng.randint(0, spec.poly_degree)
    pairs = [rational_pair(rng, spec, p) for _ in range(deg + 1)]
    d = lcm(*(b for _, b in pairs))
    num = Polynomial._from_ints([a * (d // b) for a, b in pairs], d)
    shape = rng.randrange(3)
    if shape == 0 or num.is_zero():
        return RationalFunction(num)
    if shape == 1:
        k = rng.randint(1, 2)
        j = min(t_order(num), k)
        num = Polynomial._from_ints(num.ints[j:], num.den)
        return RationalFunction(num, Polynomial((0,) * (k - j) + (1,)))
    a, b = rational_pair(rng, spec, p)
    if not a:
        return RationalFunction(num)
    # num / (1 + c*t) for c = a/b
    num = Polynomial._from_ints([x * b for x in num.ints], num.den)
    return RationalFunction(num, Polynomial((b, a)))


def sample_qt_element_reference(rng, spec, alg):
    """sample_algebra_element over Q(t) before the clearing: a tuple."""
    return tuple(alg.field.zero if rng.randrange(4) == 0
                 else sample_ratfunc_reference_before_clearing(rng, spec, alg.field.p)
                 for _ in range(alg.dim))


def sample_ov_reference(rng, spec, field):
    """sample_in_domain over O_v before the clearing, with the reducing
    constructor in place of the trusted one."""
    f = sample_ratfunc_reference_before_clearing(rng, spec, field.p)
    if f.is_zero():
        return f
    v = field.value(f)
    if v >= (0, 0):
        return f
    n, a, den = max(0, -v[0]), max(0, -v[1]), f.den
    m = min(n, t_order(den))
    num = Polynomial._from_ints([0] * (n - m) + [x * field.p ** a for x in f.num.ints], f.num.den)
    return RationalFunction(num, Polynomial._from_ints(den.ints[m:], den.den) if m else den)


def sample_qt_member_reference(rng, spec, oracle):
    """sample_member over Q(t) before the clearing: the contained basis
    combined with sample_in_domain coefficients in RationalFunctions."""
    basis = [tuple(b) for b in oracle.contained_basis]
    coeffs = [sample_ov_reference(rng, spec, oracle.domain.valued_field) for _ in basis]
    out = []
    for k in range(oracle.algebra.dim):
        acc = RationalFunction.ZERO
        for c, b in zip(coeffs, basis):
            if c and b[k]:
                acc = acc + c * b[k]
        out.append(acc)
    return tuple(out)


def row_values_reference(rows, x):
    """The values of stored scalar rows at a scalar tuple x, in RationalFunctions."""
    out = []
    for row in rows.stored:
        acc = RationalFunction.ZERO
        for r, c in zip(row, x):
            if r and c:
                acc = acc + r * c
        out.append(acc)
    return tuple(out)


def gcd_mod(a, b, q):
    """gcd(a, b) over GF(q), by Euclid, for integer lists: a list of
    residues without trailing zeros, [] for two zeros."""
    def reduced(c):
        c = [x % q for x in c]
        while c and not c[-1]:
            c.pop()
        return c
    a, b = reduced(a), reduced(b)
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            f, s = a[-1] * inv % q, len(a) - len(b)
            for i, y in enumerate(b):
                a[s + i] = (a[s + i] - f * y) % q
            a = reduced(a)
        a, b = b, a
    return a


def assert_qt_canonical(v):
    """The three invariants of a QtVector's canonical form, with no trailing
    zeros: Q[t]-gcd 1, integer content 1 and lc(den) > 0; 0 is ([], ...,
    []) over [1].  A common factor of positive degree over Q keeps it mod a
    prime q that does not divide lc(den), so a gcd of degree 0 mod q, by
    Euclid over GF(q), not by the remainder sequence in Z[t] that makes
    the form, proves the first; else that remainder sequence decides."""
    nums, den = v.nums, v.den
    assert all(not a or a[-1] for a in nums) and den and den[-1] > 0
    assert gcd(*(y for a in (*nums, den) for y in a)) == 1
    if not any(nums):
        assert den == [1]
        return
    q, g = 2 ** 61 - 1, den
    for a in nums:
        g = gcd_mod(g, a, q)
    if len(g) > 1 or den[-1] % q == 0:
        g = den
        for a in filter(None, nums):
            g = _zt_gcd(g, a)
    assert len(g) == 1


def assert_qt_cleared(got, ref):
    """got is the canonical QtVector of the RationalFunction tuple ref,
    equal to ref both ways, hashed as ref, and read back as ref."""
    assert type(got) is QtVector
    assert_qt_canonical(got)
    assert got == ref and ref == got and not got != ref and hash(got) == hash(ref)
    assert tuple(got) == ref and tuple(got[i] for i in range(len(ref))) == ref
    assert got == QtVector.of(ref) and hash(got) == hash(QtVector.of(ref))


def e2e_qt_rows():
    """The M2(Q(t)) basis of tests/e2e_random_basis.py, its certificate and
    left order: dense coordinate and product rows with distinct denominators."""
    alg, domain = matrix_algebra(QT2, 2), valuation_ring(QT2)
    basis = draw_bases(alg, 7, E2E_QT_DRAW, 1)[0]
    cert = stabilizer_finite(alg, basis, domain)
    return basis, cert


def qt_hand_points(alg):
    """Zero coordinates, the zero vector, t^k and 1 + c*t denominators,
    repeated and shared ones, a common factor to cancel and a negative lc."""
    f = QT2.scalar
    n = alg.dim
    one_plus_3t = {"num": ["1"], "den": ["1", "3"]}
    shapes = [
        [f(0)] * n,
        [f({"num": ["1"], "den": ["0", "0", "1"]})] + [f(0)] * (n - 1),
        [f({"num": ["2", "5"], "den": ["0", "1"]}), f(one_plus_3t)] + [f("-7/4")] * (n - 2),
        [f(one_plus_3t)] * n,
        [f({"num": ["1", "3"], "den": ["0", "0", "1"]}), f({"num": ["0", "-1"], "den": ["1", "-2"]})]
        + [f({"num": ["3", "1/2"], "den": ["1", "1/5"]})] * (n - 2),
    ]
    return [tuple(s) for s in shapes]


@pytest.mark.parametrize("name", sorted(QT_ELEMENT_ALGEBRAS))
def test_qt_elements_match_the_ratfunc_tuples(name):
    """Over Q(t), add, smul, mul and is_zero agree with the RationalFunction
    tuple arithmetic they replaced, on drawn elements, 0, 1, the basis
    vectors, hand-built points and the dense rows of the e2e M2(Q(t))
    basis, given as QtVectors or as tuples, and every result is canonical;
    equality and hashing are the tuple's.  _Rows.valuations and values
    agree with the scalar row values on the product rows, coordinate rows,
    T and the contained basis's columns of the algebra's unit basis and of
    that basis, and so does element on those columns, which it reads."""
    alg = QT_ELEMENT_ALGEBRAS[name]()
    spec = SampleSpec(seed=81, count=0, coef_bound=4, max_p_exp=2, poly_degree=1)
    rng = spec.rng()
    points = [(x, tuple(x)) for x in (sample_algebra_element(rng, spec, alg) for _ in range(12))]
    special = [alg.zero, alg.unit] + [alg.basis_vector(i) for i in range(alg.dim)]
    points += [(QtVector.of(p), p) for p in qt_hand_points(alg)] + [(x, tuple(x)) for x in special]
    domain = valuation_ring(QT2)
    certs = [stabilizer_finite(alg, tuple(alg.basis_vector(i) for i in range(alg.dim)), domain)]
    if alg.dim == 4:
        basis, cert = e2e_qt_rows()
        certs.append(cert)
        points += [(QtVector.of(r), tuple(r)) for r in (cert.coords.stored[1], cert.rows.stored[6], basis[0])]
    for x, xr in points:
        assert_qt_cleared(x, xr)
    assert alg.zero.den == [1] and alg.add(alg.unit, alg.smul(-QT2.one, alg.unit)) == alg.zero
    scalars = [QT2.zero, QT2.one, QT2.scalar("-3/2"), RationalFunction.T,
               QT2.scalar({"num": ["0", "4"], "den": ["1", "2"]}),
               QT2.scalar({"num": ["1"], "den": ["0", "1"]})]
    pairs = [(a, b) for a in points[:6] + points[12:] for b in points[6:12] + points[-8:-3]]
    for (x, xr), (y, yr) in pairs:
        assert_qt_cleared(alg.add(x, y), add_reference(xr, yr))
        assert_qt_cleared(alg.mul(x, y), mul_reference(alg, xr, yr))
        assert alg.mul(xr, yr) == alg.mul(x, y) and alg.add(xr, y) == alg.add(x, yr)
        assert (x == y) == (xr == yr) and (x == yr) == (xr == y)
    for x, xr in points:
        for c in scalars:
            assert_qt_cleared(alg.smul(c, x), smul_reference(c, xr))
        assert alg.is_zero(x) == alg.is_zero(xr) == is_zero_reference(xr)
        assert xr in {x} and x in {xr}
    for c in certs:
        R = orders.nice_from_certificate(c)
        for rows in (c.rows, c.coords, R.lattice_rows, R._basis_rows):
            for x, xr in points if rows is not c.rows or c is certs[0] else points[:4]:
                want = row_values_reference(rows, xr)
                assert tuple(rows.values(x)) == want == tuple(rows.values(xr))
                assert list(rows.valuations(x, QT2)) == [QT2.value(v) if v else None for v in want]
                if rows is R._basis_rows:
                    assert_qt_cleared(rows.element(x), want)


def test_qt_clearing_is_made_canonical_when_observed():
    """Arithmetic keeps the clearing it summed; nums and den read its
    canonical form: a negative leading coefficient, a common factor 1 + 2t
    and an integer content are taken out, and zero lists become 0 over 1.
    A sum keeps its summands' denominator 1 + t, which divides the sum of
    t^2 and -9t - 10; the numerator vanishes at 10, so a gcd that reads
    values there would miss the factor."""
    v = QtVector._clearing([[1], [2, 4, 0]], [-2, -4])  # 1/(-2-4t), (2+4t)/(-2-4t)
    assert v.nums == ([-1], [-2, -4]) and v.den == [2, 4]
    assert_qt_cleared(v, (QT2.scalar({"num": ["-1"], "den": ["2", "4"]}), -QT2.one))
    w = QtVector._clearing([[3, 6], [0, 6, 12]], [0, 9, 18])  # (3+6t)/(9t+18t^2), (6t+12t^2)/(...)
    assert w.nums == ([1], [0, 2]) and w.den == [0, 3]
    z = QtVector._clearing([[0, 0], []], [5, 7])
    assert z.nums == ([], []) and z.den == [1]
    quad, one_t = quadratic_algebra(QT2, RationalFunction.T), Polynomial((1, 1))
    s = quad.add((RationalFunction(Polynomial((0, 0, 1)), one_t), QT2.zero),
                 (RationalFunction(Polynomial((-10, -9)), one_t), QT2.zero))
    assert s.nums == ([-10, 1], []) and s.den == [1]
    assert_qt_cleared(s, (RationalFunction(Polynomial((-10, 1))), QT2.zero))


def test_qt_samplers_draw_the_ratfunc_tuples():
    """sample_algebra_element and sample_member over Q(t), now QtVectors
    made of the draws' integer lists, draw the RationalFunction tuples
    of the samplers they replaced and leave the stream where those did, on
    the audit-qt order (unit basis), a drawn Q(t)[x]/(x^2-t) order and the
    e2e M2(Q(t)) order."""
    domain = valuation_ring(QT2)
    m2, quad = matrix_algebra(QT2, 2), quadratic_algebra(QT2, RationalFunction.T)
    orders_ = [left_order(LatticeModule(m2, domain, tuple(m2.basis_vector(i) for i in range(4)))),
               left_order(LatticeModule(quad, domain, draw_bases(quad, 8, dict(coef_bound=3, max_p_exp=1,
                                                                                poly_degree=2), 1)[0])),
               orders.nice_from_certificate(e2e_qt_rows()[1])]
    for k, R in enumerate(orders_):
        for degree in (1, 2):
            spec = SampleSpec(seed=90 + k, count=0, coef_bound=5, max_p_exp=2, poly_degree=degree)
            rng, ref_rng = spec.rng(), spec.rng()
            for _ in range(6 if k == 2 else 20):
                assert_qt_cleared(sample_algebra_element(rng, spec, R.algebra),
                                  sample_qt_element_reference(ref_rng, spec, R.algebra))
                assert rng.state == ref_rng.state
                assert_qt_cleared(sample_member(rng, spec, R), sample_qt_member_reference(ref_rng, spec, R))
                assert rng.state == ref_rng.state
                assert sample_in_domain(rng, spec, domain) == sample_ov_reference(ref_rng, spec, QT2)
                assert rng.state == ref_rng.state


def test_arithmetic_over_qt_takes_no_ratfunc_arithmetic(monkeypatch):
    """On drawn QtVectors add, smul, mul and is_zero, and the valuation
    reads of a _Rows, run with RationalFunction + and * raising."""
    alg = matrix_algebra(QT2, 2)
    spec = SampleSpec(seed=82, count=0, coef_bound=4, max_p_exp=2, poly_degree=1)
    rng = spec.rng()
    xs = [sample_algebra_element(rng, spec, alg) for _ in range(12)]
    rows = _Rows(alg.field, [tuple(x) for x in xs[:6]])
    cs = [c for x in xs for c in x if c][:6]

    def refused(*args):
        raise AssertionError("RationalFunction arithmetic")
    monkeypatch.setattr(RationalFunction, "__add__", refused)
    monkeypatch.setattr(RationalFunction, "__mul__", refused)
    with pytest.raises(AssertionError):
        RationalFunction.T * RationalFunction.T
    for x, y, c in zip(xs, xs[1:], cs * 2):
        alg.add(x, y), alg.smul(c, x), alg.mul(x, y), alg.is_zero(x)
        list(rows.valuations(x, alg.field))
