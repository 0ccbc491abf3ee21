from __future__ import annotations

from fractions import Fraction

import pytest

from cutval.algebra import (PolynomialAlgebra, StructureAlgebra, TableReport,
                            check_associative_unital, extend_to_basis,
                            is_independent, matrix_algebra, matrix_element,
                            quadratic_algebra, solve_columns)
from cutval.errors import StructuralError
from cutval.numfield import RationalFunction, ValuedField
from cutval.samplers import sample_algebra_element, sample_scalar
from cutval.sampling import SampleSpec, SplitMix64
from test_kernel import FRACTIONAL


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
