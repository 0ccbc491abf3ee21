"""The elimination kernel and the coordinate map against the loops they
replaced.

Each reference below is one of the separate Gauss-Jordan loops the library
used before it had a single elimination kernel, kept verbatim apart from
its name: solve, rank, inverse, min-valuation lattice elimination, and the
stabilizer, stability check and basis insertion that solved one linear
system per product, the dense product that walked every cell of the
structure-constant table (also the reference for the integer-cleared
product over Q), the Q(t) arithmetic that reduced every sum and product
with a full gcd (and the Fraction long division it reduced by, once
`Polynomial.divmod`), the Q(t) sampler that reduced each draw with Euclid, and
the separate Q and Q(t) branches of valuation-ring denominator clearing.
The min-valuation elimination's scalar loop is the reference for T over
O_v of Q(t), now one Bareiss pass in Z at t = 2^w with the same pivots,
and for the Z_(p) lattices over Q: the Hermite form of its pivots, also
computed in Fractions, is the reference for T there, and the solve,
rank and inverse loops are the references for the fraction-free kernel in
Z that replaced them on both fields, over Q(t) on the matrix read at
t = 2^w.  The stabilizer
reference keeps its per-product solves but clears all n^2 coordinates at
b_i at once, the rule that replaced a product of n clearings.  Asking
`contains` of every row value, and `clear_many` of them all, is the
reference for membership and clearing on the domain's integer reads, and
vf.value of each scalar row value is the reference for the valuations
that a row set over Q(t) reads off its clearing in Z[t].
Coordinates over a basis are unique, the min-valuation pivot sequence is
a function of the rows, a Z_(p) lattice has one Hermite form and a
rational function has one reduced form with a monic denominator, so
every result must be exactly equal.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from cutval import algebra, numfield, orders, quasival, stability
from cutval.algebra import (StructureAlgebra, _bareiss, _ov_pivots, _Rows, column_rows,
                            coordinate_rows, invert, matrix_algebra, product_rows, quadratic_algebra,
                            rank_of, solve_columns)
from cutval.basedomain import BaseDomain, integers, p_local, valuation_ring
from cutval.errors import StructuralError
from cutval.numfield import (Polynomial, QtVector, QVector, RationalFunction, ValuedField, _cleared,
                             _exact_quo, poly_gcd, vp)
from cutval.orders import LatticeModule, intersect_oracles, left_order
from cutval.samplers import sample_algebra_element, sample_member, sample_ratfunc, sample_scalar
from cutval.sampling import SampleSpec, sample_rational
from cutval.stability import StabilityReport, insert_into_basis, is_stable, stabilizer_finite


# --- the replaced loops ----------------------------------------------------------


def mul_reference(alg, x, y):
    out = list(alg.zero)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, t in enumerate(alg.table[i][j]):
                if t:
                    out[k] = out[k] + c * t
    return tuple(out)


def poly_mul_reference(a, b):
    if not a.coeffs or not b.coeffs:
        return Polynomial()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for j, y in enumerate(b.coeffs):
            if y != 0:
                out[i + j] += x * y
    return Polynomial(out)


def poly_divmod_reference(a, b):
    """Long division over Q, the reference for the integer kernels."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem, div = list(a.coeffs), b.coeffs
    dq = len(rem) - len(div)
    if dq < 0:
        return Polynomial(), a
    quo = [Fraction(0)] * (dq + 1)
    n, lc = b.degree, div[-1]
    for k in range(dq, -1, -1):
        c = rem[k + n] / lc
        quo[k] = c
        if c != 0:
            for i, d in enumerate(div):
                rem[k + i] -= c * d
    return Polynomial(quo), Polynomial(rem[:n])


def poly_gcd_reference(a, b):
    while not b.is_zero():
        _, r = poly_divmod_reference(a, b)
        a, b = b, r.monic()
    return a.monic()


def reduce_reference(num, den):
    """The reducing constructor every Q(t) result went through: (num, den)."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return Polynomial.ZERO, Polynomial.ONE
    g = poly_gcd_reference(num, den)
    if g.degree > 0:
        num, _ = poly_divmod_reference(num, g)
        den, _ = poly_divmod_reference(den, g)
    lc = den.leading_coeff()
    if lc != 1:
        num = num.scale(1 / lc)
        den = den.scale(1 / lc)
    return num, den


# the four operators on reduced (num, den) pairs
def ratfunc_add_reference(f, g):
    (n1, d1), (n2, d2) = f, g
    return reduce_reference(poly_mul_reference(n1, d2) + poly_mul_reference(n2, d1),
                            poly_mul_reference(d1, d2))


def ratfunc_sub_reference(f, g):
    return ratfunc_add_reference(f, reduce_reference(-g[0], g[1]))


def ratfunc_mul_reference(f, g):
    (n1, d1), (n2, d2) = f, g
    return reduce_reference(poly_mul_reference(n1, n2), poly_mul_reference(d1, d2))


def ratfunc_div_reference(f, g):
    (n1, d1), (n2, d2) = f, g
    if n2.is_zero():
        raise ZeroDivisionError("division by zero rational function")
    return reduce_reference(poly_mul_reference(n1, d2), poly_mul_reference(d1, n2))


def solve_columns_reference(columns, target):
    m = len(columns)
    n = len(target)
    rows = [[columns[i][r] for i in range(m)] + [target[r]] for r in range(n)]
    piv_rows = []
    r0 = 0
    for col in range(m):
        pivot = next((r for r in range(r0, n) if rows[r][col]), None)
        if pivot is None:
            raise StructuralError("dependent columns in linear solve")
        rows[r0], rows[pivot] = rows[pivot], rows[r0]
        pv = rows[r0][col]
        rows[r0] = [a / pv for a in rows[r0]]
        for r in range(n):
            if r != r0 and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[r0])]
        piv_rows.append(r0)
        r0 += 1
    for r in range(r0, n):
        if rows[r][m]:
            raise StructuralError("target outside the span of the columns")
    return tuple(rows[piv_rows[col]][m] for col in range(m))


def rank_reference(vectors):
    vecs = [list(v) for v in vectors]
    n = len(vecs[0]) if vecs else 0
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(vecs)) if vecs[r][col]), None)
        if pivot is None:
            continue
        vecs[rank], vecs[pivot] = vecs[pivot], vecs[rank]
        pv = vecs[rank][col]
        vecs[rank] = [a / pv for a in vecs[rank]]
        for r in range(len(vecs)):
            if r != rank and vecs[r][col]:
                f = vecs[r][col]
                vecs[r] = [a - f * b for a, b in zip(vecs[r], vecs[rank])]
        rank += 1
    return rank


def invert_reference(fieldobj, rows):
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


def eliminate_reference(rows, ncols, key=None):
    """The elimination kernel as it ran over Q before rows were cleared to
    integers: one Fraction multiply and subtract per entry."""
    pool = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        live = [k for k, row in enumerate(pool) if row[col]]
        if not live:
            pivots.append(None)
            continue
        best = live[0] if key is None else min(live, key=lambda k: key(pool[k][col]))
        pivot = pool.pop(best)
        pv = pivot[col]
        for row in pool:
            if row[col]:
                f = row[col] / pv
                for i, p in enumerate(pivot):
                    if p:
                        row[i] = row[i] - f * p
        pivots.append(pivot)
    return pivots, pool


def reference_pivots(rows, ncols, p):
    """The Fraction loop's pivots, or None when a column has none: no lattice."""
    expected, _ = eliminate_reference(rows, ncols, p_local(p).valued_field.value)
    return None if None in expected else expected


def hermite_reference(pivots, p):
    """The Hermite form over Z_(p) of the span of triangular Fraction rows,
    in Fractions: the rows scaled by p^e to be p-integral, each divided by
    its pivot's unit part, every entry x above a pivot p^k replaced by its
    residue in [0, p^k) by subtracting (x - residue)/p^k times that pivot's
    row, column by column from the left, and the rows divided by p^e."""
    e = max([0] + [-vp(p, x)[0] for row in pivots for x in row if x])
    rows = []
    for i, row in enumerate(pivots):
        unit = row[i] / Fraction(p) ** vp(p, row[i])[0]
        rows.append([x * p ** e / unit for x in row])
    for j, pivot in enumerate(rows):
        pk = int(pivot[j])
        for i in range(j):
            x = rows[i][j]
            f = (x - x.numerator * pow(x.denominator, -1, pk) % pk) / pk
            rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
    return [tuple(x / p ** e for x in row) for row in rows]


def reference_hermite(rows, ncols, p):
    """The Hermite form of the Fraction loop's pivots on the first ncols
    columns, or None when the rows span no lattice."""
    pivots = reference_pivots(rows, ncols, p)
    return None if pivots is None else hermite_reference([r[:ncols] for r in pivots], p)


def padic_hermite(rows, ncols, p):
    """The Z_(p) Hermite form of rows over Q as `orders._lattice` takes it,
    read as Fraction rows; None for no lattice."""
    hermite = algebra._padic_pivots([QVector.of(r) for r in rows], ncols, p)
    return None if hermite is None else [tuple(h) for h in hermite]


def assert_reference_lattice(R, pivots):
    """R's T is the Hermite form of the reference pivots' span, and each
    lattice basis lies in the other's oracle: R's basis lands every pivot
    row in S, and R contains the columns of the pivots' inverse."""
    domain, field = R.domain, R.algebra.field
    assert tuple(R.lattice_rows) == tuple(hermite_reference(pivots, domain.p))
    inverse = invert_reference(field, [list(r) for r in pivots])
    assert all(R.contains(b) for b in zip(*inverse))
    assert all(domain.contains(sum(a * c for a, c in zip(r, b)))
               for b in R.lattice_basis for r in pivots)


def min_valuation_eliminate_reference(domain, rows, n):
    pool = [list(r) for r in rows]
    pivots = []
    for col in range(n):
        best = None
        best_val = None
        for idx, row in enumerate(pool):
            if not row[col]:
                continue
            v = domain.valued_field.value(row[col])
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


def coords_reference(x, basis):
    return solve_columns_reference(list(basis), x)


def product_rows_reference(alg, basis):
    """The n^2 left-order rows: row (b, k) holds coordinate k of e_i * b
    over the basis at position i."""
    rows = []
    for b in basis:
        cols = [coords_reference(alg.mul(alg.basis_vector(i), b), basis) for i in range(alg.dim)]
        rows.extend(zip(*cols))
    return rows


def clear_many_reference(domain, coeffs):
    """Clearing with its separate Z (lcm of denominators), Q (v_p) and
    Q(t) (edge-order) branches."""
    coeffs = [c for c in coeffs if c != 0 and not (isinstance(c, RationalFunction) and c.is_zero())]
    if not coeffs:
        return domain.one
    field = domain.valued_field
    if field is None:
        return Fraction(lcm(*(c.denominator for c in coeffs)))
    if field.kind == "Q":
        p = field.p
        e = max(0, max(-vp(p, c)[0] for c in coeffs))
        return Fraction(p) ** e
    vals = [field.value(c) for c in coeffs]
    worst_n = max(0, max(-n for n, _ in vals))
    at_edge = [a for n, a in vals if n == -worst_n]
    worst_m = max(0, max(-a for a in at_edge)) if at_edge else 0
    return field.element_with_value((worst_n, worst_m))


def stabilizer_reference(alg, basis, domain):
    basis = tuple(basis)
    if rank_reference(basis) != len(basis):
        raise StructuralError("basis is dependent")
    return basis, tuple(alg.smul(clearing_delta_reference(alg, basis, domain, b), b) for b in basis)


def clearing_delta_reference(alg, basis, domain, b):
    """One clearing of every coordinate of every product b * b_j."""
    coords = [c for bj in basis for c in coords_reference(alg.mul(b, bj), basis)]
    return clear_many_reference(domain, coords)


def is_stable_reference(alg, basis, stabilizer, domain):
    violations = []
    for ci, c in enumerate(stabilizer):
        for bi, b in enumerate(basis):
            coords = coords_reference(alg.mul(c, b), basis)
            for k, coord in enumerate(coords):
                if not domain.contains(coord):
                    violations.append((ci, bi, k, coord))
    return StabilityReport(not violations, tuple(violations))


def insert_reference(cert, x0, protected=frozenset()):
    """The paper's insertion: x0 in place of the first unprotected b0 with a
    nonzero coordinate, and each stabilizer element c made s_c*s0*c, s0
    clearing b0's coordinates over the new basis and s_c those of s0*c*x0,
    each solved for directly over the new basis."""
    alg, domain = cert.algebra, cert.domain
    coords = coords_reference(x0, cert.basis)
    b0_idx = next(i for i, c in enumerate(coords) if c and cert.basis[i] not in protected)
    new_basis = list(cert.basis)
    new_basis[b0_idx] = x0
    s0 = clear_many_reference(domain, coords_reference(cert.basis[b0_idx], new_basis))
    new_stab = []
    for c in cert.stabilizer:
        t = alg.smul(s0, c)
        s_c = clear_many_reference(domain, coords_reference(alg.mul(t, x0), new_basis))
        new_stab.append(alg.smul(s_c, t))
    return tuple(new_basis), tuple(new_stab)


def prime_factors(n):
    """The primes dividing n > 0: trial division below 1000, then Pollard's
    rho, splitting until Miller-Rabin on the first thirteen prime bases,
    exact below 3.3e24, calls a part prime."""
    out = {q for q in range(2, 1000) if n % q == 0 and all(q % r for r in range(2, q))}
    for q in out:
        while n % q == 0:
            n //= q
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        assert m < 3.3e24, "past the exact range of the prime test"
        if miller_rabin(m):
            out.add(m)
            continue
        c = d = 0
        while d in (0, m):  # rho's x -> x^2 + c, a new c when the cycle finds m itself
            c, x, y, d = c + 1, 2, 2, 1
            while d == 1:
                x, y = (x * x + c) % m, ((y * y + c) ** 2 + c) % m
                d = gcd(x - y, m)
        parts += [d, m // d]
    return out


def miller_rabin(m):
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, m)
        if x not in (1, m - 1) and all((x := x * x % m) != m - 1 for _ in range(r - 1)):
            return False
    return True


# --- seeded random bases ------------------------------------------------------------

Q3 = ValuedField("Q", 3)
QT = ValuedField("Qt", 2)
M3_DRAW = dict(coef_bound=5, max_p_exp=2)
QT_DRAW = dict(coef_bound=3, max_p_exp=1, poly_degree=2)


def draw_bases(alg, seed, draw, count):
    """Invertible bases drawn coordinate by coordinate, rank-deficient draws
    rejected by the reference rank."""
    spec = SampleSpec(seed=seed, count=0, **draw)
    rng = spec.rng()
    bases = []
    while len(bases) < count:
        cand = [tuple(sample_scalar(rng, spec, alg.field) for _ in range(alg.dim))
                for _ in range(alg.dim)]
        if rank_reference(cand) == alg.dim:
            bases.append(tuple(cand))
    return bases


# name: (algebra, domain, draw, draw seed, number of bases)
CASES = {
    "M3(Q)/Z_(3)": (lambda: matrix_algebra(Q3, 3), p_local(3), M3_DRAW, 301, 2),
    "M3(Q)/Z": (lambda: matrix_algebra(Q3, 3), integers(), M3_DRAW, 302, 2),
    "Q(t)[x]/(x^2-t)/O_v": (lambda: quadratic_algebra(QT, RationalFunction.T),
                           valuation_ring(QT), QT_DRAW, 303, 5),
}


@pytest.fixture(params=sorted(CASES), scope="module")
def case(request):
    make, domain, draw, seed, count = CASES[request.param]
    alg = make()
    return alg, domain, draw_bases(alg, seed, draw, count)


# --- differential tests ------------------------------------------------------------


def test_min_valuation_path_matches_reference(case):
    """Over O_v of Q(t) T is the min-valuation loop's pivot rows, read off
    one `_bareiss` in Z (`_ov_pivots`) as canonical QtVectors, and the
    basis the columns of their inverse.  Over Z_(p) the lattice is the
    loop's, with T its Hermite form (`assert_reference_lattice`).  Both
    hold for the intersection with the unit basis's order too, whose
    stacked rows are those of the two orders."""
    alg, domain, bases = case
    if not domain.is_valuation_like:  # Z keeps only the predicate; reduce its bases over Z_(3)
        domain = p_local(3)
    n = alg.dim
    units = tuple(alg.basis_vector(i) for i in range(n))
    U = left_order(LatticeModule(alg, domain, units))
    unit_pivots = min_valuation_eliminate_reference(domain, product_rows_reference(alg, units), n)
    for basis in bases:
        R = left_order(LatticeModule(alg, domain, basis))
        rows = product_rows_reference(alg, basis)
        expected = min_valuation_eliminate_reference(domain, rows, n)
        both = intersect_oracles([R, U])
        assert both.constraints == ((domain, both.lattice_rows),)
        if alg.field.kind == "Q":
            assert padic_hermite(rows, n, domain.p) == hermite_reference(expected, domain.p)
            assert_reference_lattice(R, expected)
            assert_reference_lattice(both, min_valuation_eliminate_reference(
                domain, expected + unit_pivots, n))
            continue
        pivots = _ov_pivots([QtVector.of(r) for r in rows], n, domain.valued_field.p)
        assert pivots == [QtVector.of(r) for r in expected]
        assert [tuple(p) for p in pivots] == expected
        assert tuple(R.lattice_rows) == tuple(expected)
        tinv = invert_reference(alg.field, [list(r) for r in expected])
        assert R.lattice_basis == tuple(tuple(tinv[r][i] for r in range(n)) for i in range(n))
        stacked = list(R.lattice_rows) + list(U.lattice_rows)
        assert tuple(both.lattice_rows) == tuple(min_valuation_eliminate_reference(domain, stacked, n))


def test_solve_rank_invert_match_reference(case):
    alg, domain, bases = case
    field = alg.field
    spec = SampleSpec(seed=303, count=0, **(QT_DRAW if field.kind == "Qt" else M3_DRAW))
    rng = spec.rng()
    for basis in bases:
        # the rows of the inverse of the matrix with the basis as its columns
        assert list(invert(field, basis)) == list(map(tuple, invert_reference(field, list(zip(*basis)))))
        for _ in range(3):
            x = sample_algebra_element(rng, spec, alg)
            assert solve_columns(field, list(basis), x) == solve_columns_reference(list(basis), x)
        # a dependent family: the last vector is a combination of the others
        c = sample_scalar(rng, spec, field) or field.one
        dependent = list(basis[:-1]) + [alg.add(basis[0], alg.smul(c, basis[-2]))]
        for family in (basis, dependent, basis[:3], basis + basis[:2], dependent[1:]):
            assert rank_of(field, family) == rank_reference(family)
        with pytest.raises(StructuralError):
            invert(field, dependent)
        with pytest.raises(StructuralError):
            solve_columns(field, dependent, basis[-1])
        # fewer columns than coordinates: consistent and inconsistent targets
        part = list(basis[:-1])
        inside = alg.add(basis[0], alg.smul(c, basis[-2]))
        assert solve_columns(field, part, inside) == solve_columns_reference(part, inside)
        with pytest.raises(StructuralError):
            solve_columns_reference(part, basis[-1])
        with pytest.raises(StructuralError):
            solve_columns(field, part, basis[-1])


def rational_rows(rows):
    return [[Fraction(c) for c in row] for row in rows]


# hand-built matrices over Q: a zero (0,0) entry, so the first column
# pivots on a swapped-up row; and columns cleared to [1, 6]/2 and [6, 4]/3,
# whose integer determinant is 4 - 36 < 0
SWAP = rational_rows([[0, 1, "2/3"], [3, 0, "1/2"], [1, "-5/7", 1]])
NEGATIVE_DET = rational_rows([["1/2", 2], [3, "4/3"]])


def drawn_matrices(n, seed, count):
    """The basis matrices, basis vectors as columns, of drawn M_n(Q) bases."""
    bases = draw_bases(matrix_algebra(Q3, n), seed, M3_DRAW, count)
    return [pytest.param([[b[r] for b in basis] for r in range(n * n)], id=f"M{n}-seed-{seed}-{i}")
            for i, basis in enumerate(bases)]


@pytest.mark.parametrize("rows", [pytest.param(SWAP, id="row-swap"),
                                  pytest.param(NEGATIVE_DET, id="negative-det")]
                         + drawn_matrices(3, 201, 4) + drawn_matrices(4, 7, 2))
def test_fraction_free_inverse_matches_reference(rows):
    """The inverse over Q, a fraction-free Gauss-Jordan in Z, stores each
    row as the QVector a/d of the (a, d) that _cleared gives of the
    Fraction inverse's row: d > 0 and gcd(a..., d) = 1.  `invert` takes
    the matrix's columns."""
    got = invert(Q3, list(zip(*rows)))
    expected = invert_reference(Q3, rows)
    assert len(got) == len(expected) and got.width == len(rows)
    for r, row in zip(got.stored, expected):
        assert r.den > 0
        assert (list(r.ints), r.den) == _cleared(row)


def test_fraction_free_inverse_refuses_a_singular_matrix():
    singular = rational_rows([[1, "1/2", 3], [2, 1, 6], [0, "1/3", 1]])  # row 1 is twice row 0
    with pytest.raises(StructuralError):
        invert_reference(Q3, singular)
    with pytest.raises(StructuralError, match="singular matrix"):
        invert(Q3, list(zip(*singular)))
    alg = matrix_algebra(Q3, 2)
    with pytest.raises(StructuralError, match="basis is dependent"):
        coordinate_rows(alg, [alg.unit, alg.basis_vector(0), alg.basis_vector(1), alg.basis_vector(3)])


QT_KERNEL_ALGEBRAS = {
    "M2(Q(t))": (lambda: matrix_algebra(QT, 2), dict(QT_DRAW, poly_degree=1)),
    "Q(t)[x]/(x^2-t)": (lambda: quadratic_algebra(QT, RationalFunction.T), QT_DRAW),
}


@pytest.mark.parametrize("name", sorted(QT_KERNEL_ALGEBRAS))
def test_qt_kernel_matches_ratfunc_reference(name):
    """Over Q(t) invert, rank_of and solve_columns, each one `_bareiss` on
    the integer rows read at t = 2^w, against the RationalFunction loops
    on drawn bases: the inverse of the matrix with the basis as its
    columns, each row left as the clearing it was read back as; the rank
    of the basis, of dependent families and of families with a repeat;
    the coordinates of drawn points, of 0 and of a point in the span of
    fewer columns, and the refusals of a dependent family and of a point
    outside the span."""
    make, draw = QT_KERNEL_ALGEBRAS[name]
    alg = make()
    spec = SampleSpec(seed=353, count=0, **draw)
    rng = spec.rng()
    for basis in draw_bases(alg, 353, draw, 3):
        inverse = invert(QT, basis)
        assert not inverse.q and not any(r._canon for r in inverse.stored)
        assert [tuple(r) for r in inverse] == list(map(tuple, invert_reference(QT, list(zip(*basis)))))
        c = sample_scalar(rng, spec, QT) or QT.one
        dependent = list(basis[:-1]) + [alg.add(basis[0], alg.smul(c, basis[-2]))]
        for family in (basis, dependent, basis[:1], basis + basis[:1], dependent[1:]):
            assert rank_of(QT, family) == rank_reference(family)
        with pytest.raises(StructuralError, match="singular matrix"):
            invert(QT, dependent)
        for x in [sample_algebra_element(rng, spec, alg) for _ in range(2)] + [alg.zero]:
            assert solve_columns(QT, list(basis), x) == solve_columns_reference(list(basis), x)
        with pytest.raises(StructuralError, match="dependent columns in linear solve"):
            solve_columns(QT, dependent, basis[-1])
        part, inside = list(basis[:-1]), dependent[-1]
        assert solve_columns(QT, part, inside) == solve_columns_reference(part, inside)
        with pytest.raises(StructuralError, match="target outside the span of the columns"):
            solve_columns(QT, part, basis[-1])


def test_qt_kernel_reads_a_minor_as_wide_as_the_bound():
    """Columns 2^8*t*e_1, -2^8*t*e_2 and 2^8*t*e_3, each over 1: every row
    [a_i | d_i*e_i] has coefficient 1-norm 257, so the bound on a minor's
    coefficients is 257^3, of 25 bits, and the determinant -2^24*t^3 has a
    coefficient of those 25 bits.  It is read back as it is, so the
    inverse, the ranks and a solve equal the RationalFunction loops'; a
    digit of one bit less would misread it."""
    t, zero = RationalFunction.T, QT.zero
    c = QT.scalar(2 ** 8) * t
    columns = [(c, zero, zero), (zero, -c, zero), (zero, zero, c)]
    det = c * -c * c
    assert det == QT.scalar(-2 ** 24) * t * t * t
    assert (2 ** 24).bit_length() == (257 ** 3).bit_length() == 25
    assert list(map(tuple, invert(QT, columns))) == list(map(tuple, invert_reference(QT, list(zip(*columns)))))
    target = (c + t, t - c, c)
    assert solve_columns(QT, columns, target) == solve_columns_reference(columns, target)
    dependent = columns[:2] + [(c, -c, zero)]
    assert rank_of(QT, dependent) == rank_reference(dependent) == 2
    assert rank_of(QT, columns + [target]) == rank_reference(columns + [target]) == 3


def zt_stripped(a):
    """An integer list in Z[t] without its trailing zeros."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def test_m3_qt_seed_7_certificate_inverts_its_basis():
    """The random M3(Q(t)) basis that tests/e2e_random_basis.py draws at
    seed 7, whose 9 x 9 inverse took over a minute as RationalFunction
    elimination: its certificate's coordinate rows A_i/Q_i and the basis
    X_j/E_j multiply to the identity in Z[t], sum_k A_ik*X_jk =
    delta_ij*Q_i*E_j, taking no gcd and reading no scalar."""
    alg = matrix_algebra(QT, 3)
    spec = SampleSpec(seed=7, count=0, coef_bound=4, max_p_exp=2, poly_degree=1)
    rng = spec.rng()
    while True:  # the draw of cutbench.workloads.draw_bases
        basis = [tuple(sample_scalar(rng, spec, QT) for _ in range(alg.dim)) for _ in range(alg.dim)]
        if rank_of(QT, basis) == alg.dim:
            break
    cert = stabilizer_finite(alg, basis, valuation_ring(QT))
    assert len(cert.rows) == alg.dim ** 2 and len(cert.stabilizer) == alg.dim
    for i, row in enumerate(cert.coords.stored):
        for j, b in enumerate(cert.basis):
            want = numfield._convolve(row._den, b._den) if i == j else []
            assert zt_stripped(numfield._zt_dot(row._nums, b._nums)) == zt_stripped(want), (i, j)


def test_stabilizer_and_stability_match_reference(case):
    alg, domain, bases = case
    for basis in bases:
        cert = stabilizer_finite(alg, basis, domain)
        assert (cert.basis, cert.stabilizer) == stabilizer_reference(alg, basis, domain)
        assert tuple(cert.rows) == tuple(product_rows_reference(alg, basis))
        assert is_stable(alg, basis, cert.stabilizer, domain) == is_stable_reference(
            alg, basis, cert.stabilizer, domain)
        # the basis rarely stabilizes itself: the violations must agree too
        assert is_stable(alg, basis, basis, domain) == is_stable_reference(
            alg, basis, basis, domain)


# the random M3(Q) basis of the ROADMAP baseline
M3_SEED7 = draw_bases(matrix_algebra(Q3, 3), 7, M3_DRAW, 1)[0]


@pytest.mark.parametrize("name,domain", [
    ("M3(Q)/Z", integers()), ("M3(Q)/Z_(3)", p_local(3)),
    ("seed 7", integers()), ("seed 7", p_local(3)),
], ids=["M3(Q)/Z", "M3(Q)/Z_(3)", "seed 7/Z", "seed 7/Z_(3)"])
def test_clearing_stabilizer_is_least(name, domain):
    """Each delta_i is one clearing of every coordinate of every b_i*b_j,
    and no proper divisor stabilizes: with delta_i/q in its place, q a
    prime dividing delta_i (q = p over Z_(p)), is_stable finds a
    violation.  A product of per-j clearings also stabilizes, but a prime
    can be taken out of it."""
    alg = matrix_algebra(Q3, 3)
    if name == "seed 7":
        bases = [M3_SEED7]
    else:
        _, _, draw, seed, count = CASES[name]
        bases = draw_bases(alg, seed, draw, count)
    for basis in bases:
        cert = stabilizer_finite(alg, basis, domain)
        assert is_stable(alg, basis, cert.stabilizer, domain).ok
        for i, b in enumerate(basis):
            delta = clearing_delta_reference(alg, basis, domain, b)
            assert cert.stabilizer[i] == alg.smul(delta, b)
            assert delta.denominator == 1
            primes = prime_factors(delta.numerator) if domain.valued_field is None else (
                {domain.p} if delta != 1 else set())
            for q in primes:
                smaller = list(cert.stabilizer)
                smaller[i] = alg.smul(delta / q, b)
                assert not is_stable(alg, basis, smaller, domain).ok, (i, q)


def test_one_inverse_and_no_products_per_build(case, monkeypatch):
    """A build inverts the basis once, for the certificate's product rows,
    solves T once over a valuation ring, by `invert` on both fields, and
    forms no product: the rows are summed off the table's cells.  On both
    fields each of the inverses is one `_bareiss`; over O_v of Q(t) T's
    pivot rows are one more (`_ov_pivots`), and the build runs no other."""
    alg, domain, bases = case
    calls = {}
    count_calls(monkeypatch, calls, StructureAlgebra, "mul")
    count_calls(monkeypatch, calls, algebra, "invert")
    count_calls(monkeypatch, calls, algebra, "_bareiss")
    count_calls(monkeypatch, calls, orders, "invert", "t_solve")
    for basis in bases:
        calls.update(dict.fromkeys(calls, 0))
        orders.nice_from_certificate(stabilizer_finite(alg, basis, domain))
        t_solves = 1 if domain.is_valuation_like else 0
        t_pivots = 1 if alg.field.kind == "Qt" else 0
        assert calls == {"mul": 0, "invert": 1, "t_solve": t_solves, "_bareiss": 1 + t_solves + t_pivots}


@pytest.mark.parametrize("name", [*sorted(CASES), "M2(Q(t)) seed 7"])
def test_insertion_clears_the_coordinates_over_the_new_basis(name):
    """Insertion's basis and stabilizer are the paper's construction,
    `insert_reference`: on the kernel cases and on the seed-7 random
    M2(Q(t)) basis of tests/e2e_random_basis.py, for x0 = b_1 + b_n, and
    for 1 and then s0*y with 1 protected, as descend_chain inserts them."""
    if name in CASES:
        make, domain, draw, seed, count = CASES[name]
        alg = make()
        bases = draw_bases(alg, seed, draw, count)
    else:
        alg, domain = matrix_algebra(QT, 2), valuation_ring(QT)
        bases = draw_bases(alg, 7, E2E_QT_DRAW, 1)
    for basis in bases:
        cert = stabilizer_finite(alg, basis, domain)
        x0 = alg.add(basis[0], basis[-1])
        res = insert_into_basis(cert, x0)
        assert (res.basis, res.stabilizer) == insert_reference(cert, x0)
        y = next(c for c in cert.stabilizer if alg.scalar_of(c) is None)
        for x, protected in ((alg.unit, frozenset()),
                             (alg.smul(domain.noninvertible(), y), frozenset([alg.unit]))):
            if x not in cert.basis:
                res = insert_into_basis(cert, x, protected)
                assert (res.basis, res.stabilizer) == insert_reference(cert, x, protected), x
                cert = res


def count_calls(monkeypatch, calls, owner, name, key=None):
    """Replace owner.name by a wrapper that counts its calls in
    calls[key or name]."""
    f, key = getattr(owner, name), key or name

    def wrapper(*args):
        calls[key] += 1
        return f(*args)
    calls[key] = 0
    monkeypatch.setattr(owner, name, wrapper)


def test_one_inverse_per_insertion_and_chain_step(case, monkeypatch):
    """Insertion reads x0's coordinates off the old certificate and hands
    the seeds s0*c to the new one: no solve, one inverse, the new
    certificate's, and no product, for its rows or its stabilizer, which
    it reads off those rows.  A descend_chain step makes one dense inverse
    per element it inserts, and one solve of T, an `invert`, for each of
    the step's two lattices over a valuation ring."""
    alg, domain, bases = case
    calls = {}
    count_calls(monkeypatch, calls, StructureAlgebra, "mul")
    count_calls(monkeypatch, calls, algebra, "invert")
    count_calls(monkeypatch, calls, algebra, "solve_columns")
    count_calls(monkeypatch, calls, orders, "invert", "t_solve")
    count_calls(monkeypatch, calls, stability, "insert_into_basis")
    cert = stabilizer_finite(alg, bases[0], domain)
    start = orders.nice_from_certificate(cert)
    calls.update(dict.fromkeys(calls, 0))
    insert_into_basis(cert, alg.add(bases[0][0], bases[0][-1]))
    assert calls == {"mul": 0, "invert": 1, "solve_columns": 0,
                     "t_solve": 0, "insert_into_basis": 0}
    calls.update(dict.fromkeys(calls, 0))
    orders.descend_chain(start, 1)
    assert calls["insert_into_basis"] == 2  # 1 and s0*y, neither in the basis
    assert calls["invert"] == calls["insert_into_basis"]
    assert calls["solve_columns"] == 0
    assert calls["t_solve"] == (2 if domain.is_valuation_like else 0)


@pytest.mark.parametrize("make", [lambda: matrix_algebra(QT, 2),
                                  lambda: quadratic_algebra(QT, RationalFunction.T)],
                         ids=["M2(Q(t))", "Q(t)[x]/(x^2-t)"])
def test_inverting_t_costs_one_bareiss(make, monkeypatch):
    """Over O_v of Q(t) `invert` on a lattice's upper triangular T is one
    `_bareiss` on integers, with no RationalFunction +, -, * or /, and
    returns the rows of (T^T)^-1: the columns of the reference T^-1."""
    alg, domain = make(), valuation_ring(QT)
    ts = [list(orders.nice_from_certificate(stabilizer_finite(alg, basis, domain)).lattice_rows)
          for basis in draw_bases(alg, 8, QT_READ_DRAW, 3)]
    ops = {}
    for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
        count_calls(monkeypatch, ops, RationalFunction, name, "ops")
    count_calls(monkeypatch, ops, algebra, "_bareiss")
    for t in ts:
        assert all(not t[i][j] for i in range(alg.dim) for j in range(i))
        ops.update(ops=0, _bareiss=0)
        inverse = algebra.invert(QT, t)
        assert ops == {"ops": 0, "_bareiss": 1}
        assert [tuple(r) for r in inverse] == list(zip(*invert_reference(QT, t)))


# --- T over O_v of Q(t), one Bareiss in Z with least-valuation pivots -------------


# tests/e2e_random_basis.py's M2(Q(t)) draw; QT_DRAW is the build-qt workload's
E2E_QT_DRAW = dict(coef_bound=4, max_p_exp=2, poly_degree=1)


@pytest.mark.parametrize("name, draws", [
    ("M2(Q(t))", [(seed, E2E_QT_DRAW, 1) for seed in range(7, 16)]),
    ("Q(t)[x]/(x^2-t)", [(357, QT_DRAW, 60)]),
], ids=["M2(Q(t))-seeds-7-15", "Q(t)[x]/(x^2-t)-build-qt-draws"])
def test_ov_pivots_match_the_reference_on_drawn_bases(name, draws):
    """On the random M2(Q(t)) bases of seeds 7-15 (the first basis of each,
    as tests/e2e_random_basis.py draws it) and on Q(t)[x]/(x^2-t) bases
    drawn as build-qt draws them, T off the certificate's rows is the
    min-valuation loop's pivot rows as canonical QtVectors, and the left
    order keeps that T."""
    alg = QT_KERNEL_ALGEBRAS[name][0]()
    domain = valuation_ring(QT)
    for seed, draw, count in draws:
        for basis in draw_bases(alg, seed, draw, count):
            cert = stabilizer_finite(alg, basis, domain)
            expected = min_valuation_eliminate_reference(domain, [tuple(r) for r in cert.rows], alg.dim)
            T = _ov_pivots(cert.rows.stored, alg.dim, QT.p)
            assert T == [QtVector.of(r) for r in expected], (seed, basis)
            assert list(orders.nice_from_certificate(cert).lattice_rows.stored) == T


def test_ov_pivots_keep_the_row_order_on_ties():
    """Column 0 pivots on the last row, of value (-1, 0); then column 1
    ties at (0, 0) between the first two rows, and the first pivots, as in
    the loop on scalars.  A pivot swapped up would leave the second row
    first and pivot on it."""
    t, f = RationalFunction.T, QT.scalar
    rows = [(f(1), f(1)), (f(1), f(3)), (f(1) / t, f(0))]
    expected = min_valuation_eliminate_reference(valuation_ring(QT), rows, 2)
    assert expected == [(f(1) / t, f(0)), (f(0), f(1))]
    assert _ov_pivots(list(map(QtVector.of, rows)), 2, QT.p) == list(map(QtVector.of, expected))


def test_digit_value_reads_the_lowest_signed_digit():
    """v over p = 3 of -9*t^2 + 5*t^3 - t^4 read at t = 2^w is (2, 2), off
    its lowest nonzero signed digit -9 at t^2; read unsigned, that digit
    would be 2^w - 9, prime to 3."""
    w, poly = 8, [0, 0, -9, 5, -1]
    x = sum(c << w * k for k, c in enumerate(poly))
    assert algebra._digits(x, w)[:len(poly)] == poly and numfield._zt_value(poly, 3) == (2, 2)
    assert algebra._digit_value(x, w, 3) == (2, 2)


def test_ov_pivots_of_no_lattice_are_none():
    """An empty pool, and a pool of rank 1 in two columns, span no lattice."""
    t, f = RationalFunction.T, QT.scalar
    assert _ov_pivots([], 2, QT.p) is None
    rows = [(f(1), t), (t, t * t), (f(0), f(0))]  # row 1 is t times row 0
    assert rank_reference(rows) == 1
    assert _ov_pivots(list(map(QtVector.of, rows)), 2, QT.p) is None


def test_ov_pivots_read_a_minor_as_wide_as_the_bound():
    """Rows 2^8*t*e_1, -2^8*t*e_2 and 2^8*t*e_3 over 1: each has coefficient
    1-norm 2^8, so the bound on a minor of three rows is 2^24, and the last
    pivot, the determinant -2^24*t^3, has a coefficient of its 25 bits.  It
    is read back as it is, so T is the rows themselves; w taken from two
    rows would misread it."""
    t, zero = RationalFunction.T, QT.zero
    c = QT.scalar(2 ** 8) * t
    rows = [(c, zero, zero), (zero, -c, zero), (zero, zero, c)]
    expected = min_valuation_eliminate_reference(valuation_ring(QT), rows, 3)
    assert expected == rows
    assert _ov_pivots(list(map(QtVector.of, rows)), 3, QT.p) == list(map(QtVector.of, rows))


def test_ov_pivots_are_one_bareiss_on_integers(monkeypatch):
    """T over O_v of Q(t) is built by one `_bareiss` on integers: with no
    RationalFunction +, -, * or / and no scalar read (`numfield._scalar`),
    each pivot row made canonical once."""
    alg, domain = matrix_algebra(QT, 2), valuation_ring(QT)
    certs = [stabilizer_finite(alg, basis, domain) for basis in draw_bases(alg, 8, QT_READ_DRAW, 3)]
    ops = {}
    for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
        count_calls(monkeypatch, ops, RationalFunction, name, "ops")
    count_calls(monkeypatch, ops, algebra, "_bareiss")
    count_calls(monkeypatch, ops, numfield, "_scalar")
    for cert in certs:
        ops.update(dict.fromkeys(ops, 0))
        T = _ov_pivots(cert.rows.stored, alg.dim, QT.p)
        assert ops == {"ops": 0, "_bareiss": 1, "_scalar": 0}
        assert len(T) == alg.dim and all(r._canon for r in T)


def test_ideal_variant_inverts_once_and_forms_no_products(monkeypatch):
    """(x^2) in Q[x]/(x^3) over Z_(2): the ideal is checked on the
    certificate's rows, so the variant costs one dense inverse, no product
    and no solve of T: it keeps its rows as a predicate, with no T."""
    field = ValuedField("Q", 2)
    one, zero = field.one, field.zero
    e = lambda k: tuple(one if i == k else zero for i in range(3))
    table = tuple(tuple(e(i + j) if i + j < 3 else (zero,) * 3 for j in range(3))
                  for i in range(3))
    alg = StructureAlgebra(field, ("1", "x", "x2"), table, e(0))
    calls = {}
    count_calls(monkeypatch, calls, StructureAlgebra, "mul")
    count_calls(monkeypatch, calls, algebra, "invert")
    count_calls(monkeypatch, calls, orders, "invert", "t_solve")
    certs, stabilizer = [], orders.stabilizer_finite
    monkeypatch.setattr(orders, "stabilizer_finite", lambda *a: certs.append(stabilizer(*a)) or certs[-1])
    R = orders.nice_with_ideal(orders.IdealSpec(alg, (e(2),)), p_local(2))
    assert calls == {"mul": 0, "invert": 1, "t_solve": 0}
    # the variant's rows are the certificate's own QVectors, none made again
    rows, (cert,) = R.constraints[0][1], certs
    assert len(rows) == 4
    assert all(any(row is own for own in cert.rows.stored) for row in rows.stored)


def test_clearing_stabilizer_calls_no_clear_many(case, monkeypatch):
    """The clearing stabilizer clears each basis element's n^2 row values in
    one call, never through clear_many: over O_v of Q(t) it reads the
    rows' valuations, and over Q the one content read of the set
    (`_Rows.content`) for each basis element, with no row value built and
    no row read alone."""
    alg, domain, bases = case
    calls = {}
    count_calls(monkeypatch, calls, BaseDomain, "clear_many")
    count_calls(monkeypatch, calls, BaseDomain, "_clearing")
    for name in ("values", "content", "valuations"):
        count_calls(monkeypatch, calls, _Rows, name)
    for basis in bases:
        stabilizer_finite(alg, basis, domain)
    n = alg.dim
    assert calls["clear_many"] == 0 and calls["_clearing"] == len(bases) * n
    if alg.field.kind == "Q":
        assert calls["values"] == calls["valuations"] == 0 and calls["content"] == len(bases) * n
    else:
        assert calls["content"] == 0 and calls["valuations"] == len(bases) * n


# --- membership and clearing on the domain's integer reads ------------------------


def read_row_sets(alg, basis):
    """Rows of one basis that the library reads membership off: its product
    rows, its T rows (those of the Z_(3) lattice over Q), the subset an
    ideal variant with m = 1 keeps, and each of them with a zero row added."""
    cert = stabilizer_finite(alg, basis, p_local(3) if alg.field.kind == "Q" else valuation_ring(QT))
    n, zero = alg.dim, (alg.field.zero,) * alg.dim
    R = orders.nice_from_certificate(cert)
    sets = [cert.rows, R.lattice_rows,
            cert.rows.subset([j * n + k for j in range(1, n) for k in range(1, n)])]
    return R, sets + [_Rows(alg.field, list(rows) + [zero]) for rows in sets]


def read_points(alg, R, spec):
    """0, the basis, drawn elements and lattice basis vectors, unscaled and
    scaled by a p-free and a pure p-power denominator (and t^-1 over Q(t)):
    on a lattice basis vector T takes the one nonzero value c."""
    field, p = alg.field, (3 if alg.field.kind == "Q" else QT.p)
    q = 7 if field.kind == "Q" else 3
    scales = [field.one, field.scalar(f"1/{q}"), field.scalar(f"1/{p ** 2}")]
    if field.kind == "Qt":
        scales.append(field.one / RationalFunction.T)
    rng = spec.rng()
    drawn = [sample_algebra_element(rng, spec, alg) for _ in range(3)]
    points = [alg.zero] + [alg.basis_vector(i) for i in range(alg.dim)]
    return points + [alg.smul(c, x) for x in drawn + list(R.lattice_basis) for c in scales]


def test_admits_and_reads_match_the_row_values(case):
    """domain.admits(rows, x) is `contains` on every row value at x, and the
    clearing of domain.reads(rows, x) is clear_many of those values, on the
    drawn bases' product, T and ideal-variant rows, for Z and Z_(3) over Q
    and O_v over Q(t).  The reads are one a row over Q(t) and one a set
    over Q: the lcm of the values' denominators, or their least value."""
    alg, _, bases = case
    domains = (integers(), p_local(3)) if alg.field.kind == "Q" else (valuation_ring(QT),)
    spec = SampleSpec(seed=311, count=0, **(QT_DRAW if alg.field.kind == "Qt" else M3_DRAW))
    verdicts = {d: set() for d in domains}
    for basis in bases:
        R, row_sets = read_row_sets(alg, basis)
        for x in read_points(alg, R, spec):
            for rows in row_sets:
                values = list(rows.values(x))
                for domain in domains:
                    admitted = domain.admits(rows, x)
                    assert admitted == all(domain.contains(v) for v in values)
                    per_row = ([v.denominator for v in values] if domain.valued_field is None
                               else [domain.valued_field.value(v) if v else None for v in values])
                    if alg.field.kind == "Q":
                        live = [v for v in per_row if v is not None]
                        per_row = [lcm(*per_row) if domain.valued_field is None
                                   else min(live) if live else None]
                    assert list(domain.reads(rows, x)) == per_row
                    assert domain._clearing(domain.reads(rows, x)) == domain.clear_many(values)
                    verdicts[domain].add(admitted)
    assert all(v == {True, False} for v in verdicts.values())


@pytest.mark.parametrize("name", ["M3(Q)/Z", "M3(Q)/Z_(3)"])
def test_membership_and_rescaling_build_no_row_value(name, monkeypatch):
    """contains on Z and Z_(3) oracles, and the rescaling of a Z
    intersection's contained basis, read integers off the rows: with
    _Rows.values refusing to run they still give the values' answers."""
    make, domain, draw, seed, count = CASES[name]
    alg = make()
    spec = SampleSpec(seed=seed, count=0, **draw)
    rng = spec.rng()
    oracles = [left_order(LatticeModule(alg, domain, b)) for b in draw_bases(alg, seed, draw, count)]
    points = [x for R in oracles for x in R.contained_basis]
    points += [sample_algebra_element(rng, spec, alg) for _ in range(10)]
    expected = [[all(dom.contains(v) for dom, rows in R.constraints for v in rows.values(x))
                 for x in points] for R in oracles]
    assert {v for row in expected for v in row} == {True, False}

    def refuse(self, x):
        raise AssertionError("a row value was built")
    monkeypatch.setattr(_Rows, "values", refuse)
    assert [[R.contains(x) for x in points] for R in oracles] == expected
    both = intersect_oracles(oracles)
    assert all(R.contains(b) for b in both.contained_basis for R in oracles)


def spy_cleared(monkeypatch) -> list:
    """Record every vector handed to _cleared, by the algebra module or by
    numfield's QVector.of."""
    seen, cleared = [], numfield._cleared

    def spy(v):
        seen.append(v)
        return cleared(v)
    monkeypatch.setattr(algebra, "_cleared", spy)
    monkeypatch.setattr(numfield, "_cleared", spy)
    return seen


@pytest.mark.parametrize("name", ["M3(Q)/Z", "M3(Q)/Z_(3)"])
def test_left_order_clears_no_certificate_row_again(name, monkeypatch):
    """The certificate's product rows are cleared once, as they are built:
    the left order (the elimination and the self-check of _lattice, or the
    Z oracle's constraint group) reads that clearing, and no vector at all
    reaches _cleared."""
    make, domain, draw, seed, count = CASES[name]
    alg = make()
    seen, calls = spy_cleared(monkeypatch), {}
    count_calls(monkeypatch, calls, _Rows, "__iter__")
    for basis in draw_bases(alg, seed, draw, count):
        cert = stabilizer_finite(alg, basis, domain)
        assert len(cert.rows) == alg.dim ** 2
        seen.clear()
        R = orders.nice_from_certificate(cert)
        # a row could only reach _cleared through the rows' Fraction view
        assert not seen and calls["__iter__"] == 0
        if not domain.is_valuation_like:
            assert R.constraints[0][1] is cert.rows


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lattice_keeps_t_as_the_clearings_of_its_pivots(p, monkeypatch):
    """T over Z_(p) is stored as the QVectors its Hermite rows were built
    as, whose clearings are the ones _cleared gives its rows.  Nothing reaches
    _cleared while the left order is built and audited: the left order
    reads T and its inverse as they are and makes the lattice basis off
    the inverse's clearing, and verify_nice and qv_audit draw, multiply,
    add, scale and read elements that are born cleared, sampled members
    (basis_combination) included."""
    alg = matrix_algebra(ValuedField("Q", p), 3)
    seen, calls = spy_cleared(monkeypatch), {}
    count_calls(monkeypatch, calls, orders.SubringOracle, "basis_combination")
    for k, basis in enumerate(draw_bases(alg, 340 + p, M3_DRAW, 3)):
        cert = stabilizer_finite(alg, basis, p_local(p))
        seen.clear()
        R = orders.nice_from_certificate(cert)
        spec = SampleSpec(seed=k, count=8)
        assert orders.verify_nice(R, spec).ok
        assert quasival.qv_audit(quasival.filter_qv(R), spec).ok
        assert not seen and calls["basis_combination"] > 0
        T = R.lattice_rows
        assert [(list(r.ints), r.den) for r in T.stored] == [_cleared(row) for row in T]


def test_qt_build_makes_kernel_results_from_integers(monkeypatch):
    """Every Q(t) kernel makes its result from integers: while Q(t) bases
    are built into their stabilizer, left order and filter
    quasi-valuation, the Fraction-input Polynomial constructor (the one
    caller of numfield._cleared) never runs, not even inside
    ValuedField.element_with_value, which the build calls for p^a * t^n."""
    make, domain, draw, seed, count = CASES["Q(t)[x]/(x^2-t)/O_v"]
    alg = make()
    bases = draw_bases(alg, seed, draw, count)
    calls, seen = [0], []
    cleared, element_with_value = numfield._cleared, ValuedField.element_with_value

    def spied(self, gamma):
        calls[0] += 1
        return element_with_value(self, gamma)
    monkeypatch.setattr(ValuedField, "element_with_value", spied)
    monkeypatch.setattr(numfield, "_cleared", lambda cs: seen.append(cs) or cleared(cs))
    for basis in bases:
        cert = stabilizer_finite(alg, basis, domain)
        quasival.filter_qv(orders.nice_from_certificate(cert))
    assert calls[0] > 0 and not seen


# --- Q(t) valuations read in Z[t] against the scalar values -------------------------


QT_READ_DRAW = dict(coef_bound=3, max_p_exp=1, poly_degree=1)


def qt_read_sets(alg, seeds):
    """(order, row sets) over O_v of Q(t): the product rows, coordinate rows
    and T of the first basis drawn at each seed, then of the unit basis,
    whose left order is the audit-qt order."""
    domain, out = valuation_ring(QT), []
    bases = [draw_bases(alg, seed, QT_READ_DRAW, 1)[0] for seed in seeds]
    for basis in bases + [tuple(alg.basis_vector(i) for i in range(alg.dim))]:
        cert = stabilizer_finite(alg, basis, domain)
        R = orders.nice_from_certificate(cert)
        out.append((R, [cert.rows, cert.coords, R.lattice_rows]))
    return out


def qt_hand_points(alg, rows):
    """A zero coordinate, repeated denominators (one polynomial over 1 + t,
    once with other integer content), negative values, and for the first
    row with two nonzero entries r_i, r_j a point at which it cancels to
    0: w*(r_j e_i - r_i e_j)."""
    f = QT.scalar
    w = f({"num": ["1", "2"], "den": ["1", "1"]})
    sparse = [f(0)] * alg.dim
    sparse[0], sparse[-1] = f({"num": ["0", "3"], "den": ["1", "1"]}), f("5/2")
    points = [tuple(sparse),
              tuple(f({"num": [str(k + 1), "1"], "den": ["1", "1"]}) for k in range(alg.dim)),
              tuple(f({"num": [str(k), "1/2"], "den": ["1", "1"]}) for k in range(alg.dim)),
              tuple(f({"num": ["1", "-4"], "den": ["0", "0", "2"]}) if k % 2 else f("3/8")
                    for k in range(alg.dim))]
    for row in rows:
        live = [k for k, r in enumerate(row) if r]
        if len(live) >= 2:
            i, j = live[:2]
            x = [f(0)] * alg.dim
            x[i], x[j] = w * row[j], -(w * row[i])
            points.append(tuple(x))
            break
    return points


# the scalar reference is slow on some M2(Q(t)) draws (seed 7: 10 s), not the read
@pytest.mark.parametrize("name, seeds", [("M2(Q(t))", (9, 10)), ("Q(t)[x]/(x^2-t)", (7, 8, 9))])
def test_qt_valuations_match_the_scalar_values(name, seeds):
    """_Rows.valuations over Q(t), read off each row's Z[t] clearing, is
    vf.value of each scalar row value, None for 0: on the drawn bases'
    product rows, coordinate rows and T and the unit basis's, at drawn
    elements, sampled members and hand-built points."""
    make, _ = PRODUCT_ROW_ALGEBRAS[name]
    alg = make()
    spec = SampleSpec(seed=343, count=0, **QT_READ_DRAW)
    rng, seen = spec.rng(), set()
    for R, row_sets in qt_read_sets(alg, seeds):
        drawn = [sample_algebra_element(rng, spec, alg) for _ in range(4)]
        members = [sample_member(rng, spec, R) for _ in range(2)]
        for rows in row_sets:
            for x in drawn + members + qt_hand_points(alg, tuple(rows)):
                got = list(rows.valuations(x, QT))
                assert got == [QT.value(v) if v else None for v in rows.values(x)]
                seen.update("zero" if v is None else "negative" if v < (0, 0) else "other"
                            for v in got)
    assert seen == {"zero", "negative", "other"}


def test_qt_reads_call_no_poly_gcd(monkeypatch):
    """Over O_v of Q(t) every valuation read is taken in Z[t]: the
    stabilizer's clearing (`BaseDomain._clearing` of `reads`), _lattice's
    self-check, left_order's check of 1 and the stabilizer and membership
    (`admits`) and support_mu call poly_gcd zero times, while the scalar
    work around them calls it."""
    gcd_calls, entered, inside = {"in reads": 0, "outside": 0}, {}, [0]
    gcd = numfield.poly_gcd

    def counted(a, b):
        gcd_calls["in reads" if inside[0] else "outside"] += 1
        return gcd(a, b)

    def guarded(owner, name):
        f, entered[name] = getattr(owner, name), 0

        def wrapper(*args):
            entered[name] += 1
            inside[0] += 1
            try:
                return f(*args)
            finally:
                inside[0] -= 1
        monkeypatch.setattr(owner, name, wrapper)
    monkeypatch.setattr(numfield, "poly_gcd", counted)
    for name in ("reads", "_clearing", "admits"):
        guarded(BaseDomain, name)
    guarded(quasival, "support_mu")
    spec = SampleSpec(seed=347, count=0, **QT_READ_DRAW)
    rng, dims, built = spec.rng(), 0, 0
    for alg in (matrix_algebra(QT, 2), quadratic_algebra(QT, RationalFunction.T)):
        for R, _ in qt_read_sets(alg, (7,)):  # a drawn basis and the unit basis
            dims, built = dims + alg.dim, built + 1
            qv = quasival.filter_qv(R)
            for _ in range(3):
                x = sample_algebra_element(rng, spec, alg)
                R.contains(x)
                quasival.filter_qv_eval(qv, x)
    # per basis vector one stabilizer clearing, one self-check and one
    # membership of its stabilizer element, per order one membership of 1,
    # per point one membership and one support_mu: each of them one read
    checked = 2 * dims + built
    assert entered == {"_clearing": dims, "admits": checked + 12, "reads": checked + dims + 24,
                       "support_mu": 12}
    assert gcd_calls["in reads"] == 0 and gcd_calls["outside"] > 0


# --- the cleared kernel over Q against the Fraction loop ---------------------------


def q_entry(rng, kind):
    if kind == "zero":
        return Fraction(0)
    if kind == "small":  # many ties on v_2 and v_3, and negative pivots
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if kind == "2,3-powers":
        num, den = (2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 3) for _ in range(2))
        return Fraction(rng.choice((1, -1)) * num, den)
    return Fraction(rng.randint(-2 ** 200, 2 ** 200), rng.randint(1, 2 ** 200))


ENTRY_KINDS = ("zero", "small", "2,3-powers", "200-bit")


def q_matrix(seed, nrows, ncols, extra, kinds, inserts=()):
    """nrows rows of ncols columns plus `extra` right-hand sides, entries of
    the given kinds drawn from `seed`; then each (at, source, factor) of
    `inserts` puts a zero row (source None) or factor times row `source` at
    position `at`, so ranks fall short."""
    rng = random.Random(seed)
    rows = [[q_entry(rng, rng.choice(kinds)) for _ in range(ncols + extra)]
            for _ in range(nrows)]
    for at, source, factor in inserts:
        new = ([Fraction(0)] * (ncols + extra) if source is None
               else [factor * x for x in rows[source % len(rows)]])
        rows.insert(at % (len(rows) + 1), new)
    return rows, ncols


@st.composite
def q_matrices(draw, max_rows=81):
    """Up to max_rows rows of 1 to 9 columns and up to two right-hand sides."""
    ncols = draw(st.integers(1, 9))
    inserts = draw(st.lists(st.tuples(
        st.integers(0, 90), st.one_of(st.none(), st.integers(0, 90)),
        st.sampled_from((Fraction(1), Fraction(-1), Fraction(-3, 2), Fraction(4))),
    ), max_size=4))
    return q_matrix(draw(st.integers(0, 2 ** 32)), draw(st.integers(1, max_rows)), ncols,
                    draw(st.integers(0, 2)),
                    draw(st.lists(st.sampled_from(ENTRY_KINDS), min_size=1, max_size=4,
                                  unique=True)),
                    inserts)


TALL = q_matrix(1, 78, 9, 0, ENTRY_KINDS, ((5, None, None), (40, 3, Fraction(1)),
                                          (80, 17, Fraction(-3, 2))))
WIDE_200_BIT = q_matrix(2, 12, 5, 2, ("200-bit",), ((3, 0, Fraction(-1)),))
# column 0 ties on v_2 (rows 0-2) and on v_3 (rows 1-3); row 4, the negative
# min-valuation pivot for both primes, takes its valuation from the denominator
TIES = ([[Fraction(3), Fraction(1)], [Fraction(-1), Fraction(2)], [Fraction(5), Fraction(-7)],
         [Fraction(-2), Fraction(1)], [Fraction(-1, 6), Fraction(1)]], 2)
# square n x n draws with no zero kind, nonsingular, for the inverse: SQUARE[n]
SQUARE = {n: q_matrix(400 + n, n, n, 0, ENTRY_KINDS[1:]) for n in range(2, 10)}


# Drawn matrices of up to 27 rows, as three stacked M3 lattices have: the
# Fraction loop's time grows fast with the rows, and TALL keeps 81.  Each
# derandomized test here pins the seed that derandomize=True had derived
# from its source when it was pinned, so an edit to its body keeps its draws.
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@seed(28070105990167521653369309045826312463226444790234988457966209312442162292824124367824831867828352758392782764730381)
@given(q_matrices(max_rows=27))
@example(TALL)
@example(WIDE_200_BIT)
@example(TIES)
@example(([[Fraction(-5)]], 1))
@example(SQUARE[2])
@example(SQUARE[3])
@example(SQUARE[4])
@example(SQUARE[5])
@example(SQUARE[6])
@example(SQUARE[7])
@example(SQUARE[8])
@example(SQUARE[9])
def test_cleared_kernel_matches_fraction_loop(matrix):
    """Over Q, rank_of and invert (fraction-free, in Z) against the
    Fraction loops, the inverse on each draw's square n x n block, its
    first ncols rows (n up to 9), or its refusal when the block is
    singular, and on the nonsingular SQUARE examples; over Z_(p) the
    Hermite form read off Z/p^K against that of the min-valuation loop's
    pivots."""
    rows, ncols = matrix
    field = ValuedField("Q", 3)
    assert rank_of(field, rows) == rank_reference(rows)
    square = [r[:ncols] for r in rows[:ncols]]
    if len(square) == ncols and rank_reference(square) == ncols:
        got = [(list(r.ints), r.den) for r in invert(field, list(zip(*square))).stored]
        assert got == [_cleared(row) for row in invert_reference(field, square)]
    elif len(square) == ncols:
        with pytest.raises(StructuralError, match="singular matrix"):
            invert(field, square)
    for p in (2, 3):
        assert padic_hermite(rows, ncols, p) == reference_hermite(rows, ncols, p)


# rank_of over Q on hand-built integer rows, with the rank and the rows that
# _bareiss forward only leaves: each pivot row as it was chosen, right of
# its column, and every other row emptied
FORWARD_BAREISS = {
    # column 1 has no pivot once column 0 is cleared
    "skipped column": ([[1, 2, 3], [2, 4, 7], [3, 6, 10]], 2, [[2, 3], [], []]),
    # column 0 pivots on row 1, swapped up; det = -2, so the last pivot is 2
    "row swap": ([[0, 1, 2], [2, 3, 4], [4, 6, 9]], 3, [[3, 4], [4], []]),
    "zero rows": ([[0, 0, 0], [3, 1, 2], [0, 0, 0], [6, 5, 1]], 2, [[1, 2], [-9], [], []]),
    "more vectors than columns": ([[2, 1], [1, 3], [4, 5], [0, 7]], 2, [[1], [], [], []]),
}


@pytest.mark.parametrize("name", list(FORWARD_BAREISS))
def test_rank_of_is_a_forward_bareiss(name):
    """Forward only, _bareiss leaves each pivot row as it was chosen and
    updates no row above a pivot.  rank_of clears each row first, so rows
    scaled by denominators have the same rank, the Fraction loop's."""
    rows, rank, left = FORWARD_BAREISS[name]
    m = [list(r) for r in rows]
    assert _bareiss(m, len(rows[0]), False)[0] == rank and m == left
    scaled = [[Fraction(x, i + 2) for x in r] for i, r in enumerate(rows)]
    assert rank_of(ValuedField("Q", 3), scaled) == rank_reference(scaled) == rank


# --- the Z_(p) Hermite form, read off Z/p^K ---------------------------------------


def count_searches(monkeypatch, limit=6) -> list:
    """The modulus of each run of the Z/p^K pivot search, one `_residues`
    call a run; a run past `limit` fails, since a search whose K does not
    grow would run forever."""
    runs, residues = [], algebra._residues

    def counted(pool, ncols, p, e, q):
        runs.append(q)
        assert len(runs) <= limit, "the pivot search does not stop"
        return residues(pool, ncols, p, e, q)
    monkeypatch.setattr(algebra, "_residues", counted)
    return runs


F = Fraction
# Column 0's least 2-adic valuation, 70, lies above the first K (64 for p = 2)
# and rows 0 and 2 tie on it; rows 1 and 2 take valuations 2 and 3 in column 1.
DEEP = [[F(3 * 2 ** 70), F(1), F(-5, 7)], [F(2 ** 71, 9), F(2), F(1)],
        [F(-2 ** 70), F(7, 3), F(2)]]
# The pivot 2^40 leaves 24 of the first 64 digits, below column 1's least
# valuation, 30: read off residues mod 2^64 it would come out as 24.
SPENT = [[F(2 ** 40), F(1)], [F(-2 ** 41), F(2 ** 30 - 2)]]
# Column 1 reduces to exactly zero, behind column 0 of valuation 70: the
# rank, 2 of 3, settles it in the first search, with no rerun for column 0.
ZERO_BEHIND_DEEP = [[F(2 ** 70), F(1), F(3)], [F(2 ** 71), F(2), F(5)]]
# Over Z_(2) rows 0 and 1 tie at valuation 1 in column 0.
TIED_AT_1 = [[F(2), F(1)], [F(6), F(5)], [F(-10, 3), F(3)]]


@pytest.mark.parametrize("rows, ncols, p, runs", [
    (DEEP, 3, 2, 2), (SPENT, 2, 2, 2), (ZERO_BEHIND_DEEP, 3, 2, 1), (TIED_AT_1, 2, 2, 1),
    (TIES[0], 2, 2, 1), (TIES[0], 2, 3, 1), ([[F(1), F(0)], [F(-3), F(0)]], 2, 3, 1),
])
def test_padic_pivots_rerun_settle_and_tie_as_the_reference(rows, ncols, p, runs, monkeypatch):
    """Pivots above the precision left make the search rerun with K
    doubled; a column with no valuation to read, in rows of rank below
    ncols, gives None, no lattice, at once; ties pick the lowest index:
    every time the Hermite form of the Fraction loop's pivots."""
    searches = count_searches(monkeypatch)
    assert padic_hermite(rows, ncols, p) == reference_hermite(rows, ncols, p)
    assert len(searches) == runs and all(b == a * a for a, b in zip(searches, searches[1:]))


def test_rank_deficient_stack_gives_no_lattice_in_one_search(monkeypatch):
    """The stacked rows of two ideal variants have an exactly zero column:
    one search, no lattice, and the intersection keeps its predicate."""
    dual = quadratic_algebra(ValuedField("Q", 2), 0)
    R = orders.nice_with_ideal(orders.IdealSpec(dual, (dual.basis_vector(1),)), p_local(2))
    searches = count_searches(monkeypatch)
    stacked = list(R.constraints[0][1]) * 2
    assert padic_hermite(stacked, 2, 2) is None and reference_hermite(stacked, 2, 2) is None
    both = intersect_oracles([R, R])
    assert both.lattice_basis is None and both.constraints == R.constraints * 2
    assert len(searches) == 2


@pytest.mark.parametrize("rows, p, col, row", [(TIES[0], 2, 0, 4), ([[F(1), F(0)], [F(-3), F(0)]], 3, 1, 1)])
def test_a_wrong_residue_gives_another_hermite_form(rows, p, col, row, monkeypatch):
    """A residue off by one reads a valuation the exact entry has not:
    the unit in row 4 of TIES reads as even at p = 2, which halves the
    lattice, and a zero column reads as a unit, which makes a lattice of
    rows of rank 1.  The Hermite form is not the reference's either way."""
    expected, residues = reference_hermite(rows, 2, p), algebra._residues

    def mutant(pool, ncols, p, e, q):
        out = residues(pool, ncols, p, e, q)
        out[col][row] += 1  # _residues gives the columns
        return out
    monkeypatch.setattr(algebra, "_residues", mutant)
    assert padic_hermite(rows, 2, p) != expected


# name: (n, p, draw seed) of the M_n(Q) bases whose left orders over Z_(p)
# are drawn against the reference lattice
HERMITE_DRAWS = {"M3(Q)/Z_(2)": (3, 2, 361), "M3(Q)/Z_(3)": (3, 3, 362),
                 "M4(Q)/Z_(2)": (4, 2, 363)}


def hermite_draws(name):
    """Seven drawn left orders over Z_(p), each with the certificate's
    product rows, and each intersected with the order before it (the first
    with the unit basis's order), whose stacked T's it reduces."""
    n, p, seed = HERMITE_DRAWS[name]
    alg, domain = matrix_algebra(ValuedField("Q", p), n), p_local(p)
    last = None
    for basis in [tuple(alg.basis_vector(i) for i in range(n * n))] + draw_bases(alg, seed, M3_DRAW, 7):
        cert = stabilizer_finite(alg, basis, domain)
        R = orders.nice_from_certificate(cert)
        if last is not None:
            yield R, cert.rows, intersect_oracles([R, last[0]]), last[1]
        last = R, cert.rows


@pytest.mark.parametrize("name", sorted(HERMITE_DRAWS))
def test_hermite_lattice_is_the_reference_lattice(name):
    """Each drawn lattice and each intersection is the one the Fraction
    min-valuation loop spans, on the product rows or on both orders'
    stacked reference pivots: T is the Hermite form of its pivots, and
    each lattice basis lies inside the other oracle."""
    domain, n = p_local(HERMITE_DRAWS[name][1]), HERMITE_DRAWS[name][0] ** 2
    pivots = {}
    for R, rows, both, last_rows in hermite_draws(name):
        for key in (rows, last_rows):
            if key not in pivots:
                pivots[key] = min_valuation_eliminate_reference(domain, list(key), n)
        assert_reference_lattice(R, pivots[rows])
        assert_reference_lattice(both, min_valuation_eliminate_reference(
            domain, pivots[rows] + pivots[last_rows], n))


def assert_hermite_form(T, p):
    """p^e*T, p^e the largest denominator of T's QVector rows, is upper
    triangular, each pivot a power p^k of p and every entry above it in
    [0, p^k)."""
    pe = max(r.den for r in T)
    H = [[x * (pe // r.den) for x in r.ints] for r in T]
    for j, row in enumerate(H):
        pk = row[j]
        assert not any(row[:j]) and pk > 0 and pk == p ** vp(p, Fraction(pk))[0]
        assert all(0 <= above[j] < pk for above in H[:j])


# Rows already triangular, with pivots 1, 2 and 4 over Z_(2): reducing row
# 0 at column 1 by row 1 takes its column 2 to -1, so its reduction there
# must come after, left to right; from the right the -1 would stay.
LEFT_TO_RIGHT = [[F(1), F(3), F(0)], [F(0), F(2), F(1)], [F(0), F(0), F(4)]]


@pytest.mark.parametrize("name", sorted(HERMITE_DRAWS))
def test_t_is_in_hermite_form(name):
    """T of every drawn order and intersection is in Hermite form, and so
    is the form of rows that must be reduced left to right."""
    p = HERMITE_DRAWS[name][1]
    for R, _, both, _ in hermite_draws(name):
        assert_hermite_form(R.lattice_rows.stored, p)
        assert_hermite_form(both.lattice_rows.stored, p)
    hermite = algebra._padic_pivots([QVector.of(r) for r in LEFT_TO_RIGHT], 3, 2)
    assert_hermite_form(hermite, 2)
    assert [(r.ints, r.den) for r in hermite] == [((1, 1, 3), 1), ((0, 2, 1), 1), ((0, 0, 4), 1)]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@seed(8572976935447168453823604537305117467269400384967429566352553453460141615507380400789678195388327243814932798074328)
@given(q_matrices())
@example(TALL)
def test_cleared_solve_columns_matches_reference(matrix):
    """The first ncols columns as the system's columns and the last as its
    target: the solution, or the same StructuralError."""
    rows, ncols = matrix
    columns = [tuple(r[j] for r in rows) for j in range(ncols)]
    target = tuple(r[-1] for r in rows)
    try:
        expected = solve_columns_reference(columns, target)
    except StructuralError as exc:
        with pytest.raises(StructuralError, match=str(exc)):
            solve_columns(ValuedField("Q", 2), columns, target)
    else:
        got = solve_columns(ValuedField("Q", 2), columns, target)
        assert got == expected and all(type(c) is Fraction for c in got)


def test_solve_columns_refuses_dependent_columns_and_outside_targets_over_q():
    field, (a, b, c) = ValuedField("Q", 2), (Fraction(1, 3), Fraction(-2), Fraction(5, 4))
    with pytest.raises(StructuralError, match="dependent columns in linear solve"):
        solve_columns(field, [(a, b, c), (-2 * a, -2 * b, -2 * c)], (a, b, c))
    with pytest.raises(StructuralError, match="target outside the span of the columns"):
        solve_columns(field, [(a, b, c), (b, c, a)], (c, a, b))


def test_coordinate_map_needs_a_full_independent_basis():
    alg = matrix_algebra(Q3, 2)
    units = [alg.basis_vector(i) for i in range(4)]
    with pytest.raises(StructuralError, match="basis is dependent"):
        stabilizer_finite(alg, units[:3] + [units[0]], integers())
    with pytest.raises(StructuralError, match="a basis of A has 4 elements, got 3"):
        is_stable(alg, units[:3], units[:3], integers())


@pytest.mark.parametrize("domain", [integers(), p_local(3)], ids=["Z", "Z_(3)"])
def test_basis_vectors_of_the_wrong_length_are_refused(domain):
    """coordinate_rows checks every basis vector's length, for a
    certificate and for a left order alike."""
    alg = matrix_algebra(Q3, 2)
    units = [alg.basis_vector(i) for i in range(4)]
    for bad, got in (([u[:3] for u in units], 3), (units[:3] + [tuple(units[3]) + (Fraction(1),)], 5)):
        message = f"a basis vector of A has 4 coordinates, got {got}"
        with pytest.raises(StructuralError, match=message):
            stabilizer_finite(alg, bad, domain)
        with pytest.raises(StructuralError, match=message):
            left_order(LatticeModule(alg, domain, tuple(bad)))


@pytest.mark.parametrize("name", ["M3(Q)", "M2(Q(t))", "Q(t)[x]/(x^2-t)", "Q[x]/(x^2)"])
def test_sparse_mul_matches_dense_reference(name):
    alg, draw = {
        "M3(Q)": (matrix_algebra(Q3, 3), M3_DRAW),
        "M2(Q(t))": (matrix_algebra(QT, 2), QT_DRAW),
        "Q(t)[x]/(x^2-t)": (quadratic_algebra(QT, RationalFunction.T), QT_DRAW),
        "Q[x]/(x^2)": (quadratic_algebra(Q3, 0), M3_DRAW),  # the cell s*s is all zero
    }[name]
    spec = SampleSpec(seed=311, count=0, **draw)
    rng = spec.rng()
    special = [alg.zero, alg.unit] + [alg.basis_vector(i) for i in range(alg.dim)]
    drawn = [sample_algebra_element(rng, spec, alg) for _ in range(12)]
    for x in special + drawn:
        for y in special + drawn[:4]:
            assert alg.mul(x, y) == mul_reference(alg, x, y)


def rebased(alg, basis):
    """alg with its structure constants written over another basis: the
    table entry (i, j) holds the coordinates of b_i * b_j over `basis`."""
    coords = coordinate_rows(alg, basis)
    table = tuple(tuple(tuple(coords.values(alg.mul(bi, bj))) for bj in basis) for bi in basis)
    return StructureAlgebra(alg.field, tuple(f"b{i}" for i in range(alg.dim)), table,
                            tuple(coords.values(alg.unit)))


# algebras over Q whose tables have non-integer constants, so the cleared
# table has a denominator D > 1
REBASED_M2 = rebased(matrix_algebra(Q3, 2), draw_bases(matrix_algebra(Q3, 2), 317, M3_DRAW, 1)[0])
FRACTIONAL = {
    "Q[x]/(x^2-3/4)": lambda: quadratic_algebra(Q3, Fraction(3, 4)),
    "M2(Q) rebased": lambda: REBASED_M2,
    "M3(Q) rebased": lambda: rebased(matrix_algebra(Q3, 3),
                                     draw_bases(matrix_algebra(Q3, 3), 319, M3_DRAW, 1)[0]),
}


@pytest.mark.parametrize("name", sorted(FRACTIONAL))
def test_cleared_mul_matches_termwise_reference(name):
    alg = FRACTIONAL[name]()
    assert alg._den > 1
    spec = SampleSpec(seed=321, count=0, **M3_DRAW)
    rng = spec.rng()
    special = [alg.zero, alg.unit] + [alg.basis_vector(i) for i in range(alg.dim)]
    drawn = [sample_algebra_element(rng, spec, alg) for _ in range(12)]
    drawn += [alg.mul(x, y) for x, y in zip(drawn[::2], drawn[1::2])]  # larger entries
    for x in special + drawn:
        for y in special + drawn[:6]:
            got = alg.mul(x, y)
            assert got == mul_reference(alg, x, y)
            assert all(type(c) is Fraction for c in got)


PRODUCT_ROW_ALGEBRAS = {
    **{name: (make, M3_DRAW) for name, make in FRACTIONAL.items()},
    "Q[x]/(x^2)": (lambda: quadratic_algebra(Q3, 0), M3_DRAW),  # the cell s*s is zero
    "M3(Q)": (lambda: matrix_algebra(Q3, 3), M3_DRAW),
    "M2(Q(t))": (lambda: matrix_algebra(QT, 2), QT_DRAW),
    "Q(t)[x]/(x^2-t)": (lambda: quadratic_algebra(QT, RationalFunction.T), QT_DRAW),
    # the table of 1/t has denominator t
    "Q(t)[x]/(x^2-1/t)": (lambda: quadratic_algebra(QT, RationalFunction.ONE / RationalFunction.T), QT_DRAW),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_ROW_ALGEBRAS))
def test_product_rows_match_reference(name):
    """The rows summed off the table's cells, one cleared integer product
    (in Z[t] over Q(t)), equal the rows of one product and one solve per
    e_i * b; over Q each row's clearing is the one _cleared gives its
    Fraction row, so the cleared elimination sees the pool it would clear
    itself, and over Q(t) each row is a QtVector whose canonical form is
    the one QtVector.of gives its RationalFunction row."""
    make, draw = PRODUCT_ROW_ALGEBRAS[name]
    alg = make()
    spec = SampleSpec(seed=331, count=0, **draw)
    rng = spec.rng()
    for basis in draw_bases(alg, 331, draw, 2):
        coords = coordinate_rows(alg, basis)
        rows, expected = product_rows(alg, coords, basis), product_rows_reference(alg, basis)
        assert tuple(rows) == tuple(expected)
        # any elements, against the dense product: zero, unit, drawn
        elements = [alg.zero, alg.unit] + [sample_algebra_element(rng, spec, alg) for _ in range(3)]
        assert tuple(product_rows(alg, coords, elements)) == tuple(
            row for b in elements for row in zip(*(
                coords_reference(mul_reference(alg, alg.basis_vector(i), b), basis)
                for i in range(alg.dim))))
        # the rows are stored only as elements: QVectors over Q, QtVectors over Q(t)
        if alg.field.kind == "Q":
            assert all(type(c) is Fraction for row in rows for c in row)
            assert rows.q and all(type(r) is QVector for r in rows.stored)
            assert [(list(r.ints), r.den) for r in rows.stored] == [_cleared(row) for row in expected]
        else:
            assert not rows.q and all(type(r) is QtVector for r in rows.stored)
            assert [(r.nums, r.den) for r in rows.stored] == [
                (v.nums, v.den) for v in map(QtVector.of, expected)]


def read_view_case(name, kind):
    """One row set of a drawn basis and the rows it must read as: the
    product rows, T over the valuation ring (in Hermite form over Z_(3)), the subset an ideal variant
    with m = 1 keeps, the product rows with a zero row, and their first
    column as a width-1 set."""
    make, draw = PRODUCT_ROW_ALGEBRAS[name]
    alg = make()
    domain = p_local(3) if alg.field.kind == "Q" else valuation_ring(QT)
    basis = draw_bases(alg, 337, draw, 1)[0]
    cert, n = stabilizer_finite(alg, basis, domain), alg.dim
    expected = [tuple(r) for r in product_rows_reference(alg, basis)]
    if kind == "T":  # over Q, the Hermite form of the reference pivots
        pivots = min_valuation_eliminate_reference(domain, expected, n)
        return alg, orders.nice_from_certificate(cert).lattice_rows, [tuple(r) for r in (
            hermite_reference(pivots, 3) if alg.field.kind == "Q" else pivots)]
    if kind == "ideal subset":
        keep = [j * n + k for j in range(1, n) for k in range(1, n)]
        return alg, cert.rows.subset(keep), [expected[i] for i in keep]
    if kind == "zero row":
        expected.append(alg.zero)
    elif kind == "width 1":
        expected = [r[:1] for r in expected]
    return alg, (cert.rows if kind == "product" else _Rows(alg.field, expected)), expected


@pytest.mark.parametrize("kind", ["product", "T", "ideal subset", "zero row", "width 1"])
@pytest.mark.parametrize("name", ["M3(Q)", "Q(t)[x]/(x^2-t)"])
def test_rows_read_view(name, kind):
    """A _Rows reads as the rows it was built from, in order: over Q it
    stores each row only as the QVector of the clearing _cleared gives,
    which iterates as the Fraction row."""
    alg, rows, expected = read_view_case(name, kind)
    field = alg.field
    assert tuple(rows) == tuple(expected)
    assert all(type(c) is type(field.zero) for row in rows for c in row)
    assert len(rows) == len(expected) and rows.width == len(expected[0])
    assert _Rows(field, rows) is rows
    order = list(range(len(expected) - 1, -1, -2)) + [0, 0]
    part = rows.subset(order)
    assert tuple(part) == tuple(expected[i] for i in order)
    assert len(part) == len(order) and part.width == rows.width
    if field.kind == "Q":
        assert rows.q and all(type(r) is QVector for r in rows.stored)
        assert [(list(r.ints), r.den) for r in rows.stored] == [_cleared(row) for row in expected]
    else:
        assert not rows.q


def assert_canonical_q_rows(rows):
    """Each row of a _Rows over Q is a QVector a/d with d > 0 and
    gcd(a..., d) = 1: the clearing _cleared gives of its Fraction row."""
    assert rows.q and len(rows) > 0
    for r in rows.stored:
        assert type(r) is QVector and r.den > 0 and gcd(*r.ints, r.den) == 1
        assert (list(r.ints), r.den) == _cleared(list(r))


def test_every_q_row_set_is_canonical_qvectors(monkeypatch):
    """Every _Rows over Q the library builds holds canonical QVectors:
    coordinate and product rows, T, T^-1, an ideal variant's subset, an
    intersection's stack and column rows, which are the basis's columns.
    The bases include one whose inverse is made over a negative
    determinant."""
    alg = matrix_algebra(Q3, 3)
    negated = (alg.smul(Fraction(-1), alg.basis_vector(0)), *map(alg.basis_vector, range(1, 9)))
    inverses, stacks = [], []
    invert, lattice = orders.invert, orders._lattice
    monkeypatch.setattr(orders, "invert", lambda *a: inverses.append(invert(*a)) or inverses[-1])
    monkeypatch.setattr(orders, "_lattice", lambda alg, domain, rows, *a: (
        stacks.append(rows) or lattice(alg, domain, rows, *a)))
    orders_z3 = []
    for basis in [negated, M3_SEED7] + draw_bases(alg, 343, M3_DRAW, 2):
        assert tuple(column_rows(alg, basis)) == tuple(zip(*basis))
        for domain in (integers(), p_local(3)):
            cert = stabilizer_finite(alg, basis, domain)
            R = orders.nice_from_certificate(cert)
            for rows in (cert.coords, cert.rows, R._basis_rows, LatticeModule(alg, domain, basis).coords):
                assert_canonical_q_rows(rows)
            if domain.is_valuation_like:
                assert_canonical_q_rows(R.lattice_rows)
                orders_z3.append(R)
    assert len(inverses) == len(orders_z3)
    for T_inverse in inverses:
        assert_canonical_q_rows(T_inverse)
    stacks.clear()
    both = intersect_oracles(orders_z3[1:3])
    (stack,) = stacks
    assert len(stack) == 2 * alg.dim and both.lattice_basis is not None
    for rows in (stack, both.lattice_rows, both._basis_rows):
        assert_canonical_q_rows(rows)
    dual = quadratic_algebra(ValuedField("Q", 2), 0)
    for domain in (integers(), p_local(2)):
        ideal = orders.nice_with_ideal(orders.IdealSpec(dual, (dual.basis_vector(1),)), domain)
        assert_canonical_q_rows(ideal.constraints[0][1])
        assert_canonical_q_rows(ideal._basis_rows)


def assert_qt_rows(rows, expected):
    """A _Rows over Q(t) holds each row as a QtVector: its values are the
    RationalFunction reference row, and its clearing is the one
    QtVector.of makes of that row."""
    assert not rows.q and len(rows) == len(expected) > 0
    for r, row in zip(rows.stored, expected):
        assert type(r) is QtVector and tuple(r) == tuple(row) and r == QtVector.of(row)


def test_every_qt_row_set_is_qtvectors(monkeypatch):
    """Every _Rows over Q(t) the library builds holds QtVectors whose values
    are the reference rows: coordinate and product rows, T, T^-1, column
    rows and an intersection's stack, over O_v, on drawn bases of M2(Q(t))
    and of Q(t)[x]/(x^2-t)."""
    domain = valuation_ring(QT)
    inverses, stacks = [], []
    invert, lattice = orders.invert, orders._lattice
    monkeypatch.setattr(orders, "invert", lambda *a: inverses.append(invert(*a)) or inverses[-1])
    monkeypatch.setattr(orders, "_lattice", lambda alg, domain, rows, *a: (
        stacks.append(rows) or lattice(alg, domain, rows, *a)))
    for alg in (matrix_algebra(QT, 2), quadratic_algebra(QT, RationalFunction.T)):
        n, oracles, ts = alg.dim, [], []
        for basis in draw_bases(alg, 349, QT_READ_DRAW, 2):
            cert = stabilizer_finite(alg, basis, domain)
            inverses.clear()
            R = orders.nice_from_certificate(cert)
            rows = product_rows_reference(alg, basis)
            t = min_valuation_eliminate_reference(domain, rows, n)
            t_inverse = invert_reference(QT, t)
            assert_qt_rows(cert.coords, invert_reference(QT, list(zip(*basis))))
            assert_qt_rows(cert.rows, rows)
            assert_qt_rows(R.lattice_rows, t)
            (T_inverse,) = inverses
            assert_qt_rows(T_inverse, list(zip(*t_inverse)))  # invert(T) is (T^T)^-1
            assert_qt_rows(column_rows(alg, basis), list(zip(*basis)))
            assert_qt_rows(R._basis_rows, t_inverse)  # the lattice basis: the columns of T^-1
            oracles.append(R)
            ts += t
        stacks.clear()
        assert intersect_oracles(oracles).lattice_basis is not None
        (stack,) = stacks
        assert_qt_rows(stack, ts)


def test_q_builds_and_audits_read_no_fraction_row(monkeypatch):
    """Over Q no build or audit reads a row as Fractions: product_rows
    builds no Fraction, and the rows' Fraction view never runs while drawn
    M3(Q) bases are built over Z and Z_(3) or the audit-q order (the
    seed-7 basis over Z_(3)) is audited."""
    alg = matrix_algebra(Q3, 3)
    bases = draw_bases(alg, 341, M3_DRAW, 2)
    coords, calls = coordinate_rows(alg, bases[0]), {}
    count_calls(monkeypatch, calls, algebra, "Fraction")
    product_rows(alg, coords, bases[0])
    assert calls["Fraction"] == 0

    def refuse(self):
        raise AssertionError("a row set was read as Fractions")
    monkeypatch.setattr(_Rows, "__iter__", refuse)
    for basis in bases:
        for domain in (integers(), p_local(3)):
            R = orders.nice_from_certificate(stabilizer_finite(alg, basis, domain))
            if domain.is_valuation_like:
                quasival.filter_qv(R)
    R = orders.nice_from_certificate(stabilizer_finite(alg, M3_SEED7, p_local(3)))
    qv = quasival.filter_qv(R)
    spec = SampleSpec(seed=341, count=3, poly_degree=2)
    assert orders.verify_nice(R, spec).ok and quasival.qv_audit(qv, spec).ok


big_rationals = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 12))
m2_elements = st.lists(st.one_of(st.just(Fraction(0)), big_rationals),
                       min_size=4, max_size=4).map(tuple)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@seed(15772905412536987512710095630158067295529066046432101627872595041705064590902507419254122656188954290368687129194323)
@given(m2_elements, m2_elements, m2_elements)
def test_cleared_mul_property(x, y, z):
    alg = REBASED_M2
    xy = alg.mul(x, y)
    assert xy == mul_reference(alg, x, y)
    assert alg.mul(xy, z) == alg.mul(x, alg.mul(y, z))


# --- Q(t) arithmetic -----------------------------------------------------------------


def rf(num, den=(1,)):
    return RationalFunction(Polynomial(num), Polynomial(den))


def pair(f):
    return f.num, f.den


T_TM1 = (0, -1, 1)        # t(t-1)
T_TP2 = (0, 2, 1)         # t(t+2)
TP1_SQ = (1, 2, 1)        # (t+1)^2
SPECIAL_RF = [
    RationalFunction.ZERO, RationalFunction.ONE, rf((-1,)), rf((Fraction(-3, 4),)),
    rf((9,)), rf((Fraction(1, 27),)),                                 # constants, p = 3
    RationalFunction.T, rf((1,), (0, 1)), rf((2, -1), (0, 0, 1)),     # dens 1, t, t^2
    rf((Fraction(5, 3),), (1, Fraction(-2, 9))), rf((0, 1), (1, 3)),  # dens 1 + c t
    rf((1, 1), T_TM1), rf(T_TM1, TP1_SQ),                             # product cancels to 1/(t+1)
    rf((1,), T_TM1), rf((-2, 1), T_TM1), rf((2, -1), T_TM1),          # same den, sums cancel
    rf((3, 1), T_TP2), rf((Fraction(-1, 3), 0, 1), T_TP2),            # dens share t
    rf((0, 0, 0, 81), (1, 0, -1)), rf((-4, 0, 1), (2, 1)),            # reduces on construction
]


def ratfunc_pool():
    """The special elements, seeded draws and products of draws, whose
    denominators have several factors."""
    spec = SampleSpec(seed=313, count=0, coef_bound=5, max_p_exp=2, poly_degree=2)
    rng = spec.rng()
    drawn = [sample_scalar(rng, spec, ValuedField("Qt", 3)) for _ in range(16)]
    mixed = [RationalFunction(*ratfunc_mul_reference(pair(a), pair(b)))
             for a, b in zip(drawn[::2], drawn[1::2])]
    return SPECIAL_RF + drawn + mixed


def test_ratfunc_arithmetic_matches_reference():
    pool = ratfunc_pool()
    for f in pool:
        assert pair(-f) == reduce_reference(-f.num, f.den)
        for g in pool:
            for op, ref in ((f + g, ratfunc_add_reference), (f - g, ratfunc_sub_reference),
                            (f * g, ratfunc_mul_reference)):
                expected = ref(pair(f), pair(g))
                assert (op.num.coeffs, op.den.coeffs) == (expected[0].coeffs, expected[1].coeffs)
            if g:
                q, expected = f / g, ratfunc_div_reference(pair(f), pair(g))
                assert (q.num.coeffs, q.den.coeffs) == (expected[0].coeffs, expected[1].coeffs)
            else:
                with pytest.raises(ZeroDivisionError):
                    f / g


def test_poly_arithmetic_matches_reference():
    polys = [Polynomial(), Polynomial.ONE, Polynomial((Fraction(-2, 9),)), Polynomial.T]
    for f in ratfunc_pool():
        polys += [f.num, f.den]
    for a in polys:
        for b in polys:
            assert (a * b).coeffs == poly_mul_reference(a, b).coeffs
            assert poly_gcd(a, b).coeffs == poly_gcd_reference(a, b).coeffs


# products of up to four factors of degree at most 3 with numerators and
# denominators up to 2^64, zero when a factor is; a and b share the factor
# g, of degree 0 or >= 2
rationals_64 = st.builds(Fraction, st.integers(-2 ** 64, 2 ** 64), st.integers(1, 2 ** 64))
factors_64 = st.lists(rationals_64, min_size=1, max_size=4).map(Polynomial)
cofactors_64 = st.lists(factors_64, max_size=3).map(lambda fs: prod(fs, start=Polynomial.ONE))
shared_64 = st.one_of(factors_64.filter(lambda f: f.degree >= 2), st.just(Polynomial.ONE))


def seeded_product(seed, degrees, den):
    """A product of factors of the given degrees, each coefficient drawn in
    [-9, 9] over [1, den] with a nonzero leading one, from a seeded stream."""
    rng = random.Random(seed)
    out = Polynomial.ONE
    for d in degrees:
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(d)]
        out = out * Polynomial(cs + [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, den))])
    return out


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@seed(1856013592080364728348593209572396538336280939441807522886421080733687907548521135110296099305308101072486063356066)
@given(cofactors_64, cofactors_64, shared_64)
# degree about 120: a shared factor of degree 40 or 60, and none
@example(seeded_product(1, (40, 40), 1), seeded_product(2, (40, 20), 1), seeded_product(3, (40,), 1))
@example(seeded_product(4, (30, 30), 2), seeded_product(5, (30,), 2), seeded_product(6, (60,), 2))
@example(seeded_product(7, (60, 60), 1), seeded_product(8, (50, 50), 1), Polynomial.ONE)
def test_integer_gcd_and_quotient_match_reference(x, y, g):
    a, b = x * g, y * g
    h = poly_gcd(a, b)
    assert h.coeffs == poly_gcd_reference(a, b).coeffs
    for divisor in (h, g.monic()):
        if divisor:
            assert _exact_quo(a, divisor).coeffs == poly_divmod_reference(a, divisor)[0].coeffs
    if g.degree > 0:
        with pytest.raises(ArithmeticError):
            _exact_quo(a + Polynomial.ONE, g.monic())


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.lists(cofactors_64, min_size=1, max_size=4), factors_64.filter(bool), shared_64)
@example([seeded_product(9, (8, 8), 1), Polynomial.ZERO], seeded_product(10, (8,), 1),
         seeded_product(11, (6,), 1))
@example([Polynomial.T * Polynomial.T, Polynomial((1, 1))], Polynomial((3, 1)), Polynomial.ONE)
@example([Polynomial((-10, 1))], Polynomial.ONE, Polynomial((1, 1)))  # (t - 10)(1 + t) vanishes at 10
def test_coprime_divides_by_the_gcd_of_all(xs, d, g):
    """_coprime divides integer lists, the last nonzero, by their primitive
    gcd in Z[t], the chained Euclid reference."""
    polys = [x * g for x in xs] + [d * g]
    lists = [f.ints[:] for f in polys]
    ref = Polynomial.ZERO
    for f in polys:
        ref = poly_gcd_reference(ref, f)
    for a, q in zip(lists, numfield._coprime([a[:] for a in lists])):
        assert numfield._convolve(q, ref.ints) == a


def sample_ratfunc_reference(rng, spec, p):
    """The sampler that reduced every draw with the Euclidean gcd; it also
    returns the denominator drawn, before reduction."""
    deg = rng.randint(0, spec.poly_degree)
    num = Polynomial(tuple(sample_rational(rng, spec, p) for _ in range(deg + 1)))
    shape = rng.randrange(3)
    if shape == 0 or num.is_zero():
        den = Polynomial.ONE
    elif shape == 1:
        den = Polynomial((0,) * rng.randint(1, 2) + (1,))
    else:
        c1 = sample_rational(rng, spec, p)
        den = Polynomial((Fraction(1), c1))
    return RationalFunction(num, den), den


def test_sample_ratfunc_matches_euclid_reference():
    shapes, cancelled = set(), {1: 0, 2: 0}
    for seed, draw in ((323, QT_DRAW), (325, dict(coef_bound=1, max_p_exp=1, poly_degree=1))):
        spec = SampleSpec(seed=seed, count=0, **draw)
        rng, ref_rng = spec.rng(), spec.rng()
        for _ in range(3000):
            got = sample_ratfunc(rng, spec, 3)
            expected, den = sample_ratfunc_reference(ref_rng, spec, 3)
            assert (got.num.coeffs, got.den.coeffs) == (expected.num.coeffs, expected.den.coeffs)
            assert rng.state == ref_rng.state
            shapes.add((got.den.degree, got.den.ord() or 0))
            if got.den.degree < den.degree:
                cancelled[2 if den.ord() == 0 else 1] += 1
    # denominators 1, t, t^2 and 1/c + t all occur, and both kinds cancel
    assert {(0, 0), (1, 1), (2, 2), (1, 0)} <= shapes
    assert cancelled[1] >= 100 and cancelled[2] >= 5, cancelled


# --- valuation-ring clearing ---------------------------------------------------------


def clearing_pool(field, rng, spec):
    """Coefficient lists: empty, all zero, values of both signs of order and
    p-exponent, and seeded draws with zeros mixed in."""
    p, z = field.p, field.zero
    if field.kind == "Q":
        scalars = [Fraction(p) ** e * u for e in (-3, -1, 0, 1, 2) for u in (1, Fraction(-5, 7))]
    else:
        t = RationalFunction.T
        scalars = [field.element_with_value((n, a)) * u
                   for n in (-2, -1, 0, 1, 2) for a in (-2, 0, 1)
                   for u in (field.one, field.one + t, field.scalar("-5/7") / (field.one - t))]
        scalars.append(t + field.scalar(Fraction(1, p)) * t * t)
    pool = [[], [z], [z, z]] + [[c] for c in scalars]
    pool += [[scalars[i], z, scalars[j]] for i in range(0, len(scalars), 3)
             for j in range(1, len(scalars), 4)]
    for _ in range(60):
        pool.append([sample_scalar(rng, spec, field) if rng.randrange(4) else z
                     for _ in range(rng.randint(1, 6))])
    return pool


@pytest.mark.parametrize("domain", [p_local(2), p_local(3), valuation_ring(QT)],
                         ids=["Z_(2)", "Z_(3)", "O_v(Qt)"])
def test_clear_many_matches_reference(domain):
    field = domain.valued_field
    spec = SampleSpec(seed=307, count=0, coef_bound=9, max_p_exp=3, poly_degree=2)
    rng = spec.rng()
    zero = (0,) * field.rank
    kinds = set()
    for coeffs in clearing_pool(field, rng, spec):
        got = domain.clear_many(coeffs)
        assert got == clear_many_reference(domain, coeffs)
        assert all(domain.contains(got * c) for c in coeffs)
        vals = [field.value(c) for c in coeffs if c]
        worst = min(vals, default=None)
        kinds.add("all zero" if worst is None else "negative" if worst < zero
                  else "zero" if worst == zero else "positive")
    assert kinds == {"all zero", "negative", "zero", "positive"}
    reference_noninvertible = Fraction(field.p) if field.kind == "Q" else RationalFunction.T
    assert domain.noninvertible() == reference_noninvertible
