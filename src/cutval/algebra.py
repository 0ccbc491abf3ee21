"""Finite-dimensional F-algebras by structure constants, plus F[y].

Elements of a :class:`StructureAlgebra` are coordinates in the ambient
basis: over Q a `numfield.QVector` (integers over one denominator), which
`QVector.of` makes of a tuple of Fractions, and over Q(t) its twin
`numfield.QtVector` (integer lists over one integer list in Z[t]), which
`QtVector.of` makes of a tuple of RationalFunctions.

Exact linear algebra runs on integers, in one fraction-free kernel on
both fields, `_bareiss` (Bareiss 1968), on the rows [a_i | d_i*e_i] of
vectors a_i/d_i (`_integer_rows`): `invert` as Gauss-Jordan, `rank_of`
and `solve_columns` forward only.  Over Q(t) each entry in Z[t] is read
at t = 2^w (Kronecker substitution), w one bit past the bound on every
coefficient of every minor, which is all Bareiss reaches, and `_digits`
reads each result back; `_elements` makes a block over det elements,
over Q(t) left as that clearing.  A Z_(p) lattice is its Hermite form,
read off a pivot search in Z/p^K with no pivot row built exactly
(`_padic_pivots`), and kept as QVector rows; over O_v of Q(t) T is the
pivot rows of `_bareiss` with least-valuation pivots, on the rows read
at t = 2^w (`_ov_pivots`).  Coordinates over a basis are the values of
the rows of `coordinate_rows`, the basis's inverse, which is where a
basis is checked, and `product_rows` stacks the rows of x -> coords(x*b)
with no product formed: coords' rows times b's right-multiplication
matrix, read off the table's cells.

Over Q a row is an element: a `_Rows` holds each row a_i over d as the
QVector it is, made canonical by `QVector._canonical`, the one gcd of
every row and every element (`add`, `smul` and `mul` sum over the table
cleared over one denominator D).  A `_Rows` reads x as its b_i over e:
a row value is Fraction(sum a_i*b_i, d*e) (`_Rows.values`), and the
domain reads the whole set as one pair (`_Rows.content`): the rows over
the lcm L of their d, packed into one integer per column (`_Packing`),
give every row sum from one product and one to_bytes, and the gcd g of
those sums over L*e is the rational whose multiples the values are, off
which membership, clearing and the least value are read.
`product_rows` is one integer matrix product over the same cells, and
every reader of the rows, the lattice's Z/p^K search included, takes
them as they are; `column_rows` turns vectors into the rows of the
matrix they are the columns of.  Over Q(t) a row is an element too, a
QtVector: elements and `product_rows` are summed the same way in Z[t],
over the table cleared over one D in Z[t], and a result is left as that
clearing until it is observed.  Valuations and `element` read each row's
clearing, one row at a time (see `numfield`), `_ov_pivots` reads the
clearings at t = 2^w, and only `values` iterates a row's scalars.

The polynomial backend :class:`PolynomialAlgebra` represents F[y] with the
monomial basis; elements are sparse exponent -> coefficient dicts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, repeat
from math import gcd, lcm, log2, prod
from operator import add, mul

from .errors import ConfigError, StructuralError
from .numfield import (QtVector, QVector, RationalFunction, ValuedField, _cleared, _convolve,
                       _int_p_exponent, _zt_dot, _zt_lcm, _zt_quo, _zt_sum, _zt_value,
                       _zt_value_of_dot)

Element = QVector | QtVector  # over Q and over Q(t); a tuple of scalars is taken too


@dataclass(frozen=True, eq=False)
class StructureAlgebra:
    """F^n with the product of a table of structure constants.  An element
    is the field's element form, a QVector over Q and a QtVector over Q(t),
    and every method also takes it as a tuple of scalars.  Over Q(t) `add`,
    `smul` and `mul` return the clearing they summed, which is made
    canonical when it is observed."""

    field: ValuedField
    names: tuple[str, ...]
    table: tuple  # table[i][j] = coordinate vector of e_i * e_j
    unit: Element
    # The nonzero cells of the table, (i, j, ((k, t), ...)) with t != 0,
    # built once: mul and product_rows walk these instead of all n^2 cells
    # times n entries.  Each t is stored cleared over one table denominator
    # _den = D: over Q as the integer t*D, over Q(t) as the integer list
    # t*D in Z[t].
    _cells: tuple = dataclasses.field(init=False, repr=False)
    _den: int | list = dataclasses.field(init=False, repr=False)
    _q: bool = dataclasses.field(init=False, repr=False)  # the field is Q

    def __post_init__(self):
        n = len(self.names)
        if n == 0:
            raise StructuralError("algebra dimension must be >= 1")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise StructuralError("structure-constant table must be n x n")
        for row in self.table:
            for vec in row:
                if len(vec) != n:
                    raise StructuralError("table entries must be coordinate vectors of length n")
        if len(self.unit) != n:
            raise StructuralError("unit coordinates must have length n")
        q = self.field.kind == "Q"
        object.__setattr__(self, "unit", (QVector if q else QtVector).of(self.unit))
        cells = tuple((i, j, tuple((k, t) for k, t in enumerate(vec) if t))
                      for i, row in enumerate(self.table) for j, vec in enumerate(row) if any(vec))
        flat = [t for _, _, terms in cells for _, t in terms]
        if q:
            ints, den = _cleared(flat)
        else:
            flat = QtVector.of(flat)
            ints, den = flat.nums, flat.den
        ints = iter(ints)
        cells = [(i, j, tuple((k, next(ints)) for k, _ in terms)) for i, j, terms in cells]
        object.__setattr__(self, "_cells", tuple(cells))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_q", q)

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def zero(self) -> Element:
        if self._q:
            return QVector._canonical((0,) * self.dim, 1)
        return QtVector._make([[] for _ in range(self.dim)], [1])

    def basis_vector(self, i: int) -> Element:
        if self._q:
            return QVector._canonical([int(k == i) for k in range(self.dim)], 1)
        return QtVector._make([[1] if k == i else [] for k in range(self.dim)], [1])

    def element(self, coords) -> Element:
        coords = tuple(self.field.scalar(c) for c in coords)
        if len(coords) != self.dim:
            raise StructuralError(f"expected {self.dim} coordinates, got {len(coords)}")
        return (QVector if self._q else QtVector).of(coords)

    # Over Q(t) the arithmetic is the same sums in Z[t]: x = A/D, y = B/E
    # and the table T/D_T give integer-list sums and convolutions over one
    # product of denominators, left as that clearing (`QtVector._clearing`).

    def add(self, x: Element, y: Element) -> Element:
        if not self._q:
            (a, d), (b, e) = QtVector.pair(x), QtVector.pair(y)
            if d == e:
                return QtVector._clearing(list(map(_zt_sum, a, b)), d[:])
            return QtVector._clearing([_zt_sum(_convolve(s, e), _convolve(t, d)) for s, t in zip(a, b)],
                                      _convolve(d, e))
        (a, d), (b, e) = QVector.pair(x), QVector.pair(y)
        g = gcd(d, e)
        m, k = e // g, d // g  # a/d + b/e = (a*m + b*k) / (d*m)
        return QVector._canonical([s * m + t * k for s, t in zip(a, b)], d * m)

    def smul(self, c, x: Element) -> Element:
        if not self._q:
            (a, d), n, e = QtVector.pair(x), c._n, c._d
            return QtVector._clearing([_convolve(s, n) for s in a], _convolve(d, e))
        (a, d), n = QVector.pair(x), c.numerator
        return QVector._canonical([s * n for s in a], d * c.denominator)

    def mul(self, x: Element, y: Element) -> Element:
        if len(x) != self.dim or len(y) != self.dim:
            raise ConfigError("element does not belong to this algebra")
        # x = a/d, y = b/e and the table is T/D, so the product is the
        # integer (over Q(t), Z[t]) sums over d*e*D: over Q made canonical
        # with one gcd, over Q(t) left as that clearing.
        if not self._q:
            (a, d), (b, e) = QtVector.pair(x), QtVector.pair(y)
            out = [[] for _ in range(self.dim)]
            for i, j, terms in self._cells:
                ai, bj = a[i], b[j]
                if ai and bj:
                    c = _convolve(ai, bj)
                    for k, t in terms:
                        out[k] = _zt_sum(out[k], c if t == [1] else _convolve(c, t))
            de = _convolve(d, e)
            return QtVector._clearing(out, de if self._den == [1] else _convolve(de, self._den))
        (a, d), (b, e) = QVector.pair(x), QVector.pair(y)
        out = [0] * self.dim
        for i, j, terms in self._cells:
            ai, bj = a[i], b[j]
            if ai and bj:
                c = ai * bj
                for k, t in terms:
                    out[k] += c * t
        return QVector._canonical(out, d * e * self._den)

    def is_zero(self, x: Element) -> bool:
        return not any(QVector.pair(x)[0] if self._q else QtVector.pair(x)[0])

    def scalar_of(self, x: Element):
        """alpha with x = alpha * 1, or None when x is not scalar."""
        pivot = next((i for i, u in enumerate(self.unit) if u), None)
        alpha = x[pivot] / self.unit[pivot]
        if x == self.smul(alpha, self.unit):
            return alpha
        return None

    def format_element(self, x: Element) -> str:
        return "(" + ", ".join(self.field.scalar_text(c) for c in x) + ")"


# --- exact linear algebra -------------------------------------------------


def _residues(pool, ncols, p, e, q):
    """The first ncols columns of the rows p^e*a/d of a pool of QVectors a/d, mod q."""
    scale = []
    for r in pool:
        v = _int_p_exponent(r.den, p)
        scale.append(p ** (e - v) * pow(r.den // p ** v, -1, q))
    return [[r.ints[j] * s % q for r, s in zip(pool, scale)] for j in range(ncols)]


def _padic_pivots(pool, ncols, p):
    """The Hermite form of the Z_(p)-span L of the first ncols columns of a
    pool of QVectors, read off a min-valuation pivot search in Z/p^K and
    built from residues alone: its rows H_i/p^e as QVectors, or None when
    the rows span no lattice.

    Rows scaled by one p^e, e the largest v_p(d), are p-integral and span
    p^e*L.  Mod p^K the least valuation k read in a column picks the pivot
    (ties to the lowest index), whose multiples clear the columns ahead.  A
    pivot of valuation k leaves the rows known mod p^(left-k) (Caruso, Roe
    and Vaccon, Tracking p-adic precision, 2014), so a valuation is read
    only below the precision left.  A pivot keeps its residues in the
    columns ahead, times the inverse of its unit part, and the pivot
    itself becomes exactly p^k; then every entry above a pivot p^k is
    reduced into [0, p^k), left to right (an HNF modulo a prime power,
    Cohen, GTM 138, Alg. 2.4.8).  A column with no valuation to read is
    settled by one exact rank of the pool (`_bareiss`): below ncols gives
    None, else K doubles and the search runs again.

    This is exact.  Pivot i is known mod p^left_i, left_i = (K - D) +
    sum_{l>=i} k_l > sum_{l>=i} k_l for D the sum of all k_l, since each
    k is read below the precision left.  The exact pivots from i on span,
    in the columns from i on, a lattice of index p^(sum_{l>=i} k_l), which
    holds p^left_i times every vector there.  So each lifted row differs
    from a unit multiple of its exact pivot by an element of the span of
    the later pivots, and the lifted rows span p^e*L exactly, with no
    generator p^K e_j pushed back."""
    e = max((_int_p_exponent(r.den, p) for r in pool), default=0)
    K, full = max(1, int(64 / log2(p))), None  # p^K about one machine word
    while True:
        res, lifted, left = _residues(pool, ncols, p, e, p ** K), [], K
        for c in range(ncols):
            q = p ** left
            col = [r % q for r in res[c]]
            if (pk := gcd(q, *col)) == q:  # p^k for the least valuation k read
                if full is None:
                    full = _bareiss([r.ints[:ncols] for r in pool], ncols, False)[0] == ncols
                if full:
                    break
                return None
            j = next(j for j, r in enumerate(col) if r % (pk * p))
            w = pow(col.pop(j) // pk, -1, q)
            ahead = [r.pop(j) for r in res[c + 1:]]
            lifted.append([0] * c + [pk] + [y * w % q for y in ahead])
            left -= _int_p_exponent(pk, p)
            qk = p ** left
            ms = [r // pk * w % qk for r in col]
            for r, y in zip(res[c + 1:], ahead):
                r[:] = [(x - m * y) % qk for x, m in zip(r, ms)]
        else:
            break
        K *= 2
    for j, pivot in enumerate(lifted):
        for row in lifted[:j]:
            if f := row[j] // pivot[j]:
                row[j:] = [x - f * y for x, y in zip(row[j:], pivot[j:])]
    return [QVector._canonical(h, p ** e) for h in lifted]


def _ov_pivots(pool, ncols, p):
    """T over O_v of Q(t) for QtVectors: the canonical pivot rows of the
    elimination on the first ncols columns pivoting on the first row of
    least v = (ord_t, v_p of the lowest coefficient); None below full rank.
    One `_bareiss` keyed by `_digit_value` runs on the rows over the lcm L
    of their denominators read at t = 2^w (`_kronecker`).  After k steps a
    row left is its scalar row times L*P_(k-1), P_(k-1) the last pivot (1
    at first), so values compare as the scalars' do; pivot row j, read
    back, is [0, .., P_j, tail] over L*P_(j-1); each value read is a minor
    of k + 1 <= ncols rows, and none past the last pivot (each // is exact)."""
    den = reduce(_zt_lcm, (r._den for r in pool), [1])
    rows = [[_convolve(a, q) for a in r._nums] for r in pool for q in [_zt_quo(den, r._den)]]
    m, w = _kronecker(rows, ncols)
    rank, pivots = _bareiss(m, ncols, False, lambda x: _digit_value(x, w, p))
    if rank < ncols:
        return None
    pivots = [_digits(x, w) for x in pivots]
    dens = [den[:]] + [_convolve(den, d) for d in pivots[:-1]]  # L*P_(j-1)
    return [QtVector._clearing([[] for _ in range(j)] + [d] + [_digits(x, w) for x in tail], e)._settle()
            for j, (d, tail, e) in enumerate(zip(pivots, m, dens))]


def _digit_value(x: int, w: int, p: int) -> tuple[int, int]:
    """v = (k, v_p(c)) off x's lowest nonzero signed w-bit digit c, at t^k."""
    k, half = ((x & -x).bit_length() - 1) // w, 1 << (w - 1)
    return k, _int_p_exponent((((x >> w * k) + half) & ((1 << w) - 1)) - half, p)


def _digits(v: int, w: int) -> list[int]:
    """v's signed w-bit digits, lowest first, each in [-2^(w-1), 2^(w-1))
    and borrowing from the next: the integer list in Z[t] whose value at
    t = 2^w is v, when its coefficients are below 2^(w-1) in size.
    Trailing zeros are left on."""
    out, half, mask = [], 1 << (w - 1), (1 << w) - 1
    for _ in range(v.bit_length() // w + 2):
        out.append(d := ((v + half) & mask) - half)
        v = (v - d) >> w
    return out


def _integer_rows(fieldobj: ValuedField, vectors) -> tuple[list, int]:
    """(the integer rows [a_i | d_i*e_i] of the vectors a_i/d_i, w): over Q
    (w = 0) their QVectors' integers, over Q(t) their clearings read at
    t = 2^w (`_kronecker`) for minors of all n rows, as every value that
    `_bareiss` reaches is, forward or as Gauss-Jordan (Sylvester)."""
    q = fieldobj.kind == "Q"
    pairs = list(map(QVector.pair if q else QtVector.pair, vectors))
    n, zero = len(pairs), 0 if q else []
    rows = [[*a] + [d if j == i else zero for j in range(n)] for i, (a, d) in enumerate(pairs)]
    return (rows, 0) if q else _kronecker(rows, n)


def _kronecker(rows, count: int) -> tuple[list, int]:
    """(the rows of Z[t] lists, each read at t = 2^w, w), w one bit past B,
    the product of the `count` largest row 1-norms max(1, sum_j |m_ij|_1):
    a minor of at most `count` rows sums products of one entry a row, whose
    1-norms multiply, so its coefficients are at most B; `_digits` reads it."""
    norms = (max(1, sum(map(abs, chain.from_iterable(row)))) for row in rows)
    w = prod(sorted(norms, reverse=True)[:count]).bit_length() + 1
    return [[sum(c << w * k for k, c in enumerate(a)) if a else 0 for a in row] for row in rows], w


def _elements(fieldobj: ValuedField, block, det: int, w: int) -> tuple:
    """The integer rows of a block over det != 0 as elements, rows and det
    negated first when det < 0: over Q the QVectors, over Q(t) each entry
    and det read back into Z[t] (`_digits`) and left as that clearing
    (`QtVector._clearing`), made canonical when it is observed."""
    if det < 0:
        block, det = [[-x for x in row] for row in block], -det
    if fieldobj.kind == "Q":
        return tuple(QVector._canonical(row, det) for row in block)
    den = _digits(det, w)
    return tuple(QtVector._clearing([_digits(x, w) for x in row], den) for row in block)


def solve_columns(fieldobj: ValuedField, columns, target):
    """Coordinates c with sum c_i * columns[i] = target, exactly: `_bareiss`
    forward only on the integer rows of the m columns and the target, where
    a row left past the rank r holds a relation sum_i R_i*v_i = 0 in its
    right half, and the solution is c_i = -R_i/R_m when r = m and R_m != 0.

    Raises StructuralError for dependent columns and for an inconsistent
    system (target outside the span when len(columns) < len(target)).
    """
    m = len(columns)
    rows, w = _integer_rows(fieldobj, [*columns, target])
    rank, _ = _bareiss(rows, len(target), False)
    if rank < m or (rank == m and not rows[m][m]):
        raise StructuralError("dependent columns in linear solve")
    if rank > m:
        raise StructuralError("target outside the span of the columns")
    return tuple(_elements(fieldobj, [rows[m][:m]], -rows[m][m], w)[0])


def _bareiss(m, ncols, above, key=None):
    """Fraction-free elimination (Bareiss) of the integer rows m, in place,
    on their first ncols columns: (rank, the pivots).  A column pivots on
    the first nonzero row at or below the rank (of least key(entry), given
    a key), moved up past rows kept in order, or is skipped.  Each updated row M becomes
    (p*M - M_c*P) // prev, exactly, for the pivot row P with P_c = p and
    prev the last pivot: the rows below P, given above those above it too
    (Gauss-Jordan).  Every updated row and P drop column c; forward only."""
    r, prev, pivots = 0, 1, []
    for _ in range(ncols):  # every row still updated holds the columns c..
        live = range(0 if above else r, len(m))
        nonzero = (i for i in range(r, len(m)) if m[i][0])
        piv = min(nonzero, key=lambda i: key(m[i][0]), default=None) if key else next(nonzero, None)
        if piv is None:
            for i in live:
                m[i] = m[i][1:]
            continue
        m.insert(r, m.pop(piv))
        p, tail = m[r][0], m[r][1:]
        for i in live:
            if i != r:
                row, f = m[i], m[i][0]
                m[i] = ([(p * x - f * y) // prev for x, y in zip(row[1:], tail)] if f
                        else [p * x // prev for x in row[1:]])
        m[r], prev, r = tail, p, r + 1
        pivots.append(p)
    return r, pivots


def rank_of(fieldobj: ValuedField, vectors) -> int:
    """The rank of the vectors: `_bareiss` forward only on their integer
    rows (`_integer_rows`), on the vectors' own columns."""
    vectors = list(vectors)
    ncols = len(vectors[0]) if vectors else 0
    rows, _ = _integer_rows(fieldobj, vectors)
    return _bareiss([r[:ncols] for r in rows], ncols, False)[0]


def invert(fieldobj: ValuedField, vectors) -> _Rows:
    """The rows of the inverse of the matrix with the vectors as its
    columns, as a _Rows.  `_bareiss` as Gauss-Jordan on their integer rows
    leaves det times the inverse of the transpose in the right half, whose
    column j over det is row j of the inverse (`_elements`)."""
    m, w = _integer_rows(fieldobj, vectors)
    rank, pivots = _bareiss(m, n := len(m), True)
    if rank < n:
        raise StructuralError("singular matrix")
    return _Rows._make(_elements(fieldobj, zip(*m), pivots[-1], w), fieldobj.kind == "Q")


def is_independent(fieldobj: ValuedField, vectors) -> bool:
    vectors = list(vectors)
    return rank_of(fieldobj, vectors) == len(vectors)


def extend_to_basis(alg: StructureAlgebra, vectors) -> list:
    """Greedily complete an independent family with ambient basis vectors."""
    out = list(vectors)
    if not is_independent(alg.field, out):
        raise StructuralError("cannot extend a dependent family")
    for i in range(alg.dim):
        if len(out) == alg.dim:
            break
        cand = alg.basis_vector(i)
        if is_independent(alg.field, out + [cand]):
            out.append(cand)
    if len(out) != alg.dim:
        raise StructuralError("failed to extend to a basis")
    return out


# --- coordinate rows --------------------------------------------------------


def _dot(row, x):
    acc = None
    for r, c in zip(row, x):
        if r and c:
            acc = r * c if acc is None else acc + r * c
    return RationalFunction.ZERO if acc is None else acc


class _Rows:
    """Fixed linear rows over a field, of one width, evaluated at points x.
    `stored` holds each row as the element it is: over Q the `QVector`
    a_1..a_n over d (`q` is True), over Q(t) the `QtVector` A_1..A_n over
    Q in Z[t], which a valuation read and `_ov_pivots` take as it is and
    which `values` iterates as its scalars.  Iterating yields `stored`.
    _Rows(fieldobj, rows) is rows itself when it is a _Rows.  The domain
    reads a set over Q as one pair, `content`, off the rows packed over
    their lcm (`_packed`: one packing a set, made again only when a point
    needs more bits), and a set over Q(t) row by row, `valuations`;
    `values` builds the values themselves.  A point x is read as its
    element form's integers (integer lists over Q(t)) and denominator."""

    def __new__(cls, fieldobj, rows):
        if isinstance(rows, _Rows):
            return rows
        q = fieldobj.kind == "Q"
        return cls._make(tuple(map(QVector.of if q else QtVector.of, rows)), q)

    @classmethod
    def _make(cls, stored, q: bool):
        self = object.__new__(cls)
        self.stored, self.q, self._packed = stored, q, None
        self.width = len(stored[0]) if stored else 0
        return self

    def __iter__(self):
        return iter(self.stored)

    def __len__(self):
        return len(self.stored)

    def subset(self, indices: list) -> _Rows:
        """The rows at indices, in that order."""
        return _Rows._make([self.stored[i] for i in indices], self.q)

    def values(self, x):
        """The row values at x, in row order, computed as they are consumed;
        an x whose length is not the rows' width is refused at once.  Over
        Q(t) they are summed on the scalars of the rows and of x."""
        self._check_width(x)
        if not self.q:
            return (_dot(row, x) for row in self.stored)
        b, e = QVector.pair(x)
        return (Fraction(sum(map(mul, r.ints, b)), r.den * e) for r in self.stored)

    def element(self, x) -> Element:
        """The row values at x as one element, made from the integer sums
        over a common multiple of the rows' denominators: over Q their lcm,
        with one gcd, over Q(t) their lcm in Z[t] (`numfield._zt_lcm`)."""
        self._check_width(x)
        if not self.q:
            (b, e), rows = QtVector.pair(x), self.stored
            den = reduce(_zt_lcm, (r._den for r in rows))
            return QtVector._clearing([_zt_dot(r._nums, b) if r._den == den
                                       else _convolve(_zt_dot(r._nums, b), _zt_quo(den, r._den))
                                       for r in rows], _convolve(den, e))
        (b, e), den = QVector.pair(x), lcm(*(r.den for r in self.stored))
        return QVector._canonical([sum(map(mul, r.ints, b)) * (den // r.den) for r in self.stored], den * e)

    def valuations(self, x, vf: ValuedField):
        """Over Q(t), vf's value of each row value at x (None for a zero
        value), in row order and as consumed, building no value and taking
        no gcd: v(sum A_i*X_i) - v(Q) - v(D) off the clearings
        (`numfield._zt_value_of_dot`)."""
        self._check_width(x)
        x, p = QtVector.of(x), vf.p
        xv = _zt_value(x._den, p)
        return (_zt_value_of_dot(r, x, xv, p) for r in self.stored)

    def content(self, x) -> tuple:
        """Over Q, the row values at x as one pair (g, L*e), building none:
        for x = b/e and L the lcm of the rows' d_r, value r is s_r/(L*e)
        with s_r = sum_j (L/d_r)*a_rj*b_j, and g is the gcd of the s_r, 0
        when every value is 0.  The values generate the fractional ideal
        g/(L*e)*Z, so S reads membership, clearing and the least value off
        this one rational (`BaseDomain.reads`).  The s_r are read off the
        rows over L as one `_Packing`, made on the first read and again
        only for a point of more bits than it was made for."""
        self._check_width(x)
        b, e = QVector.pair(x)
        bits = max(map(int.bit_length, b), default=0)
        if self._packed is None or bits > self._packed[0]:
            self._packed = self._pack(max(bits, 64))  # a word-sized point never re-packs
        _, den, packing = self._packed
        return gcd(*packing.sums(b)), den * e

    def _pack(self, bits: int) -> tuple:
        """(the most bits a point may have, L, the rows c_r = a_r*(L/d_r)
        packed in digits of w bits), for w the least multiple of 8 with
        w >= bits(C) + bits + bits(n) + 1, C the largest |c_rj| and n the
        width: then |s_r| <= n*C*(2^bits - 1) < 2^(w-1)."""
        den = lcm(*(r.den for r in self.stored))
        scaled = [r.ints if (k := den // r.den) == 1 else [a * k for a in r.ints] for r in self.stored]
        cbits = max(map(abs, chain.from_iterable(scaled)), default=0).bit_length()
        nbits = self.width.bit_length()
        k = (cbits + bits + nbits + 8) // 8  # bytes a digit
        return 8 * k - 1 - cbits - nbits, den, _Packing(scaled, k)

    def _check_width(self, x):
        if len(x) != self.width:
            raise ConfigError(f"element has {len(x)} coordinates, the rows take {self.width}")


class _Packing:
    """Integer rows c_r of one width, packed for their dot products at
    integer points (Kronecker substitution): column j is the one integer
    P_j = sum_r c_rj * 2^(w*r), w = 8k bits.  `sums(b)` reads every
    s_r = sum_j c_rj*b_j off sum_j b_j*P_j plus the offset
    sum_r 2^(w-1) * 2^(w*r): digit r of that sum is s_r + 2^(w-1), which
    lies in [0, 2^w) for |s_r| < 2^(w-1), so no digit borrows, and one
    to_bytes splits it into the digits.  A point must keep every
    |s_r| below 2^(w-1); `_Rows._pack` chooses w so."""

    __slots__ = ("cols", "offset", "half", "size", "chunks")

    def __init__(self, rows, k: int):
        m = len(rows)
        self.half = half = 1 << (8 * k - 1)
        self.offset = int.from_bytes(half.to_bytes(k, "big") * m, "big")
        self.cols = [int.from_bytes(b"".join(map(int.to_bytes, map(add, reversed(col), repeat(half)),
                                                 repeat(k), repeat("big"))), "big") - self.offset
                     for col in zip(*rows)]
        self.size = k * m
        self.chunks = [slice(i - k, i) for i in range(k * m, 0, -k)]  # digit r, from the low end

    def sums(self, b) -> list:
        """The s_r at the integers b, in row order."""
        data, half = sum(map(mul, b, self.cols), self.offset).to_bytes(self.size, "big"), self.half
        return [int.from_bytes(data[s], "big") - half for s in self.chunks]


def coordinate_rows(alg: StructureAlgebra, basis) -> _Rows:
    """Rows whose values at x are x's coordinates over a basis of A: the
    rows of the inverse of the matrix with the basis vectors as columns
    (`invert`).
    A basis of the wrong size, with a vector of the wrong length or
    dependent is refused here."""
    n = alg.dim
    if len(basis) != n:
        raise StructuralError(f"a basis of A has {n} elements, got {len(basis)}")
    if (bad := next((len(b) for b in basis if len(b) != n), None)) is not None:
        raise StructuralError(f"a basis vector of A has {n} coordinates, got {bad}")
    try:
        return invert(alg.field, basis)
    except StructuralError:
        raise StructuralError("basis is dependent") from None


def column_rows(alg: StructureAlgebra, vectors) -> _Rows:
    """The rows of the matrix with the given elements as its columns, read
    off their clearings a_i/d_i: each a_i scaled by L/d_i, for L the lcm
    of the d_i (over Q(t) in Z[t]), and row j the a_i[j]*(L/d_i) over L,
    over Q the QVector made canonical, over Q(t) the QtVector left as that
    clearing."""
    if alg._q:
        vectors = list(map(QVector.of, vectors))
        den = lcm(*(v.den for v in vectors))
        scaled = [[x * (den // v.den) for x in v.ints] for v in vectors]
        return _Rows._make([QVector._canonical(col, den) for col in zip(*scaled)], True)
    vectors = list(map(QtVector.of, vectors))
    den = reduce(_zt_lcm, (v._den for v in vectors), [1])
    scaled = [[_convolve(a, q) for a in v._nums] for v in vectors for q in [_zt_quo(den, v._den)]]
    return _Rows._make(tuple(map(QtVector._make, zip(*scaled), repeat(den), repeat(False))), False)


def product_rows(alg: StructureAlgebra, coords: _Rows, elements) -> _Rows:
    """Rows of the linear maps x -> coords(x*b), b in elements, in that
    order: row (b, k) holds coordinate k of e_i * b at position i.

    No product is formed.  b's rows are coords' rows times b's right-
    multiplication matrix, whose column i is e_i*b summed off the table's
    nonzero cells, cleared over D.  That is one matrix product of
    integers, over Q(t) of integer lists in Z[t]: for b as beta/e and
    coords' row a/d, row (b, k) is the integers sum_r a_r * (sum_j beta_j
    * D*t_ij^r) over d*e*D, over Q the QVector made canonical, over Q(t)
    the QtVector left as that clearing (`QtVector._clearing`)."""
    n, q = alg.dim, alg._q
    rows = []
    for b in elements:
        beta, e = (QVector if q else QtVector).pair(b)
        # right[i][r]: coordinate r of e_i*b, times e*D
        right = [[0 if q else []] * n for _ in range(n)]
        for i, j, terms in alg._cells:
            if bj := beta[j]:
                col = right[i]
                for r, t in terms:
                    col[r] = col[r] + bj * t if q else _zt_sum(col[r], _convolve(bj, t))
        ed = e * alg._den if q else _convolve(e, alg._den)
        rows.extend(QVector._canonical([sum(map(mul, r.ints, col)) for col in right], r.den * ed) if q
                    else QtVector._clearing([_zt_dot(r._nums, col) for col in right], _convolve(r._den, ed))
                    for r in coords.stored)
    return _Rows._make(rows, q)


# --- validation -----------------------------------------------------------


@dataclass(frozen=True)
class TableReport:
    ok: bool
    dim: int
    failure: str | None = None
    witness: tuple | None = None

    def __str__(self):
        if self.ok:
            return f"OK: associative, unital (n={self.dim})"
        return f"FAIL: {self.failure} at {self.witness}"


def _combine(pairs, products, zero, n) -> list:
    """sum c * products[l] over (l, c) in pairs, each products[l] the
    (k, t) terms of one table cell."""
    out = [zero] * n
    for l, c in pairs:
        for k, t in products[l]:
            out[k] = out[k] + c * t
    return out


def check_associative_unital(alg: StructureAlgebra) -> TableReport:
    """Exhaustive scan of all n^3 associativity triples and the unit laws.

    Both sides are summed off the table's nonzero terms, with no general
    product: (e_i e_j) e_k = sum_l t_ij^l e_l e_k and e_i (e_j e_k) =
    sum_l t_jk^l e_i e_l, and 1 e_i = sum_l u_l e_l e_i for the unit u,
    likewise e_i 1, at the nonzero cells (`_cells`).  Over Q the terms are
    the cleared integers, which scales both sides by D^2 (by D in the unit
    laws); over Q(t) they are read off the table's scalars.
    """
    n, q = alg.dim, alg._q
    zero, one = (0, alg._den) if q else (alg.field.zero, alg.field.one)
    rows = [[()] * n for _ in range(n)]  # rows[i][j]: terms of e_i e_j
    for i, j, terms in alg._cells:
        rows[i][j] = terms if q else tuple((k, alg.table[i][j][k]) for k, _ in terms)
    columns = [list(col) for col in zip(*rows)]  # columns[k][l]: e_l e_k
    unit = [(l, u) for l, u in enumerate(alg.unit) if u]
    for i in range(n):
        ei = [one if k == i else zero for k in range(n)]
        if _combine(unit, columns[i], zero, n) != ei:
            return TableReport(False, n, "left unit law fails", (i,))
        if _combine(unit, rows[i], zero, n) != ei:
            return TableReport(False, n, "right unit law fails", (i,))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = _combine(rows[i][j], columns[k], zero, n)
                right = _combine(rows[j][k], rows[i], zero, n)
                if left != right:
                    return TableReport(False, n, "associativity fails", (i, j, k))
    return TableReport(True, n)


# --- bundled algebras -----------------------------------------------------


def matrix_algebra(fieldobj: ValuedField, n: int) -> StructureAlgebra:
    """M_n(F) with the matrix-unit basis e11, e12, ..., enn (row-major)."""
    names = tuple(f"e{i + 1}{j + 1}" for i in range(n) for j in range(n))
    z, o = fieldobj.zero, fieldobj.one
    dim = n * n
    table = []
    for a in range(dim):
        i, j = divmod(a, n)
        row = []
        for b in range(dim):
            k, l = divmod(b, n)
            vec = [z] * dim
            if j == k:
                vec[i * n + l] = o
            row.append(tuple(vec))
        table.append(tuple(row))
    unit = tuple(o if divmod(a, n)[0] == divmod(a, n)[1] else z for a in range(dim))
    return StructureAlgebra(fieldobj, names, tuple(table), unit)


def quadratic_algebra(fieldobj: ValuedField, d) -> StructureAlgebra:
    """F[x]/(x^2 - d) with basis {1, s}; d = 2 gives Q(sqrt 2), d = 0 the
    nilpotent example Q[x]/(x^2)."""
    z, o = fieldobj.zero, fieldobj.one
    dd = fieldobj.scalar(d)
    names = ("1", "s")
    table = (
        ((o, z), (z, o)),
        ((z, o), (dd, z)),
    )
    unit = (o, z)
    return StructureAlgebra(fieldobj, names, table, unit)


def matrix_element(alg: StructureAlgebra, entries) -> Element:
    """Element of matrix_algebra from an n x n array of scalars."""
    flat = [c for row in entries for c in row]
    if len(flat) != alg.dim:
        raise StructuralError("matrix shape does not match the algebra")
    return alg.element(flat)


# --- polynomial backend ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class PolynomialAlgebra:
    """F[y] with monomial basis {y^n}; elements are exponent->scalar dicts."""

    field: ValuedField

    @property
    def zero(self) -> dict:
        return {}

    @property
    def unit(self) -> dict:
        return {0: self.field.one}

    def monomial(self, n: int, c=None) -> dict:
        c = self.field.one if c is None else self.field.scalar(c)
        return {n: c} if c else {}

    def element(self, pairs) -> dict:
        out = {}
        for n, c in dict(pairs).items():
            c = self.field.scalar(c)
            if c:
                out[int(n)] = c
        return out

    def add(self, f: dict, g: dict) -> dict:
        out = dict(f)
        for n, c in g.items():
            s = out.get(n, self.field.zero) + c
            if s:
                out[n] = s
            else:
                out.pop(n, None)
        return out

    def smul(self, c, f: dict) -> dict:
        if not c:
            return {}
        return {n: c * a for n, a in f.items()}

    def mul(self, f: dict, g: dict) -> dict:
        out: dict = {}
        for i, a in f.items():
            for j, b in g.items():
                n = i + j
                s = out.get(n, self.field.zero) + a * b
                if s:
                    out[n] = s
                else:
                    out.pop(n, None)
        return out

    def format_element(self, f: dict) -> str:
        if not f:
            return "0"
        terms = [f"{self.field.scalar_text(c)}*y^{n}" for n, c in sorted(f.items())]
        return " + ".join(terms)
