"""Exact base fields and their valuations.

Two instances: Q with the p-adic valuation (value group Z), and Q(t) with
the composite rank-2 valuation (value group Z^2-lex)

    v(f) = (ord_t f, v_p(c))

where ord_t is the t-adic order of f at 0 and c the coefficient of the
lowest term of its Laurent expansion.  The first component dominating
makes v a valuation onto Z^2-lex: both components are multiplicative, and
on sums either the orders differ (the lower one wins exactly) or they
agree and the lowest coefficients add, where cancellation only increases
the value.

Rationals are stdlib ``fractions.Fraction`` (already reduced, positive
denominator, arbitrary precision), and a vector over Q, such as an algebra
element, is one ``QVector``: integers over one denominator.  ``v(0)`` is
``None`` everywhere in this module -- the cut-level infinity lives in
:mod:`cutval.cuts` only.

Everything over Q(t) is a clearing in Z[t], in one canonical form:
integer coefficient lists over one nonzero integer list, without trailing
zeros, with Q[t]-gcd 1, integer content 1 and a denominator with a
positive leading coefficient.  An element of Q(t) is a
``RationalFunction``, such a pair n/d; its operators take canonical
operands and make a canonical result by Henrici's cross-cancellation
(Knuth, TAOCP vol. 2, 4.5.1) on the lists, so no result is re-reduced and
no gcd is taken with a constant.  Products are integer convolutions,
``poly_gcd`` runs the primitive polynomial remainder sequence on the
primitive integer multiples of its operands (Knuth, 4.6.1, Algorithm E),
and `_zt_quo` divides by a primitive divisor, a division that Gauss's
lemma makes exact.  A ``Polynomial`` is the Q[t] view of a list: integer
coefficients over one positive denominator, with no common factor, read by
parsing, ``poly_gcd`` and ``RationalFunction.num``/``den``; it does no
arithmetic.

A vector over Q(t), such as an algebra element, is one ``QtVector``:
integer coefficient lists over one integer-list denominator in Z[t], made
canonical once it is observed by one chain of ``poly_gcd`` (`_coprime`).  Both
parts of v are multiplicative, so v(S/D) = v(S) - v(D) for any
representation in Z[t], reduced or not, where v(P) for P in Z[t] is
(ord_t P, v_p of its lowest coefficient).  A row, itself a QtVector, read
against a point needs only v of its value: `_zt_value_of_dot` reads it off
the lowest terms of integer products of the two clearings, with no gcd and
no scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm

from .errors import ConfigError, StructuralError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=256)
def is_prime(p: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, exact for every
    p < 2^64; larger p are refused.  Cached, as valuations re-ask it."""
    if p >= 2 ** 64:
        raise ConfigError(f"p must be below 2^64, got {p}")
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s, d odd
    for a in _MR_BASES:
        x = pow(a, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def _int_p_exponent(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("0 has no p-exponent")
    if p == 2:  # the lowest set bit, of n and of -n alike
        return (n & -n).bit_length() - 1
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


def vp(p: int, q: Fraction) -> tuple[int] | None:
    """Exponent of p in q as a rank-1 group element; None for q = 0."""
    if not is_prime(p):
        raise ConfigError(f"{p} is not prime")
    if q == 0:
        return None
    return (_int_p_exponent(q.numerator, p) - _int_p_exponent(q.denominator, p),)


def parse_rational(text: str) -> Fraction:
    s = str(text).strip()
    num, sep, den = s.partition("/")
    try:
        if sep:
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise StructuralError(f"not a rational: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _cleared(coeffs) -> tuple[list[int], int]:
    """(A, d) with coeffs = A/d, for d the lcm of the denominators."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


class QVector:
    """A vector over Q as one canonical clearing: the integers ``ints``
    over one denominator ``den > 0`` with gcd(ints..., den) = 1, so 0 is
    (0, ..., 0) over 1; the form of every element and row over Q.
    ``of`` is the one place where another sequence of rationals becomes
    one.  Iterating or indexing yields ``Fraction``s, built on each read,
    and a QVector equals, and hashes as, the tuple of those ``Fraction``s.
    """

    __slots__ = ("ints", "den")

    @classmethod
    def of(cls, x) -> "QVector":
        """x itself when it is a QVector, else its Fractions (or ints) cleared."""
        return x if type(x) is cls else cls._canonical(*_cleared(x))

    @classmethod
    def pair(cls, x) -> tuple:
        """(ints, den) of ``of(x)``."""
        x = cls.of(x)
        return x.ints, x.den

    @classmethod
    def _canonical(cls, ints, den: int) -> "QVector":
        """ints/den for integers and den > 0, divided by their one gcd."""
        g = gcd(den, *ints)
        out = object.__new__(cls)
        out.ints, out.den = (tuple(ints), den) if g == 1 else (tuple(x // g for x in ints), den // g)
        return out

    def __len__(self):
        return len(self.ints)

    def __iter__(self):
        d = self.den
        return map(Fraction, self.ints) if d == 1 else (Fraction(x, d) for x in self.ints)

    def __getitem__(self, i):
        return tuple(self)[i] if isinstance(i, slice) else Fraction(self.ints[i], self.den)

    def __eq__(self, other):
        if type(other) is QVector:
            return self.den == other.den and self.ints == other.ints
        return isinstance(other, tuple) and tuple(self) == other

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"QVector({list(self.ints)}, {self.den})"


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The product in Z[t] of two coefficient lists, as a new list."""
    if not (a and b):
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


class Polynomial:
    """Univariate polynomial over Q, coefficients lowest-degree-first: the
    Q[t] view of integer lists, which parsing and ``poly_gcd`` read and
    ``RationalFunction.num``/``den`` return.  It does no arithmetic.

    It is stored as its clearing only: the coefficients are ints/den for
    the integer list ints without a leading zero and den > 0 with
    gcd(ints..., den) = 1, the pair that ``_cleared(coeffs)`` gives, which
    ``_from_ints`` makes of any integer list with one gcd; ``coeffs``
    builds the ``Fraction`` coefficients on each read.
    """

    __slots__ = ("ints", "den")

    def __new__(cls, coeffs=()):
        return cls._from_ints(*_cleared([c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]))

    @classmethod
    def _from_ints(cls, ints: list[int], d: int) -> "Polynomial":
        """ints/d for a list of integers and d > 0, made canonical; takes
        ownership of ints."""
        while ints and not ints[-1]:
            ints.pop()
        g = gcd(d, *ints)
        if g != 1:
            ints, d = [x // g for x in ints], d // g
        out = object.__new__(cls)
        out.ints, out.den = ints, d
        return out

    ZERO: "Polynomial"
    ONE: "Polynomial"
    T: "Polynomial"

    @property
    def coeffs(self) -> tuple:
        d = self.den
        return tuple(map(Fraction, self.ints) if d == 1 else (Fraction(x, d) for x in self.ints))

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def __bool__(self):
        return bool(self.ints)

    def monic(self) -> "Polynomial":
        a = self.ints
        if not a or a[-1] == self.den:
            return self
        return Polynomial._from_ints(a[:] if a[-1] > 0 else [-x for x in a], abs(a[-1]))

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((tuple(self.ints), self.den))

    def __repr__(self):
        return f"Polynomial({[format_rational(c) for c in self.coeffs]})"


Polynomial.ZERO = Polynomial()
Polynomial.ONE = Polynomial((1,))
Polynomial.T = Polynomial((0, 1))


def _zt_quo(a: list[int], g: list[int]) -> list[int]:
    """a / g in Z[t], as a new list, for a nonzero g that divides a with an
    integral quotient, as a primitive g does (Gauss's lemma); raises
    ArithmeticError otherwise."""
    rem, n, lc = a[:], len(g) - 1, g[-1]
    quo = []
    for k in range(len(rem) - 1, n - 1, -1):
        q = rem[k] // lc
        if q:
            for i, c in enumerate(g, k - n):
                rem[i] -= q * c
        quo.append(q)
    if any(rem):
        raise ArithmeticError(f"{g!r} does not divide {a!r}")
    quo.reverse()
    return quo


def _primitive_part(ints: list[int]) -> list[int]:
    """ints over its content, with a positive leading coefficient."""
    c = gcd(*ints)
    c = -c if ints[-1] < 0 else c
    return ints if c == 1 else [x // c for x in ints]


def _pseudo_rem(u: list[int], v: list[int]) -> list[int]:
    """A nonzero integer multiple of u mod v, as a list without leading
    zeros, made from u in place: each step scales u only by
    lc(v)/gcd(lc(v), lc(u))."""
    n, lc = len(v) - 1, v[-1]
    for k in range(len(u) - 1, n - 1, -1):
        c = u.pop()
        if c:
            g = gcd(c, lc)
            m, c, s = lc // g, c // g, k - n
            if m != 1:
                u = [m * x for x in u]
            for i in range(n):
                u[s + i] -= c * v[i]
    while u and not u[-1]:
        u.pop()
    return u


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd, so the result is unique: 0 for two zeros, the other side
    made monic for one zero side.  It runs the primitive remainder sequence
    in Z[t] and stops as soon as a constant appears; the primitive gcd in
    Z[t], with a positive leading coefficient, is its ``ints``."""
    if len(a.ints) == 1 or len(b.ints) == 1:
        return Polynomial.ONE
    if not (a and b):
        return (a or b).monic()
    u, v = _primitive_part(a.ints[:]), _primitive_part(b.ints[:])  # new lists
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        r = _pseudo_rem(u, v)
        if not r:
            return Polynomial._from_ints(v, v[-1])
        u, v = v, _primitive_part(r)
    return Polynomial.ONE


def _zt_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd in Z[t], with a positive leading coefficient, of two
    nonzero integer lists without trailing zeros, [1] when it is a constant:
    ``poly_gcd`` of the lists read as polynomials."""
    return poly_gcd(Polynomial._from_ints(a, 1), Polynomial._from_ints(b, 1)).ints


def _cancel(a: list[int], b: list[int]) -> tuple:
    """Two integer lists without trailing zeros over their primitive gcd in
    Z[t]; as they are when either is a constant or 0, with no gcd taken."""
    if len(a) > 1 and len(b) > 1 and len(g := _zt_gcd(a, b)) > 1:
        return _zt_quo(a, g), _zt_quo(b, g)
    return a, b


class RationalFunction:
    """An element of Q(t) as the canonical pair of a one-coordinate
    ``QtVector``: integer lists n over d in Z[t], without trailing zeros,
    with Q[t]-gcd 1, integer content 1 and lc(d) > 0, so 0 is [] over [1].

    ``RationalFunction(num, den)`` reduces two Polynomials, and ``num`` and
    ``den`` read the pair back as Polynomials, den monic.  The operators
    assume canonical operands and make a canonical result by Henrici's
    cross-cancellation (Knuth, TAOCP vol. 2, 4.5.1) on the lists, so they
    take a gcd of two non-constant lists only, and then divide out the
    integer content (`_lowest`).  The lists are shared, never changed.
    """

    __slots__ = ("_n", "_d")

    def __new__(cls, num: Polynomial, den: Polynomial = Polynomial.ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        a, b = num.den, den.den  # (A/a) / (B/b) = (A*b) / (B*a)
        return _scalar(num.ints if b == 1 else [x * b for x in num.ints],
                       den.ints if a == 1 else [x * a for x in den.ints])

    @classmethod
    def _pair(cls, n: list[int], d: list[int]) -> "RationalFunction":
        """n/d for a canonical pair, stored as given."""
        out = object.__new__(cls)
        out._n, out._d = n, d
        return out

    ZERO: "RationalFunction"
    ONE: "RationalFunction"
    T: "RationalFunction"

    @classmethod
    def constant(cls, q) -> "RationalFunction":
        q = Fraction(q)
        return cls._pair([q.numerator], [q.denominator]) if q else cls.ZERO

    @property
    def num(self) -> Polynomial:
        return Polynomial._from_ints(self._n, self._d[-1])

    @property
    def den(self) -> Polynomial:
        return Polynomial._from_ints(self._d, self._d[-1])

    def is_zero(self) -> bool:
        return not self._n

    def __bool__(self):
        return bool(self._n)

    def __add__(self, other):
        n1, d1, n2, d2 = self._n, self._d, other._n, other._d
        if not (n1 and n2):
            return self if n1 else other
        if d1 == d2:
            g, d1g, d2g = d1, [1], [1]
        else:
            g = _zt_gcd(d1, d2) if len(d1) > 1 and len(d2) > 1 else [1]
            d1g, d2g = (d1, d2) if len(g) == 1 else (_zt_quo(d1, g), _zt_quo(d2, g))
        # n1/d1 + n2/d2 = s / (d1g * d2g * g), and gcd(s, that) = gcd(s, g)
        s = _zt_sum(_convolve(n1, d2g), _convolve(n2, d1g))
        while s and not s[-1]:
            s.pop()
        if not s:
            return RationalFunction.ZERO
        if len(s) > 1 and len(g) > 1 and len(h := _zt_gcd(s, g)) > 1:
            s, d2 = _zt_quo(s, h), _zt_quo(d2, h)
        return _lowest(s, _convolve(d1g, d2))

    def __neg__(self):
        return RationalFunction._pair([-x for x in self._n], self._d)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return self._times(other._n, other._d)

    def __truediv__(self, other):
        if not other._n:
            raise ZeroDivisionError("division by zero rational function")
        return self._times(other._d, other._n)

    def _times(self, n2: list[int], d2: list[int]) -> "RationalFunction":
        """self * n2/d2 for a Q[t]-coprime pair, d2 nonzero: n1 cancelled
        against d2 and n2 against d1, then the content divided out, which
        also makes lc > 0 when d2 came in negative."""
        n1, d1 = self._n, self._d
        if not (n1 and n2):
            return RationalFunction.ZERO
        n1, d2 = _cancel(n1, d2)
        n2, d1 = _cancel(n2, d1)
        return _lowest(_convolve(n1, n2), _convolve(d1, d2))

    def __eq__(self, other):
        return isinstance(other, RationalFunction) and self._n == other._n and self._d == other._d

    def __hash__(self):
        return hash((tuple(self._n), tuple(self._d)))

    def __repr__(self):
        return format_ratfunc(self)


RationalFunction.ZERO = RationalFunction._pair([], [1])
RationalFunction.ONE = RationalFunction._pair([1], [1])
RationalFunction.T = RationalFunction._pair([0, 1], [1])


def _zt_value(ints: list[int], p: int) -> tuple[int, int] | None:
    """v(P) = (ord_t P, v_p of its lowest coefficient) for P in Z[t]; None for 0."""
    for k, c in enumerate(ints):
        if c:
            return k, _int_p_exponent(c, p)
    return None


def composite_valuation(p: int, f: RationalFunction) -> tuple[int, int] | None:
    """(t-adic order, v_p of the lowest Laurent coefficient); None for 0:
    v(n) - v(d), read off the pair's lowest terms."""
    if not is_prime(p):
        raise ConfigError(f"{p} is not prime")
    if f.is_zero():
        return None
    (on, en), (od, ed) = _zt_value(f._n, p), _zt_value(f._d, p)
    return on - od, en - ed


def _ord(a: list[int]) -> int:
    """ord_t of a nonzero integer list."""
    k = 0
    while not a[k]:
        k += 1
    return k


def _zt_lcm(a: list[int], b: list[int]) -> list[int]:
    """The lcm in Z[t] of two nonzero integer lists with positive leading
    coefficients: the lcm of their contents times that of their primitive
    parts.  The powers of t are split off first, and two distinct linear
    factors with a nonzero constant term, irreducible, are coprime, so the
    denominators 1, t^k and 1 + c*t take no gcd."""
    if a == b or b == [1]:
        return a
    if a == [1]:
        return b
    if len(a) == len(b) == 1:
        return [lcm(a[0], b[0])]
    ca, cb = gcd(*a), gcd(*b)
    i, j = (0 if a[0] else _ord(a)), (0 if b[0] else _ord(b))
    a, b = a[i:] if ca == 1 else [y // ca for y in a[i:]], b[j:] if cb == 1 else [y // cb for y in b[j:]]
    if a == b or len(b) == 1:
        m = a
    elif len(a) == 1:
        m = b
    elif len(a) == len(b) == 2:
        m = _convolve(a, b)
    else:
        g = _zt_gcd(a, b)
        m = _convolve(a, b if len(g) == 1 else _zt_quo(b, g))
    c = lcm(ca, cb)
    return [0] * max(i, j) + (m if c == 1 else [y * c for y in m])


def _zt_sum(a: list[int], b: list[int]) -> list[int]:
    """a + b in Z[t], as a new list (trailing zeros are kept)."""
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, y in enumerate(b):
        out[i] += y
    return out


def _zt_dot(a, b) -> list[int]:
    """sum a_i*b_i in Z[t] for two sequences of integer lists ([] for 0), as
    a new list (trailing zeros are kept)."""
    out = []
    for x, y in zip(a, b):
        if x and y:
            out = _zt_sum(out, _convolve(x, y))
    return out


def _coprime(lists) -> list:
    """The integer lists, the last nonzero, divided by their primitive gcd
    in Z[t]: one chain of `_zt_gcd`, the last list's with the others,
    shortest first, which stops as soon as it reaches a constant."""
    g = _primitive_part(lists[-1])
    for a in sorted(filter(None, lists[:-1]), key=len):
        if len(g) == 1:
            return lists
        g = _zt_gcd(g, a)
    return lists if len(g) == 1 else [_zt_quo(a, g) for a in lists]


def _scalar(a: list[int], d: list[int]) -> RationalFunction:
    """a/d in Z[t] as a RationalFunction, for lists without trailing zeros
    and d != []: over their primitive gcd (`_cancel`), then their content."""
    return _lowest(*_cancel(a, d))


def _lowest(n: list[int], d: list[int]) -> RationalFunction:
    """n/d for Q[t]-coprime lists without trailing zeros, d != [], over
    their content and signed so that lc(d) > 0."""
    return RationalFunction._pair(*_content([n, d])) if n else RationalFunction.ZERO


def _content(lists) -> list:
    """The integer lists, the last nonzero, divided by the content of all
    their coefficients and signed so that the last has lc > 0."""
    c = 0
    for y in chain.from_iterable(lists):
        if (c := gcd(c, y)) == 1:
            break
    if lists[-1][-1] < 0:
        c = -c
    return lists if c == 1 else [[y // c for y in a] for a in lists]


class QtVector:
    """A vector over Q(t) as a clearing in Z[t]: integer coefficient lists
    A_1, ..., A_n, [] for 0, over one nonzero integer list D.  Its one
    canonical form, which ``nums`` and ``den`` read, has the Q[t]-gcd of
    (A_1, ..., A_n, D) equal to 1, the integer content of all their
    coefficients 1 and lc(D) > 0, so 0 is ([], ..., []) over [1]; it is
    the form of every element and every row over Q(t).

    ``of`` is the one place where a sequence of RationalFunctions, each
    the canonical pair of one coordinate, becomes one.  Arithmetic leaves
    its result as the clearing it summed (`_clearing`), made canonical
    once, when it is first observed: read through ``nums`` or ``den``,
    compared or printed.  A valuation read and further arithmetic take any
    clearing as it is, since v(S/D) = v(S) - v(D) for every
    representation, so a product that is only valued takes no gcd.
    Iterating or indexing yields RationalFunctions, built (`_scalar`) on
    the first read or kept from ``of``'s input, and a QtVector equals,
    and hashes as, the tuple of them.  Readers copy a list before they
    change it.
    """

    __slots__ = ("_nums", "_den", "_canon", "_scalars")

    @classmethod
    def _make(cls, nums, den: list[int], canon: bool = True) -> "QtVector":
        out = object.__new__(cls)
        out._nums, out._den, out._canon, out._scalars = tuple(nums), den, canon, None
        return out

    @classmethod
    def pair(cls, x) -> tuple:
        """(nums, den) of ``of(x)``, the clearing as it is stored."""
        x = cls.of(x)
        return x._nums, x._den

    @classmethod
    def _clearing(cls, nums, den: list[int]) -> "QtVector":
        """nums/den for integer lists and a nonzero den, with the trailing
        zeros stripped off in place, to be made canonical when observed."""
        for a in (*nums, den):
            while a and not a[-1]:
                a.pop()
        return cls._make(nums, den, False)

    @classmethod
    def of(cls, x) -> "QtVector":
        """x itself when it is a QtVector, else its RationalFunctions n_i/d_i
        as n_i*(D/d_i) over the lcm D of the d_i in Z[t].  That is canonical
        as it stands: an irreducible factor of D, or a prime of its content,
        is highest in some d_i, so it divides neither n_i nor D/d_i."""
        if type(x) is cls:
            return x
        x = tuple(x)
        den = [1]  # 0 is [] over [1]
        for c in x:
            if c._d != den:
                den = _zt_lcm(den, c._d)
        nums = []
        for c in x:
            a = c._n
            if a and (d := c._d) != den:
                q = _zt_quo(den, d) if len(d) > 1 else [y // d[0] for y in den]
                a = _convolve(a, q) if len(q) > 1 else [y * q[0] for y in a]
            nums.append(a)
        out = cls._make(nums, den)
        out._scalars = x
        return out

    def _settle(self) -> "QtVector":
        """Make the clearing canonical, in place and once, and return it: the
        power of t taken off the t-orders, then the rest of the Q[t]-gcd
        (`_coprime`), then the integer content."""
        if self._canon:
            return self
        nums, den = self._nums, self._den
        if not any(nums):
            lists = [[] for _ in nums] + [[1]]
        else:
            lists = [*nums, den]
            if len(den) > 1:
                if k := _ord(den):
                    k = min(k, *(_ord(a) for a in nums if a))
                    lists = [a[k:] for a in lists]
                lists = _coprime(lists)
            lists = _content(lists)
        self._nums, self._den, self._canon = tuple(lists[:-1]), lists[-1], True
        return self

    @property
    def nums(self) -> tuple:
        self._settle()
        return self._nums

    @property
    def den(self) -> list[int]:
        self._settle()
        return self._den

    def _coords(self) -> tuple:
        if self._scalars is None:
            self._scalars = tuple(_scalar(a, self._den) for a in self._nums)
        return self._scalars

    def __len__(self):
        return len(self._nums)

    def __iter__(self):
        return iter(self._coords())

    def __getitem__(self, i):
        return self._coords()[i]

    def __eq__(self, other):
        if type(other) is QtVector:
            return self.den == other.den and self.nums == other.nums
        return isinstance(other, tuple) and self._coords() == other

    def __hash__(self):
        return hash(self._coords())

    def __repr__(self):
        return f"QtVector({list(self.nums)}, {self.den})"


def _zt_value_of_dot(row: QtVector, x: QtVector, xv: tuple[int, int], p: int):
    """v of the value of a row at x, given xv = v(x.den), None for 0: the
    row's A_i over Q and x's X_i over D give v(sum A_i*X_i) - v(Q) - v(D),
    with no gcd and no scalar.  v of a product adds, so the lowest t-order
    k among the A_i*X_i and the sum c of their t^k coefficients give
    v(sum A_i*X_i) = (k, v_p(c)) unless c = 0; only then is the sum formed."""
    k = None
    for a, b in zip(row._nums, x._nums):
        if a and b:
            i, j = (0 if a[0] else _ord(a)), (0 if b[0] else _ord(b))
            if k is None or i + j < k:
                k, c = i + j, a[i] * b[j]
            elif i + j == k:
                c += a[i] * b[j]
    if k is None:
        return None
    if c:
        v = k, _int_p_exponent(c, p)
    elif (v := _zt_value(_zt_dot(row._nums, x._nums), p)) is None:
        return None
    qt, qe = _zt_value(row._den, p)
    return v[0] - qt - xv[0], v[1] - qe - xv[1]


def _format_list(ints: list[int], c: int) -> list[str]:
    """The coefficients ints/c, for c > 0, as texts."""
    return [str(x) for x in ints] if c == 1 else [format_rational(Fraction(x, c)) for x in ints]


def parse_poly_list(coeffs) -> Polynomial:
    return Polynomial(tuple(parse_rational(c) for c in coeffs))


def format_ratfunc(f: RationalFunction) -> str:
    """n/d as the coefficient lists of num and den, that is n and d over lc(d)."""
    c = f._d[-1]
    num = "[" + ",".join(_format_list(f._n, c)) + "]"
    return num if len(f._d) == 1 else num + "/[" + ",".join(_format_list(f._d, c)) + "]"


def parse_ratfunc(text: str) -> RationalFunction:
    s = text.strip()
    if not s.startswith("["):
        return RationalFunction.constant(parse_rational(s))
    # split on the "]/[" between the lists, not on a "/" inside "a/b" coeffs
    if "]/" in s:
        num_part, den_part = s.split("]/", 1)
        num = parse_poly_list(_split_list(num_part + "]"))
        den = parse_poly_list(_split_list(den_part))
    else:
        num = parse_poly_list(_split_list(s))
        den = Polynomial.ONE
    return _parsed_ratfunc(num, den, text)


def _parsed_ratfunc(num: Polynomial, den: Polynomial, source) -> RationalFunction:
    if den.is_zero():
        raise StructuralError(f"zero denominator in the Q(t) scalar {source!r}")
    return RationalFunction(num, den)


def _split_list(s: str) -> list[str]:
    s = s.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise StructuralError(f"not a coefficient list: {s!r}")
    body = s[1:-1].strip()
    return [] if not body else body.split(",")


@dataclass(frozen=True)
class ValuedField:
    """A computable field with a surjective valuation onto Z or Z^2-lex.

    kind "Q": field Q, p-adic valuation.  kind "Qt": field Q(t), composite
    valuation (ord_t, v_p of lowest coefficient).
    """

    kind: str
    p: int

    def __post_init__(self):
        if self.kind not in ("Q", "Qt"):
            raise ConfigError(f"unknown field kind {self.kind!r}")
        if not is_prime(self.p):
            raise ConfigError(f"{self.p} is not prime")

    @property
    def rank(self) -> int:
        return 1 if self.kind == "Q" else 2

    @property
    def zero(self):
        return Fraction(0) if self.kind == "Q" else RationalFunction.ZERO

    @property
    def one(self):
        return Fraction(1) if self.kind == "Q" else RationalFunction.ONE

    def scalar(self, obj):
        """Coerce ints, 'a/b' strings, JSON objects or existing scalars;
        a bool (JSON true or false) is refused, not read as 1 or 0."""
        if self.kind == "Q":
            if isinstance(obj, Fraction):
                return obj
            if isinstance(obj, int) and not isinstance(obj, bool):
                return Fraction(obj)
            if isinstance(obj, str):
                return parse_rational(obj)
            raise StructuralError(f"cannot coerce {obj!r} into Q")
        if isinstance(obj, RationalFunction):
            return obj
        if isinstance(obj, (int, Fraction)) and not isinstance(obj, bool):
            return RationalFunction.constant(obj)
        if isinstance(obj, str):
            return parse_ratfunc(obj)
        if isinstance(obj, dict):
            if not (isinstance(obj.get("num"), list) and isinstance(obj.get("den", []), list)):
                raise StructuralError(f"a Q(t) scalar needs the coefficient lists 'num' "
                                      f"(and 'den'), got {obj!r}")
            num = parse_poly_list(obj["num"])
            den = parse_poly_list(obj["den"]) if "den" in obj else Polynomial.ONE
            return _parsed_ratfunc(num, den, obj)
        raise StructuralError(f"cannot coerce {obj!r} into Q(t)")

    def scalar_text(self, x) -> str:
        return format_rational(x) if self.kind == "Q" else format_ratfunc(x)

    def scalar_to_json(self, x):
        if self.kind == "Q":
            return format_rational(x)
        c = x._d[-1]
        out = {"num": _format_list(x._n, c)}
        if len(x._d) > 1:
            out["den"] = _format_list(x._d, c)
        return out

    def value(self, x) -> tuple[int, ...] | None:
        """The valuation; None marks v(0)."""
        if self.kind == "Q":
            return vp(self.p, x)
        return composite_valuation(self.p, x)

    def element_with_value(self, gamma: tuple[int, ...]):
        """Constructive surjectivity: p^a for (a), p^a * t^n for (n, a)."""
        if self.kind == "Q":
            (a,) = gamma
            return Fraction(self.p) ** a
        n, a = gamma
        top, bottom = (self.p ** a, 1) if a >= 0 else (1, self.p ** -a)
        if n >= 0:
            return RationalFunction._pair([0] * n + [top], [bottom])
        return RationalFunction._pair([top], [0] * -n + [bottom])
