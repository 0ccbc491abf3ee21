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

Elements of Q(t) are ``RationalFunction``s, always reduced with a monic
denominator.  Only the public constructor reduces; the operators assume
reduced operands and build their results by Henrici's cross-cancellation
(Knuth, TAOCP vol. 2, 4.5.1), which yields a reduced result from reduced
operands, so no result is re-reduced and no gcd is taken with a constant.
A ``Polynomial`` has one form, its clearing: integer coefficients over one
positive denominator, with no common factor.  All its arithmetic works in
Z[t] on that pair: a product is an integer convolution, ``poly_gcd`` runs
the primitive polynomial remainder sequence on the primitive integer
multiples of its operands (Knuth, 4.6.1, Algorithm E), and ``_exact_quo``
divides the dividend's integers by the primitive multiple of the divisor, a
division that Gauss's lemma makes exact.  ``Fraction`` coefficients are
built only to be read, as in formatting.

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
    """Univariate polynomial over Q, coefficients lowest-degree-first.

    It is stored as its clearing only: the coefficients are ints/den for
    the integer list ints without a leading zero and den > 0 with
    gcd(ints..., den) = 1, the pair that ``_cleared(coeffs)`` gives.  Every
    operation reads and makes that pair, and ``_from_ints`` makes any
    integer result canonical with one gcd; ``coeffs`` builds the
    ``Fraction`` coefficients on each read.  Readers copy ints before they
    change it.
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

    def ord(self) -> int | None:
        """Lowest exponent with a nonzero coefficient; None for 0."""
        for i, c in enumerate(self.ints):
            if c:
                return i
        return None

    def leading_coeff(self) -> Fraction:
        if not self.ints:
            raise ValueError("zero polynomial")
        return Fraction(self.ints[-1], self.den)

    def __add__(self, other):
        (a, d), (b, e) = (self.ints, self.den), (other.ints, other.den)
        if len(a) < len(b):
            (a, d), (b, e) = (b, e), (a, d)
        g = gcd(d, e)
        m, n = e // g, d // g
        out = [x * m for x in a]
        for i, y in enumerate(b):
            out[i] += y * n
        return Polynomial._from_ints(out, d * m)

    def __neg__(self):
        return Polynomial._from_ints([-x for x in self.ints], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.ints, other.ints
        if len(a) == 1 and a[0] == self.den or not b:  # 1 * other, or other = 0
            return other
        if len(b) == 1 and b[0] == other.den or not a:
            return self
        return Polynomial._from_ints(_convolve(a, b), self.den * other.den)

    def scale(self, c: Fraction) -> "Polynomial":
        if c == 1:
            return self
        n = c.numerator
        return Polynomial._from_ints([x * n for x in self.ints], self.den * c.denominator)

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


def _gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """poly_gcd(a, b), not called when either is constant; ONE for a zero
    side, which only a numerator can be and which needs no cancelling."""
    return poly_gcd(a, b) if a.degree > 0 and b.degree > 0 else Polynomial.ONE


def _exact_quo(a: Polynomial, g: Polynomial) -> Polynomial:
    """a / g for a monic divisor g of a, computed in Z[t].

    With a = A/d for the integer list A, the monic g is stored as G/lc(G)
    for the primitive G, and Gauss's lemma makes A = G*Q with Q in Z[t],
    so a/g = Q*lc(G)/d.  Raises ArithmeticError when g does not divide a."""
    if g.degree == 0:
        return a
    lc = g.ints[-1]
    return Polynomial._from_ints([q * lc for q in _zt_quo(a.ints, g.ints)], a.den)


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


class RationalFunction:
    """Reduced fraction of polynomials over Q with monic denominator.

    ``RationalFunction(num, den)`` reduces its arguments.  The operators
    assume reduced operands and return reduced results without reducing
    them again: results are built by the trusted ``_reduced``, which
    stores its pair as given.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = Polynomial.ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = Polynomial.ZERO, Polynomial.ONE
        else:
            g = _gcd(num, den)
            num, den = _exact_quo(num, g), _exact_quo(den, g)
            if (lc := den.leading_coeff()) != 1:
                num, den = num.scale(1 / lc), den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _reduced(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num/den for a coprime pair with monic den, stored without a gcd."""
        out = object.__new__(cls)
        out.num, out.den = (num, den) if num else (Polynomial.ZERO, Polynomial.ONE)
        return out

    ZERO: "RationalFunction"
    ONE: "RationalFunction"
    T: "RationalFunction"

    @classmethod
    def constant(cls, q) -> "RationalFunction":
        return cls._reduced(Polynomial((Fraction(q),)), Polynomial.ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __add__(self, other):
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g = d1 if d1 == d2 else _gcd(d1, d2)
        if g.degree == 0:
            # coprime denominators: the cross sum is already reduced
            return RationalFunction._reduced(n1 * d2 + n2 * d1, d1 * d2)
        d1g, d2g = _exact_quo(d1, g), _exact_quo(d2, g)
        # n1/d1 + n2/d2 = s / (d1g * d2g * g), and gcd(s, that) = gcd(s, g)
        s = n1 * d2g + n2 * d1g
        h = _gcd(s, g)
        return RationalFunction._reduced(_exact_quo(s, h), d1g * _exact_quo(d2, h))

    def __neg__(self):
        return RationalFunction._reduced(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g1, g2 = _gcd(n1, d2), _gcd(n2, d1)
        return RationalFunction._reduced(_exact_quo(n1, g1) * _exact_quo(n2, g2),
                                         _exact_quo(d1, g2) * _exact_quo(d2, g1))

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        inv = 1 / other.num.leading_coeff()
        return self * RationalFunction._reduced(other.den.scale(inv), other.num.monic())

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return format_ratfunc(self)


RationalFunction.ZERO = RationalFunction(Polynomial.ZERO)
RationalFunction.ONE = RationalFunction(Polynomial.ONE)
RationalFunction.T = RationalFunction(Polynomial.T)


def _zt_value(ints: list[int], p: int) -> tuple[int, int] | None:
    """v(P) = (ord_t P, v_p of its lowest coefficient) for P in Z[t]; None for 0."""
    for k, c in enumerate(ints):
        if c:
            return k, _int_p_exponent(c, p)
    return None


def composite_valuation(p: int, f: RationalFunction) -> tuple[int, int] | None:
    """(t-adic order, v_p of the lowest Laurent coefficient); None for 0."""
    if not is_prime(p):
        raise ConfigError(f"{p} is not prime")
    if f.is_zero():
        return None
    (on, en), (od, ed) = _zt_value(f.num.ints, p), _zt_value(f.den.ints, p)
    return on - od, en - ed - _int_p_exponent(f.num.den, p) + _int_p_exponent(f.den.den, p)


def _zt_split(c: RationalFunction) -> tuple[list[int], list[int]]:
    """A nonzero scalar as integer coefficient lists (n, d) with c = n/d in
    Z[t], read off the clearings that its two Polynomials carry."""
    num, den = c.num, c.den
    return (num.ints if den.den == 1 else [y * den.den for y in num.ints],
            den.ints if num.den == 1 else [y * num.den for y in den.ints])


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
    if a == b:
        return a
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
    """a/d in Z[t] as a reduced RationalFunction, for d != 0."""
    if not a:
        return RationalFunction.ZERO
    if len(d) > 1:
        a, d = _coprime([a, d])
    if d[-1] < 0:
        a, d = [-y for y in a], [-y for y in d]
    return RationalFunction._reduced(Polynomial._from_ints(a[:], d[-1]), Polynomial._from_ints(d[:], d[-1]))


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

    ``of`` is the one place where a sequence of RationalFunctions becomes
    one, canonical.  Arithmetic leaves its result as the clearing it summed
    (`_clearing`), made canonical once, when it is first observed: read
    through ``nums`` or ``den``, compared or printed.  A valuation read and
    further arithmetic take any clearing as it is, since v(S/D) = v(S) -
    v(D) for every representation, so a product that is only valued takes
    no gcd.  Iterating or indexing yields reduced RationalFunctions, built
    on the first read or kept from ``of``'s input, and a QtVector equals,
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
        """x itself when it is a QtVector, else its reduced RationalFunctions
        n_i/d_i (primitive d_i) over the lcm of the d_i, which leaves no
        Q[t]-gcd to take, times the lcm of their integer denominators; then
        the content is divided out."""
        if type(x) is cls:
            return x
        x = tuple(x)
        den, n = [1], 1  # 0 is 0/1 over 1
        for c in x:
            if len(d := c.den.ints) > 1 and d != den:
                den = _zt_lcm(den, d)
            if c.num.den != 1:
                n = lcm(n, c.num.den)
        nums = []
        for c in x:
            num, d = c.num, c.den
            q = den if len(d.ints) == 1 else [1] if d.ints == den else _zt_quo(den, d.ints)
            a = _convolve(num.ints, q) if len(q) > 1 else num.ints
            f = d.den * n // num.den
            nums.append([y * f for y in a] if f != 1 else a)
        *nums, den = _content([*nums, [y * n for y in den] if n != 1 else den])
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


def format_poly_list(poly: Polynomial) -> list[str]:
    d = poly.den
    return [str(x) if d == 1 else format_rational(Fraction(x, d)) for x in poly.ints]


def parse_poly_list(coeffs) -> Polynomial:
    return Polynomial(tuple(parse_rational(c) for c in coeffs))


def format_ratfunc(f: RationalFunction) -> str:
    num = "[" + ",".join(format_poly_list(f.num)) + "]"
    if f.den == Polynomial.ONE:
        return num
    return num + "/[" + ",".join(format_poly_list(f.den)) + "]"


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
        out = {"num": format_poly_list(x.num)}
        if x.den != Polynomial.ONE:
            out["den"] = format_poly_list(x.den)
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
        num = Polynomial._from_ints([0] * n + [top], bottom)
        return RationalFunction._reduced(num, _t_power(-n) if n < 0 else Polynomial.ONE)


def _t_power(n: int) -> Polynomial:
    return Polynomial._from_ints([0] * n + [1], 1)
