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
denominator, arbitrary precision).  ``v(0)`` is ``None`` everywhere in
this module -- the cut-level infinity lives in :mod:`cutval.cuts` only.

Elements of Q(t) are ``RationalFunction``s, always reduced with a monic
denominator.  Only the public constructor reduces; the operators assume
reduced operands and build their results by Henrici's cross-cancellation
(Knuth, TAOCP vol. 2, 4.5.1), which yields a reduced result from reduced
operands, so no result is re-reduced and no gcd is taken with a constant.
The three kernels under them work in Z[t]: the product of two non-constant
polynomials is an integer convolution of their cleared coefficients,
``poly_gcd`` runs the primitive polynomial remainder sequence on the
primitive integer multiples of its operands (Knuth, 4.6.1, Algorithm E), and
``_exact_quo`` divides the cleared dividend by the primitive multiple of the
divisor, a division that Gauss's lemma makes exact.  They read the clearing
that every ``Polynomial`` carries, so no polynomial is cleared twice.  A
product with a constant side stays a ``Fraction`` scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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


class Polynomial:
    """Univariate polynomial over Q, coefficients lowest-degree-first.

    Besides ``coeffs`` it carries its clearing ``(A, d)``, the pair that
    ``_cleared(coeffs)`` gives: coeffs = A/d for the integer list A and the
    lcm d > 0 of the denominators, so gcd(A..., d) = 1.  The integer
    kernels that make a polynomial (``*`` of two non-constant operands,
    ``_exact_quo`` and the monic ``poly_gcd``) store the clearing they
    computed, made canonical by one gcd; any other polynomial clears its
    ``coeffs`` on the first read of ``cleared()``, and never again.
    Readers copy A before they change it.
    """

    __slots__ = ("coeffs", "_clearing")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._clearing = None

    @classmethod
    def _from_ints(cls, ints: list[int], d: int) -> "Polynomial":
        """ints/d for a list of integers without a leading zero and d > 0,
        carrying its clearing; takes ownership of ints."""
        g = gcd(d, *ints)
        if g != 1:
            ints, d = [x // g for x in ints], d // g
        out = object.__new__(cls)
        out.coeffs = tuple(map(Fraction, ints) if d == 1 else (Fraction(x, d) for x in ints))
        out._clearing = (ints, d)
        return out

    def cleared(self) -> tuple[list[int], int]:
        """(A, d) with coeffs = A/d, d the lcm of the denominators."""
        if self._clearing is None:
            self._clearing = _cleared(self.coeffs)
        return self._clearing

    ZERO: "Polynomial"
    ONE: "Polynomial"
    T: "Polynomial"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def ord(self) -> int | None:
        """Lowest exponent with a nonzero coefficient; None for 0."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def leading_coeff(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial")
        return self.coeffs[-1]

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        if len(self.coeffs) == 1:
            return other.scale(self.coeffs[0])
        if len(other.coeffs) == 1:
            return self.scale(other.coeffs[0])
        (a, d), (b, e) = self.cleared(), other.cleared()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
        return Polynomial._from_ints(out, d * e)

    def scale(self, c: Fraction) -> "Polynomial":
        if c == 1:
            return self
        return Polynomial(tuple(c * a for a in self.coeffs))

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial(), self
        quo = [Fraction(0)] * (dq + 1)
        lc = other.leading_coeff()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lc
            quo[k] = c
            if c != 0:
                for i, b in enumerate(other.coeffs):
                    rem[k + i] -= c * b
        return Polynomial(quo), Polynomial(rem[: other.degree if other.degree > 0 else 0])

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading_coeff())

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Polynomial", self.coeffs))

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

    With a = A/d for the integer list A and g = G/lc(G) for the primitive
    G, Gauss's lemma makes A = G*Q with Q in Z[t], so a/g = Q*lc(G)/d.
    Raises ArithmeticError when g does not divide a."""
    if g.degree == 0:
        return a
    ints, d = a.cleared()
    rem = ints[:]
    div = _primitive(g)
    n, lc = len(div) - 1, div[-1]
    quo = []
    for k in range(len(rem) - 1, n - 1, -1):
        q = rem[k] // lc
        if q:
            for i, c in enumerate(div, k - n):
                rem[i] -= q * c
        quo.append(q * lc)
    if any(rem):
        raise ArithmeticError(f"{g!r} does not divide {a!r}")
    quo.reverse()
    return Polynomial._from_ints(quo, d)


def _cleared(coeffs) -> tuple[list[int], int]:
    """(A, d) with coeffs = A/d, for d the lcm of the denominators."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _primitive_part(ints: list[int]) -> list[int]:
    """ints over its content, with a positive leading coefficient."""
    c = gcd(*ints)
    c = -c if ints[-1] < 0 else c
    return ints if c == 1 else [x // c for x in ints]


def _primitive(a: Polynomial) -> list[int]:
    """The primitive integer multiple of a nonzero polynomial, a new list."""
    return _primitive_part(a.cleared()[0][:])


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
    in Z[t] and stops as soon as a constant appears."""
    if len(a.coeffs) == 1 or len(b.coeffs) == 1:
        return Polynomial.ONE
    if not (a and b):
        return (a or b).monic()
    u, v = _primitive(a), _primitive(b)
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        r = _pseudo_rem(u, v)
        if not r:
            return Polynomial._from_ints(v, v[-1])
        u, v = v, _primitive_part(r)
    return Polynomial.ONE


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
            lc = den.leading_coeff()
            if lc != 1:
                num = num.scale(1 / lc)
                den = den.scale(1 / lc)
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
        return self * RationalFunction._reduced(other.den.scale(inv), other.num.scale(inv))

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash(("RationalFunction", self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        return format_ratfunc(self)


RationalFunction.ZERO = RationalFunction(Polynomial.ZERO)
RationalFunction.ONE = RationalFunction(Polynomial.ONE)
RationalFunction.T = RationalFunction(Polynomial.T)


def composite_valuation(p: int, f: RationalFunction) -> tuple[int, int] | None:
    """(t-adic order, v_p of the lowest Laurent coefficient); None for 0."""
    if not is_prime(p):
        raise ConfigError(f"{p} is not prime")
    if f.is_zero():
        return None
    on, od = f.num.ord(), f.den.ord()
    cn, cd = f.num.coeffs[on], f.den.coeffs[od]
    e = (_int_p_exponent(cn.numerator, p) - _int_p_exponent(cn.denominator, p)
         - _int_p_exponent(cd.numerator, p) + _int_p_exponent(cd.denominator, p))
    return (on - od, e)


def format_poly_list(poly: Polynomial) -> list[str]:
    return [format_rational(c) for c in poly.coeffs]


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
        c = Polynomial((Fraction(self.p) ** a,))
        if n >= 0:
            return RationalFunction(c * _t_power(n))
        return RationalFunction(c, _t_power(-n))


def _t_power(n: int) -> Polynomial:
    return Polynomial((0,) * n + (1,))
