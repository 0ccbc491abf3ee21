"""Base rings S inside their fraction fields.

Two kinds, as in the paper: the integers Z inside Q, and the valuation
ring O_v = { f : v(f) >= 0 } of a :class:`~cutval.numfield.ValuedField`.
The p-local integers Z_(p) are O_v for v_p on Q: they keep the label "Zp"
(printed Z_(p), a distinct descriptor) but are built on ValuedField("Q", p)
and behave exactly as that valuation ring.  Each S is an integral domain
that is not a field, with a designated non-invertible element and one rule
each for membership and canonical clearing, on integers (see `reads`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import ConfigError, StructuralError
from .numfield import RationalFunction, ValuedField, _int_p_exponent, is_prime

Z = "Z"
ZP = "Zp"
OV = "Ov"


@dataclass(frozen=True)
class BaseDomain:
    """Z (field None) or the valuation ring of `field`; for Z_(p) the
    field is ValuedField("Q", p), built here from p."""

    kind: str
    p: int | None = None
    field: ValuedField | None = None

    def __post_init__(self):
        if self.kind == Z:
            if self.p is not None or self.field is not None:
                raise ConfigError("Z takes no parameters")
        elif self.kind == ZP:
            if self.p is None or not is_prime(self.p):
                raise ConfigError(f"Zp needs a prime, got {self.p}")
            if self.field is not None:
                raise ConfigError("Zp is parameterized by p only")
            object.__setattr__(self, "field", ValuedField("Q", self.p))
        elif self.kind == OV:
            if self.field is None:
                raise ConfigError("Ov needs its ValuedField")
            if self.p is not None:
                raise ConfigError("Ov derives p from the field")
        else:
            raise ConfigError(f"unknown domain kind {self.kind!r}")

    @property
    def fraction_field_kind(self) -> str:
        return "Q" if self.field is None else self.field.kind

    def check_field(self, field: ValuedField) -> None:
        """Refuse an algebra over the other fraction field."""
        if field.kind != self.fraction_field_kind:
            raise ConfigError("domain fraction field differs from the algebra's field")

    @property
    def valued_field(self) -> ValuedField | None:
        """The valuation this domain is the ring of, when there is one."""
        return self.field

    @property
    def is_valuation_like(self) -> bool:
        """True when min-valuation elimination applies (a valuation ring)."""
        return self.field is not None

    def contains(self, f) -> bool:
        self._check_element(f)
        return self._accepts((f.denominator if self.field is None else self.field.value(f),))

    def reads(self, rows, x):
        """What S reads off the values of `_Rows` rows at x, building none.
        Over Q one read for the whole set, off the rational g/(L*e) whose
        multiples are the values (`_Rows.content`): its reduced denominator
        L*e / gcd(g, L*e), the lcm of the values' own, over Z; its value
        v_p(g) - v_p(L*e), the least of theirs, or None for g = 0, over
        Z_(p).  Over Q(t) each row value's value, None for 0."""
        if not rows.q:
            return rows.valuations(x, self.field)
        g, den = rows.content(x)
        if self.field is None:
            return (den // gcd(g, den),)
        p = self.field.p
        return ((_int_p_exponent(g, p) - _int_p_exponent(den, p),) if g else None,)

    def admits(self, rows, x) -> bool:
        """Whether every value of rows at x lies in S, read off `reads`: over
        Z whether L*e divides g, over Z_(p) whether g = 0 or v_p(g) >= v_p(L*e)."""
        return self._accepts(self.reads(rows, x))

    def _accepts(self, reads) -> bool:
        """contains's rule, its one copy, on reads (one over Q, one a row
        over Q(t)): all 1 over Z, none below 0 over O_v."""
        if self.field is None:
            return all(d == 1 for d in reads)
        zero = (0,) * self.field.rank
        return not any(v is not None and v < zero for v in reads)

    def clear_many(self, coeffs):
        """Canonical minimal s in S, s != 0, with s*c in S for every c.

        Z: lcm of denominators.  O_v: the element of value -min v(c),
        clipped to nonnegative components (p^M over Q, p^M * t^N over
        Q(t)), or 1 when that value is <= 0.
        """
        if self.field is None:
            return self._clearing(c.denominator for c in coeffs)
        return self._clearing(self.field.value(c) for c in coeffs if c)

    def _clearing(self, reads):
        """clear_many's rule, its one copy, on reads (the coefficients', or
        `reads` of rows, one a row set over Q): denominators over Z, values
        over a valuation ring."""
        if self.field is None:
            return Fraction(lcm(*reads))
        zero = (0,) * self.field.rank
        worst = tuple(-g for g in min((v for v in reads if v is not None), default=zero))
        if worst <= zero:
            return self.one
        return self.field.element_with_value(tuple(max(0, g) for g in worst))

    def noninvertible(self):
        """The designated nonzero non-unit of S: 2 in Z, the element of value
        (1, 0, ...) in O_v (p over Q, t over Q(t))."""
        if self.field is None:
            return Fraction(2)
        return self.field.element_with_value((1,) + (0,) * (self.field.rank - 1))

    @property
    def one(self):
        return Fraction(1) if self.field is None else self.field.one

    def _check_element(self, f):
        want_q = self.fraction_field_kind == "Q"
        if want_q and not isinstance(f, Fraction):
            raise ConfigError(f"element {f!r} is not in Q")
        if not want_q and not isinstance(f, RationalFunction):
            raise ConfigError(f"element {f!r} is not in Q(t)")

    def describe(self) -> str:
        if self.kind == Z:
            return "Z"
        if self.kind == ZP:
            return f"Z_({self.p})"
        return f"O_v({self.field.kind},p={self.field.p})"


def integers() -> BaseDomain:
    return BaseDomain(Z)


def p_local(p: int) -> BaseDomain:
    return BaseDomain(ZP, p=p)


def valuation_ring(field: ValuedField) -> BaseDomain:
    return BaseDomain(OV, field=field)


def is_subdomain(s1: BaseDomain, s2: BaseDomain) -> bool:
    """Structural S1 subset-of S2: Z lies in every base ring over Q, and a
    valuation ring lies only in the valuation ring of the same valuation."""
    if s1.field is None:
        return s2.fraction_field_kind == "Q"
    return s1.field == s2.field


def domain_to_descriptor(domain: BaseDomain) -> dict:
    if domain.kind == Z:
        return {"kind": "Z"}
    if domain.kind == ZP:
        return {"kind": "Zp", "p": domain.p}
    return {"kind": "Ov"}


def domain_from_descriptor(desc: dict, field: ValuedField) -> BaseDomain:
    """{"kind":"Z"} | {"kind":"Zp","p":2} | {"kind":"Ov"}."""
    kind = desc.get("kind")
    if kind == "Z":
        if field.kind != "Q":
            raise ConfigError("Z requires the field Q")
        return integers()
    if kind == "Zp":
        if field.kind != "Q":
            raise ConfigError("Zp requires the field Q")
        return p_local(int(desc["p"]))
    if kind == "Ov":
        return valuation_ring(field)
    raise StructuralError(f"unknown domain descriptor {desc!r}")
