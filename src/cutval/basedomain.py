"""Base rings S inside their fraction fields.

Three kinds: the integers Z inside Q, the p-local integers Z_(p), and the
valuation ring O_v of a :class:`~cutval.numfield.ValuedField`.  Each is an
integral domain that is not a field, with decidable membership, canonical
denominator clearing and a designated non-invertible element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ConfigError, DomainError, StructuralError
from .numfield import (RationalFunction, ValuedField, is_prime, vp)

Z = "Z"
ZP = "Zp"
OV = "Ov"


@dataclass(frozen=True)
class BaseDomain:
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
        elif self.kind == OV:
            if self.field is None:
                raise ConfigError("Ov needs its ValuedField")
            if self.p is not None:
                raise ConfigError("Ov derives p from the field")
        else:
            raise ConfigError(f"unknown domain kind {self.kind!r}")

    @property
    def fraction_field_kind(self) -> str:
        return self.field.kind if self.kind == OV else "Q"

    @property
    def valued_field(self) -> ValuedField | None:
        """The valuation this domain is the ring of, when there is one."""
        if self.kind == OV:
            return self.field
        if self.kind == ZP:
            return ValuedField("Q", self.p)
        return None

    @property
    def is_valuation_like(self) -> bool:
        """True when min-valuation elimination applies (Zp or Ov)."""
        return self.kind in (ZP, OV)

    def value(self, f):
        vf = self.valued_field
        if vf is None:
            raise ConfigError("Z carries no valuation")
        return vf.value(f)

    def contains(self, f) -> bool:
        self._check_element(f)
        if self.kind == Z:
            return f.denominator == 1
        if self.kind == ZP:
            return f == 0 or vp(self.p, f) >= (0,)
        v = self.field.value(f)
        return v is None or v >= (0,) * self.field.rank

    def clear_many(self, coeffs):
        """Canonical minimal s in S, s != 0, with s*c in S for every c.

        Z: lcm of denominators.  Z_(p) and O_v over Q: the minimal p-power.
        O_v over Q(t): p^M * t^N with N clearing the worst t-order and M
        clearing the worst p-exponent among coefficients at that order.
        """
        coeffs = [c for c in coeffs if c != 0 and not (isinstance(c, RationalFunction) and c.is_zero())]
        if not coeffs:
            return self.one
        if self.kind == Z:
            return Fraction(lcm(*(c.denominator for c in coeffs)))
        if self.kind == ZP or self.field.kind == "Q":
            p = self.p if self.kind == ZP else self.field.p
            e = max(0, max(-vp(p, c)[0] for c in coeffs))
            return Fraction(p) ** e
        vals = [self.field.value(c) for c in coeffs]
        worst_n = max(0, max(-n for n, _ in vals))
        at_edge = [a for n, a in vals if n == -worst_n]
        worst_m = max(0, max(-a for a in at_edge)) if at_edge else 0
        return self.field.element_with_value((worst_n, worst_m))

    def clear_to_domain(self, f):
        """s in S, nonzero, with s*f in S; s = 1 for f = 0."""
        return self.clear_many([f])

    def noninvertible(self):
        """The designated nonzero non-unit of S."""
        if self.kind == Z:
            return Fraction(2)
        if self.kind == ZP:
            return Fraction(self.p)
        if self.field.kind == "Q":
            return Fraction(self.field.p)
        return RationalFunction.T

    def uniformizer(self):
        """Generator of the maximal ideal; defined for rank-1 kinds only."""
        if self.kind == ZP:
            return Fraction(self.p)
        if self.kind == OV and self.field.kind == "Q":
            return Fraction(self.field.p)
        raise DomainError("uniformizer defined for rank-1 valuation rings only")

    @property
    def one(self):
        if self.kind == OV:
            return self.field.one
        return Fraction(1)

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
    """Structural S1 subset-of S2 over the same fraction field."""
    if s1.fraction_field_kind != s2.fraction_field_kind:
        return False
    if s1 == s2:
        return True
    if s1.kind == Z:
        return True
    p1 = s1.p if s1.kind == ZP else s1.field.p
    if s2.kind == Z:
        return False
    if s2.fraction_field_kind != "Q":
        return False
    p2 = s2.p if s2.kind == ZP else s2.field.p
    return p1 == p2


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
