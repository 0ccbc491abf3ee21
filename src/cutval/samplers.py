"""Samplers for field elements, domain elements and algebra elements.

Everything draws from a :class:`~cutval.sampling.SplitMix64` stream shaped
by a :class:`~cutval.sampling.SampleSpec`, so audits and tests are
reproducible from (seed, spec) alone.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import PolynomialAlgebra, StructureAlgebra
from .basedomain import BaseDomain
from .numfield import Polynomial, RationalFunction, ValuedField, _exact_quo, _t_power
from .sampling import SampleSpec, SplitMix64, sample_int, sample_rational


def sample_ratfunc(rng: SplitMix64, spec: SampleSpec, p: int) -> RationalFunction:
    """num / den with den 1, t^k (k = 1, 2) or 1 + c*t, built reduced
    without Euclid: gcd(num, t^k) = t^min(ord num, k), and the irreducible
    1 + c*t either divides num, which _exact_quo finds, or is coprime to it."""
    deg = rng.randint(0, spec.poly_degree)
    num = Polynomial(tuple(sample_rational(rng, spec, p) for _ in range(deg + 1)))
    shape = rng.randrange(3)
    if shape == 0 or num.is_zero():
        return RationalFunction._reduced(num, Polynomial.ONE)
    if shape == 1:
        k = rng.randint(1, 2)
        j = min(num.ord(), k)
        return RationalFunction._reduced(Polynomial._from_ints(num.ints[j:], num.den), _t_power(k - j))
    c = sample_rational(rng, spec, p)  # for c = 0 the divisor is 1
    num, den = (num.scale(1 / c), Polynomial((1 / c, 1))) if c else (num, Polynomial.ONE)
    try:  # for c != 0, den is the monic (1 + c*t)/c
        return RationalFunction._reduced(_exact_quo(num, den), Polynomial.ONE)
    except ArithmeticError:
        return RationalFunction._reduced(num, den)


def sample_scalar(rng: SplitMix64, spec: SampleSpec, field: ValuedField):
    if field.kind == "Q":
        return sample_rational(rng, spec, field.p)
    return sample_ratfunc(rng, spec, field.p)


def sample_in_domain(rng: SplitMix64, spec: SampleSpec, domain: BaseDomain):
    """An element of S (not necessarily nonzero)."""
    field = domain.valued_field
    if field is None:
        return Fraction(sample_int(rng, spec.coef_bound))
    if field.kind == "Q":
        p = field.p
        num = sample_int(rng, spec.coef_bound) * p ** rng.randint(0, 1)
        den = 1
        while True:
            den = rng.randint(1, 9)
            if den % p != 0:
                break
        return Fraction(num, den)
    # O_v over Q(t): polynomial with p-integral lowest coefficient, at times
    # divided by a unit 1 + c*t.
    f = sample_ratfunc(rng, spec, field.p)
    if f.is_zero():
        return f
    v = field.value(f)
    if v >= (0, 0):
        return f
    return f * field.element_with_value((max(0, -v[0]), max(0, -v[1])))


def sample_algebra_element(rng: SplitMix64, spec: SampleSpec, alg: StructureAlgebra):
    coords = []
    for _ in range(alg.dim):
        if rng.randrange(4) == 0:
            coords.append(alg.field.zero)
        else:
            coords.append(sample_scalar(rng, spec, alg.field))
    return tuple(coords)


def sample_poly_element(rng: SplitMix64, spec: SampleSpec, palg: PolynomialAlgebra) -> dict:
    out = {}
    for n in range(rng.randint(0, spec.poly_degree + 2) + 1):
        if rng.randrange(3) != 0:
            c = sample_scalar(rng, spec, palg.field)
            if c:
                out[n] = c
    return out


def sample_member(rng: SplitMix64, spec: SampleSpec, oracle):
    """An element of the subring: an S-combination of a certified basis."""
    alg = oracle.algebra
    if isinstance(alg, PolynomialAlgebra):
        out = {}
        for n in range(rng.randint(0, spec.poly_degree + 2) + 1):
            c = sample_in_domain(rng, spec, oracle.domain)
            if c:
                out[n] = c
        return out
    basis = oracle.contained_basis or ()  # without one, basis_combination refuses
    return oracle.basis_combination([sample_in_domain(rng, spec, oracle.domain) for _ in basis])
