"""Samplers for field elements, domain elements and algebra elements.

Everything draws from a :class:`~cutval.sampling.SplitMix64` stream shaped
by a :class:`~cutval.sampling.SampleSpec`, so audits and tests are
reproducible from (seed, spec) alone.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import PolynomialAlgebra, StructureAlgebra
from .basedomain import BaseDomain
from .errors import StructuralError
from .numfield import Polynomial, RationalFunction, ValuedField
from .sampling import SampleSpec, SplitMix64, sample_int, sample_rational


def sample_ratfunc(rng: SplitMix64, spec: SampleSpec, p: int) -> RationalFunction:
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
    return RationalFunction(num, den)


def sample_scalar(rng: SplitMix64, spec: SampleSpec, field: ValuedField):
    if field.kind == "Q":
        return sample_rational(rng, spec, field.p)
    return sample_ratfunc(rng, spec, field.p)


def sample_in_domain(rng: SplitMix64, spec: SampleSpec, domain: BaseDomain):
    """An element of S (not necessarily nonzero)."""
    if domain.kind == "Z":
        return Fraction(sample_int(rng, spec.coef_bound))
    if domain.fraction_field_kind == "Q":
        p = domain.p if domain.kind == "Zp" else domain.field.p
        num = sample_int(rng, spec.coef_bound) * p ** rng.randint(0, 1)
        den = 1
        while True:
            den = rng.randint(1, 9)
            if den % p != 0:
                break
        return Fraction(num, den)
    # O_v over Q(t): polynomial with p-integral lowest coefficient, at times
    # divided by a unit 1 + c*t.
    field = domain.field
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
    basis = oracle.lattice_basis or oracle.contained_basis
    if basis is None:
        raise StructuralError("oracle carries no basis to sample members from")
    x = alg.zero
    for b in basis:
        x = alg.add(x, alg.smul(sample_in_domain(rng, spec, oracle.domain), b))
    return x
