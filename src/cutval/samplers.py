"""Samplers for field elements, domain elements and algebra elements.

Everything draws from a :class:`~cutval.sampling.SplitMix64` stream shaped
by a :class:`~cutval.sampling.SampleSpec`, so audits and tests are
reproducible from (seed, spec) alone: each draw's value and the stream
position after it are fixed.  Q(t) draws are made from the stream's integer
pairs as the canonical pairs in Z[t] of ``RationalFunction``, with no
``Fraction``, no ``Polynomial`` and no product of scalars.  An algebra
element or a member is one vector: over Q made from its integer pairs, as
a ``QVector``, over Q(t) from its draws' integer lists, as a ``QtVector``
(``QtVector.of``, whose lcm of the draws' denominators 1, t^k and 1 + c*t
takes no gcd; `_Rows.element` converts a member's coefficients so).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import PolynomialAlgebra, StructureAlgebra
from .basedomain import BaseDomain
from .numfield import QtVector, QVector, RationalFunction, ValuedField, _lowest, _ord, _zt_quo
from .sampling import SampleSpec, SplitMix64, rational_pair, sample_int, sample_rational


def sample_ratfunc(rng: SplitMix64, spec: SampleSpec, p: int) -> RationalFunction:
    """num / den with den 1, t^k (k = 1, 2) or 1 + c*t, built as the
    canonical pair without Euclid: for num = (x_0 + ... + x_deg*t^deg)/d,
    gcd(num, t^k) = t^min(ord num, k), and the irreducible 1 + c*t for
    c = a/b divides num, when sum x_i*(-b)^i*a^(deg-i) = 0, or is coprime
    to it."""
    deg = rng.randint(0, spec.poly_degree)
    pairs = [rational_pair(rng, spec, p) for _ in range(deg + 1)]
    d = lcm(*(b for _, b in pairs))
    num = [a * (d // b) for a, b in pairs]
    while num and not num[-1]:
        num.pop()
    shape = rng.randrange(3)
    if shape == 0 or not num:
        return _lowest(num, [d])
    if shape == 1:
        k = rng.randint(1, 2)
        j = min(_ord(num), k)
        return _lowest(num[j:], [0] * (k - j) + [d])
    a, b = rational_pair(rng, spec, p)  # for c = 0 the divisor is 1
    if not a:
        return _lowest(num, [d])
    a, b = (a, b) if a > 0 else (-a, -b)
    root, power = 0, 1  # sum x_i * (-b)^i * a^(j - i) over the first j + 1 coefficients
    for x in num:
        root, power = root * a + x * power, -power * b
    g = gcd(a, b)
    a, b = a // g, b // g  # num/d / (1 + c*t) = num*b / (d*(b + a*t))
    if root:
        return _lowest([x * b for x in num], [d * b, d * a])
    return _lowest([x * b for x in _zt_quo(num, [b, a])], [d])


def sample_scalar(rng: SplitMix64, spec: SampleSpec, field: ValuedField):
    if field.kind == "Q":
        return sample_rational(rng, spec, field.p)
    return sample_ratfunc(rng, spec, field.p)


def sample_in_domain(rng: SplitMix64, spec: SampleSpec, domain: BaseDomain):
    """An element of S (not necessarily nonzero).  Over O_v, a Q(t) draw f
    times p^a * t^n for the negative parts (n, a) of v(f), where the den 1,
    t^k or t + 1/c of f shares t^m, m = min(n, ord_t den), with t^n."""
    field = domain.valued_field
    if field is None or field.kind == "Q":
        return Fraction(*_q_domain_pair(rng, spec, domain))
    f = sample_ratfunc(rng, spec, field.p)
    if f.is_zero():
        return f
    v = field.value(f)
    if v >= (0, 0):
        return f
    n, a, den = max(0, -v[0]), max(0, -v[1]), f._d
    m = min(n, _ord(den))
    return _lowest([0] * (n - m) + [x * field.p ** a for x in f._n], den[m:])


def _q_domain_pair(rng: SplitMix64, spec: SampleSpec, domain: BaseDomain) -> tuple[int, int]:
    """sample_in_domain's draw in Z or Z_(p) as (num, den), den > 0, not reduced."""
    if domain.valued_field is None:
        return sample_int(rng, spec.coef_bound), 1
    p = domain.valued_field.p
    num = sample_int(rng, spec.coef_bound) * p ** rng.randint(0, 1)
    while True:
        den = rng.randint(1, 9)
        if den % p != 0:
            return num, den


def _vector(pairs) -> QVector:
    """The QVector of the rationals a/b, b > 0, given as pairs (a, b): one lcm."""
    d = lcm(*(b for _, b in pairs))
    return QVector._canonical([a * (d // b) for a, b in pairs], d)


def sample_algebra_element(rng: SplitMix64, spec: SampleSpec, alg: StructureAlgebra):
    """Each coordinate 0 with odds 1/4, else a sample_scalar draw; over Q
    made from rational_pair's integers (`_vector`)."""
    field = alg.field
    if field.kind == "Q":
        return _vector([(0, 1) if rng.randrange(4) == 0 else rational_pair(rng, spec, field.p)
                        for _ in range(alg.dim)])
    return QtVector.of([field.zero if rng.randrange(4) == 0 else sample_scalar(rng, spec, field)
                        for _ in range(alg.dim)])


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
    if alg.field.kind == "Q":  # sample_in_domain's draws as integer pairs (`_vector`)
        return oracle.basis_combination(_vector([_q_domain_pair(rng, spec, oracle.domain)
                                                 for _ in basis]))
    return oracle.basis_combination([sample_in_domain(rng, spec, oracle.domain) for _ in basis])
