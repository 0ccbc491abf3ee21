from __future__ import annotations

from fractions import Fraction

import pytest

from cutval.algebra import matrix_algebra
from cutval.basedomain import (BaseDomain, domain_from_descriptor, integers,
                               is_subdomain, p_local, valuation_ring)
from cutval.errors import ConfigError
from cutval.numfield import Polynomial, RationalFunction, ValuedField
from cutval.orders import intersect_oracles, nice_from_certificate
from cutval.samplers import sample_scalar
from cutval.sampling import SampleSpec, SplitMix64
from cutval.stability import stabilizer_finite


def three_over_2t():
    return RationalFunction(Polynomial((Fraction(3, 2),)), Polynomial.T)


def test_contains_examples(field_qt):
    assert p_local(2).contains(Fraction(3, 5))
    assert not p_local(2).contains(Fraction(1, 2))
    assert not valuation_ring(field_qt).contains(three_over_2t())


def test_clear_examples(field_qt):
    assert p_local(2).clear_many([Fraction(3, 8)]) == 8
    assert integers().clear_many([Fraction(5, 6)]) == 6
    ov = valuation_ring(field_qt)
    s = ov.clear_many([three_over_2t()])
    assert field_qt.value(s) == (1, 1)  # s = 2t
    assert ov.contains(s * three_over_2t())
    assert integers().clear_many([Fraction(0)]) == 1
    # one clearing of all the coefficients: the lcm, the largest p-power, and
    # over O_v no clearing for t/8 of value (1, -3) > 0, which needs none
    assert integers().clear_many([Fraction(1, 4), Fraction(5, 6)]) == 12
    assert p_local(2).clear_many([Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)]) == 8
    assert ov.clear_many([RationalFunction(Polynomial((0, Fraction(1, 8))))]) == ov.one


def test_noninvertible(field_qt, field_q):
    cases = [
        (p_local(3), Fraction(3)),
        (integers(), Fraction(2)),
        (valuation_ring(field_qt), RationalFunction.T),
        (valuation_ring(field_q), Fraction(2)),
    ]
    for dom, expect in cases:
        s = dom.noninvertible()
        assert s == expect
        assert dom.contains(s)
        inv = (dom.one / s) if not isinstance(s, Fraction) else Fraction(1) / s
        assert not dom.contains(inv)


@pytest.mark.parametrize("make", [integers, lambda: p_local(2),
                                  lambda: valuation_ring(ValuedField("Q", 2)),
                                  lambda: valuation_ring(ValuedField("Qt", 2))])
def test_clear_fuzz(make):
    dom = make()
    field = dom.valued_field or ValuedField("Q", 2)
    rng = SplitMix64(17)
    spec = SampleSpec(seed=17, count=500)
    for _ in range(500):
        f = sample_scalar(rng, spec, field)
        s = dom.clear_many([f])
        assert s and dom.contains(s)
        assert dom.contains(s * f)


def test_chain_of_domains():
    rng = SplitMix64(23)
    spec = SampleSpec(seed=23, count=500)
    z, z2 = integers(), p_local(2)
    field = ValuedField("Q", 2)
    for _ in range(500):
        f = sample_scalar(rng, spec, field)
        if z.contains(f):
            assert z2.contains(f)


def test_is_subdomain():
    fq = ValuedField("Q", 2)
    fqt = ValuedField("Qt", 2)
    assert is_subdomain(integers(), p_local(2))
    assert is_subdomain(integers(), valuation_ring(fq))
    assert is_subdomain(p_local(2), valuation_ring(fq))
    assert not is_subdomain(p_local(2), p_local(3))
    assert not is_subdomain(p_local(2), integers())
    assert not is_subdomain(integers(), valuation_ring(fqt))
    assert is_subdomain(valuation_ring(fqt), valuation_ring(fqt))
    # every pair: Z lies in each ring over Q, a valuation ring only in the
    # valuation ring of the same valuation (Z_(p) and O_v(Q, p) alike)
    doms = [integers(), p_local(2), p_local(3), valuation_ring(fq),
            valuation_ring(ValuedField("Q", 3)), valuation_ring(fqt),
            valuation_ring(ValuedField("Qt", 3))]
    for s1 in doms:
        for s2 in doms:
            expect = (s1 == s2
                      or (s1.kind == "Z" and s2.fraction_field_kind == "Q")
                      or (s1.kind != "Z" and s2.kind != "Z"
                          and s1.fraction_field_kind == s2.fraction_field_kind == "Q"
                          and s1.valued_field.p == s2.valued_field.p))
            assert is_subdomain(s1, s2) == expect, (s1.describe(), s2.describe())


def test_p_local_is_the_valuation_ring_of_vp():
    zp, ov = p_local(3), valuation_ring(ValuedField("Q", 3))
    assert zp.valued_field == ov.valued_field == ValuedField("Q", 3)
    assert zp != ov and (zp.describe(), ov.describe()) == ("Z_(3)", "O_v(Q,p=3)")
    assert zp.noninvertible() == ov.noninvertible() == 3
    rng = SplitMix64(31)
    spec = SampleSpec(seed=31, count=300)
    for _ in range(300):
        f = sample_scalar(rng, spec, zp.valued_field)
        assert zp.contains(f) == ov.contains(f) == (f == 0 or zp.valued_field.value(f) >= (0,))
        assert zp.clear_many([f, 1 / (f * f + 1)]) == ov.clear_many([f, 1 / (f * f + 1)])


def test_descriptor_parsing():
    fq = ValuedField("Q", 2)
    fqt = ValuedField("Qt", 2)
    assert domain_from_descriptor({"kind": "Z"}, fq) == integers()
    assert domain_from_descriptor({"kind": "Zp", "p": 2}, fq) == p_local(2)
    assert domain_from_descriptor({"kind": "Ov"}, fqt) == valuation_ring(fqt)
    with pytest.raises(ConfigError):
        domain_from_descriptor({"kind": "Z"}, fqt)
    with pytest.raises(ConfigError):
        BaseDomain("Zp", p=4)



M2_QT, M2_Q = (matrix_algebra(ValuedField(kind, 2), 2) for kind in ("Qt", "Q"))
OV_QT = valuation_ring(ValuedField("Qt", 2))


def _units(alg):
    return [alg.basis_vector(i) for i in range(alg.dim)]


def _intersect_over_ov():
    R = nice_from_certificate(stabilizer_finite(M2_Q, _units(M2_Q), p_local(2)))
    return intersect_oracles([R], domain=OV_QT)


@pytest.mark.parametrize("build", [
    lambda: stabilizer_finite(M2_QT, _units(M2_QT), integers()),
    lambda: stabilizer_finite(M2_QT, _units(M2_QT), p_local(2)),
    lambda: stabilizer_finite(M2_Q, _units(M2_Q), OV_QT),
    _intersect_over_ov,
], ids=["M2(Q(t))/Z", "M2(Q(t))/Z_(2)", "M2(Q)/O_v", "intersection over O_v"])
def test_a_base_ring_over_the_other_fraction_field_is_refused(build):
    """One rule, `BaseDomain.check_field`, refuses each of these before any
    row is read: the certificate, and an intersection given its domain."""
    with pytest.raises(ConfigError, match="domain fraction field differs from the algebra's field"):
        build()
