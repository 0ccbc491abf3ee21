from __future__ import annotations

from fractions import Fraction

import pytest

from cutval.algebra import is_independent, matrix_algebra, quadratic_algebra, rank_of
from cutval.basedomain import integers, p_local
from cutval.errors import DomainError, StructuralError
from cutval.samplers import sample_scalar
from cutval.sampling import SampleSpec, SplitMix64
from cutval.stability import (StableBasisCertificate, insert_into_basis,
                              insert_many, is_stable, stabilizer_finite)


@pytest.fixture
def m2(field_q):
    return matrix_algebra(field_q, 2)


@pytest.fixture
def sqrt2(field_q):
    return quadratic_algebra(field_q, 2)


def units_of(alg):
    return [alg.basis_vector(i) for i in range(alg.dim)]


def test_is_stable_examples(m2, sqrt2, z):
    units = units_of(m2)
    assert is_stable(m2, units, units, z).ok
    B = [sqrt2.unit, sqrt2.element(["0", "1/3"])]
    rep = is_stable(sqrt2, B, B, z)
    assert not rep.ok
    # the violation is (s/3)*(s/3) = 2/9
    assert any(coord == Fraction(2, 9) for (_, _, _, coord) in rep.violations)
    assert str(rep) == "stable: no (1 violations; first at c[1]*b[1] coordinate 0 = 2/9)"


def test_is_stable_refuses_a_stabilizer_that_is_not_a_basis(m2, z):
    """A stabilizer must be a basis of A: a short or empty one, which has
    no product to fail, is refused rather than passed."""
    units = units_of(m2)
    for stabilizer in ([m2.unit], [], units[:3] + [units[0]]):
        with pytest.raises(StructuralError, match="stabilizer is not a basis of A"):
            is_stable(m2, units, stabilizer, z)


def test_stabilizer_examples(m2, sqrt2, z):
    B = (sqrt2.unit, sqrt2.element(["0", "1/3"]))
    cert = stabilizer_finite(sqrt2, B, z)
    assert cert.stabilizer == (sqrt2.unit, sqrt2.element(["0", "3"]))
    assert is_stable(sqrt2, cert.basis, cert.stabilizer, z).ok
    # 3*sqrt2 * (sqrt2/3) = 2 lands in the lattice
    prod = sqrt2.mul(cert.stabilizer[1], B[1])
    assert prod == sqrt2.element(["2", "0"])

    units = tuple(units_of(m2))
    cert2 = stabilizer_finite(m2, units, z)
    assert cert2.stabilizer == units  # all deltas are 1

    B3 = (sqrt2.unit, sqrt2.basis_vector(1))
    cert3 = stabilizer_finite(sqrt2, B3, p_local(3))
    assert cert3.stabilizer == B3


def test_insert_example_sqrt2(sqrt2, z):
    B = (sqrt2.unit, sqrt2.basis_vector(1))
    cert = StableBasisCertificate(sqrt2, z, B, B)
    x0 = sqrt2.element(["0", "1/6"])
    res = insert_into_basis(cert, x0)
    assert res.basis == (sqrt2.unit, x0)
    assert res.stabilizer == (sqrt2.unit, sqrt2.element(["0", "3"]))
    assert is_stable(sqrt2, res.basis, res.stabilizer, z).ok


def test_insert_example_m2(m2, z):
    units = tuple(units_of(m2))
    cert = StableBasisCertificate(m2, z, units, units)
    x0 = m2.smul(Fraction(2), m2.basis_vector(1))  # 2*e12
    res = insert_into_basis(cert, x0)
    assert res.basis == (units[0], x0, units[2], units[3])
    assert is_stable(m2, res.basis, res.stabilizer, z).ok


def test_insert_errors(m2, z):
    units = tuple(units_of(m2))
    cert = StableBasisCertificate(m2, z, units, units)
    with pytest.raises(DomainError):
        insert_into_basis(cert, m2.zero)
    with pytest.raises(DomainError):
        insert_into_basis(cert, m2.basis_vector(0))
    # 2*e11 only has a coordinate on e11, which is protected
    with pytest.raises(StructuralError, match="x0 lies in the span of the protected elements"):
        insert_into_basis(cert, m2.smul(Fraction(2), units[0]), frozenset([units[0]]))


def test_iterated_insertion_keeps_both(m2, z):
    units = tuple(units_of(m2))
    cert = StableBasisCertificate(m2, z, units, units)
    one = m2.unit
    two_e12 = m2.smul(Fraction(2), m2.basis_vector(1))
    out = insert_many(cert, [one, two_e12])
    assert one in out.basis and two_e12 in out.basis
    assert is_stable(m2, out.basis, out.stabilizer, z).ok
    assert len(out.basis) == 4 and is_independent(m2.field, out.basis)


def random_basis(rng, spec, alg, tries=50):
    """Exact random invertible change of basis with bounded entries."""
    for _ in range(tries):
        vecs = [tuple(sample_scalar(rng, spec, alg.field) for _ in range(alg.dim))
                for _ in range(alg.dim)]
        if rank_of(alg.field, vecs) == alg.dim:
            return [tuple(v) for v in vecs]
    raise AssertionError("could not draw an invertible matrix")


@pytest.mark.parametrize("domain_name", ["Z", "Z2"])
def test_stabilizer_fuzz_random_bases(m2, sqrt2, domain_name):
    domain = integers() if domain_name == "Z" else p_local(2)
    rng = SplitMix64(61)
    spec = SampleSpec(seed=61, count=0, coef_bound=5, max_p_exp=2)
    for alg in (m2, sqrt2):
        for _ in range(12):
            B = random_basis(rng, spec, alg)
            cert = stabilizer_finite(alg, tuple(B), domain)
            assert is_stable(alg, cert.basis, cert.stabilizer, domain).ok


def test_insert_preserves_span_and_stability(m2, z2):
    rng = SplitMix64(67)
    spec = SampleSpec(seed=67, count=0, coef_bound=4, max_p_exp=2)
    units = tuple(units_of(m2))
    for _ in range(25):
        cert = stabilizer_finite(m2, units, z2)
        x0 = tuple(sample_scalar(rng, spec, m2.field) for _ in range(4))
        if m2.is_zero(x0) or x0 in cert.basis:
            continue
        res = insert_into_basis(cert, x0)
        newb = res.basis
        assert x0 in newb
        assert len(newb) == 4
        assert rank_of(m2.field, list(newb)) == 4
        assert is_stable(m2, newb, res.stabilizer, z2).ok


def test_z_stable_verifies_over_zp(m2):
    # S1 subset S2: a Z-certificate verifies over Z_(p) unchanged
    rng = SplitMix64(71)
    spec = SampleSpec(seed=71, count=0, coef_bound=5)
    for _ in range(8):
        B = random_basis(rng, spec, m2)
        cert = stabilizer_finite(m2, tuple(B), integers())
        assert is_stable(m2, cert.basis, cert.stabilizer, integers()).ok
        assert is_stable(m2, cert.basis, cert.stabilizer, p_local(2)).ok
        assert is_stable(m2, cert.basis, cert.stabilizer, p_local(5)).ok


def test_certificate_json_round_trip(m2, z2):
    from cutval.stability import certificate_from_json, certificate_to_json
    units = tuple(units_of(m2))
    cert = stabilizer_finite(m2, units, z2)
    data = certificate_to_json(cert)
    assert data["domain"] == {"kind": "Zp", "p": 2}
    back = certificate_from_json(m2, z2, data)
    assert back.basis == cert.basis and back.stabilizer == cert.stabilizer


def test_certificate_refuses_a_non_basis(m2, z2):
    from cutval.stability import certificate_from_json, certificate_to_json
    units = tuple(units_of(m2))
    data = certificate_to_json(stabilizer_finite(m2, units, z2))
    repeated = dict(data, basis=data["basis"][:3] + data["basis"][:1])
    with pytest.raises(StructuralError, match="basis is dependent"):
        certificate_from_json(m2, z2, repeated)
    short = dict(data, basis=data["basis"][:3], stabilizer=data["stabilizer"][:3])
    with pytest.raises(StructuralError, match="a basis of A has 4 elements, got 3"):
        certificate_from_json(m2, z2, short)


def test_certificate_json_round_trips_and_refuses_a_false_stabilizer(m2, field_qt):
    """A default certificate comes back from its JSON unchanged over Z and
    Z_(3) (random M2(Q) bases) and O_v (M2(Q(t)) with entries 1/t and 1/2);
    with its stabilizer scaled by the inverse of the domain's non-unit,
    which no longer stabilizes, it is refused rather than cleared back, and
    so it is with four zero vectors, which clearing leaves as they are."""
    from cutval.basedomain import valuation_ring
    from cutval.numfield import RationalFunction
    from cutval.stability import certificate_from_json, certificate_to_json
    rng = SplitMix64(73)
    spec = SampleSpec(seed=73, count=0, coef_bound=5, max_p_exp=2)
    m2t = matrix_algebra(field_qt, 2)
    e = [m2t.basis_vector(i) for i in range(4)]
    qt_basis = (m2t.unit, m2t.smul(field_qt.one / RationalFunction.T, e[1]),
                m2t.smul(field_qt.scalar("1/2"), e[2]), e[3])
    for alg, domain, basis in ((m2, integers(), random_basis(rng, spec, m2)),
                               (m2, p_local(3), random_basis(rng, spec, m2)),
                               (m2t, valuation_ring(field_qt), qt_basis)):
        cert = stabilizer_finite(alg, tuple(basis), domain)
        assert cert.stabilizer != cert.basis
        data = certificate_to_json(cert)
        back = certificate_from_json(alg, domain, data)
        assert (back.basis, back.stabilizer) == (cert.basis, cert.stabilizer)
        assert certificate_to_json(back) == data
        inverse = domain.one / domain.noninvertible()
        false = [alg.smul(inverse, s) for s in cert.stabilizer]
        assert not is_stable(alg, cert.basis, false, domain).ok
        scaled = dict(data, stabilizer=[[alg.field.scalar_to_json(c) for c in s] for s in false])
        with pytest.raises(StructuralError, match="^stabilizer does not stabilize the basis$"):
            certificate_from_json(alg, domain, scaled)
        zeros = dict(data, stabilizer=[[alg.field.scalar_to_json(alg.field.zero)] * alg.dim] * alg.dim)
        with pytest.raises(StructuralError, match="^stabilizer is not a basis of A$"):
            certificate_from_json(alg, domain, zeros)


def test_stabilizer_over_composite_valuation_ring(field_qt):
    from cutval.basedomain import valuation_ring
    from cutval.numfield import RationalFunction
    from cutval.algebra import matrix_algebra
    alg = matrix_algebra(field_qt, 2)
    S = valuation_ring(field_qt)
    t = RationalFunction.T
    e = [alg.basis_vector(i) for i in range(4)]
    B = (alg.unit, alg.smul(field_qt.one / t, e[1]),
         alg.smul(field_qt.scalar("1/2"), e[2]), e[3])
    cert = stabilizer_finite(alg, B, S)
    assert is_stable(alg, cert.basis, cert.stabilizer, S).ok
