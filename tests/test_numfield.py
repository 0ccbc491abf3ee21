from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutval.basedomain import valuation_ring
from cutval.errors import ConfigError, StructuralError
from cutval.numfield import (Polynomial, RationalFunction, ValuedField, _cleared, _zt_quo,
                             _int_p_exponent, composite_valuation, format_rational,
                             format_ratfunc, is_prime, parse_ratfunc,
                             parse_rational, poly_gcd, vp)
from cutval.samplers import sample_in_domain, sample_ratfunc, sample_scalar
from cutval.sampling import SampleSpec, SplitMix64, sample_rational
from test_kernel import (poly_divmod_reference, poly_gcd_reference, poly_mul_reference,
                         primitive_reference, ratfunc_add_reference, ratfunc_mul_reference,
                         ratfunc_pool, t_order)


def test_vp_examples():
    assert vp(2, Fraction(12)) == (2,)
    assert vp(2, Fraction(3, 4)) == (-2,)
    assert vp(2, Fraction(0)) is None
    with pytest.raises(ConfigError):
        vp(4, Fraction(1))


def int_p_exponent_reference(n: int, p: int) -> int:
    """The division loop that the lowest set bit replaced for p = 2."""
    if n == 0:
        raise ValueError("0 has no p-exponent")
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


def test_int_p_exponent_of_2_is_the_lowest_set_bit():
    """For p = 2 the exponent is the lowest set bit, for either sign and up
    to 2,000 bits, as the division loop counts it; p = 3 still divides;
    0 is refused either way."""
    rng = SplitMix64(75)
    ns = [1, -1, 2, -2, 3, 2 ** 1999, -(2 ** 1999), 2 ** 2000 - 1, -(2 ** 2000 - 2)]
    for _ in range(400):
        bits, shift = rng.randint(1, 1000), rng.randint(0, 999)
        n = ((rng.next_u64() << max(0, bits - 64)) % (1 << bits) | 1) << shift
        ns.append(-n if rng.randrange(2) else n)
    assert max(abs(n).bit_length() for n in ns) == 2000
    for n in ns:
        assert _int_p_exponent(n, 2) == int_p_exponent_reference(n, 2)
        assert _int_p_exponent(n, 3) == int_p_exponent_reference(n, 3)
    for p in (2, 3):
        with pytest.raises(ValueError, match="0 has no p-exponent"):
            _int_p_exponent(0, p)


def test_is_prime_matches_trial_division():
    small = [d for d in range(2, 317) if all(d % e for e in range(2, d))]  # 316^2 < 10^5

    def by_trial_division(k):
        return k >= 2 and all(k % d for d in small if d * d <= k)

    n = 10 ** 5
    assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if by_trial_division(k)]
    assert not is_prime(561) and not is_prime(-7)  # 561: the least Carmichael number
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 64 - 59) and not is_prime(2 ** 64 - 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5 and 7
    with pytest.raises(ConfigError, match="below 2\\^64"):
        is_prime(2 ** 64)
    with pytest.raises(ConfigError, match="below 2\\^64"):
        ValuedField("Q", 10 ** 30 + 57)


def test_exact_quo_refuses_a_non_divisor():
    """The exact quotient in Z[t], `_zt_quo`, refuses a divisor that leaves
    a remainder or no integral quotient."""
    a = [1, 1, 1]                                   # t^2 + t + 1
    for g in ([0, 1],                               # quotient t + 1 in Z[t], remainder 1
              [1, 2],                               # 2t + 1 does not divide lc(a)
              [1, 0, 1],                            # same degree, remainder t
              [0, 0, 0, 1]):                        # higher degree
        with pytest.raises(ArithmeticError, match="does not divide"):
            _zt_quo(a, g)
    half_plus_t = Polynomial((Fraction(1, 2), 1))
    assert _zt_quo(poly_mul_reference(Polynomial(a), half_plus_t).ints, half_plus_t.ints) == a
    assert _zt_quo([], [0, 1]) == []


def test_composite_examples():
    f = RationalFunction(Polynomial((0, 0, 0, 4)))          # 4t^3
    assert composite_valuation(2, f) == (3, 2)
    g = RationalFunction(Polynomial((Fraction(3, 2),)), Polynomial.T)  # 3/(2t)
    assert composite_valuation(2, g) == (-1, -1)
    h = RationalFunction(poly_mul_reference(Polynomial((0, 1)), Polynomial((1, 1))))  # t(1+t)
    assert composite_valuation(2, h) == (1, 0)
    assert composite_valuation(2, RationalFunction.ZERO) is None


@pytest.mark.parametrize("kind", ["Q", "Qt"])
def test_valuation_laws_fuzz(kind):
    field = ValuedField(kind, 2)
    rng = SplitMix64(11 if kind == "Q" else 12)
    spec = SampleSpec(seed=0, count=500)
    for _ in range(500):
        f = sample_scalar(rng, spec, field)
        g = sample_scalar(rng, spec, field)
        vf, vg = field.value(f), field.value(g)
        if vf is not None and vg is not None:
            assert field.value(f * g) == tuple(a + b for a, b in zip(vf, vg))
        s = f + g
        vs = field.value(s)
        if vf is None and vg is None:
            assert vs is None
        elif vf is None:
            assert vs == vg
        elif vg is None:
            assert vs == vf
        else:
            m = min(vf, vg)
            assert vs is None or vs >= m
            if vf != vg:
                assert vs == m


@pytest.mark.parametrize("kind", ["Q", "Qt"])
def test_surjectivity_constructive(kind):
    field = ValuedField(kind, 3)
    rng = SplitMix64(21)
    for _ in range(200):
        gamma = tuple(rng.randint(-6, 6) for _ in range(field.rank))
        x = field.element_with_value(gamma)
        assert field.value(x) == gamma


@pytest.mark.parametrize("p", [2, 3])
def test_element_with_value_over_qt_is_the_reduced_quotient(p):
    """p^a * t^n on n, a in [-3, 3], built as its canonical clearing, is
    RationalFunction(num, den) of the same p^a and t^n."""
    field = ValuedField("Qt", p)
    for n in range(-3, 4):
        for a in range(-3, 4):
            num = Polynomial((0,) * max(n, 0) + (Fraction(p) ** a,))
            expected = RationalFunction(num, Polynomial((0,) * max(-n, 0) + (1,)))
            got = field.element_with_value((n, a))
            assert got == expected and field.value(got) == (n, a)
            assert_canonical(got)


def test_rational_text():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(6, 8)) == "3/4"
    assert format_rational(Fraction(5)) == "5"
    with pytest.raises(StructuralError):
        parse_rational("1.5")


def test_polynomial_arithmetic():
    one_plus_t, one_minus_t = Polynomial((1, 1)), Polynomial((1, -1))
    q, r = poly_divmod_reference(Polynomial((1, 0, -1)), one_plus_t)
    assert q == one_minus_t and r.is_zero()
    assert poly_gcd(Polynomial((1, 0, -1)), poly_mul_reference(one_plus_t, one_plus_t)) == one_plus_t
    assert Polynomial().is_zero() and not Polynomial() and Polynomial.T


def test_ratfunc_repr_is_its_canonical_text():
    f = parse_ratfunc("[1,-1/2,3]/[0,2]")  # reduced to a monic denominator
    assert (repr(f), repr(RationalFunction.T), repr(RationalFunction.ZERO)) == (
        "[1/2,-1/4,3/2]/[0,1]", "[0,1]", "[]")


def test_ratfunc_canonical_and_roundtrip():
    f = RationalFunction(Polynomial((1, 0, -1)), Polynomial((2, 2)))  # (1-t^2)/(2+2t)
    assert f.den == Polynomial.ONE  # reduces to (1-t)/2
    assert f.num == Polynomial((Fraction(1, 2), Fraction(-1, 2)))
    rng = SplitMix64(55)
    spec = SampleSpec(seed=0, count=200)
    for _ in range(200):
        g = sample_ratfunc(rng, spec, 2)
        assert parse_ratfunc(format_ratfunc(g)) == g
        if not g.is_zero():
            assert g.den.coeffs[-1] == 1
            assert poly_gcd(g.num, g.den).degree <= 0


def test_every_ratfunc_is_its_canonical_pair():
    """The reducing constructor, parse_ratfunc, element_with_value, the Q(t)
    samplers, and the operators on ratfunc_pool() pairwise all make the
    canonical pair (`assert_canonical`)."""
    pool = ratfunc_pool()
    made = list(pool)
    for f in pool:
        made += [-f, RationalFunction(f.num, f.den), parse_ratfunc(format_ratfunc(f))]
        for g in pool:
            made += [f + g, f - g, f * g] + ([f / g] if g else [])
    made += [parse_ratfunc(text) for text in ("[1,0,-1]/[2,2]", "[0,0,4]/[0,-6]", "[1/2]/[-3]",
                                              "[0,0]/[5]", "[6,-9]/[-4,6]", "-7/21")]
    field = ValuedField("Qt", 3)
    made += [field.element_with_value((n, a)) for n in range(-3, 4) for a in range(-3, 4)]
    spec = SampleSpec(seed=331, count=0, coef_bound=5, max_p_exp=2, poly_degree=3)
    rng = spec.rng()
    made += [sample_ratfunc(rng, spec, 3) for _ in range(300)]
    made += [sample_in_domain(rng, spec, valuation_ring(field)) for _ in range(300)]
    for f in made:
        assert_canonical(f)


def test_valued_field_scalar_coercion():
    fq = ValuedField("Q", 2)
    assert fq.scalar("3/4") == Fraction(3, 4)
    assert fq.scalar(5) == Fraction(5)
    fqt = ValuedField("Qt", 2)
    g = fqt.scalar({"num": ["0", "1"], "den": ["2"]})
    assert composite_valuation(2, g) == (1, -1)
    assert fqt.scalar("1/2") == RationalFunction.constant(Fraction(1, 2))
    with pytest.raises(ConfigError):
        ValuedField("Q", 6)


def test_rational_sampler_shapes():
    rng = SplitMix64(1)
    spec = SampleSpec(seed=1, count=0, coef_bound=9, max_p_exp=3)
    seen_powers = False
    for _ in range(200):
        q = sample_rational(rng, spec, 2)
        assert abs(q.numerator) <= 9 * 8 * 9  # bound * p^max * den bound
        if q != 0 and vp(2, q)[0] < 0:
            seen_powers = True
    assert seen_powers


# --- properties ----------------------------------------------------------------

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

rationals = st.builds(lambda n, d, e: Fraction(n, d) * Fraction(3) ** e,
                      st.integers(-9, 9), st.integers(1, 9), st.integers(-2, 2))
def _product(fs):
    out = Polynomial.ONE
    for f in fs:
        out = poly_mul_reference(out, f)
    return out


# products of a few linear factors, so that numerators and denominators
# often share a factor
factored = st.builds(
    lambda c, fs: poly_mul_reference(Polynomial((c,)), _product(fs)),
    rationals.filter(bool),
    st.lists(st.sampled_from([Polynomial.T, Polynomial((-1, 1)), Polynomial((1, 1)),
                              Polynomial((2, 1)), Polynomial((1, 3))]), max_size=3))
polys = st.one_of(st.lists(rationals, max_size=4).map(Polynomial), factored)
ratfuncs = st.builds(RationalFunction, polys, polys.filter(bool))


def assert_canonical(f):
    """f is stored as its canonical pair n/d in Z[t]: no trailing zeros,
    Q[t]-gcd 1 by the Euclid reference, integer content 1 and lc(d) > 0,
    0 as [] over [1]; its views num and den are clearings, n and d over
    lc(d), so den is monic."""
    n, d = f._n, f._d
    assert (not n or n[-1]) and d and d[-1] > 0
    assert gcd(*n, *d) == 1
    if not n:
        assert d == [1]
    else:
        assert poly_gcd_reference(Polynomial(n), Polynomial(d)) == Polynomial.ONE
    assert_clearing(f.num)
    assert_clearing(f.den)
    assert f.num.coeffs == tuple(Fraction(x, d[-1]) for x in n)
    assert f.den.coeffs == tuple(Fraction(x, d[-1]) for x in d)


@PROPERTY
@given(rationals)
def test_rational_text_round_trip(q):
    s = format_rational(q)
    assert parse_rational(s) == q and format_rational(parse_rational(s)) == s


@PROPERTY
@given(ratfuncs)
def test_ratfunc_text_round_trip(f):
    s = format_ratfunc(f)
    assert parse_ratfunc(s) == f and format_ratfunc(parse_ratfunc(s)) == s


@PROPERTY
@given(ratfuncs, ratfuncs)
def test_ratfunc_results_are_canonical_and_match_reference(f, g):
    results = [f + g, f - g, f * g, -f] + ([f / g] if g else [])
    for r in results:
        assert_canonical(r)
    assert ((f + g).num, (f + g).den) == ratfunc_add_reference((f.num, f.den), (g.num, g.den))
    assert ((f * g).num, (f * g).den) == ratfunc_mul_reference((f.num, f.den), (g.num, g.den))


def composite_valuation_reference(p, f):
    """v_p of the lowest coefficient taken as one Fraction quotient."""
    if f.is_zero():
        return None
    on, od = t_order(f.num), t_order(f.den)
    (e,) = vp(p, f.num.coeffs[on] / f.den.coeffs[od])
    return (on - od, e)


@PROPERTY
@given(ratfuncs, st.sampled_from([2, 3, 5]))
def test_composite_valuation_matches_quotient_reference(f, p):
    assert composite_valuation(p, f) == composite_valuation_reference(p, f)
    with pytest.raises(ConfigError):
        composite_valuation(p * p, f)


@PROPERTY
@given(ratfuncs, ratfuncs, ratfuncs)
def test_ratfunc_field_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a
    if b:
        assert (a * b) / b == a
    assert a - a == RationalFunction.ZERO


def assert_clearing(poly):
    """poly is stored as the canonical clearing: no leading zero, a positive
    denominator, and the pair that _cleared gives its coefficients."""
    assert not poly.ints or poly.ints[-1] != 0
    assert poly.den > 0
    assert (poly.ints, poly.den) == _cleared(poly.coeffs)


HALF = Polynomial((Fraction(-1, 2),))


@PROPERTY
@given(polys, polys, polys)
@example(Polynomial(), Polynomial((Fraction(3, 4), -2)), Polynomial.T)          # a zero side
@example(HALF, Polynomial((Fraction(3, 4), -2)), Polynomial.ONE)                # a constant side
@example(Polynomial((Fraction(-2, 3), 0, Fraction(9, 4))), Polynomial((6, Fraction(-1, 6))),
         Polynomial((Fraction(1, 3), 1)))                                       # both non-constant
def test_kernels_carry_the_canonical_clearing(a, b, c):
    """poly_gcd gives a clearing, _zt_quo takes the primitive multiple of c
    back off a*c's integers, and every scalar result is canonical."""
    ac, bc = poly_mul_reference(a, c), poly_mul_reference(b, c)
    h = poly_gcd(ac, bc)
    assert_clearing(h)
    if c:
        pc = primitive_reference(c.ints)
        q = Polynomial._from_ints(_zt_quo(ac.ints, pc), ac.den)
        assert poly_mul_reference(q, Polynomial(pc)) == ac
        assert_clearing(q)
    if b:
        r = RationalFunction(a, b)
        f = RationalFunction(b, c) if c else r
        results = [r, r + f, r - f, r * f] + ([r / f] if f else [])
        for g in results:
            assert_canonical(g)


@PROPERTY
@given(polys)
@example(Polynomial((0, 1, 1)))
@example(Polynomial((Fraction(-1, 2), 3)))
@example(Polynomial.ONE)
def test_every_polynomial_result_is_canonical(a):
    """The constructor, _from_ints and monic give the canonical clearing,
    with the coefficients of the Fraction reference; the kernels' results
    are checked above."""
    ints, den = _cleared(a.coeffs)
    made = [Polynomial(a.coeffs + (Fraction(0),)),
            Polynomial._from_ints([6 * x for x in ints] + [0], 6 * den)]
    for p in made:
        assert_clearing(p)
        assert p == a and hash(p) == hash(a)
    assert_clearing(a.monic())
    assert a.monic().coeffs == (tuple(x / a.coeffs[-1] for x in a.coeffs) if a else ())


def test_equal_polynomials_by_different_routes_are_equal():
    half_plus_t = Polynomial((Fraction(1, 2), 1))
    routes = [Polynomial._from_ints([2, 4], 4), Polynomial._from_ints([3, 6, 0], 6),
              Polynomial((Fraction(2, 4), 1, 0)), Polynomial((1, 2)).monic(),
              Polynomial((Fraction(-3, 2), -3)).monic(),
              RationalFunction(Polynomial((1, 2)), Polynomial((2,))).num,   # the views of scalars
              RationalFunction(Polynomial((0, 3, 6)), Polynomial((0, 6))).num,
              RationalFunction(Polynomial.ONE, Polynomial((1, 2))).den]
    for p in routes:
        assert p == half_plus_t and hash(p) == hash(half_plus_t)
        assert (p.ints, p.den) == ([1, 2], 2)
    assert len({RationalFunction(p, Polynomial.T) for p in routes}) == 1
    for zero in (Polynomial((0, 0)), Polynomial._from_ints([0, 0], 7), RationalFunction.ZERO.num):
        assert zero == Polynomial.ZERO and (zero.ints, zero.den) == ([], 1)


def sample_ratfunc_divmod_reference(rng, spec, p):
    """The sampler as it was with the 1 + c*t branch on Fraction long division."""
    deg = rng.randint(0, spec.poly_degree)
    num = Polynomial(tuple(sample_rational(rng, spec, p) for _ in range(deg + 1)))
    shape = rng.randrange(3)
    if shape == 0 or num.is_zero():
        return RationalFunction(num), False
    if shape == 1:
        k = rng.randint(1, 2)
        j = min(t_order(num), k)
        den = Polynomial((0,) * (k - j) + (1,))
        return RationalFunction(Polynomial(num.coeffs[j:]), den), False
    c = sample_rational(rng, spec, p)  # for c = 0 the divisor is 1
    quo, rem = poly_divmod_reference(num, Polynomial((Fraction(1), c)))
    if not rem:
        return RationalFunction(quo), c != 0
    return RationalFunction(num, Polynomial((Fraction(1), c))), False


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_sample_ratfunc_matches_divmod_reference(p, degree):
    """2,000 draws with the 1 + c*t branch on _zt_quo are the draws of the
    divmod branch, and leave the stream where it did."""
    spec = SampleSpec(seed=400 + 10 * p + degree, count=0, coef_bound=2, max_p_exp=1,
                      poly_degree=degree)
    rng, ref_rng = spec.rng(), spec.rng()
    divided = 0
    for _ in range(2000):
        got = sample_ratfunc(rng, spec, p)
        expected, by_divisor = sample_ratfunc_divmod_reference(ref_rng, spec, p)
        assert (got.num.coeffs, got.den.coeffs) == (expected.num.coeffs, expected.den.coeffs)
        assert rng.state == ref_rng.state
        assert_canonical(got)
        divided += by_divisor
    assert divided > 0  # 1 + c*t divided the numerator in some draws
