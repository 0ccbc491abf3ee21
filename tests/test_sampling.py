"""The generator's documented stream, the sample spec's refusals, and the
O_v sampler against the lift it replaced.

Every draw is a compatibility contract: a faster sampler must give the same
values and leave the stream where the old one did, so the references here
compare values and the generator state after each draw.
"""

from __future__ import annotations

import pytest

from cutval.basedomain import valuation_ring
from cutval.errors import DomainError
from cutval.numfield import ValuedField
from cutval.samplers import sample_in_domain, sample_ratfunc, sample_scalar
from cutval.sampling import SampleSpec, SplitMix64
from test_kernel import t_order
from test_numfield import assert_clearing

MASK = 2 ** 64 - 1


def splitmix64_reference(seed: int):
    """The README's recurrence, written out: the outputs for `seed`."""
    state = seed & MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        yield z ^ (z >> 31)


def test_splitmix64_seed_zero_known_answers():
    """The first outputs of splitmix64 from seed 0, as published with it."""
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


BOUNDS = [1, 2, 3, 7, 10, 2 ** 32, 2 ** 63 + 1, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 3 * 2 ** 70 + 5]
RANGES = [(0, 0), (-9, 9), (1, 2), (2, 9), (-2 ** 64, 2 ** 64), (5, 5 + 2 ** 65)]


@pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 64 - 1])
def test_splitmix64_matches_the_documented_recurrence(seed):
    """next_u64, randrange(n) = output mod n and randint(lo, hi) = lo +
    output mod (hi - lo + 1), each against the recurrence's next output."""
    rng, ref = SplitMix64(seed), splitmix64_reference(seed)
    assert [rng.next_u64() for _ in range(8)] == [next(ref) for _ in range(8)]
    for n in BOUNDS:
        assert rng.randrange(n) == next(ref) % n
    for lo, hi in RANGES:
        assert rng.randint(lo, hi) == lo + next(ref) % (hi - lo + 1)
    draws = 8 + len(BOUNDS) + len(RANGES)  # one output each
    assert rng.state == (seed + draws * 0x9E3779B97F4A7C15) & MASK


def test_empty_ranges_raise_and_draw_nothing():
    rng = SplitMix64(7)
    for bad in (lambda: rng.randrange(0), lambda: rng.randrange(-3),
                lambda: rng.randint(3, 2), lambda: rng.randint(0, -5)):
        with pytest.raises(ValueError):
            bad()
    assert rng.state == 7


@pytest.mark.parametrize("field, value", [("coef_bound", -1), ("max_p_exp", 0),
                                          ("max_p_exp", -2), ("poly_degree", -1)])
def test_sample_spec_refuses_shapes_no_sampler_draws(field, value):
    with pytest.raises(DomainError, match=field):
        SampleSpec(seed=1, count=1, **{field: value})


def test_sample_spec_keeps_its_least_legal_shapes():
    spec = SampleSpec(seed=1, count=0, coef_bound=0, max_p_exp=1, poly_degree=0)
    rng = spec.rng()
    assert sample_scalar(rng, spec, ValuedField("Q", 2)) == 0
    assert sample_scalar(rng, spec, ValuedField("Qt", 2)).is_zero()


def lift_reference(rng, spec, field):
    """sample_in_domain over O_v as it was: the draw f, then for v(f) < 0
    the product f * element_with_value of the negative parts of v(f).
    Also returns the m = min(n, ord_t den f) that the sampler cancels."""
    f = sample_ratfunc(rng, spec, field.p)
    v = field.value(f)
    if v is None or v >= (0, 0):
        return f, None
    n, a = max(0, -v[0]), max(0, -v[1])
    return f * field.element_with_value((n, a)), min(n, t_order(f.den))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_sample_in_domain_over_ov_matches_the_product_lift(p, degree):
    field = ValuedField("Qt", p)
    domain = valuation_ring(field)
    lifts = {"plain": 0, "t cancelled": 0}
    for seed, draw in ((500, {}), (600, dict(coef_bound=2, max_p_exp=1))):
        spec = SampleSpec(seed=seed + 10 * p + degree, count=0, poly_degree=degree, **draw)
        rng, ref_rng = spec.rng(), spec.rng()
        for _ in range(600):
            got = sample_in_domain(rng, spec, domain)
            expected, m = lift_reference(ref_rng, spec, field)
            assert got == expected
            assert rng.state == ref_rng.state
            assert got.is_zero() or field.value(got) >= (0, 0)
            assert_clearing(got.num)
            assert_clearing(got.den)
            if m is not None:
                lifts["t cancelled" if m else "plain"] += 1
    assert min(lifts.values()) > 0, lifts
