"""Cut arithmetic against the window oracle, the monoid laws and the
closed forms the library used before `cut_compare`, `cut_add` and
`cut_translate` shared one projection rule: `reference_cut_compare`,
`reference_cut_add`, `reference_cut_translate`, `reference_value_compare`
and `reference_value_min` are those functions verbatim, apart from their
names and the reference helpers they call."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cut, random_vec
from cutval.cuts import (ATMOST, BOTTOM, INF, TOP, _check_ranks, at_most, bottom, cut_add,
                         cut_compare, cut_scale, cut_translate, embed_phi, format_value,
                         parse_group_element, parse_value, top, value_add,
                         value_compare, value_min, value_scale,
                         value_translate, zero_cut)
from cutval.errors import DomainError, RankMismatchError, StructuralError
from cutval.oracle import Window, enumerate_canonical, window_cut_sum, window_left_set
from cutval.sampling import SplitMix64


def oracle_window(a, b):
    """Window wide enough for the operands per the oracle's margin rule."""
    coords = [abs(c) for cut in (a, b) if cut.kind == "atmost" for c in cut.bound]
    return Window(a.rank, 4 * (1 + max(coords, default=0)))


def assert_sum_with_oracle(a, b, expected):
    got = cut_add(a, b)
    assert got == expected
    res = window_cut_sum(a, b, oracle_window(a, b))
    assert res.match, str(res)


# --- embed_phi -------------------------------------------------------------


def test_phi_examples():
    assert embed_phi((2,)) == at_most(1, 0, (2,))
    a, b = (1, 2), (3, -5)
    assert cut_add(embed_phi(a), embed_phi(b)) == embed_phi((4, -3))
    assert embed_phi((0, 0)) == zero_cut(2)


# --- cut_add ---------------------------------------------------------------


def test_cut_add_examples():
    assert_sum_with_oracle(at_most(2, 0, (1, 2)), at_most(2, 0, (3, -5)),
                           at_most(2, 0, (4, -3)))
    # derived: mixed levels, checked against the window oracle
    assert_sum_with_oracle(at_most(2, 1, (2,)), at_most(2, 0, (1, 7)),
                           at_most(2, 1, (3,)))
    assert cut_add(bottom(2), top(2)) == bottom(2)
    with pytest.raises(RankMismatchError):
        cut_add(bottom(1), bottom(2))


def test_cut_add_extremes():
    a = at_most(2, 0, (5, 5))
    assert cut_add(top(2), a) == top(2)
    assert cut_add(a, bottom(2)) == bottom(2)
    assert cut_add(top(2), top(2)) == top(2)


# --- cut_scale --------------------------------------------------------------


def test_cut_scale_examples():
    assert cut_scale(3, at_most(1, 0, (2,))) == at_most(1, 0, (6,))
    doubled = cut_scale(2, at_most(2, 1, (4,)))
    assert doubled == at_most(2, 1, (8,))
    # n*A as iterated oracle-checked sums
    a = at_most(2, 1, (4,))
    assert_sum_with_oracle(a, a, doubled)
    assert cut_scale(5, bottom(2)) == bottom(2)
    assert cut_scale(2, top(2)) == top(2)
    with pytest.raises(DomainError):
        cut_scale(0, a)


# --- cut_translate ----------------------------------------------------------


def test_cut_translate_examples():
    assert cut_translate(at_most(1, 0, (5,)), (2,)) == at_most(1, 0, (3,))
    a = at_most(2, 1, (3,))
    assert cut_translate(a, (2, 5)) == at_most(2, 1, (1,))
    assert_sum_with_oracle(a, embed_phi((-2, -5)), at_most(2, 1, (1,)))
    assert cut_translate(top(2), (7, -3)) == top(2)
    assert cut_translate(bottom(2), (7, -3)) == bottom(2)


# --- cut_compare ------------------------------------------------------------


def window_subset(a, b, bound):
    return window_left_set(a, bound) <= window_left_set(b, bound)


def test_cut_compare_examples():
    assert cut_compare(bottom(1), at_most(1, 0, (0,))) == -1
    assert cut_compare(at_most(1, 0, (0,)), top(1)) == -1
    assert cut_compare(at_most(2, 0, (3, 9)), at_most(2, 1, (3,))) == -1
    # the coarser level decides: the finer bound's low coordinate 9 does not
    assert cut_compare(at_most(3, 1, (1, 2)), at_most(3, 0, (1, 2, 9))) == 1
    # derived: coarse below fine when the coarse bound is strictly smaller
    a, b = at_most(2, 1, (2,)), at_most(2, 0, (3, 0))
    assert cut_compare(a, b) == -1
    assert window_subset(a, b, 5) and not window_subset(b, a, 5)


def test_cut_compare_fuzz_against_windows():
    rng = SplitMix64(202)
    for _ in range(400):
        rank = rng.choice((1, 2))
        a, b = random_cut(rng, rank), random_cut(rng, rank)
        c = cut_compare(a, b)
        # bounds <= 3, so a 4-window separates distinct cuts
        sub = window_subset(a, b, 4)
        sup = window_subset(b, a, 4)
        if c == 0:
            assert sub and sup and a == b
        elif c < 0:
            assert sub and not sup
        else:
            assert sup and not sub


# --- values (INF) -----------------------------------------------------------


def test_value_semantics():
    assert value_add(INF, at_most(1, 0, (7,))) is INF
    assert value_add(at_most(1, 0, (7,)), INF) is INF
    assert value_translate(INF, (4,)) is INF
    assert value_add(at_most(1, 0, (1,)), at_most(1, 0, (1,))) == at_most(1, 0, (2,))
    assert value_compare(INF, top(2)) == 1
    assert value_compare(INF, INF) == 0
    assert value_scale(3, INF) is INF
    assert value_min([INF, embed_phi((0,))]) == embed_phi((0,))


def test_value_min():
    assert value_min([embed_phi((3,)), embed_phi((1,)), embed_phi((2,))]) == embed_phi((1,))
    assert value_min([at_most(2, 1, (2,)), at_most(2, 0, (2, 9))]) == at_most(2, 0, (2, 9))
    assert value_min([INF, embed_phi((0,))]) == embed_phi((0,))
    assert value_min([INF, INF]) is INF
    with pytest.raises(DomainError):
        value_min([])


# --- monoid laws (fuzzed, both ranks) ---------------------------------------


@pytest.mark.parametrize("rank", [1, 2])
def test_monoid_laws(rank):
    rng = SplitMix64(300 + rank)
    zero = zero_cut(rank)
    for _ in range(1200):
        a, b, c = (random_cut(rng, rank) for _ in range(3))
        assert cut_add(a, b) == cut_add(b, a)
        assert cut_add(cut_add(a, b), c) == cut_add(a, cut_add(b, c))
        assert cut_add(a, zero) == a
        # order compatibility
        if cut_compare(a, b) <= 0:
            assert cut_compare(cut_add(a, c), cut_add(b, c)) <= 0


@pytest.mark.parametrize("rank", [1, 2])
def test_phi_homomorphism_and_translate(rank):
    rng = SplitMix64(400 + rank)
    for _ in range(1200):
        alpha, beta = random_vec(rng, rank), random_vec(rng, rank)
        alpha_beta = tuple(x + y for x, y in zip(alpha, beta))
        assert cut_add(embed_phi(alpha), embed_phi(beta)) == embed_phi(alpha_beta)
        lc = (alpha > beta) - (alpha < beta)
        assert cut_compare(embed_phi(alpha), embed_phi(beta)) == lc
        a = random_cut(rng, rank)
        assert cut_translate(a, alpha) == cut_add(a, embed_phi(tuple(-x for x in alpha)))


def test_scale_matches_iterated_add_fuzz():
    rng = SplitMix64(77)
    for _ in range(300):
        rank = rng.choice((1, 2))
        a = random_cut(rng, rank)
        n = rng.randint(1, 5)
        acc = a
        for _ in range(n - 1):
            acc = cut_add(acc, a)
        assert cut_scale(n, a) == acc


# --- canonical form constraints ---------------------------------------------


def test_rank_and_scale_refusals():
    with pytest.raises(RankMismatchError, match="translation rank differs from cut rank"):
        cut_translate(at_most(2, 0, (1, 2)), (1,))
    with pytest.raises(DomainError, match="scale factor must be >= 1, got 0"):
        value_scale(0, INF)
    with pytest.raises(RankMismatchError, match="notation rank 2 differs from expected 3"):
        parse_value("AM(1;4)", 3)
    with pytest.raises(RankMismatchError, match="element rank 2 differs from expected 1"):
        parse_value("(1,2)", 1)


def test_descriptor_validation():
    with pytest.raises(StructuralError):
        at_most(2, 2, ())
    with pytest.raises(StructuralError):
        at_most(2, 0, (1,))
    with pytest.raises(StructuralError):
        at_most(0, 0, ())


# --- text notation -----------------------------------------------------------


def test_notation_round_trip():
    assert format_value(at_most(2, 1, (3,))) == "AM(1;3)"
    assert format_value(at_most(2, 0, (1, 7))) == "AM(0;1,7)"
    assert format_value(bottom(2)) == "BOT"
    assert format_value(top(2)) == "TOP"
    assert format_value(INF) == "INF"
    assert parse_value("AM(0;-1)") == at_most(1, 0, (-1,))
    assert parse_value("BOT", rank=2) == bottom(2)
    assert parse_value("INF") is INF
    with pytest.raises(StructuralError):
        parse_value("TOP")
    rng = SplitMix64(9)
    for _ in range(500):
        rank = rng.choice((1, 2, 3))
        v = random_cut(rng, rank, bound=10 ** 9)
        assert parse_value(format_value(v), rank) == v


def _cut(rank, kind, level, bound):
    if kind != "atmost":
        return bottom(rank) if kind == "bot" else top(rank)
    level %= rank
    return at_most(rank, level, tuple(bound[:rank - level]))


cut_values = st.one_of(
    st.builds(_cut, st.integers(1, 3), st.sampled_from(["bot", "top", "atmost", "atmost"]),
              st.integers(0, 2), st.lists(st.integers(), min_size=3, max_size=3)),
    st.just(INF))


@settings(derandomize=True, database=None, deadline=None)
@given(cut_values, st.integers(1, 3))
def test_notation_round_trip_property(v, rank):
    rank = rank if v is INF else v.rank
    assert parse_value(format_value(v), rank) == v


def test_group_element_text_round_trip():
    rng = SplitMix64(5)
    for _ in range(200):
        v = random_vec(rng, rng.choice((1, 2, 3)), bound=10 ** 6)
        assert parse_group_element("(" + ",".join(map(str, v)) + ")") == v
    assert parse_group_element("(3, -1)") == (3, -1)
    for bad in ("3,-1", "()", "(1,x)"):
        with pytest.raises(StructuralError):
            parse_group_element(bad)


def test_representation_completeness_rank1():
    """Window realizations of the rank-1 descriptors: pairwise distinct and
    all pair sums agree with cut_add (bounds within the oracle margin)."""
    from cutval.oracle import Window, enumerate_canonical, window_cut_sum, window_left_set
    descriptors = enumerate_canonical(1, 7)
    seen = {}
    for c in descriptors:
        key = window_left_set(c, 8)
        assert key not in seen, f"{c} duplicates {seen[key]}"
        seen[key] = c
    small = enumerate_canonical(1, 3)
    win = Window(1, 8)
    for i, a in enumerate(small):
        for b in small[i:]:
            assert window_cut_sum(a, b, win).match


def test_monoid_laws_with_huge_coordinates():
    # arbitrary-precision coordinates; closed forms only
    rng = SplitMix64(888)
    big = 10 ** 18
    for _ in range(300):
        rank = rng.choice((1, 2))
        a, b, c = (random_cut(rng, rank, bound=big) for _ in range(3))
        assert cut_add(cut_add(a, b), c) == cut_add(a, cut_add(b, c))
        assert cut_add(a, b) == cut_add(b, a)
        n = rng.randint(2, 10 ** 9)
        if a.kind == "atmost":
            assert cut_scale(n, a).bound == tuple(n * x for x in a.bound)
        alpha = random_vec(rng, rank, bound=big)
        assert cut_translate(cut_translate(a, alpha), tuple(-v for v in alpha)) == a


def test_cut_order_transitive_fuzz():
    rng = SplitMix64(999)
    for _ in range(1500):
        rank = rng.choice((1, 2))
        a, b, c = (random_cut(rng, rank) for _ in range(3))
        if cut_compare(a, b) <= 0 and cut_compare(b, c) <= 0:
            assert cut_compare(a, c) <= 0
        # trichotomy and antisymmetry
        ab, ba = cut_compare(a, b), cut_compare(b, a)
        assert ab == -ba
        assert (ab == 0) == (a == b)


# --- the closed forms before the one projection rule, verbatim ---------------


def _reference_dropped_bound(c, level):
    """Bound of c re-expressed at a coarser level (drop low coordinates)."""
    extra = level - c.level
    return c.bound[: len(c.bound) - extra] if extra else c.bound


def reference_cut_add(a, b):
    """Left-set sum.  For AtMost operands the sum lives at the coarser
    level and adds the bounds there, since {<=x} + {<=y} = {<=x+y} in any
    ordered abelian group and projecting {<=beta} to a coarser lex level
    yields {<= projected beta}."""
    _check_ranks(a, b)
    if a.kind == BOTTOM or b.kind == BOTTOM:
        return bottom(a.rank)
    if a.kind == TOP or b.kind == TOP:
        return top(a.rank)
    j = max(a.level, b.level)
    pa, pb = _reference_dropped_bound(a, j), _reference_dropped_bound(b, j)
    return at_most(a.rank, j, tuple(x + y for x, y in zip(pa, pb)))


def reference_cut_translate(a, alpha):
    """Left set shifted by -alpha; equals cut_add(a, embed_phi(-alpha))."""
    if len(alpha) != a.rank:
        raise RankMismatchError("translation rank differs from cut rank")
    if a.kind != ATMOST:
        return a
    proj = alpha[: a.rank - a.level]
    return at_most(a.rank, a.level, tuple(x - y for x, y in zip(a.bound, proj)))


def reference_cut_compare(a, b):
    """Total order by left-set inclusion: -1, 0 or +1.

    Between levels the finer descriptor (smaller level) is below the
    coarser one exactly when its bound, projected to the coarser level,
    is lex <= the coarser bound; descriptors at distinct levels are never
    equal.
    """
    _check_ranks(a, b)
    if a == b:
        return 0
    if a.kind == BOTTOM:
        return -1
    if b.kind == BOTTOM:
        return 1
    if a.kind == TOP:
        return 1
    if b.kind == TOP:
        return -1
    if a.level == b.level:
        return -1 if a.bound < b.bound else 1
    if a.level < b.level:
        return -1 if _reference_dropped_bound(a, b.level) <= b.bound else 1
    return 1 if _reference_dropped_bound(b, a.level) <= a.bound else -1


def reference_value_compare(x, y):
    if x is INF and y is INF:
        return 0
    if x is INF:
        return 1
    if y is INF:
        return -1
    return reference_cut_compare(x, y)


def reference_value_min(values):
    """Greatest lower bound of a nonempty finite family (its minimum)."""
    values = list(values)
    if not values:
        raise DomainError("value_min of empty list")
    best = values[0]
    for v in values[1:]:
        if reference_value_compare(v, best) < 0:
            best = v
    return best


DESCRIPTORS = {rank: enumerate_canonical(rank, 2) for rank in (1, 2, 3)}


def test_descriptor_counts():
    """Every level of every rank up to 3, bounds in [-2, 2]: 2 + 5 + 25 + 125 at rank 3."""
    assert [len(DESCRIPTORS[r]) for r in (1, 2, 3)] == [7, 32, 157]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_add_and_compare_match_the_reference_on_every_pair(rank):
    for a, b in itertools.product(DESCRIPTORS[rank], repeat=2):
        assert cut_add(a, b) == reference_cut_add(a, b), (a, b)
        assert cut_compare(a, b) == reference_cut_compare(a, b), (a, b)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_translate_matches_the_reference_on_every_shift(rank):
    for a in DESCRIPTORS[rank]:
        for alpha in itertools.product(range(-2, 3), repeat=rank):
            assert cut_translate(a, alpha) == reference_cut_translate(a, alpha), (a, alpha)


@pytest.mark.parametrize("rank", [1, 2])
def test_values_with_inf_match_the_reference(rank):
    """value_compare on every pair and value_min on every triple of the
    descriptors with INF and repeats mixed in, first minimum kept: equal
    cuts from distinct objects tell the first from a later one."""
    values = DESCRIPTORS[rank] + [INF, INF]
    for x, y in itertools.product(values, repeat=2):
        assert value_compare(x, y) == reference_value_compare(x, y), (x, y)
    some = DESCRIPTORS[rank][::4]
    copies = [at_most(c.rank, c.level, c.bound) if c.kind == "atmost" else c for c in some]
    for family in itertools.product(some + [INF] + copies, repeat=3):
        assert value_min(family) is reference_value_min(family), family
        assert value_min(iter(family)) is reference_value_min(family)

