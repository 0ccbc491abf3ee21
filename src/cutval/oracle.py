"""Brute-force ground truth: window enumeration and support scans.

`window_cut_sum` realizes the left-set sum of two cuts pointwise on the
box [-B, B]^k and compares it with the closed-form `cut_add` prediction
on the inner box [-h, h]^k, h = B // 2.  B must be at least 2 * (1 + m),
m the largest bound coordinate of the operands; then every inner point of
the true sum is a sum of two box points, by an argument from the
definitions alone.  Let z = x + y, x in L(a), y in L(b), |z_i| <= h; let
a', b' be the bounds padded with zeros to length k (points of L(a), L(b)
with |coords| <= m); say level(a) >= level(b), and let P keep the first
k - level(a) coordinates.  P(x) <=lex P(a'), and P(y) <=lex P(b') since
truncation keeps <=lex; lex is a group order, so P(z - b') <=lex P(a'),
that is z - b' is in L(a).  Both b' and z - b' lie in the box, since
m <= B - h = ceil(B/2).  For level(b) > level(a) swap the roles; a TOP
operand pairs z minus the other's padded bound (or 0) with it; a BOTTOM
operand empties both sums.  So B >= 2m suffices: the enforced bound
leaves a margin of two.

Membership is the definition: a point is in L(AtMost(j, beta)) when its
first k - j coordinates are <=lex beta, a tuple comparison.  The sum of
the two window left sets is a Minkowski sum of bitsets.  A box point x is
the base-W integer, W = 4B + 1, whose digits are x_i + B, in [0, 2B],
first coordinate most significant.  Two such digits sum to at most 4B < W,
so adding the integers of x and y carries nowhere, and the sum's digits
are x_i + y_i + 2B: the integer of x + y at offset 2B.  OR-ing the
bitset of L(b) shifted by the integer of each x in L(a) marks every
reachable sum, and an inner point z is read as the one bit with digits
z_i + 2B.  Width W = 4B would also be correct: a digit sum of 4B then
carries, and the lowest carrying digit is left 0, while an inner point's
digits lie in [2B - h, 2B + h], never 0, so no carried sum is read as an
inner point.

`brute_support` rescans x*R against powers of the uniformizer (at rank 1
the domain's designated non-unit) using only membership tests,
independent of the min-valuation formula it checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cuts import ATMOST, TOP, Cut, at_most, bottom, cut_add, top
from .errors import BudgetError, DomainError
from .orders import SubringOracle

DEFAULT_BUDGET = 4_000_000


@dataclass(frozen=True)
class Window:
    rank: int
    bound: int

    def __post_init__(self):
        if self.bound < 1:
            raise DomainError("window bound must be >= 1")
        if (2 * self.bound + 1) ** self.rank > DEFAULT_BUDGET:
            raise BudgetError(
                f"window of {(2 * self.bound + 1) ** self.rank} points exceeds "
                f"budget {DEFAULT_BUDGET}")


def box_points(rank: int, bound: int) -> list[tuple[int, ...]]:
    """The points of [-bound, bound]^rank in lex order."""
    return list(itertools.product(range(-bound, bound + 1), repeat=rank))


def in_left_set(cut: Cut, pt: tuple[int, ...]) -> bool:
    """Definitional membership of a point in the cut's left set."""
    if cut.kind == ATMOST:
        return pt[:cut.rank - cut.level] <= cut.bound
    return cut.kind == TOP


def _max_bound_coord(*cuts: Cut) -> int:
    out = 0
    for c in cuts:
        if c.kind == ATMOST:
            out = max(out, max(abs(x) for x in c.bound))
    return out


@dataclass(frozen=True)
class WindowSumResult:
    match: bool
    predicted: Cut
    checked_points: int
    first_diff: tuple | None = None  # (point, predicted_bit, achieved_bit)

    def __str__(self):
        if self.match:
            return f"window sum matches {self.predicted!r} on {self.checked_points} points"
        p, pb, ab = self.first_diff
        return (f"window sum differs from {self.predicted!r} at {p}: "
                f"predicted {pb}, achieved {ab}")


def window_cut_sum(a: Cut, b: Cut, win: Window) -> WindowSumResult:
    """Elementwise sum of the window-restricted left sets vs cut_add."""
    if a.rank != win.rank or b.rank != win.rank:
        raise DomainError("window rank differs from the cuts' rank")
    # Every point of the true sum inside the half-bound inner box is a sum
    # of box points once bound >= inner + maxcoord (module docstring).
    need = 2 * (1 + _max_bound_coord(a, b))
    if win.bound < need:
        raise DomainError(f"window bound {win.bound} below the safe margin {need}")
    bound, rank, h = win.bound, win.rank, win.bound // 2
    weights = [(4 * bound + 1) ** i for i in reversed(range(rank))]

    def codes(lo, hi):
        """The base-W integers with every digit in [lo, hi], in lex order."""
        return map(sum, itertools.product(*(range(lo * w, (hi + 1) * w, w) for w in weights)))

    box = list(zip(box_points(rank, bound), codes(0, 2 * bound)))  # digits x_i + B
    b_bits = sum(1 << i for y, i in box if in_left_set(b, y))
    achieved = 0
    for x, i in box:
        if in_left_set(a, x):
            achieved |= b_bits << i
    predicted_cut = cut_add(a, b)
    inner = box_points(rank, h)
    for z, i in zip(inner, codes(2 * bound - h, 2 * bound + h)):  # digits z_i + 2B
        pb, ab = in_left_set(predicted_cut, z), bool(achieved >> i & 1)
        if pb != ab:
            return WindowSumResult(False, predicted_cut, len(inner), (z, pb, ab))
    return WindowSumResult(True, predicted_cut, len(inner))


def window_left_set(cut: Cut, bound: int) -> frozenset:
    """The left set restricted to the box, as a frozenset of tuples."""
    return frozenset(p for p in box_points(cut.rank, bound) if in_left_set(cut, p))


def enumerate_canonical(rank: int, bound_box: int):
    """All canonical descriptors with bound coordinates in [-b, b], plus
    the two extremes."""
    cuts = [bottom(rank), top(rank)]
    rng = range(-bound_box, bound_box + 1)
    for level in range(rank):
        for bnd in itertools.product(rng, repeat=rank - level):
            cuts.append(at_most(rank, level, bnd))
    return cuts


@dataclass(frozen=True)
class BruteSupportResult:
    exponent: int | None
    inconclusive: bool = False


def brute_support(oracle: SubringOracle, x, scan_bound: int) -> BruteSupportResult:
    """Largest k <= scan_bound with x*R inside pi^k * R, by membership scan."""
    domain = oracle.domain
    if domain.valued_field is None or domain.valued_field.rank != 1:
        raise DomainError("brute support needs a rank-1 valuation")
    if not oracle.contains(x):
        raise DomainError("brute support requires x in R")
    alg = oracle.algebra
    pi = domain.noninvertible()  # the uniformizer, at rank 1
    if alg.is_zero(x):
        return BruteSupportResult(None, inconclusive=True)
    best = None
    for k in range(scan_bound + 1):
        scale = alg.field.one / pi ** k
        ok = all(oracle.contains(alg.smul(scale, alg.mul(x, r)))
                 for r in oracle.lattice_basis)
        if ok:
            best = k
        else:
            return BruteSupportResult(best)
    return BruteSupportResult(best, inconclusive=True)
