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

`brute_support` rescans x*R against powers of the uniformizer (at rank 1
the domain's designated non-unit) using only membership tests,
independent of the min-valuation formula it checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cuts import ATMOST, BOTTOM, TOP, Cut, at_most, bottom, cut_add, top
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


def box_points(rank: int, bound: int) -> np.ndarray:
    axes = [np.arange(-bound, bound + 1, dtype=np.int64)] * rank
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, rank)


def member_mask(cut: Cut, pts: np.ndarray) -> np.ndarray:
    """Vectorized definitional membership in the cut's left set."""
    n = len(pts)
    if cut.kind == BOTTOM:
        return np.zeros(n, dtype=bool)
    if cut.kind == TOP:
        return np.ones(n, dtype=bool)
    m = cut.rank - cut.level
    le = np.zeros(n, dtype=bool)
    eq = np.ones(n, dtype=bool)
    for col in range(m):
        c = pts[:, col]
        b = cut.bound[col]
        le |= eq & (c < b)
        eq &= c == b
    return le | eq


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
    pts = box_points(win.rank, win.bound)
    inner = pts[np.all(np.abs(pts) <= win.bound // 2, axis=1)]
    predicted_cut = cut_add(a, b)
    predicted = member_mask(predicted_cut, inner)
    a_pts = pts[member_mask(a, pts)]
    achieved = np.zeros(len(inner), dtype=bool)
    if len(a_pts):
        chunk = max(1, 2_000_000 // max(1, len(a_pts)))
        for lo in range(0, len(inner), chunk):
            part = inner[lo:lo + chunk]
            diff = part[:, None, :] - a_pts[None, :, :]
            in_box = np.all(np.abs(diff) <= win.bound, axis=2)
            memb = member_mask(b, diff.reshape(-1, win.rank)).reshape(diff.shape[:2])
            achieved[lo:lo + len(part)] = np.any(in_box & memb, axis=1)
    diffs = np.nonzero(predicted != achieved)[0]
    if len(diffs) == 0:
        return WindowSumResult(True, predicted_cut, len(inner))
    i = int(diffs[0])
    return WindowSumResult(False, predicted_cut, len(inner),
                           (tuple(int(v) for v in inner[i]), bool(predicted[i]), bool(achieved[i])))


def window_left_set(cut: Cut, bound: int) -> frozenset:
    """The left set restricted to the box, as a frozenset of tuples."""
    pts = box_points(cut.rank, bound)
    sel = pts[member_mask(cut, pts)]
    return frozenset(tuple(int(v) for v in p) for p in sel)


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
