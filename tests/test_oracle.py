from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import random_cut
from cutval import oracle
from cutval.algebra import matrix_algebra
from cutval.basedomain import p_local, valuation_ring
from cutval.cuts import ATMOST, at_most, bottom, embed_phi, top
from cutval.errors import BudgetError, DomainError
from cutval.numfield import ValuedField
from cutval.oracle import (Window, box_points, brute_support,
                           enumerate_canonical, in_left_set, window_cut_sum,
                           window_left_set)
from cutval.orders import LatticeModule, left_order
from cutval.quasival import filter_qv, support_mu
from cutval.samplers import sample_member
from cutval.sampling import SampleSpec, SplitMix64


def test_window_examples():
    res = window_cut_sum(at_most(2, 1, (2,)), at_most(2, 0, (1, 7)), Window(2, 16))
    assert res.match and res.predicted == at_most(2, 1, (3,))
    res = window_cut_sum(embed_phi((2,)), embed_phi((3,)), Window(1, 16))
    assert res.match and res.predicted == embed_phi((5,))
    res = window_cut_sum(bottom(2), top(2), Window(2, 8))
    assert res.match and res.predicted == bottom(2)


def test_window_renders_a_match():
    res = window_cut_sum(embed_phi((2,)), embed_phi((3,)), Window(1, 16))
    assert str(res) == "window sum matches AM(0;5) on 17 points"


def test_window_preconditions():
    with pytest.raises(DomainError):
        window_cut_sum(embed_phi((4,)), embed_phi((4,)), Window(1, 8))
    with pytest.raises(BudgetError):
        Window(3, 100)
    with pytest.raises(DomainError):
        window_cut_sum(embed_phi((1, 1)), embed_phi((1, 1)), Window(1, 16))


@pytest.mark.parametrize("rank, pairs, bound", [(1, 200, 6), (2, 120, 5), (3, 25, 3)])
def test_window_margin_boundary(rank, pairs, bound):
    """One below the enforced margin 2*(1 + m) the window refuses; at it,
    fuzzed pairs match cut_add."""
    rng = SplitMix64(1200 + rank)
    for _ in range(pairs):
        a, b = random_cut(rng, rank, bound), random_cut(rng, rank, bound)
        m = max([abs(c) for cut in (a, b) if cut.kind == ATMOST for c in cut.bound],
                default=0)
        need = 2 * (1 + m)
        with pytest.raises(DomainError, match="below the safe margin"):
            window_cut_sum(a, b, Window(rank, need - 1))
        res = window_cut_sum(a, b, Window(rank, need))
        assert res.match, str(res)


def test_window_reports_a_wrong_prediction(monkeypatch):
    """The window cross-check can fail: with cut_add predicting AM(1;4) for
    AM(1;2) + AM(0;1,7), whose sum is AM(1;3), the window finds a point
    predicted in the sum that no pair of box points reaches, and says so."""
    wrong = at_most(2, 1, (4,))
    monkeypatch.setattr(oracle, "cut_add", lambda a, b: wrong)
    res = window_cut_sum(at_most(2, 1, (2,)), at_most(2, 0, (1, 7)), Window(2, 16))
    assert not res.match and res.predicted == wrong
    point, predicted, achieved = res.first_diff
    assert point[0] == 4 and (predicted, achieved) == (True, False)
    assert str(res) == (f"window sum differs from {wrong!r} at {point}: "
                        "predicted True, achieved False")


def test_in_left_set_is_definitional():
    pts = box_points(2, 3)
    assert len(pts) == 49 and pts == sorted(pts)
    cut = at_most(2, 0, (1, -2))
    for p in pts:
        assert in_left_set(cut, p) == (p <= (1, -2))
        assert in_left_set(top(2), p) and not in_left_set(bottom(2), p)


@pytest.mark.parametrize("rank", [1, 2])
def test_oracle_agreement_fuzz(rank):
    rng = SplitMix64(1000 + rank)
    win = Window(rank, 16)
    for _ in range(300):
        a, b = random_cut(rng, rank), random_cut(rng, rank)
        res = window_cut_sum(a, b, win)
        assert res.match, str(res)


def test_package_imports_without_numpy():
    """The package runs on the standard library alone: importing it and its
    CLI loads no numpy (only the benchmark's span store uses numpy)."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import cutval, cutval.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    run = subprocess.run([sys.executable, "-c", code, str(src)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_enumerate_canonical_counts():
    cuts1 = enumerate_canonical(1, 2)
    assert len(cuts1) == 2 + 5
    cuts2 = enumerate_canonical(2, 1)
    assert len(cuts2) == 2 + 9 + 3
    assert len({window_left_set(c, 6) for c in cuts2}) == len(cuts2)


# --- brute support -----------------------------------------------------------


@pytest.fixture
def m2_order():
    field = ValuedField("Q", 2)
    alg = matrix_algebra(field, 2)
    M = LatticeModule(alg, p_local(2), tuple(alg.basis_vector(i) for i in range(4)))
    return alg, left_order(M)


def test_brute_support_examples(m2_order):
    alg, R = m2_order
    x = alg.element(["4", "0", "0", "8"])
    assert brute_support(R, x, 8).exponent == 2
    assert brute_support(R, alg.unit, 8).exponent == 0
    assert brute_support(R, alg.smul(alg.field.scalar(2), alg.unit), 8).exponent == 1
    assert brute_support(R, alg.zero, 8).inconclusive
    with pytest.raises(DomainError):
        brute_support(R, alg.element(["1/2", "0", "0", "0"]), 8)


def test_brute_support_is_inconclusive_at_its_scan_bound(m2_order):
    """2^9 * 1 lies in pi^k R for every k <= 9, so a scan that stops at 8
    finds no failure and reports 8 as a lower bound only."""
    alg, R = m2_order
    res = brute_support(R, alg.smul(alg.field.scalar(2 ** 9), alg.unit), 8)
    assert res.inconclusive and res.exponent == 8


def test_brute_support_needs_rank_1(field_qt):
    # the scan steps through powers of a uniformizer, which only rank 1 has
    alg = matrix_algebra(field_qt, 2)
    M = LatticeModule(alg, valuation_ring(field_qt), tuple(alg.basis_vector(i) for i in range(4)))
    with pytest.raises(DomainError, match="rank-1"):
        brute_support(left_order(M), alg.unit, 4)


def test_brute_support_agrees_with_mu(m2_order):
    alg, R = m2_order
    qv = filter_qv(R)
    rng = SplitMix64(31)
    spec = SampleSpec(seed=31, count=500)
    checked = 0
    for _ in range(spec.count):
        x = sample_member(rng, spec, R)
        if alg.is_zero(x):
            continue
        mu = support_mu(qv, x).mu
        if mu[0] <= 6:
            assert brute_support(R, x, 6).exponent == mu[0]
            checked += 1
    assert checked >= 300
