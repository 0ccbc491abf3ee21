"""Self-tests for the benchmark: python3 -m pytest cutbench -q"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cutval import orders, quasival  # noqa: E402
from cutval.algebra import matrix_algebra, quadratic_algebra  # noqa: E402
from cutval.basedomain import integers, p_local  # noqa: E402
from cutval.errors import StructuralError  # noqa: E402
from cutval.numfield import ValuedField  # noqa: E402
from cutval.stability import StabilityReport  # noqa: E402

Q2 = ValuedField("Q", 2)


def small_audit(count=2):
    return workloads.AuditWorkload(
        "audit-small", lambda: matrix_algebra(Q2, 2), p_local(2), None,
        count=count, poly_degree=1)


def small_build():
    return workloads.BuildWorkload(
        "build-small", lambda: quadratic_algebra(Q2, 2), (p_local(2), integers()),
        draw=dict(coef_bound=5, max_p_exp=2), pool=run.MIN_ITEMS + 1)


def measure(wl, tmp_path, seed=3):
    load = run.Load()
    return run.measure(wl, wl.setup(seed, tmp_path), 0, load), load


@pytest.mark.parametrize("n, rank", [(11, 1), (12, 2), (30, 20), (100, 90)])
def test_tail_has_ten_items_beyond_it(n, rank):
    times = [float(k) for k in range(n, 0, -1)]
    value, pct = run.tail(times)
    assert value == float(rank)
    assert sum(t > value for t in times) == run.TAIL_BEYOND
    assert pct == pytest.approx(100.0 * rank / n)


def test_tail_of_few_items_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(k) for k in range(10)]) == (9.0, 100.0)


def test_self_time_subtracts_the_children():
    tracer = spans.Tracer()
    for name, parent, start, end in (("item", -1, 0, 10_000), ("a", 0, 2_000, 5_000),
                                     ("b", 1, 3_000, 4_000), ("a", 0, 6_000, 7_000)):
        tracer.codes.append(tracer._code(name))
        tracer.parents.append(parent)
        tracer.items.append(0)
        tracer.starts.append(start)
        tracer.ends.append(end)
    totals = tracer.totals()
    assert totals["item"] == (1, pytest.approx(6e-6))
    assert totals["a"] == (2, pytest.approx(3e-6))
    assert totals["b"] == (1, pytest.approx(1e-6))


def test_items_pass_their_checks(tmp_path):
    for wl in (small_audit(), small_build()):
        results, load = measure(wl, tmp_path)
        assert len(results) == run.MIN_ITEMS
        assert all(r.ok for r in results), [r.problems for r in results]
        metrics = run.end_to_end(results, [(0.01, load.times[0])], load)
        assert all(v > 0 for v, _ in metrics.values())


def test_forced_failures_raise_fail_ratio_and_lower_throughput(tmp_path, monkeypatch):
    wl = small_audit()
    clean, load = measure(wl, tmp_path)
    clean_rate = run.end_to_end(clean, [(0.01, load.times[0])], load)["items_per_s"][0]
    assert run.fail_ratio(clean) == 0

    audit = quasival.qv_audit

    def failing_audit(qv, spec):
        report = audit(qv, spec)
        if spec.seed % 4 == 1:
            raise StructuralError("forced failure")
        if spec.seed % 4 == 3:
            forced = quasival.AuditCheck("forced", 1, ("forced failure",))
            return quasival.AuditReport(report.provenance, report.spec_text,
                                        report.checks + (forced,))
        return report

    monkeypatch.setattr(quasival, "qv_audit", failing_audit)
    forced, load = measure(wl, tmp_path)
    forced_rate = run.end_to_end(forced, [(0.01, load.times[0])], load)["items_per_s"][0]
    assert run.fail_ratio(forced) == pytest.approx(5 / 11)
    assert forced_rate < 0.75 * clean_rate
    assert forced[1].text.startswith("ERROR StructuralError")
    assert forced[3].problems[0].startswith("report not ok")


def test_cross_check_disagreement_fails_the_item(tmp_path, monkeypatch):
    wl = small_build()
    monkeypatch.setattr(workloads, "is_stable", lambda *a: StabilityReport(False, ((0, 0, 0, 1),)))
    results, _ = measure(wl, tmp_path)
    assert run.fail_ratio(results) == 1


def test_vacuous_audit_fails(tmp_path):
    results, _ = measure(small_audit(count=0), tmp_path)
    assert run.fail_ratio(results) == 1
    assert any("vacuous" in p for p in results[0].problems)


def test_traced_pass_matches_and_restores(tmp_path):
    originals = (orders.SubringOracle.contains, orders.left_order, quasival.filter_qv_eval)
    for wl in (small_audit(), small_build()):
        plain, _ = measure(wl, tmp_path)
        tracer = spans.Tracer()
        with tracer.installed():
            assert orders.SubringOracle.contains is not originals[0]
            setup = wl.setup(3, tmp_path)
            traced = [run.run_item(wl, setup, i, run.Load(), check=False, tracer=tracer)
                      for i in range(len(plain))]
        assert run.digest(traced) == run.digest(plain)
        totals = tracer.totals()
        assert totals["item"][0] == len(plain)
        assert totals["orders.left_order"][0] >= 1
    assert (orders.SubringOracle.contains, orders.left_order, quasival.filter_qv_eval) == originals
