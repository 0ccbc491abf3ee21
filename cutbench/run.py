"""Benchmark for cutval: four workloads over Q and Q(t), end to end and per layer.

Run from the root of a checkout:

    python3 cutbench/run.py --workload build-q --seed 1 --seconds 25 --trace 0

With --trace 0 the last line of stdout is a JSON object holding every
end-to-end metric; with --trace 1 it holds the per-layer metrics of a traced
pass over the same items that follows an untraced run of half the length.  Timings are scaled
by the measured load of the machine (see Load).  The lines before the JSON
record the draw SampleSpec, the digest of the rendered reports, the load,
the sizes and how the tail percentile was chosen.  See cutbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".cutbench_out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
MIN_ITEMS = TAIL_BEYOND + 1
WAITS = "waits: none (one thread; no layer waits on a lock or a queue)"


class Load:
    """How much other load on the machine slows this process down.

    A fixed piece of exact arithmetic, the probe, runs twice right before
    and twice right after every set-up and every item.  Other tenants of a
    shared machine slow the probes and the timing between them alike, so
    each timing is scaled by the run's fastest probe over the mean of the
    probes around it: an estimate of the time on an unloaded machine.
    """

    def __init__(self):
        self.times = []

    def probe(self) -> float:
        """Run the probe twice; their mean time."""
        pair = []
        for _ in range(2):
            start = time.perf_counter()
            acc = Fraction(0)
            for k in range(1, 1500):
                acc += Fraction(1, k % 97 + 1)
            pair.append(time.perf_counter() - start)
        self.times += pair
        return statistics.fmean(pair)

    def timed(self, fn):
        """(result, seconds, mean probe time around the call) of fn()."""
        before = self.probe()
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        return result, seconds, (before + self.probe()) / 2

    def unloaded(self, seconds: float, probe: float) -> float:
        """A timing taken between probes of `probe` seconds on average, scaled."""
        return seconds * min(self.times) / probe


@dataclass
class ItemResult:
    seconds: float      # as measured
    text: str           # the rendered reports
    problems: list      # why the item failed; empty when it passed
    sizes: dict
    probe: float        # the mean probe time around the item

    @property
    def ok(self) -> bool:
        return not self.problems


def tail(times) -> tuple:
    """(value, percentile): the item time at the highest percentile that
    still has TAIL_BEYOND items beyond it (nearest rank); the maximum when
    there are too few items for that."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


def run_item(wl, setup, i: int, load: Load, check: bool = True, tracer=None) -> ItemResult:
    """Run item i between probes of `load`; only the item itself is timed.
    It fails when it raises a CutvalError, when one of its reports is not ok
    or ran a check on fewer than one sample, or, with `check`, when an
    untimed cross-check disagrees."""
    from cutval.errors import CutvalError
    from workloads import item_sizes, vacuous_checks

    def item():
        try:
            with tracer.span("item", i) if tracer else nullcontext():
                return wl.item(setup, i), None
        except CutvalError as exc:
            return None, f"{type(exc).__name__}: {exc}"

    (out, error), seconds, probe = load.timed(item)
    if error:
        return ItemResult(seconds, f"ERROR {error}", [error], {}, probe)
    problems = [f"report not ok:\n{r}" for r in out.reports if not r.ok]
    problems += [f"vacuous check {c}" for c in vacuous_checks(out)]
    if check:
        try:
            problems += wl.check(setup, i, out)
        except CutvalError as exc:
            problems.append(f"cross-check raised {type(exc).__name__}: {exc}")
    return ItemResult(seconds, wl.render(setup, i, out), problems, item_sizes(out.built), probe)


def measure(wl, setup, seconds: float, load: Load) -> list:
    """The timed phase: items 0, 1, ... one after another, each with its
    untimed checks, until `seconds` have passed and at least MIN_ITEMS ran
    (or set-up's pool of items is used up)."""
    start = time.perf_counter()
    results = []
    while setup.capacity is None or len(results) < setup.capacity:
        results.append(run_item(wl, setup, len(results), load))
        if len(results) >= MIN_ITEMS and time.perf_counter() - start >= seconds:
            break
    return results


def digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(r.text.encode())
        h.update(b"\n")
    return h.hexdigest()


def fail_ratio(results) -> float:
    return sum(not r.ok for r in results) / len(results)


def size_max(results, setup_sizes: dict, key: str) -> int:
    return max([setup_sizes.get(key, 0)] + [r.sizes.get(key, 0) for r in results])


def end_to_end(results, setups, load: Load) -> dict:
    """Timings are scaled by the load (see Load); setups holds (seconds,
    probe) per set-up.  items_per_s divides the passed items by the sum of
    all item times."""
    times = [load.unloaded(r.seconds, r.probe) for r in results]
    passed = [t for t, r in zip(times, results) if r.ok]
    tail_s, _ = tail(passed) if passed else (0.0, 0.0)
    return {
        "setup_s": (statistics.median(load.unloaded(*s) for s in setups), "s"),
        "items_per_s": (len(passed) / sum(times), "1/s"),
        "item_ms_p50": (1e3 * statistics.median(passed) if passed else 0.0, "ms"),
        "item_ms_tail": (1e3 * tail_s, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def sizes(results, setup_sizes) -> dict:
    """Size and failure figures: the largest bits and t-degree of the lattice
    bases built, and the share of failed items."""
    return {
        "lattice_bits_max": (size_max(results, setup_sizes, "lattice_bits"), "bits"),
        "lattice_tdeg_max": (size_max(results, setup_sizes, "lattice_tdeg"), "count"),
        "fail_ratio": (fail_ratio(results), "ratio"),
    }


def per_layer(tracer, plain, setup_sizes, overhead: float) -> dict:
    """Self times as measured; the overhead ratio compares the traced and
    untraced item times, each scaled by its own phase's load."""
    from spans import layers

    totals = tracer.totals()
    metrics = sizes(plain, setup_sizes)
    for name, *_ in layers():
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    gcd_calls = totals.get("numfield.poly_gcd", (0, 0.0))[0]
    metrics["numfield.poly_gcd.nontrivial_ratio"] = (
        tracer.gcd_nontrivial / gcd_calls if gcd_calls else 0.0, "ratio")
    metrics["stability.stabilizer_bits_max"] = (
        size_max(plain, setup_sizes, "stabilizer_bits"), "bits")
    metrics["orders.constraint_bits_max"] = (
        size_max(plain, setup_sizes, "constraint_bits"), "bits")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def layer_table(metrics: dict) -> list:
    """Readable per-layer lines, largest self time first."""
    rows = sorted(((k[:-len(".self_s")], v) for k, (v, _) in metrics.items()
                   if k.endswith(".self_s")), key=lambda kv: -kv[1])
    return [f"  {name:<30} {metrics[name + '.calls'][0]:>9} calls {self_s:9.3f} s self"
            for name, self_s in rows]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cutval").is_dir():
        print(f"cutbench: no cutval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer
    from workloads import WORKLOADS, item_sizes

    if args.workload not in WORKLOADS:
        print(f"cutbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    load = Load()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            setup, *timing = load.timed(lambda: wl.setup(args.seed, workdir))
            setups.append(timing)
        setup_sizes = item_sizes(setup.built)
        # A traced run measures half as long untraced, so that with its traced
        # pass it takes about as long as an untraced run.
        plain = measure(wl, setup, args.seconds / (1 + args.trace), load)
        failed = sum(not r.ok for r in plain)
        correct = failed == 0
        lines = [f"workload {args.workload} seed {args.seed}: {len(plain)} items, {wl.describe()}",
                 f"draw spec: {setup.draw_spec or 'none, the unit basis'}",
                 f"digest of the first {MIN_ITEMS} reports: sha256:{digest(plain[:MIN_ITEMS])}",
                 f"load: probe fastest {min(load.times) * 1e3:.2f} ms, median "
                 f"{statistics.median(load.times) * 1e3:.2f} ms; item times as measured: p50 "
                 f"{statistics.median(r.seconds for r in plain) * 1e3:.1f} ms, "
                 f"sum {sum(r.seconds for r in plain):.2f} s"]
        lines += [f"FAILED item {i}: {r.problems[0]}" for i, r in enumerate(plain) if not r.ok]
        if args.trace:
            tracer, traced_load = Tracer(), Load()
            with tracer.installed():
                with tracer.span("setup"):
                    traced_setup = wl.setup(args.seed, workdir)
                traced = [run_item(wl, traced_setup, i, traced_load, check=False, tracer=tracer)
                          for i in range(len(plain))]
            if digest(traced) != digest(plain):
                correct = False
                lines.append("FAILED: the traced pass rendered other reports than the untraced one")
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.write(spans_path)
            overhead = (sum(traced_load.unloaded(r.seconds, r.probe) for r in traced)
                        / sum(load.unloaded(r.seconds, r.probe) for r in plain))
            metrics = per_layer(tracer, plain, setup_sizes, overhead)
            lines.append(f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.codes)} spans, "
                         f"one traced pass over the same items)")
            lines += layer_table(metrics)
        else:
            metrics = end_to_end(plain, setups, load)
            passed = [r.seconds for r in plain if r.ok]
            _, pct = tail(passed or [0.0])
            lines.append(f"item_ms_tail: percentile {pct:.1f} of {len(passed)} passed items "
                         f"({TAIL_BEYOND} beyond it)")
            lines.append("sizes: " + ", ".join(f"{k} {v} {u}" for k, (v, u)
                                               in sizes(plain, setup_sizes).items()))
        lines.append(WAITS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct, "attempted": len(plain), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
