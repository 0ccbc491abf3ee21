"""Per-layer tracing from outside the program.

The tracer wraps the public functions and methods of each cutval module and
rebinds every name through which a caller looks them up: the attribute of a
class, or the global of each cutval module that holds the function.  Each
call becomes a span (name, start, end, parent, item id) kept in flat arrays
in memory and written out once the run ends.  A layer's self time is the
duration of its spans minus the time their child spans cover.

The layers are the modules of src/cutval.  `oracle` is used only by the
untimed cross-checks and `cli` is not driven, so neither is wrapped.
Nothing in the program waits on a lock or a queue, so no layer has a wait
time to record.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps

import numpy as np

from cutval import (algebra, basedomain, cuts, numfield, orders, problemfile,
                    quasival, samplers, stability)

SAMPLERS = [name for name in vars(samplers) if name.startswith("sample_")
            and getattr(samplers, name).__module__ == samplers.__name__]


def layers():
    """(layer name, owner, attribute names, caller modules or None).

    owner is a module or a class.  A class attribute is rebound on the class.
    A module function is rebound in every cutval module holding it, or only
    in the given caller modules: the value_* operations are timed as
    quasival calls them, the samplers as the other modules call them.
    """
    return [
        ("problemfile.load_problem", problemfile, ["load_problem"], None),
        ("algebra.solve_columns", algebra, ["solve_columns"], None),
        ("algebra.rank_of", algebra, ["rank_of"], None),
        ("algebra.mul", algebra.StructureAlgebra, ["mul"], None),
        ("stability.stabilizer_finite", stability, ["stabilizer_finite"], None),
        ("orders.left_order", orders, ["left_order"], None),
        ("orders.contains", orders.SubringOracle, ["contains"], None),
        ("orders.verify_nice", orders, ["verify_nice"], None),
        ("quasival.filter_qv", quasival, ["filter_qv"], None),
        ("quasival.filter_qv_eval", quasival, ["filter_qv_eval"], None),
        ("quasival.eval_via_clearing", quasival, ["eval_via_clearing"], None),
        ("quasival.qv_audit", quasival, ["qv_audit"], None),
        ("cuts.value_ops", cuts,
         ["value_add", "value_compare", "value_min", "value_translate", "embed_phi"], [quasival]),
        ("numfield.poly_gcd", numfield, ["poly_gcd"], None),
        ("numfield.value", numfield.ValuedField, ["value"], None),
        ("basedomain.contains", basedomain.BaseDomain, ["contains"], None),
        ("basedomain.clear_many", basedomain.BaseDomain, ["clear_many"], None),
        ("samplers.draw", samplers, SAMPLERS, [orders, quasival]),
    ]


class Tracer:
    """Spans in flat arrays; span k has name codes[k], parent parents[k]
    (-1 for a root) and runs from starts[k] to ends[k] in nanoseconds."""

    def __init__(self):
        self.names = []
        self.codes = array("i")
        self.parents = array("i")
        self.items = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.item = -1
        self.gcd_nontrivial = 0

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn, on_result=None):
        code = self._code(name)
        codes, parents, items = self.codes, self.parents, self.items
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            k = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            items.append(tracer.item)
            ends.append(0)
            stack.append(k)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_gcd(self, g) -> None:
        self.gcd_nontrivial += g.degree > 0

    @contextmanager
    def span(self, name: str, item: int = -1):
        """A span of the benchmark's own, such as one whole item; the spans
        opened inside it carry its item id."""
        self.item = item
        k = len(self.codes)
        self.codes.append(self._code(name))
        self.parents.append(self.stack[-1])
        self.items.append(item)
        self.ends.append(0)
        self.stack.append(k)
        self.starts.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.ends[k] = time.perf_counter_ns()
            self.stack.pop()

    @contextmanager
    def installed(self):
        """Rebind every layer's names to traced wrappers; restore on exit."""
        saved = []
        try:
            for name, owner, attrs, callers in layers():
                for attr in attrs:
                    original = getattr(owner, attr)
                    hook = self._count_gcd if name == "numfield.poly_gcd" else None
                    wrapper = self._wrap(name, original, hook)
                    for holder in _holders(owner, attr, original, callers):
                        saved.append((holder, attr, original))
                        setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    def totals(self) -> dict:
        """Layer name -> (calls, self seconds)."""
        codes = np.frombuffer(self.codes, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = (np.frombuffer(self.ends, dtype=np.int64)
               - np.frombuffer(self.starts, dtype=np.int64)).astype(np.float64)
        covered = np.zeros_like(dur)
        child = parents >= 0
        np.add.at(covered, parents[child], dur[child])
        self_ns = np.bincount(codes, weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(codes, minlength=len(self.names))
        return {name: (int(calls[k]), float(self_ns[k]) / 1e9)
                for k, name in enumerate(self.names)}

    def write(self, path) -> None:
        """All spans, compressed: name table plus one array per field."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.codes, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            item=np.frombuffer(self.items, dtype=np.int32),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64))


def _holders(owner, attr, original, callers):
    """The namespaces through which callers look `original` up."""
    if isinstance(owner, type):
        return [owner]
    if callers is None:
        callers = [m for name, m in sorted(sys.modules.items())
                   if name == "cutval" or name.startswith("cutval.")]
    return [m for m in callers if vars(m).get(attr) is original]
