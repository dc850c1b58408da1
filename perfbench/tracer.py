"""Layer tracer that times ratemec's modules from outside the package.

``Tracer.installed()`` replaces every public function of the six layer
modules with a timing wrapper, in every ``ratemec`` namespace that holds
the function by name (``cli.solve_mecbrc`` as well as
``bernoulli_rate_class.solve_mecbrc``), and restores the originals on
exit.  Nothing inside ``src/`` changes.

Calls into ``prob_core`` are primitives, made up to millions of times
per run, so they are aggregated per operation as a count and a time.
Every other wrapped call becomes a span (name, start, end, parent span,
operation id) kept in compact arrays until the run ends.  Self time is a
span's duration minus the time its child spans and primitives cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = (
    "prob_core",
    "bernoulli_rate",
    "bernoulli_rate_class",
    "generic_oracle",
    "mc_sim",
    "cli",
)
PACKAGE = "ratemec"
PRIMITIVE_LAYER = "prob_core"


def _active_sets(args, kwargs):
    """Active sets ``solve_vertex`` may try, computed from the polytope shape.

    The equality block holds one marginal row per output symbol plus the
    simplex row, which the marginal rows sum to, so its rank is one less
    than its row count.
    """
    polytope = args[0] if args else kwargs["polytope"]
    eq_rows, count = polytope.a_eq.shape
    return math.comb(polytope.a_ub.shape[0], count - (eq_rows - 1))


def _draws(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    return cfg.samples


#: Work counted at a call boundary from the call's arguments, never timed.
COUNTERS = {
    "generic_oracle.solve_vertex": ("generic_oracle.active_sets", _active_sets),
    "mc_sim.simulate": ("mc_sim.draws", _draws),
}


def public_functions():
    """(qualified name, attribute name, function) for each wrapped function."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out.append((f"{layer}.{name}", name, obj))
    return out


class Tracer:
    """Collects spans and primitive aggregates while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        # One entry per span, index-aligned.
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_child = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_raised = array("b")
        # Per-operation primitive aggregates:
        # op id -> {name: [count, self time, total time]}.
        self.primitives: dict[int, dict[str, list]] = {}
        self.counters: dict[str, float] = {}
        self.op_id = -1
        self._stack: list[list] = []
        self._merged: dict[str, list] = {}

    def _index(self, qualname: str) -> int:
        idx = self._name_idx.get(qualname)
        if idx is None:
            idx = self._name_idx[qualname] = len(self.names)
            self.names.append(qualname)
        return idx

    def _span_wrapper(self, qualname: str, fn):
        idx = self._index(qualname)
        stack = self._stack
        clock = time.perf_counter
        counter = COUNTERS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                key, count = counter
                self.counters[key] = self.counters.get(key, 0) + count(args, kwargs)
            parent = stack[-1][1] if stack else -1
            span = len(self.span_start)
            self.span_name.append(idx)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_child.append(0.0)
            self.span_parent.append(parent)
            self.span_op.append(self.op_id)
            self.span_raised.append(1)
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                self.span_raised[span] = 0
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                self.span_start[span] = start
                self.span_end[span] = end
                self.span_child[span] = frame[0]

        return traced

    def _primitive_wrapper(self, qualname: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                agg = self.primitives.setdefault(self.op_id, {}).setdefault(
                    qualname, [0, 0.0, 0.0]
                )
                agg[0] += 1
                agg[1] += dur - frame[0]
                agg[2] += dur

        return traced

    @contextmanager
    def installed(self):
        """Patch every ratemec namespace holding a public layer function."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        patches = []
        for qualname, name, fn in public_functions():
            if qualname.startswith(PRIMITIVE_LAYER + "."):
                wrapper = self._primitive_wrapper(qualname, fn)
            else:
                wrapper = self._span_wrapper(qualname, fn)
            for mod in modules:
                if getattr(mod, name, None) is fn:
                    patches.append((mod, name, fn))
                    setattr(mod, name, wrapper)
        try:
            yield self
        finally:
            for mod, name, fn in patches:
                setattr(mod, name, fn)

    def merge(self, summary: dict) -> None:
        """Add a summary produced by another process's tracer."""
        for qualname, row in summary["functions"].items():
            acc = self._merged.setdefault(qualname, [0, 0.0, 0.0, 0])
            acc[0] += row["calls"]
            acc[1] += row["self_s"]
            acc[2] += row["total_s"]
            acc[3] += row["raised"]
        for key, value in summary["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value

    def summary(self) -> dict:
        """Per-function calls, self time, total time and raised count."""
        rows: dict[str, list] = {
            k: list(v) for k, v in self._merged.items()
        }
        for i, idx in enumerate(self.span_name):
            dur = self.span_end[i] - self.span_start[i]
            acc = rows.setdefault(self.names[idx], [0, 0.0, 0.0, 0])
            acc[0] += 1
            acc[1] += dur - self.span_child[i]
            acc[2] += dur
            acc[3] += self.span_raised[i]
        for per_op in self.primitives.values():
            for qualname, (count, self_s, total_s) in per_op.items():
                acc = rows.setdefault(qualname, [0, 0.0, 0.0, 0])
                acc[0] += count
                acc[1] += self_s
                acc[2] += total_s
        return {
            "functions": {
                k: {"calls": v[0], "self_s": v[1], "total_s": v[2], "raised": v[3]}
                for k, v in sorted(rows.items())
            },
            "counters": dict(self.counters),
        }
