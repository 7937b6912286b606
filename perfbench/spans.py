"""Spans around the public functions of vbspool's modules.

``Tracer.install`` rebinds every public function of the in-process
layers, wherever a vbspool module holds a reference to it, to a wrapper
that records a span (id, name, start, end, parent id). ``PoolConfig``
construction is wrapped as ``model.PoolConfig``. ``uninstall`` puts the
originals back, so an untraced pass runs the unmodified program.

Each span updates per-name totals when it ends: calls, inclusive time
and self time (its duration minus the time of its child spans). While
``recording`` is set, the first SPAN_LIMIT raw spans are kept as
(pid, id, name, start, end, parent id); they are written out when the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter

LAYERS = ("analytic", "model", "erlang", "planner", "oracle", "simulator")
# spans whose every duration is kept, for percentiles
SAMPLED = ("analytic.compute_blocking", "model.PoolConfig")
SPAN_LIMIT = 100_000


def _solve_flops(n: int) -> int:
    """Flops of the dense GTH elimination and back-substitution on n states:
    a row sum, a rank-one update (multiply, divide, add) of the leading
    k x k block for each k, then one dot product per state."""
    return sum(3 * k * k + k for k in range(1, n)) + sum(2 * k for k in range(1, n))


def _count_generator(counters, args, result):
    counters["oracle.states"] += len(result.states)
    counters["oracle.rate_entries"] += len(result.rate_entries)


def _count_solve(counters, args, result):
    n = len(result)
    counters["oracle.solve_flops_computed"] += _solve_flops(n)
    counters["oracle.dense_mb_computed"] += n * n * 8 / 1e6


def _count_sweep(counters, args, result):
    counters["planner.sweep_points"] += len(result.points)


def _count_simulate(counters, args, result):
    sim = args[0]
    counters["simulator.sessions"] += sim.horizon_sessions * sim.replications


HOOKS = {
    "oracle.build_generator": _count_generator,
    "oracle.solve_stationary": _count_solve,
    "planner.dimension_pool": _count_sweep,
    "simulator.simulate": _count_simulate,
}


class Tracer:
    def __init__(self):
        self.recording = False
        self.reset()
        self._stack: list[list] = []  # [name, start, child time, id]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _enter(self, name: str):
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def _exit(self):
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][3]
        else:
            parent = -1
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if name in self.samples:
            self.samples[name].append(dur)
        if self.recording and len(self.spans) < SPAN_LIMIT:
            self.spans.append((self.pid, span_id, name, start, end, parent))

    @contextlib.contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    # -- instrumentation ---------------------------------------------------
    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"vbspool.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        holders = [
            mod for name, mod in list(sys.modules.items())
            if name == "vbspool" or name.startswith("vbspool.")
        ]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        pool_config = importlib.import_module("vbspool.model").PoolConfig
        self._patched.append((pool_config, "__init__", pool_config.__init__))
        pool_config.__init__ = self._wrap("model.PoolConfig", pool_config.__init__)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def snapshot(self) -> dict:
        """Totals, samples, counters and spans as plain data (for a pipe)."""
        return {
            "stats": self.stats,
            "samples": {k: v.tobytes() for k, v in self.samples.items()},
            "counters": dict(self.counters),
            "spans": self.spans,
        }

    def merge(self, snap: dict):
        for name, (calls, incl, own) in snap["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += incl
            st[2] += own
        for name, raw in snap["samples"].items():
            self.samples[name].frombytes(raw)
        for name, value in snap["counters"].items():
            self.counters[name] += value
        self.spans += snap["spans"][: SPAN_LIMIT - len(self.spans)]

    def reset(self):
        """Drop totals, samples, counters and spans; a forked child calls
        this so that it reports only its own."""
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.samples = {name: array("d") for name in SAMPLED}
        self.counters = Counter()
        self.spans = []
        self.pid = os.getpid()

    def write_spans(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
