"""Outside-in tracer: span wrappers installed on the program's public functions.

Nothing under ``src/`` knows about it.  While installed, the tracer replaces
the public functions of each hot-path module -- class attributes for the
mirror maps and objectives, module attributes for the free functions -- by
wrappers that record one span per call: (id, name, start, end, parent,
thread id, work).  Class-level wrapping sees nested self-calls too, such as
``diffusion_substep -> ambient_from_dual`` and
``potential_grad -> neuron_outputs``.  The parent is the innermost open span
on the same thread; spans opened on a pool thread take the open iteration as
their parent.  Spans are kept in memory and written out once, at the end.
The originals are restored on exit, so the untimed and timed passes run the
program unmodified.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager

from mirrormfld import dynamics, geometry, objectives, rngstream, runner

GEOMETRY_METHODS = ("diffusion_substep", "ambient_from_dual", "pullback",
                    "metric_from_dual")
OBJECTIVE_METHODS = ("stats", "potential_grad", "value")
ITERATIONS = ((dynamics, "_mirror_iteration"), (dynamics, "euclidean_step"))


def _targets():
    """(owner, attribute, span name); class owners are wrapped at class level."""
    out = [(rngstream, "normal_block", "rngstream.normal_block"),
           (dynamics, "project_simplex", "dynamics.project_simplex"),
           (runner, "run_sampler", "runner.run_sampler"),
           (runner, "run_experiment", "runner.run_experiment")]
    for cls in (geometry.SimplexEntropyMap, geometry.BoxLogBarrierMap):
        out += [(cls, m, f"geometry.{m}") for m in GEOMETRY_METHODS]
    for cls in (objectives.LinearPotential, objectives.MeanMatchBarrier,
                objectives.NetworkRisk):
        out += [(cls, m, f"objectives.{m}") for m in OBJECTIVE_METHODS]
    out.append((objectives.NetworkRisk, "neuron_outputs", "objectives.neuron_outputs"))
    return out


def _normal_block_work(seed, iteration, substep, lo, hi, dim):
    """(words generated, words used) of one normal_block call, from its arguments."""
    rows = hi - lo
    return rows * 4 * ((dim + 3) // 4), rows * dim


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, t0, t1, parent, thread, work)
        self._ids = itertools.count()
        self._local = threading.local()
        self._iteration = None   # open iteration span, parent of pool-thread roots

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, *, work=None, iteration=False):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            stack = self._stack()
            parent = stack[-1] if stack else self._iteration
            stack.append(sid)
            if iteration:
                outer, self._iteration = self._iteration, sid
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if iteration:
                    self._iteration = outer
                self.spans.append((sid, name, t0, t1, parent, threading.get_ident(),
                                   work(*args, **kwargs) if work else None))
        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        saved = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        try:
            for owner, attr, name in _targets():
                work = _normal_block_work if name == "rngstream.normal_block" else None
                patch(owner, attr, self.wrap(name, getattr(owner, attr), work=work))
            for owner, attr in ITERATIONS:
                patch(owner, attr, self.wrap("dynamics.iteration", getattr(owner, attr),
                                             iteration=True))
            recorder = runner.metrics_recorder
            patch(runner, "metrics_recorder", lambda *a, **kw: self.wrap(
                "runner.diagnostics", recorder(*a, **kw)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread", "work")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def layer_metrics(spans, *, workers: int) -> dict:
    """Per-layer numbers (ms per step or per tick, counts per step) from spans.

    Steps are the traced iterations and ticks the traced diagnostics calls.
    """
    children = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append(s)
    total, self_time, calls = {}, {}, {}
    for s in spans:
        dur = s[3] - s[2]
        kids = children.get(s[0], ())
        total[s[1]] = total.get(s[1], 0.0) + dur
        self_time[s[1]] = self_time.get(s[1], 0.0) + dur - _union_length(
            [(k[2], k[3]) for k in kids])
        calls[s[1]] = calls.get(s[1], 0) + 1

    steps = calls.get("dynamics.iteration", 0) or 1
    ticks = calls.get("runner.diagnostics", 0) or 1
    iter_time = busy = iter_self = 0.0
    for s in spans:
        if s[1] != "dynamics.iteration":
            continue
        kids = children.get(s[0], ())
        iter_time += s[3] - s[2]
        iter_self += s[3] - s[2] - _union_length([(k[2], k[3]) for k in kids])
        per_thread = {}
        for k in kids:
            per_thread.setdefault(k[5], []).append((k[2], k[3]))
        busy += sum(_union_length(v) for v in per_thread.values())

    words = [s[6] for s in spans if s[1] == "rngstream.normal_block"]
    generated = sum(w[0] for w in words)
    used = sum(w[1] for w in words)
    sampler_end = {s[4]: s[3] for s in spans if s[1] == "runner.run_sampler"}
    write_ms = [(s[3] - sampler_end[s[0]]) * 1e3 for s in spans
                if s[1] == "runner.run_experiment" and s[0] in sampler_end]

    def ms(name, per):
        return total.get(name, 0.0) * 1e3 / per

    return {
        "rngstream.normal_block.ms_per_step": ms("rngstream.normal_block", steps),
        "rngstream.words_per_step": generated / steps,
        "rngstream.useful_word_frac": used / generated if generated else 0.0,
        "geometry.diffusion_substep.ms_per_step":
            self_time.get("geometry.diffusion_substep", 0.0) * 1e3 / steps,
        "geometry.ambient_from_dual.calls_per_step":
            calls.get("geometry.ambient_from_dual", 0) / steps,
        "geometry.ambient_from_dual.ms_per_step": ms("geometry.ambient_from_dual", steps),
        "geometry.pullback.ms_per_step": ms("geometry.pullback", steps),
        "geometry.metric_from_dual.ms_per_step": ms("geometry.metric_from_dual", steps),
        "objectives.stats.ms_per_step": ms("objectives.stats", steps),
        "objectives.potential_grad.ms_per_step": ms("objectives.potential_grad", steps),
        "objectives.value.ms_per_tick": ms("objectives.value", ticks),
        "objectives.neuron_outputs.calls_per_step":
            calls.get("objectives.neuron_outputs", 0) / steps,
        "dynamics.self_ms_per_step": iter_self * 1e3 / steps,
        "dynamics.project_simplex.ms_per_step": ms("dynamics.project_simplex", steps),
        "dynamics.thread_busy_frac": busy / (workers * iter_time) if iter_time else 0.0,
        "runner.diagnostics.ms_per_tick":
            self_time.get("runner.diagnostics", 0.0) * 1e3 / ticks,
        "runner.write_outputs_ms": sum(write_ms) / max(len(write_ms), 1),
    }
