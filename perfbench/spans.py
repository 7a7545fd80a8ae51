"""Span tracer for the benchmark's traced run.

The tracer wraps attkit's public functions from outside the package: every
module attribute bound to a traced function is replaced by a wrapper, so a
function imported by name into several modules (``propagate`` in
``filters`` and ``simulate``) is traced at each site; a traced class has its
``__init__`` wrapped, which covers every site at once. Spans are kept in
flat arrays in memory (name, parent, start, end) and summarised when the
run ends. A span's self time is its duration minus the durations of its
direct children and minus the time the reference kernel of speed.py ran
inside it.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from array import array

import numpy as np

# Traced boundaries, by attkit module.
BOUNDARIES = {
    "so3": ("principal_angle", "check_rotation", "check_skew", "check_spd"),
    "wahba": (
        "build_profile", "check_vector_set", "profile_from_matrix", "solve_attitude",
        "alignment_cost",
    ),
    "dynamics": ("propagate", "BodyState"),
    "filters": (
        "run_filter", "initial_estimate", "update_attitude", "update_omega_no_gyro",
        "update_omega_with_gyro", "MeasurementBatch",
    ),
    "simulate": ("gen_truth", "gen_batches_from_truth", "simulate_scenario"),
    "cli": ("main", "montecarlo_summary"),
}
MODULES = ("so3", "wahba", "dynamics", "filters", "simulate", "cli", "reference_case")
ROOT = "bench.op"
DEFAULT_STEP = 1e-3  # attkit's IntegratorConfig default


def boundary_labels():
    return [f"{mod}.{name}" for mod, names in BOUNDARIES.items() for name in names]


def layer_metric_names():
    """Per-layer metrics of a traced run, with their units."""
    out = []
    for label in boundary_labels():
        out += [(f"{label}.calls", "count"), (f"{label}.self_s", "s")]
    out += [
        ("dynamics.steps", "count"),
        ("dynamics.step_us", "us"),
        ("bench.self_s", "s"),
        ("trace.attributed_pct", "%"),
        ("trace.overhead_pct", "%"),
    ]
    return out


def propagate_steps(state, t_end, cfg=None):
    """Integrator steps one propagate call takes: the full steps of length h
    and a final partial step, by the rule propagate documents."""
    span = t_end - state.t
    if span <= 0.0:
        return 0
    h = DEFAULT_STEP if cfg is None else cfg.step
    n_full = int(math.floor(span / h + 1e-12))
    rem = span - n_full * h
    return n_full + (1 if rem > 1e-12 * max(1.0, abs(span)) else 0)


class Tracer:
    """Spans, counts and integrator steps of one traced run."""

    def __init__(self):
        self.names = [ROOT]
        self._ids = {ROOT: 0}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ticks = array("d")  # (midpoint, duration) of each kernel run
        self._stack = [-1]
        self.steps = 0
        self._patched = []

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def steal(self, seconds):
        """Record a run of the reference kernel (from a signal handler) that
        just ended; summary() takes it out of the innermost span around it."""
        self.ticks.extend((time.perf_counter() - 0.5 * seconds, seconds))

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def root(self, fn, *args):
        """Call fn(*args) inside a root span; returns its result."""
        idx = self._open(0)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, t0, time.perf_counter())

    def wrap(self, name, fn):
        nid = self._id(name)
        counts_steps = name == "dynamics.propagate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_steps:
                self.steps += propagate_steps(
                    args[0], args[3], args[4] if len(args) > 4 else kwargs.get("cfg")
                )
            idx = self._open(nid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0, time.perf_counter())

        return traced

    def install(self):
        """Wrap every traced boundary at each attkit module that binds it."""
        pkg = importlib.import_module("attkit")
        mods = [pkg] + [importlib.import_module(f"attkit.{m}") for m in MODULES]
        for mod_name, names in BOUNDARIES.items():
            home = importlib.import_module(f"attkit.{mod_name}")
            for name in names:
                obj = getattr(home, name)
                label = f"{mod_name}.{name}"  # as in boundary_labels()
                if isinstance(obj, type):
                    self._patched.append((obj, "__init__", obj.__init__))
                    obj.__init__ = self.wrap(label, obj.__init__)
                    continue
                wrapper = self.wrap(label, obj)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is obj:
                            self._patched.append((mod, attr, val))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, val in reversed(self._patched):
            setattr(owner, attr, val)
        self._patched.clear()

    def summary(self):
        """Calls and self time per span name, the smallest self time, and the
        root spans' total duration without the kernel's time."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        # A kernel run interrupts Python between two statements, so it lies
        # wholly inside or wholly outside each span.
        stolen = np.zeros_like(dur)
        for mid, seconds in zip(self.ticks[::2], self.ticks[1::2]):
            inside = np.flatnonzero((start <= mid) & (end >= mid))
            if inside.size:
                stolen[inside[start[inside].argmax()]] += seconds
        self_t = dur - child - stolen
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_t, minlength=k)
        return {
            n: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }, float(self_t.min(initial=0.0)), float(dur[~has_parent].sum() - stolen.sum())

    def write(self, path):
        """Write the spans (name index, parent index, start, end) and the
        span names to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
