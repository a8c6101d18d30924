"""Layer tracing for the benchmark, done from the benchmark's own files.

The tracer wraps public functions and methods of ``resodrift`` inside the
benchmark process.  A module-level function is replaced in every module
that looks it up by name (``experiments.integrate``, ``averaging.flow_points``
and so on); a method is replaced on its class, under every alias.  Nothing
in ``src/`` changes and the wrappers are removed when tracing stops.

Every wrapped call pushes a frame on a per-thread stack.  Its self time is
its duration minus the time of the calls nested in it.  Calls at the two
finest boundaries, ``PolyField.__call__`` and ``FourierPerturbation.__call__``,
are only summed per name; every other call also leaves a span (id, parent,
name, start, end) that is kept in memory and written out at the end.

Worker threads (the epsilon sweep runs one per epsilon) start with an empty
stack; their first call becomes a root whose parent is the main thread's
open call.  Such roots overlap in time and mostly wait for the interpreter
lock, so calls in a worker are timed by the thread's CPU time, and the CPU
self times of each group of sibling roots are scaled to add up to the wall
time the roots cover.  The parent loses the covered time.  The layers' self
times then add up to no more than the wall time of the traced operations.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "poly", "fourier", "systems", "integrate", "averaging",
    "norms", "reduction", "experiments", "cli",
)

# (module, class or None, attribute, layer, kind).  "fine" calls are summed
# per name only; "span" calls also leave a span.  OrbitRecord.to_csv lives in
# integrate.py but writes a CLI artifact, so it belongs to the cli layer.
TARGETS = (
    ("resodrift.poly", "PolyField", "__call__", "poly", "fine"),
    ("resodrift.fourier", "FourierPerturbation", "__call__", "fourier", "fine"),
    ("resodrift.systems", "SystemBundle", "vector_field", "systems", "span"),
    ("resodrift.systems", "SystemBundle", "hamiltonian", "systems", "span"),
    ("resodrift.systems", "SystemBundle", "energy_of", "systems", "span"),
    ("resodrift.systems", None, "verify_channel_assumptions", "systems", "span"),
    ("resodrift.integrate", None, "integrate", "integrate", "span"),
    ("resodrift.integrate", None, "lie_flow", "integrate", "span"),
    ("resodrift.integrate", None, "flow_points", "integrate", "span"),
    ("resodrift.integrate", None, "symplecticity_defect", "integrate", "span"),
    ("resodrift.averaging", "GeneratorChi", "gradients", "averaging", "span"),
    ("resodrift.averaging", "GeneratorChi", "evaluate", "averaging", "span"),
    ("resodrift.averaging", "GeneratorChi", "c1_norm", "averaging", "span"),
    ("resodrift.averaging", None, "solve_homological", "averaging", "span"),
    ("resodrift.averaging", None, "genericity_check", "averaging", "span"),
    ("resodrift.averaging", None, "one_step_normal_form", "averaging", "span"),
    ("resodrift.averaging", None, "two_step_normal_form", "averaging", "span"),
    ("resodrift.norms", None, "estimate_cj_norm", "norms", "span"),
    ("resodrift.reduction", None, "reduce_system", "reduction", "span"),
    ("resodrift.experiments", None, "run_drift_experiment", "experiments", "span"),
    ("resodrift.experiments", None, "run_connecting_experiment", "experiments", "span"),
    ("resodrift.experiments", None, "sweep_epsilon", "experiments", "span"),
    ("resodrift.experiments", None, "optimality_check", "experiments", "span"),
    ("resodrift.cli", None, "main", "cli", "span"),
    ("resodrift.cli", None, "write_json", "cli", "span"),
    ("resodrift.cli", None, "write_csv", "cli", "span"),
    ("resodrift.cli", None, "emit_plots", "cli", "span"),
    ("resodrift.integrate", "OrbitRecord", "to_csv", "cli", "span"),
)

WRITERS = ("write_json", "write_csv", "emit_plots", "to_csv")

# Per-layer metrics in the order BENCHMARK.json lists them: (name, unit).
METRICS = (
    ("poly.calls", "count"),
    ("poly.scalar_us", "us"),
    ("poly.array_ns_per_point", "ns"),
    ("poly.self_s", "s"),
    ("fourier.calls", "count"),
    ("fourier.scalar_us", "us"),
    ("fourier.array_ns_per_point", "ns"),
    ("fourier.self_s", "s"),
    ("systems.rhs_calls", "count"),
    ("systems.rhs_us", "us"),
    ("systems.self_s", "s"),
    ("integrate.rhs_evals", "count"),
    ("integrate.steps", "count"),
    ("integrate.solver_us_per_step", "us"),
    ("integrate.flow_points_per_s", "1/s"),
    ("integrate.flow_points_self_s", "s"),
    ("integrate.lie_flow_s", "s"),
    ("integrate.self_s", "s"),
    ("averaging.gradients_ns_per_point", "ns"),
    ("averaging.c1_norm_s", "s"),
    ("averaging.homological_solves", "count"),
    ("averaging.fit_s", "s"),
    ("averaging.self_s", "s"),
    ("norms.cj_norm_s", "s"),
    ("norms.grid_points", "count"),
    ("norms.self_s", "s"),
    ("reduction.reduce_s", "s"),
    ("reduction.self_s", "s"),
    ("experiments.drift_s", "s"),
    ("experiments.connect_s", "s"),
    ("experiments.sweep_s", "s"),
    ("experiments.self_s", "s"),
    ("cli.write_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)

# Counts that must repeat exactly from round to round and run to run.
EXACT_COUNTS = (
    "integrate.rhs_evals",
    "integrate.steps",
    "averaging.homological_solves",
    "norms.grid_points",
)

# aggregate slots: calls, total, self, scalar calls, scalar time, array points, array time
_CALLS, _TOTAL, _SELF, _SCALAR_N, _SCALAR_T, _POINTS, _ARRAY_T = range(7)


def _shape_of(args):
    """(points, is_scalar) of the broadcast array arguments."""
    b = np.broadcast(*args)
    return b.size, b.nd == 0


def _points_method(args):
    return _shape_of(args[1:])


def _points_flow(args):
    # flow_points(chi, scale, t, theta1, theta2, I1, I2, ...)
    return _shape_of(args[3:7])


def _orbit_counts(record, counters):
    counters["integrate.rhs_evals"] += int(record.n_rhs_evals)
    counters["integrate.steps"] += int(record.n_steps)


def _norm_counts(report, counters):
    counters["norms.grid_points"] += int(np.prod(report.grid_shape))


POINTS = {
    "PolyField.__call__": _points_method,
    "FourierPerturbation.__call__": _points_method,
    "GeneratorChi.gradients": _points_method,
    "flow_points": _points_flow,
}
RESULTS = {"integrate": _orbit_counts, "estimate_cj_norm": _norm_counts}


class _ThreadState:
    __slots__ = ("stack", "agg", "spans", "counters", "xroots", "is_main", "cpu")

    def __init__(self, is_main):
        self.stack = []
        self.cpu = None if is_main else time.thread_time
        self.agg = defaultdict(lambda: [0, 0.0, 0.0, 0, 0.0, 0, 0.0])
        self.spans = []
        self.counters = defaultdict(int)
        self.xroots = []
        self.is_main = is_main


class Tracer:
    """Patches the targets in, records frames, and turns them into metrics."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._groups = itertools.count(1)
        self._main: _ThreadState | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            is_main = threading.current_thread() is threading.main_thread()
            st = _ThreadState(is_main)
            with self._lock:
                self._threads.append(st)
                if is_main:
                    self._main = st
            self._local.state = st
        return st

    def _wrap(self, fn, name, fine):
        points_fn = POINTS.get(name)
        result_fn = RESULTS.get(name)
        tracer = self
        wall = time.perf_counter

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if stack:
                parent, group = stack[-1][3], stack[-1][4]
            elif st.is_main:
                parent, group = 0, 0
            else:
                main_stack = tracer._main.stack if tracer._main else []
                parent = main_stack[-1][3] if main_stack else 0
                group = next(tracer._groups)
            span_id = 0 if fine else next(tracer._ids)
            frame = [name, 0.0, 0.0, span_id, group, parent]
            stack.append(frame)
            cpu = st.cpu
            frame[1] = start = wall()
            cpu0 = cpu() if cpu else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                end = wall()
                dur = cpu() - cpu0 if cpu else end - start
                stack.pop()
                slot = st.agg[(name, group)]
                slot[_CALLS] += 1
                slot[_TOTAL] += dur
                slot[_SELF] += dur - frame[2]
                if points_fn is not None:
                    n, scalar = points_fn(args)
                    if scalar:
                        slot[_SCALAR_N] += 1
                        slot[_SCALAR_T] += dur
                    else:
                        slot[_POINTS] += n
                        slot[_ARRAY_T] += dur
                if stack:
                    stack[-1][2] += dur
                elif cpu:
                    st.xroots.append((parent, group, start, end, dur))
                if not fine:
                    st.spans.append((span_id, parent, name, group, start, end))
            if result_fn is not None:
                result_fn(result, st.counters)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self):
        """Replace every target wherever a resodrift module names it."""
        owners = {name: importlib.import_module(name) for name, *_ in TARGETS}
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "resodrift" or n.startswith("resodrift."))]
        for modname, clsname, attr, layer, kind in TARGETS:
            owner = owners[modname]
            if clsname is None:
                fn = getattr(owner, attr)
                wrapped = self._wrap(fn, _name(None, attr), kind == "fine")
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapped)
            else:
                cls = getattr(owner, clsname)
                fn = cls.__dict__[attr]
                wrapped = self._wrap(fn, _name(clsname, attr), kind == "fine")
                for key, value in list(vars(cls).items()):
                    if value is fn:
                        self._patch(cls, key, wrapped)

    def _patch(self, owner, key, value):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- reduction to metrics --------------------------------------------------

    def spans(self) -> list:
        out = []
        for st in self._threads:
            out.extend(st.spans)
        return sorted(out, key=lambda s: s[4])

    def totals(self):
        """Per-name aggregates (scaled for overlapping worker threads) and counters."""
        agg = defaultdict(lambda: [0, 0.0, 0.0, 0, 0.0, 0, 0.0])
        raw = defaultdict(lambda: [0, 0.0, 0.0, 0, 0.0, 0, 0.0])
        counters = defaultdict(int)
        roots = defaultdict(list)
        parent_key = {}
        for st in self._threads:
            for key, slot in st.agg.items():
                target = raw[key]
                for i, v in enumerate(slot):
                    target[i] += v
            for key, value in st.counters.items():
                counters[key] += value
            for parent, group, start, end, cpu in st.xroots:
                roots[parent].append((group, start, end, cpu))
            for span_id, _parent, name, group, _s, _e in st.spans:
                parent_key[span_id] = (name, group)
        factor = {0: 1.0}
        covered_by = defaultdict(float)
        for parent, items in roots.items():
            covered = _union([(s, e) for _, s, e, _ in items])
            cpu = sum(c for *_, c in items)
            f = covered / cpu if cpu > 0 else 1.0
            for group, *_ in items:
                factor[group] = f
            if parent in parent_key:
                covered_by[parent_key[parent]] += covered
        for (name, group), slot in raw.items():
            f = factor.get(group, 1.0)
            target = agg[name]
            target[_CALLS] += slot[_CALLS]
            target[_SCALAR_N] += slot[_SCALAR_N]
            target[_POINTS] += slot[_POINTS]
            for i in (_TOTAL, _SELF, _SCALAR_T, _ARRAY_T):
                target[i] += f * slot[i]
        for (name, _group), covered in covered_by.items():
            agg[name][_SELF] -= covered
        return agg, counters


def _union(intervals) -> float:
    total, end = 0.0, -np.inf
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def _name(clsname, attr) -> str:
    return attr if clsname is None else f"{clsname}.{attr}"


LAYER_OF = {_name(clsname, attr): layer for _mod, clsname, attr, layer, _kind in TARGETS}


def layer_metrics(agg, counters, wall_s, bytes_written) -> dict:
    """Per-layer metric values from one traced round (overhead filled in later)."""

    def slot(name):
        return agg.get(name, [0, 0.0, 0.0, 0, 0.0, 0, 0.0])

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, s in agg.items():
        self_by_layer[LAYER_OF[name]] += s[_SELF]

    m = {}
    for layer, name in (("poly", "PolyField.__call__"), ("fourier", "FourierPerturbation.__call__")):
        s = slot(name)
        m[f"{layer}.calls"] = s[_CALLS]
        m[f"{layer}.scalar_us"] = per(s[_SCALAR_T], s[_SCALAR_N], 1e6)
        m[f"{layer}.array_ns_per_point"] = per(s[_ARRAY_T], s[_POINTS], 1e9)
    rhs = slot("SystemBundle.vector_field")
    m["systems.rhs_calls"] = rhs[_CALLS]
    m["systems.rhs_us"] = per(rhs[_TOTAL], rhs[_CALLS], 1e6)
    m["integrate.rhs_evals"] = counters.get("integrate.rhs_evals", 0)
    m["integrate.steps"] = counters.get("integrate.steps", 0)
    m["integrate.solver_us_per_step"] = per(slot("integrate")[_SELF], m["integrate.steps"], 1e6)
    flow = slot("flow_points")
    m["integrate.flow_points_per_s"] = per(flow[_POINTS], flow[_TOTAL], 1.0)
    m["integrate.flow_points_self_s"] = flow[_SELF]
    m["integrate.lie_flow_s"] = slot("lie_flow")[_TOTAL]
    grad = slot("GeneratorChi.gradients")
    m["averaging.gradients_ns_per_point"] = per(grad[_ARRAY_T], grad[_POINTS], 1e9)
    m["averaging.c1_norm_s"] = slot("GeneratorChi.c1_norm")[_TOTAL]
    m["averaging.homological_solves"] = slot("solve_homological")[_CALLS]
    m["averaging.fit_s"] = slot("two_step_normal_form")[_SELF]
    m["norms.cj_norm_s"] = slot("estimate_cj_norm")[_TOTAL]
    m["norms.grid_points"] = counters.get("norms.grid_points", 0)
    m["reduction.reduce_s"] = slot("reduce_system")[_TOTAL]
    m["experiments.drift_s"] = slot("run_drift_experiment")[_SELF]
    m["experiments.connect_s"] = slot("run_connecting_experiment")[_SELF]
    m["experiments.sweep_s"] = slot("sweep_epsilon")[_TOTAL]
    m["cli.write_s"] = sum((slot(n)[_TOTAL] for n in agg if n.split(".")[-1] in WRITERS), 0.0)
    m["cli.bytes_written"] = int(bytes_written)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - sum(self_by_layer.values())
    return m
