"""In-memory spans around calls into decoreg's modules, and the per-layer
table derived from them.

The tracer wraps a fixed list of public functions wherever a decoreg module
has bound them (the defining module for intra-module calls, and every module
that imported the name), so no source file of the package changes.  Each call
becomes one span: name, start, end, parent span and the trace id of the
sweep it belongs to.  Spans live in flat typed arrays and are written out
once, when the run ends.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

# (defining module, public name); the span is named "<module>.<name>", so
# the module is the layer
TRACED = [
    ("experiments", "run_scenario"),
    ("experiments", "generate_scenario"),
    ("experiments", "solve_vanishing"),
    ("certificates", "build_certificate"),
    ("solver", "ic_context"),
    ("solver", "minimize_ic_full"),
    ("solver", "minimize_ic_u"),
    ("guarantees", "strong_nsp_check"),
    ("guarantees", "stability_constants"),
    ("guarantees", "verify_bounds"),
    ("solver", "Problem"),
    ("solver", "solve_penalized"),
    ("norms", "project_dual_ball"),
    ("norms", "project_primal_ball"),
    ("linops", "power_iteration_norm"),
]
ROOT_SPAN = "cli.main"
NORM_KINDS = ("l1", "group", "nuclear")
# layers reported with .s and .calls; run_scenario's self time is
# experiments.self_s, and the dual-ball projection is split by norm kind
LAYERS = [
    f"{home}.{attr}" for home, attr in TRACED
    if attr not in ("run_scenario", "project_dual_ball")
] + [f"norms.project_dual_ball.{k}" for k in NORM_KINDS]
MODULES = ("cli", "experiments", "certificates", "guarantees", "solver", "norms", "linops")


class Tracer:
    """Span recorder; install() patches decoreg, uninstall() restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self.start = array("d")
        self.end = array("d")
        # span index -> (iterations, converged, gap, flops, lambda) of solver
        # calls; iterations is -1 for the IC programs
        self.attrs: dict[int, tuple[int, bool, float, float, float]] = {}
        self.trace_id = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.trace.append(self.trace_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self):
        """One sweep: a new trace id and its root ``cli.main`` span."""
        self.trace_id += 1
        idx = self._open(self._id(ROOT_SPAN))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        if name == "norms.project_dual_ball":
            kinds = {k: self._id(f"{name}.{k}") for k in NORM_KINDS}

            def nid_of(args, kwargs):
                norm = args[0] if args else kwargs["norm"]
                return kinds[norm.kind]
        else:
            fixed = self._id(name)

            def nid_of(args, kwargs):
                return fixed

        record = _ATTRS.get(name)
        attrs = self.attrs

        def traced(*args, **kwargs):
            idx = self._open(nid_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if record is not None:
                attrs[idx] = record(args, kwargs, result)
            return result

        return traced

    def install(self, decoreg) -> None:
        modules = [decoreg] + [getattr(decoreg, m) for m in MODULES]
        for home, attr in TRACED:
            original = getattr(getattr(decoreg, home), attr)
            wrapper = self._wrap(original, f"{home}.{attr}")
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self, decoreg):
        self.install(decoreg)
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        import numpy as np

        keys = sorted(self.attrs)
        vals = [self.attrs[k] for k in keys]
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            trace=np.frombuffer(self.trace, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            attr_span=np.array(keys, dtype=np.int64),
            attr_iterations=np.array([v[0] for v in vals], dtype=np.int64),
            attr_converged=np.array([v[1] for v in vals], dtype=bool),
            attr_gap=np.array([v[2] for v in vals], dtype=np.float64),
            attr_flops=np.array([v[3] for v in vals], dtype=np.float64),
            attr_lam=np.array([v[4] for v in vals], dtype=np.float64),
        )


def _solve_attrs(args, kwargs, report):
    p = args[0] if args else kwargs["p"]
    # two products with K = (Phi; L^*) per iteration, two flops per entry
    k_size = (p.phi.rows + p.l_adjoint.rows) * p.phi.cols
    flops = 4.0 * report.iterations * k_size
    return report.iterations, report.converged, float("nan"), flops, float(p.lam)


def _ic_attrs(args, kwargs, sol):
    return -1, sol.converged, sol.gap, 0.0, float("nan")


_ATTRS = {
    "solver.solve_penalized": _solve_attrs,
    "solver.minimize_ic_full": _ic_attrs,
    "solver.minimize_ic_u": _ic_attrs,
}

# metrics that count work; two traced passes over the same inputs must agree
# on them exactly
COUNT_SUFFIXES = (".calls", ".iterations", ".unconverged", ".matvec_flops", ".stages")
_UNITS = {".matvec_flops": "flop", ".ms_p50": "ms", ".ms_p90": "ms", ".us_per_iter": "us", ".gap_max": "1"}


def unit_of(metric: str) -> str:
    for suffix, unit in _UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count" if metric.endswith(COUNT_SUFFIXES) else "s"


def layer_table(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of the spans with index in [lo, hi), one pass."""
    import numpy as np

    n = hi - lo
    nid = np.frombuffer(tracer.name_id, dtype=np.int32)[lo:hi]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)[lo:hi].astype(np.int64) - lo
    dur = (
        np.frombuffer(tracer.end, dtype=np.float64)[lo:hi]
        - np.frombuffer(tracer.start, dtype=np.float64)[lo:hi]
    )
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child
    nnames = len(tracer.names)
    self_by = np.bincount(nid, weights=self_time, minlength=nnames)
    calls_by = np.bincount(nid, minlength=nnames)
    ids = tracer._ids

    def self_s(name):
        return float(self_by[ids[name]]) if name in ids else 0.0

    def calls(name):
        return int(calls_by[ids[name]]) if name in ids else 0

    out: dict[str, float] = {
        "cli.main.s": self_s(ROOT_SPAN),
        "cli.main.calls": calls(ROOT_SPAN),
        "experiments.self_s": self_s("experiments.run_scenario"),
    }
    for name in LAYERS:
        out[f"{name}.s"] = self_s(name)
        out[f"{name}.calls"] = calls(name)

    solves = np.nonzero(nid == ids.get("solver.solve_penalized", -1))[0]
    stage = has_parent[solves] & (
        nid[np.maximum(parent[solves], 0)] == ids.get("experiments.solve_vanishing", -1)
    )
    out["experiments.solve_vanishing.stages"] = int(np.sum(stage))

    solve_attrs = [tracer.attrs[lo + int(i)] for i in solves]
    iterations = sum(a[0] for a in solve_attrs)
    solve_ms = dur[solves] * 1e3
    p50, p90 = np.percentile(solve_ms, [50, 90]) if solves.size else (0.0, 0.0)
    out["solver.solve_penalized.iterations"] = iterations
    out["solver.solve_penalized.ms_p50"] = float(p50)
    out["solver.solve_penalized.ms_p90"] = float(p90)
    out["solver.solve_penalized.us_per_iter"] = (
        float(np.sum(dur[solves])) * 1e6 / iterations if iterations else 0.0
    )
    out["solver.solve_penalized.unconverged"] = sum(not a[1] for a in solve_attrs)
    out["solver.solve_penalized.matvec_flops"] = sum(a[3] for a in solve_attrs)

    ic_spans = np.nonzero(nid == ids.get("solver.minimize_ic_full", -1))[0]
    ic_attrs = [tracer.attrs[lo + int(i)] for i in ic_spans]
    out["solver.minimize_ic_full.unconverged"] = sum(not a[1] for a in ic_attrs)
    out["solver.minimize_ic_full.gap_max"] = max((a[2] for a in ic_attrs), default=0.0)
    return out


def trial_iterations(tracer: Tracer, lo: int, hi: int) -> list[tuple[int, float, int]]:
    """(trace id, lambda, iterations) of every solve in [lo, hi) that is a
    trial rather than a continuation stage, in call order."""
    stage_parent = tracer._ids.get("experiments.solve_vanishing", -1)
    out = []
    for idx in range(lo, hi):
        attrs = tracer.attrs.get(idx)
        if attrs is None or attrs[0] < 0:
            continue
        if tracer.parent[idx] >= 0 and tracer.name_id[tracer.parent[idx]] == stage_parent:
            continue
        out.append((tracer.trace[idx], attrs[4], attrs[0]))
    return out
