"""Span recording for the traced benchmark run.

Spans come from wrapping the library's public functions at the names the
library calls them through (their binding sites), from inside the
benchmark process; nothing in ``src/`` changes. A span is
``(name_id, start_ns, end_ns, parent_index)``; the spans of one recorded
call share a run id. Spans stay in memory until ``save`` writes them out,
and leaving the ``Tracer`` context puts every original function back.
"""

from __future__ import annotations

import time

import numpy as np

ROOT = "bench.execution"


def binding_sites():
    """(owner, attribute, span name) for every wrapped call.

    The span name's first component is the layer: the library module the
    wrapped function belongs to.
    """
    from crosswind import cli, controllers, harness, plant, scenario

    est, ctrl = harness.est, harness.ctrl
    return [
        (cli, "main", "cli.main"),
        (cli, "load_bundled_scenario", "scenario.load_bundled_scenario"),
        (cli, "run_scenario", "harness.run_scenario"),
        (cli, "compute_metrics", "harness.compute_metrics"),
        (scenario, "parse_scenario", "scenario.parse_scenario"),
        (harness, "run_scenario", "harness.run_scenario"),
        (harness, "compute_metrics", "harness.compute_metrics"),
        (harness, "write_trace", "harness.write_trace"),
        (harness, "discretize_zoh", "model.discretize_zoh"),
        (harness, "measure_roll", "plant.measure_roll"),
        (est, "place_observer_gain", "estimator.place_observer_gain"),
        (est, "solve_filter_are", "estimator.solve_filter_are"),
        (est, "kalman_gain", "estimator.kalman_gain"),
        (est, "observer_step", "estimator.observer_step"),
        (ctrl, "build_prediction", "controllers.build_prediction"),
        (ctrl, "pid_step", "controllers.pid_step"),
        (ctrl, "mpc_constrained_step", "controllers.mpc_constrained_step"),
        (ctrl, "mpc_unconstrained_step", "controllers.mpc_unconstrained_step"),
        (ctrl, "feedforward_compensate", "controllers.feedforward_compensate"),
        (controllers, "QpProblem", "qpsolve.QpProblem"),
        (controllers, "solve_qp", "qpsolve.solve_qp"),
        (plant, "step_full_plant", "plant.step_full_plant"),
        (plant.SimplifiedPlantSimulator, "apply_command", "plant.apply_command"),
        (plant.FullPlantSimulator, "apply_command", "plant.apply_command"),
    ]


def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Calls nest (one thread, wrappers close in ``finally``), so a child's
    interval lies inside its parent's and children never overlap.
    """
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3]
    covered = np.zeros(len(spans), dtype=np.int64)
    inner = parent >= 0
    np.add.at(covered, parent[inner], dur[inner])
    return dur - covered


class Tracer:
    """Context manager that wraps the binding sites while it is open.

    ``record(fn, ...)`` calls ``fn`` under a root span and keeps that
    call's spans as one run. ``solve_qp`` results are kept in ``qp`` as
    ``(status, iterations, max_iters, active, kkt_residual)``.
    """

    def __init__(self, sites):
        self.sites = sites
        self.names: list = []
        self.runs: list = []  # one int64 array (n, 4) per recorded call
        self.qp: list = []
        self._spans: list = []
        self._stack: list = [-1]
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        spans, stack, clock = self._spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)

        return traced

    def _wrap_solver(self, name: str, fn, default_max_iters: int):
        traced = self._wrap(name, fn)
        qp = self.qp

        def solve(p, *args, **kwargs):
            sol = traced(p, *args, **kwargs)
            max_iters = kwargs.get("max_iters", args[1] if len(args) > 1 else default_max_iters)
            qp.append((sol.status, sol.iterations, max_iters,
                       int(np.count_nonzero(sol.multipliers > 0)), sol.kkt_residual))
            return sol

        return solve

    def __enter__(self):
        from crosswind.qpsolve import DEFAULT_MAX_ITERS

        for owner, attr, name in self.sites:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if attr == "solve_qp":
                wrapped = self._wrap_solver(name, original, DEFAULT_MAX_ITERS)
            else:
                wrapped = self._wrap(name, original)
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def record(self, fn, *args, **kwargs):
        """Call fn as the root span of a new run and keep the run's spans."""
        self._spans.clear()
        self._stack[:] = [-1]
        try:
            return self._wrap(ROOT, fn)(*args, **kwargs)
        finally:
            self.runs.append(np.array(self._spans, dtype=np.int64).reshape(-1, 4))
            self._spans.clear()

    def save(self, path) -> None:
        """Write every recorded span as columns run, name, start_ns, end_ns, parent."""
        rows = [np.column_stack([np.full(len(r), i, dtype=np.int64), r])
                for i, r in enumerate(self.runs)]
        spans = np.concatenate(rows) if rows else np.zeros((0, 5), dtype=np.int64)
        np.savez(path, names=np.array(self.names), spans=spans)


# ---------------------------------------------------------------------------
# per-layer metrics

LAYERS = ("scenario", "model", "estimator", "controllers", "qpsolve", "plant", "harness", "cli")
CONTROLLER_STEPS = ("controllers.pid_step", "controllers.mpc_constrained_step",
                    "controllers.mpc_unconstrained_step")
DESIGN = ("estimator.place_observer_gain", "estimator.solve_filter_are", "estimator.kalman_gain")


class SpanTable:
    """All spans of some runs as flat columns (us), with their self times."""

    def __init__(self, names, runs):
        rows = [r for r in runs if len(r)] or [np.zeros((0, 4), dtype=np.int64)]
        spans = np.concatenate(rows)
        self.names = list(names)
        self.ids = spans[:, 0]
        self.dur = (spans[:, 2] - spans[:, 1]) / 1e3
        self.self_ = np.concatenate([self_times(r) for r in rows]) / 1e3

    def _mask(self, names) -> np.ndarray:
        return np.isin(self.ids, [i for i, n in enumerate(self.names) if n in names])

    def durations(self, *names) -> np.ndarray:
        return self.dur[self._mask(names)]

    def self_of(self, *names) -> float:
        return float(self.self_[self._mask(names)].sum())

    def layer_self(self, layer: str) -> float:
        names = [n for n in self.names if n.split(".")[0] == layer]
        return float(self.self_[self._mask(names)].sum())


def _mean(a) -> float:
    return float(np.mean(a)) if len(a) else 0.0


def _pct(a, q) -> float:
    return float(np.percentile(a, q)) if len(a) else 0.0


def setup_metrics(names, runs) -> dict:
    """Medians over set-up repetitions, each covering every config of the workload (ms)."""
    per_rep = [SpanTable(names, [r]) for r in runs]

    def med(f):
        return float(np.median([f(t) for t in per_rep])) / 1e3

    return {
        "scenario.parse_ms": med(lambda t: t.layer_self("scenario")),
        "model.discretize_ms": med(lambda t: t.durations("model.discretize_zoh").sum()),
        "estimator.design_ms": med(lambda t: t.durations(*DESIGN).sum()),
        "controllers.build_prediction_ms":
            med(lambda t: t.durations("controllers.build_prediction").sum()),
    }


def qp_metrics(qp: list, n_exec: int) -> dict:
    """solve_qp outcomes per execution, from each returned QpSolution."""
    status = [s[0] for s in qp]
    iters = np.array([s[1] for s in qp], dtype=float)
    optimal = status.count("optimal")
    early = sum(1 for s in qp if s[0] == "max_iters" and s[1] < s[2])
    kkt = [s[4] for s in qp if s[0] == "optimal"]
    return {
        "qpsolve.calls": len(qp) / n_exec,
        "qpsolve.fast_path": sum(1 for s in qp if s[0] == "optimal" and s[1] == 0) / n_exec,
        "qpsolve.sweep_path": float(np.count_nonzero(iters > 0)) / n_exec,
        "qpsolve.sweeps": float(iters.sum()) / n_exec,
        "qpsolve.active_max": float(max((s[3] for s in qp), default=0)),
        "qpsolve.kkt_residual_max": float(max(kkt, default=0.0)),
        "qpsolve.infeasible": status.count("infeasible") / n_exec,
        "qpsolve.max_iters": status.count("max_iters") / n_exec,
        "qpsolve.max_iters_early": early / n_exec,
        "qpsolve.optimal_ratio": optimal / len(qp) if qp else 0.0,
    }


def loop_metrics(names, runs, n_steps: int) -> dict:
    """Per-layer numbers of the traced timed phase (us unless named otherwise)."""
    t = SpanTable(names, runs)
    n_exec = len(runs)
    wall = float(t.durations(ROOT).sum())
    steps = t.durations(*CONTROLLER_STEPS)
    solves = t.durations("qpsolve.solve_qp")
    metrics = {
        "estimator.observer_us": _mean(t.durations("estimator.observer_step")),
        "controllers.step_calls": len(steps) / n_exec,
        "controllers.step_us_p50": _pct(steps, 50),
        "controllers.step_us_p99": _pct(steps, 99),
        "controllers.self_us": t.layer_self("controllers") / n_steps,
        "qpsolve.problem_us": _mean(t.durations("qpsolve.QpProblem")),
        "qpsolve.solve_us_p50": _pct(solves, 50),
        "qpsolve.solve_us_p99": _pct(solves, 99),
        "plant.substeps": len(t.durations("plant.step_full_plant")) / n_exec,
        "plant.substep_us": _mean(t.durations("plant.step_full_plant")),
        "plant.apply_us": _mean(t.durations("plant.apply_command")),
        "plant.measure_us": _mean(t.durations("plant.measure_roll")),
        "harness.loop_self_us": t.self_of("harness.run_scenario") / n_steps,
        "harness.write_trace_ms": float(t.durations("harness.write_trace").sum()) / n_exec / 1e3,
        "harness.metrics_ms": float(t.durations("harness.compute_metrics").sum()) / n_exec / 1e3,
        "cli.self_ms": t.self_of("cli.main") / n_exec / 1e3,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = 100.0 * t.layer_self(layer) / wall if wall else 0.0
    return metrics
