"""The benchmark's workloads: inputs made from a seed, one timed execution,
and the check of every output.

Each workload turns ``--seed`` into a plan: a list of executions, each a
list of ``Job``s (one scenario document plus the overrides generated for
it). The timed phase runs the plan's executions round-robin. The library
is reached only through module attributes looked up at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import re
import sys
import tracemalloc
from dataclasses import dataclass
from importlib import resources

import numpy as np

from crosswind import cli, harness
from crosswind import scenario as sc

BAND = cli.DEFAULT_BAND
# Set-up runs one control step; every workload's documents use ts = 0.1 s.
SETUP_DURATION = "0.1"
REF_ATOL = 1e-9  # command and roll columns must stay this close to the references
QP_STATUSES = {harness.QP_NONE, harness.QP_OPTIMAL, harness.QP_FALLBACK}

# A constrained MPC that the 15 lb step drives into its limits: the weight
# needs about 367 N m, so a 380 N m actuator binds the box constraints,
# and the output band adds row constraints the QP must carry.
QP_ACTIVE_DOC = """\
[scenario]
plant = simplified
controller = mpc_constrained
estimator = pole_place
feedforward = true
duration = 40.0
ts = 0.1
noise_std = 0.002

[plant_params]
torque_limit = 380.0

[mpc]
output_min = -0.01
output_max = 0.01

[weights]
side = left
schedule = 10:15
"""

# PID answers a 25 s square disturbance too slowly to re-enter the band
# before the next edge; only these runs are exempt from the settling check.
LIGHT_LOOPS = (
    ("fig2_pid_steady", True),
    ("fig3_pid_square", False),
    ("fig8_pid_weight_step", True),
    ("fig9_pid_weight_square", False),
    ("fig10_unconstrained_weight_step", True),
    ("fig11_unconstrained_weight_square", True),
)
MONTECARLO_SCENARIO = "fig9_mpc_weight_square"
FULLPLANT_SCENARIO = "fullplant_weight_step"


@dataclass(frozen=True)
class Job:
    """One scenario run: a document and the overrides generated for it."""

    label: str
    text: str
    rng_seed: int
    must_settle: bool = True

    def parse(self, **extra):
        overrides = {"scenario.rng_seed": str(self.rng_seed), **extra}
        return sc.parse_scenario(self.text, overrides=overrides)


@dataclass
class Outcome:
    """What one job produced: a trace (direct runs) or a sweep line (CLI)."""

    job: Job
    cfg: object = None
    trace: list | None = None
    metrics: object = None
    line: str | None = None
    error: str | None = None


def rng_seeds(workload: str, seed: int, count: int) -> list:
    """Distinct ``scenario.rng_seed`` values; the same seed gives the same list."""
    return random.Random(f"{workload}:{seed}").sample(range(1, 2**31), count)


def bundled_text(name: str) -> str:
    return (resources.files("crosswind") / "scenarios" / f"{name}.cfg").read_text(encoding="utf-8")


def run_jobs(jobs, out_dir=None) -> list:
    """Parse, run and measure each job like ``crosswind run [--out]``."""
    outcomes = []
    for job in jobs:
        try:
            cfg = job.parse()
            trace = harness.run_scenario(cfg)
            metrics = harness.compute_metrics(trace, BAND, cfg.event_times())
            if out_dir is not None:
                harness.write_trace(trace, os.path.join(out_dir, job.label + ".csv"))
        except Exception as exc:  # a failed run is counted; the others still run
            outcomes.append(Outcome(job, error=repr(exc)))
            continue
        outcomes.append(Outcome(job, cfg, trace, metrics))
    return outcomes


def set_up(jobs) -> None:
    """Parse every config and run it for one control step."""
    for job in jobs:
        trace = harness.run_scenario(job.parse(**{"scenario.duration": SETUP_DURATION}))
        if len(trace) != 1:
            raise RuntimeError(f"{job.label}: set-up ran {len(trace)} steps, expected 1")


def peak_alloc(job):
    """Run one config under tracemalloc; returns (outcome, peak bytes)."""
    cfg = job.parse()
    tracemalloc.start()
    try:
        trace = harness.run_scenario(cfg)
        metrics = harness.compute_metrics(trace, BAND, cfg.event_times())
        peak = tracemalloc.get_traced_memory()[1]
    except Exception as exc:  # counted as a failed run
        return Outcome(job, error=repr(exc)), 0
    finally:
        tracemalloc.stop()
    return Outcome(job, cfg, trace, metrics), peak


def run_sweep(jobs, out_dir=None) -> list:
    """One ``crosswind sweep`` over the jobs' rng seeds, in process."""
    scenario_name = jobs[0].label.split("@")[0]
    argv = ["sweep", scenario_name, "--param", "scenario.rng_seed",
            "--values", ",".join(str(j.rng_seed) for j in jobs)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    lines = out.getvalue().splitlines()
    if code != 0 or len(lines) != len(jobs):
        error = f"sweep exited {code} after {len(lines)} of {len(jobs)} lines"
        return [Outcome(j, error=error) for j in jobs]
    return [Outcome(j, line=line) for j, line in zip(jobs, lines)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    plan: object  # seed -> list of executions, each a list of Jobs
    execute: object  # (jobs, out_dir) -> list of Outcomes
    writes_traces: bool = False


def _montecarlo_plan(seed):
    text = bundled_text(MONTECARLO_SCENARIO)
    return [[Job(f"{MONTECARLO_SCENARIO}@{s}", text, s)
             for s in rng_seeds("mpc_montecarlo", seed, 3)]]


def _fullplant_plan(seed):
    text = bundled_text(FULLPLANT_SCENARIO)
    return [[Job(f"{FULLPLANT_SCENARIO}@{s}", text, s)]
            for s in rng_seeds("fullplant", seed, 3)]


def _qp_active_plan(seed):
    return [[Job(f"qp_active@{s}", QP_ACTIVE_DOC, s)]
            for s in rng_seeds("qp_active", seed, 24)]


def _light_plan(seed):
    seeds = rng_seeds("light_loops", seed, len(LIGHT_LOOPS))
    return [[Job(f"{name}@{s}", bundled_text(name), s, settles)
             for (name, settles), s in zip(LIGHT_LOOPS, seeds)]]


WORKLOADS = {w.name: w for w in (
    Workload("mpc_montecarlo",
             "noise Monte Carlo of constrained MPC through crosswind sweep: "
             "qpsolve's fast path and controller overhead dominate, the plant does little",
             _montecarlo_plan, run_sweep),
    Workload("fullplant",
             "full nonlinear plant under constrained MPC: RK4 substeps in plant take "
             "about 75% of a run, the QP fast path about 12%",
             _fullplant_plan, run_jobs),
    Workload("qp_active",
             "constrained MPC at a 380 N m limit with an output band: box constraints "
             "bind, so Hildreth sweeps and polish dominate and some steps fall back",
             _qp_active_plan, run_jobs),
    Workload("light_loops",
             "PID and closed-form MPC loops with metrics and trace CSVs: no QP and no RK4, "
             "so harness loop and trace output carry the time",
             _light_plan, run_jobs, writes_traces=True),
)}


# ---------------------------------------------------------------------------
# output checks


def load_refs(path) -> dict:
    if not os.path.exists(path):
        return {}
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


_COLUMNS = ("theta", "theta_dot", "wingtip_disp", "cmd_torque", "applied_torque",
            "tau_w_true", "tau_w_hat", "tau_w_hat_filtered")


def trace_columns(trace) -> dict:
    values = np.array([[getattr(r, c) for c in _COLUMNS] for r in trace], dtype=float)
    return {c: values[:, i] for i, c in enumerate(_COLUMNS)}


def check_trace(job: Job, cfg, trace, metrics, refs: dict) -> list:
    """Problems found in one trace; empty when it passes.

    Where the references hold this job, theta and cmd_torque must match
    them within REF_ATOL. Every trace must also have finite columns, a
    causal delay line, |applied| within the limit, documented qp_status
    values, and (unless exempt) settle after each disturbance event.
    """
    problems = []
    n_steps = round(cfg.duration / cfg.Ts)
    if len(trace) != n_steps:
        return [f"{job.label}: {len(trace)} rows, expected {n_steps}"]
    cols = trace_columns(trace)
    for name in ("theta", "cmd_torque"):
        ref = refs.get(f"{job.label}:{name}")
        if ref is None:
            continue
        if ref.shape != cols[name].shape:
            problems.append(f"{job.label}: {name} has {cols[name].size} rows, reference {ref.size}")
            continue
        err = float(np.max(np.abs(cols[name] - ref)))
        if not err <= REF_ATOL:
            problems.append(f"{job.label}: {name} differs from the reference by {err:.3e}")
    for name in _COLUMNS[:6]:
        if not np.all(np.isfinite(cols[name])):
            problems.append(f"{job.label}: non-finite {name}")
    has_estimator = cfg.estimator_kind != "none"
    for name in _COLUMNS[6:]:
        ok = np.all(np.isfinite(cols[name])) if has_estimator else np.all(np.isnan(cols[name]))
        if not ok:
            problems.append(f"{job.label}: unexpected {name} values")
    limit = cfg.plant_params.torque_limit
    kd = round(cfg.plant_params.input_delay_Td / cfg.Ts)
    if not np.max(np.abs(cols["applied_torque"])) <= limit:
        problems.append(f"{job.label}: |applied_torque| exceeds {limit}")
    if not harness.check_causality(trace, kd, limit):
        problems.append(f"{job.label}: check_causality failed")
    statuses = {r.qp_status for r in trace}
    expected = QP_STATUSES - {harness.QP_NONE} if cfg.controller == "mpc_constrained" \
        else {harness.QP_NONE}
    if not statuses <= expected:
        problems.append(f"{job.label}: qp_status values {sorted(statuses - expected)}")
    if job.must_settle and not metrics.settled:
        problems.append(f"{job.label}: does not settle within {BAND} m after every event")
    return problems


_SWEEP_LINE = re.compile(r"scenario\.rng_seed=(\d+): settling_time_s=(\S+) peak_disp_m=(\S+)")


def check_line(job: Job, line: str, refs: dict) -> list:
    """Problems in one printed sweep line: equal to the reference, or well formed."""
    ref = refs.get(f"{job.label}:line")
    if ref is not None:
        return [] if line == str(ref) else [f"{job.label}: sweep line {line!r}, reference {str(ref)!r}"]
    m = _SWEEP_LINE.fullmatch(line)
    if m is None or int(m.group(1)) != job.rng_seed:
        return [f"{job.label}: malformed sweep line {line!r}"]
    try:
        settling, peak = float(m.group(2)), float(m.group(3))
    except ValueError:
        return [f"{job.label}: not settled: {line!r}"]
    if not (math.isfinite(settling) and settling >= 0 and math.isfinite(peak) and peak > 0):
        return [f"{job.label}: implausible sweep line {line!r}"]
    return []


def check_outcome(o: Outcome, refs: dict) -> list:
    if o.error is not None:
        return [f"{o.job.label}: {o.error}"]
    if o.line is not None:
        return check_line(o.job, o.line, refs)
    return check_trace(o.job, o.cfg, o.trace, o.metrics, refs)


class Tally:
    """Attempted and failed scenario runs, and fallback steps seen in traces."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.attempted = self.failed = 0
        self.constrained_steps = self.fallback_steps = 0

    def check(self, outcomes) -> None:
        for o in outcomes:
            self.attempted += 1
            problems = check_outcome(o, self.refs)
            if problems:
                self.failed += 1
                for p in problems:
                    print(f"check failed: {p}", file=sys.stderr)
            if o.trace is not None and o.cfg.controller == "mpc_constrained":
                self.constrained_steps += len(o.trace)
                self.fallback_steps += sum(r.qp_status == harness.QP_FALLBACK for r in o.trace)

    @property
    def fallback_frac(self) -> float:
        return self.fallback_steps / self.constrained_steps if self.constrained_steps else 0.0
