"""Closed-loop simulation runner, its trace, and response metrics.

A run's trace is a Trace: one row of nine floats per control step in a
store allocated before the loop, plus a qp_status list, read as a
sequence of TraceRecord rows. Each step of the loop is: measure,
controller step (PID on the filtered measurement, MPC on the observer
state), feed-forward subtraction and the one clip to the torque limit,
push the command into the shared delay buffer, advance the observer
with the same delayed command the plant receives, then step the plant.
The controller consumes the observer estimate from before this step's
update so the kd-sample shift stays aligned with the buffered commands.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from . import controllers as ctrl
from . import estimator as est
from .errors import PlantDivergenceError, QpInfeasibleError
from .model import augment, continuous_roll_model, discretize_zoh
from .plant import (
    FullPlantSimulator,
    FullPlantState,
    InputBuffer,
    RollState,
    SimplifiedPlantSimulator,
    measure_roll,
)
from .scenario import ScenarioConfig, build_named

QP_NONE = "none"
QP_OPTIMAL = "optimal"
QP_FALLBACK = "infeasible_fallback"


@dataclass(slots=True)  # not frozen: a frozen record takes four times as long to build
class TraceRecord:
    """One control step of a scenario run; wingtip_disp = theta * d/2."""

    t: float
    theta: float
    theta_dot: float
    wingtip_disp: float
    cmd_torque: float
    applied_torque: float
    tau_w_true: float
    tau_w_hat: float
    tau_w_hat_filtered: float
    qp_status: str


# the trace's columns, in CSV order: every float column, then qp_status
TRACE_HEADER = ",".join(f.name for f in fields(TraceRecord))
_FLOAT_COLUMNS = TRACE_HEADER.split(",")[:-1]
_floats_of = attrgetter(*_FLOAT_COLUMNS)


class Trace(Sequence):
    """A run's trace, stored as columns and read as TraceRecord rows.

    ``floats`` has one row per step and one column per float field, in
    CSV order; ``qp_status`` holds each step's status. ``trace[k]`` (k
    may be negative) and iteration build TraceRecords, a slice is a new
    Trace over a copy of its rows, and ``trace[k] = record`` writes
    through to the store.
    """

    __slots__ = ("floats", "qp_status")

    def __init__(self, floats: np.ndarray, qp_status: list):
        self.floats = floats
        self.qp_status = qp_status

    @classmethod
    def of(cls, rows) -> Trace:
        """``rows`` if it is a Trace, else its TraceRecords gathered into one."""
        if isinstance(rows, Trace):
            return rows
        rows = list(rows)
        floats = np.fromiter(map(_floats_of, rows), dtype=(float, len(_FLOAT_COLUMNS)),
                             count=len(rows))
        return cls(floats, [r.qp_status for r in rows])

    def column(self, name: str) -> np.ndarray:
        """The float column ``name``, a view of the store."""
        return self.floats[:, _FLOAT_COLUMNS.index(name)]

    def __len__(self) -> int:
        return len(self.qp_status)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Trace(self.floats[k].copy(), self.qp_status[k])
        return TraceRecord(*self.floats[k].tolist(), self.qp_status[k])

    def __setitem__(self, k: int, record: TraceRecord) -> None:
        self.floats[k] = _floats_of(record)
        self.qp_status[k] = record.qp_status

    def __iter__(self):
        return map(TraceRecord, *self.floats.T.tolist(), self.qp_status)

    def __repr__(self) -> str:
        return f"Trace({list(self)!r})"


def run_scenario(cfg: ScenarioConfig) -> Trace:
    """Run one closed-loop scenario; returns its Trace, one row per step.

    The observer, the controller and the plant are chosen once, before
    the loop, and so is the trace's store. QP infeasibility falls back to
    the saturated closed-form law and flags the step; plant divergence
    raises PlantDivergenceError carrying the step, its time, a copy of
    the trace's rows up to that step and the last finite plant state. A
    roll model, observer or MPC design that fails is a ScenarioError
    naming its keys or section.
    """
    rp = cfg.plant_params
    limit = rp.torque_limit
    # a ScenarioConfig's delay and Ts discretize, so only the keys of A_c can fail here
    dm = build_named("plant_params.inertia, plant_params.stiffness, plant_params.damping",
                     discretize_zoh, continuous_roll_model(rp), cfg.Ts, rp.input_delay_Td)
    buffer = InputBuffer(dm.kd)
    observer, observe = _observer(cfg, augment(dm))
    control = _controller(cfg, dm, buffer)
    plant = _plant(cfg, dm)
    rng = np.random.default_rng(cfg.rng_seed)
    half_span = rp.wingspan_d / 2.0
    torque_at = cfg.disturbance.on_grid(cfg.Ts).at
    n = round(cfg.duration / cfg.Ts)
    trace = Trace(np.empty((n, len(_FLOAT_COLUMNS))), [QP_NONE] * n)
    floats, statuses = trace.floats, trace.qp_status

    for k in range(n):
        t = k * cfg.Ts
        tau_w = torque_at(t)
        y = measure_roll(plant.state, cfg.noise_std, rng)
        wind_ff = observer.filtered_tau_w if cfg.feedforward else 0.0
        fb, qp_status = control(y, observer, wind_ff)
        # the one clip of the command (wind_ff is 0 without feed-forward); the
        # plant gets the command kd steps later as it is
        cmd = ctrl.feedforward_compensate(fb, wind_ff, limit)
        applied = buffer.push(cmd)
        state = plant.state
        floats[k] = (t, state.theta, state.theta_dot, state.theta * half_span, cmd, applied,
                     tau_w, observer.tau_w_hat, observer.filtered_tau_w)
        statuses[k] = qp_status
        observer = observe(observer, y, applied)
        try:
            plant.apply_command(applied, tau_w)
        except PlantDivergenceError as exc:
            raise PlantDivergenceError(str(exc), step=k, partial_trace=trace[:k + 1], t=t,
                                       state=plant.state) from None

    return trace


def _observer(cfg: ScenarioConfig, am):
    """Initial observer state and its update; NaN estimates that never change without one."""
    if cfg.estimator_kind == "none":
        nan = float("nan")
        return est.ObserverState(tau_w_hat=nan, filtered_tau_w=nan), lambda obs, y, u: obs
    if cfg.estimator_kind == "pole_place":
        gain = build_named("estimator_params", est.place_observer_gain, am, cfg.observer_poles)
    else:
        P = build_named("estimator_params", est.solve_filter_are, am, cfg.kalman)
        gain = build_named("estimator_params", est.kalman_gain, am, P, cfg.kalman.R)
    step, alpha = est.observer_step, cfg.torque_filter_alpha
    return est.ObserverState(), lambda obs, y, u: step(obs, y, u, gain, am, filter_alpha=alpha)


def _controller(cfg: ScenarioConfig, dm, buffer: InputBuffer):
    """The feedback step (y, observer, wind_ff) -> (command, qp_status).

    PID acts on the measurement, MPC on the observer state from before
    this step's update, whose theta and theta_dot it reads as the roll state.
    """
    limit = cfg.plant_params.torque_limit
    if cfg.controller == "pid":
        pid_cfg, pid_step = cfg.pid, ctrl.pid_step
        pid_state = ctrl.PidState.fresh(pid_cfg)
        return lambda y, observer, wind_ff: (pid_step(pid_state, y, pid_cfg, limit), QP_NONE)

    mpc_cfg = cfg.mpc
    stack = build_named("mpc", ctrl.build_prediction, dm, mpc_cfg)
    closed_form, constrained = ctrl.mpc_unconstrained_step, ctrl.mpc_constrained_step
    if cfg.controller == "mpc_unconstrained":
        return lambda y, observer, wind_ff: (
            closed_form(observer, buffer, stack, limit, wind_estimate=wind_ff), QP_NONE)

    starts = ctrl.ActiveSets()  # this run's own, so no trace depends on an earlier run

    def qp(y, observer, wind_ff):
        try:
            return (constrained(observer, buffer, stack, mpc_cfg, wind_estimate=wind_ff,
                                starts=starts), QP_OPTIMAL)
        except QpInfeasibleError:
            return closed_form(observer, buffer, stack, limit, wind_estimate=wind_ff), QP_FALLBACK

    return qp


def _plant(cfg: ScenarioConfig, dm):
    """The plant, whose apply_command(applied, tau_w) steps one control interval."""
    if cfg.plant_kind == "simplified":
        return SimplifiedPlantSimulator(
            dm, cfg.plant_params, state=RollState(cfg.initial_theta, cfg.initial_theta_dot))
    return FullPlantSimulator(
        cfg.plant_params, cfg.Ts, motor=cfg.motor, inner_dt=cfg.inner_dt,
        state=FullPlantState(theta=cfg.initial_theta, theta_dot=cfg.initial_theta_dot))


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class EventMetrics:
    """Per-disturbance-event response numbers (times relative to the event)."""

    event_time: float
    window_end: float
    settling_time: float | None  # None when the band is never held
    peak_disp: float

    @property
    def settled(self) -> bool:
        return self.settling_time is not None


@dataclass(frozen=True)
class Metrics:
    """Headline response metrics of one trace (band in wingtip meters)."""

    band: float
    per_event: tuple
    settling_time: float | None  # after the final disturbance event
    peak_disp: float
    settled: bool


def compute_metrics(trace: Trace | list, band: float, events: list | None = None) -> Metrics:
    """Settling time and peak per disturbance event.

    Settling is the first instant after the event from which the wingtip
    displacement magnitude stays within the band until the next event
    (reported relative to the event time); the not-settled case is
    flagged with settling_time None.
    """
    if not 0 < band < np.inf:  # NaN fails too
        raise ValueError(f"band must be finite and > 0, got {band}")
    trace = Trace.of(trace)
    if not trace:
        raise ValueError("empty trace")
    t = trace.column("t")
    disp = np.abs(trace.column("wingtip_disp"))
    end_time = t[-1] + (t[1] - t[0] if len(t) > 1 else 0.0)
    events = sorted(events or [t[0]])
    per_event = []
    for ev, nxt in zip(events, events[1:] + [end_time]):
        idx = np.flatnonzero((t >= ev - 1e-12) & (t < nxt - 1e-12))
        seg = disp[idx]
        # the band holds from just after the last sample outside it (NaN is outside)
        outside = np.flatnonzero(~(seg <= band))
        holds = outside[-1] + 1 if outside.size else 0
        settling = float(t[idx[holds]] - ev) if holds < seg.size else None
        per_event.append(EventMetrics(ev, nxt, settling, float(np.max(seg, initial=0.0))))

    return Metrics(
        band=band,
        per_event=tuple(per_event),
        settling_time=per_event[-1].settling_time,
        peak_disp=float(np.max(disp)),
        settled=all(e.settled for e in per_event),
    )


def response_time(m: Metrics) -> float:
    """Final-event response time; a not-settled run counts its full window."""
    final = m.per_event[-1]
    if final.settling_time is not None:
        return final.settling_time
    return final.window_end - final.event_time


def response_reduction(baseline: Metrics, candidate: Metrics) -> float:
    """Percent reduction of the candidate's response time vs the baseline."""
    b = response_time(baseline)
    c = response_time(candidate)
    if b <= 0:
        raise ValueError("baseline response time must be positive")
    return (b - c) / b * 100.0


# ---------------------------------------------------------------------------
# trace I/O


def write_trace(trace: Trace | list, path: str) -> None:
    """Write the trace as CSV with full-precision decimal floats."""
    trace = Trace.of(trace)
    columns = [map(repr, column) for column in trace.floats.T.tolist()]
    rows = zip(*columns, trace.qp_status)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(TRACE_HEADER + "\n")
            fh.writelines(",".join(row) + "\n" for row in rows)
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from None


def read_trace(path: str) -> Trace:
    """Parse a trace CSV back into a Trace (full precision)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header in {path}: {header!r}")
        rows, statuses = [], []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(_FLOAT_COLUMNS) + 1:
                raise ValueError(f"malformed trace row: {line!r}")
            rows.append(list(map(float, parts[:-1])))
            statuses.append(parts[-1])
    return Trace(np.array(rows, dtype=float).reshape(len(rows), len(_FLOAT_COLUMNS)), statuses)


def check_causality(trace: Trace | list, kd: int, torque_limit: float,
                    atol: float = 1e-12) -> bool:
    """Verify applied(k) == cmd(k - kd) and saturation on every step."""
    trace = Trace.of(trace)
    applied = trace.column("applied_torque")
    cmd = trace.column("cmd_torque")[:max(len(trace) - kd, 0)]  # cmd(k - kd) for k >= kd
    expected = np.clip(cmd, -torque_limit, torque_limit)
    return bool(not np.any(np.abs(applied) > torque_limit + atol)
                and np.all(np.abs(applied[kd:] - expected) <= atol)
                and np.all(applied[:kd] == 0.0))
