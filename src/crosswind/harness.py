"""Closed-loop simulation runner, trace records, and response metrics.

One TraceRecord is emitted per control step. The loop is: measure,
controller step (PID on the filtered measurement, MPC on the observer
state), feed-forward subtraction and the one clip to the torque limit,
push the command into the shared delay buffer, advance the observer
with the same delayed command the plant receives, then step the plant.
The controller consumes the observer estimate from before this step's
update so the kd-sample shift stays aligned with the buffered commands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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
    saturate,
)
from .scenario import ScenarioConfig

TRACE_HEADER = ("t,theta,theta_dot,wingtip_disp,cmd_torque,applied_torque,"
                "tau_w_true,tau_w_hat,tau_w_hat_filtered,qp_status")

QP_NONE = "none"
QP_OPTIMAL = "optimal"
QP_FALLBACK = "infeasible_fallback"


@dataclass(frozen=True)
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


def run_scenario(cfg: ScenarioConfig) -> list:
    """Run one closed-loop scenario; returns the per-step trace.

    The observer, the controller and the plant are chosen once, before
    the loop. QP infeasibility falls back to the saturated closed-form
    law and flags the record; plant divergence raises
    PlantDivergenceError carrying the partial trace.
    """
    rp = cfg.plant_params
    limit = rp.torque_limit
    dm = discretize_zoh(continuous_roll_model(rp), cfg.Ts, rp.input_delay_Td)
    buffer = InputBuffer(dm.kd)
    observer, observe = _observer(cfg, augment(dm))
    control = _controller(cfg, dm, buffer)
    plant = _plant(cfg, dm)
    rng = np.random.default_rng(cfg.rng_seed)
    half_span = rp.wingspan_d / 2.0
    trace: list = []

    for k in range(round(cfg.duration / cfg.Ts)):
        t = k * cfg.Ts
        tau_w = cfg.wind_torque_at(t)
        y = measure_roll(plant.state, cfg.noise_std, rng)
        wind_ff = observer.filtered_tau_w if cfg.feedforward else 0.0
        fb, qp_status = control(y, observer, wind_ff)
        # the one clip of the command (wind_ff is 0 without feed-forward); the
        # plant gets the command kd steps later as it is
        cmd = ctrl.feedforward_compensate(fb, wind_ff, limit)
        applied = buffer.push(cmd)
        trace.append(TraceRecord(
            t=t, theta=plant.state.theta, theta_dot=plant.state.theta_dot,
            wingtip_disp=plant.state.theta * half_span,
            cmd_torque=cmd, applied_torque=applied, tau_w_true=tau_w,
            tau_w_hat=observer.tau_w_hat, tau_w_hat_filtered=observer.filtered_tau_w,
            qp_status=qp_status,
        ))
        observer = observe(observer, y, applied)
        try:
            plant.apply_command(applied, tau_w)
        except PlantDivergenceError as exc:
            raise PlantDivergenceError(str(exc), step=k, partial_trace=trace) from None

    return trace


def _observer(cfg: ScenarioConfig, am):
    """Initial observer state and its update; NaN estimates that never change without one."""
    if cfg.estimator_kind == "none":
        nan = float("nan")
        return est.ObserverState(np.array([0.0, 0.0, nan]), nan), lambda obs, y, u: obs
    if cfg.estimator_kind == "pole_place":
        gain = est.place_observer_gain(am, cfg.observer_poles)
    else:
        gain = est.kalman_gain(am, est.solve_filter_are(am, cfg.kalman), cfg.kalman.R)
    step, alpha = est.observer_step, cfg.torque_filter_alpha
    return est.ObserverState(), lambda obs, y, u: step(obs, y, u, gain, am, filter_alpha=alpha)


def _controller(cfg: ScenarioConfig, dm, buffer: InputBuffer):
    """The feedback step (y, observer, wind_ff) -> (command, qp_status).

    PID acts on the measurement, MPC on the observer estimate from
    before this step's update.
    """
    limit = cfg.plant_params.torque_limit
    if cfg.controller == "pid":
        pid_cfg, pid_step = cfg.pid, ctrl.pid_step
        pid_state = ctrl.PidState.fresh(pid_cfg)
        return lambda y, observer, wind_ff: (pid_step(pid_state, y, pid_cfg, limit), QP_NONE)

    mpc_cfg = cfg.mpc
    stack = ctrl.build_prediction(dm, mpc_cfg)
    closed_form, constrained = ctrl.mpc_unconstrained_step, ctrl.mpc_constrained_step

    def unconstrained(y, observer, wind_ff, status=QP_NONE):
        x_hat = RollState(theta=float(observer.x_hat[0]), theta_dot=float(observer.x_hat[1]))
        return closed_form(x_hat, buffer, stack, limit, wind_estimate=wind_ff), status

    if cfg.controller == "mpc_unconstrained":
        return unconstrained

    def qp(y, observer, wind_ff):
        x_hat = RollState(theta=float(observer.x_hat[0]), theta_dot=float(observer.x_hat[1]))
        try:
            return constrained(x_hat, buffer, stack, mpc_cfg, wind_estimate=wind_ff), QP_OPTIMAL
        except QpInfeasibleError:
            return unconstrained(y, observer, wind_ff, QP_FALLBACK)

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


def compute_metrics(trace: list, band: float, events: list | None = None) -> Metrics:
    """Settling time and peak per disturbance event.

    Settling is the first instant after the event from which the wingtip
    displacement magnitude stays within the band until the next event
    (reported relative to the event time); the not-settled case is
    flagged with settling_time None.
    """
    if band <= 0:
        raise ValueError(f"band must be > 0, got {band}")
    if not trace:
        raise ValueError("empty trace")
    t = np.array([r.t for r in trace])
    disp = np.array([r.wingtip_disp for r in trace])
    end_time = t[-1] + (t[1] - t[0] if len(t) > 1 else 0.0)
    if not events:
        events = [t[0]]
    events = sorted(events)
    windows = list(zip(events, events[1:] + [end_time]))

    per_event = []
    for ev, nxt in windows:
        mask = (t >= ev - 1e-12) & (t < nxt - 1e-12)
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            per_event.append(EventMetrics(ev, nxt, None, 0.0))
            continue
        seg = np.abs(disp[idx])
        peak = float(np.max(seg))
        inside = seg <= band
        # first index from which the band holds through the window end
        holds_from = None
        run = len(seg)
        for i in range(len(seg) - 1, -1, -1):
            if inside[i]:
                run = i
            else:
                break
        if run < len(seg):
            holds_from = float(t[idx[run]] - ev)
        per_event.append(EventMetrics(ev, nxt, holds_from, peak))

    final = per_event[-1]
    return Metrics(
        band=band,
        per_event=tuple(per_event),
        settling_time=final.settling_time,
        peak_disp=float(np.max(np.abs(disp))),
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


def write_trace(trace: list, path: str) -> None:
    """Write the trace as CSV with full-precision decimal floats."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(TRACE_HEADER + "\n")
            for r in trace:
                vals = [repr(float(getattr(r, f.name))) for f in fields(TraceRecord)
                        if f.name != "qp_status"]
                fh.write(",".join(vals) + f",{r.qp_status}\n")
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from None


def read_trace(path: str) -> list:
    """Parse a trace CSV back into TraceRecord rows (full precision)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header in {path}: {header!r}")
        records = []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 10:
                raise ValueError(f"malformed trace row: {line!r}")
            nums = [float(p) for p in parts[:9]]
            records.append(TraceRecord(*nums, qp_status=parts[9]))
    return records


def check_causality(trace: list, kd: int, torque_limit: float,
                    atol: float = 1e-12) -> bool:
    """Verify applied(k) == cmd(k - kd) and saturation on every record."""
    for r in trace:
        if abs(r.applied_torque) > torque_limit + atol:
            return False
    for k in range(kd, len(trace)):
        expected = trace[k - kd].cmd_torque if kd > 0 else trace[k].cmd_torque
        if not math.isclose(trace[k].applied_torque, saturate(expected, torque_limit),
                            rel_tol=0.0, abs_tol=atol):
            return False
    for k in range(min(kd, len(trace))):
        if trace[k].applied_torque != 0.0:
            return False
    return True
