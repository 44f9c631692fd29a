"""Controllers: discrete PID baseline, feed-forward compensation, and the
delay-compensating MPC in constrained (QP) and unconstrained (closed-form)
variants.

The MPC predicts from the state shifted past the input delay using the
buffered commands, then optimizes the next Np inputs of the wind-cancelled
model. When feed-forward is active, the effective model input over the
delay window is the buffered command plus the estimated wind torque; the
``wind_estimate`` argument folds that in (see shift_state notes).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import BufferLengthError, InvalidParameterError, QpInfeasibleError
from .estimator import lowpass
from .model import DiscreteModel
from .plant import InputBuffer, RollState, saturate
# QpProblem and solve_qp stay importable from here for existing callers
from .qpsolve import QpProblem, QpWorkspace, solve_qp  # noqa: F401

# ---------------------------------------------------------------------------
# PID


@dataclass(frozen=True)
class PidConfig:
    """Discrete PID gains and filtering, 10 Hz defaults."""

    Kp: float = 3200.0
    Ki: float = 1200.0
    Kd: float = 700.0
    Ts: float = 0.1
    derivative_window: int = 3
    meas_filter_alpha: float = 0.5

    def __post_init__(self):
        if not 0 < self.Ts < math.inf:
            raise InvalidParameterError(f"Ts must be finite and > 0, got {self.Ts}", "Ts")
        if self.derivative_window < 1:
            raise InvalidParameterError("derivative_window must be >= 1", "derivative_window")
        if not 0.0 < self.meas_filter_alpha <= 1.0:
            raise InvalidParameterError("meas_filter_alpha must be in (0, 1]", "meas_filter_alpha")
        for name in ("Kp", "Ki", "Kd"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite", name)


@dataclass
class PidState:
    """Mutable PID loop state: integral, error history, filtered angle."""

    integral_I: float = 0.0
    error_history: deque = None
    filtered_theta: float = 0.0

    @classmethod
    def fresh(cls, cfg: PidConfig) -> "PidState":
        hist = deque([0.0] * (cfg.derivative_window + 1), maxlen=cfg.derivative_window + 1)
        return cls(integral_I=0.0, error_history=hist, filtered_theta=0.0)


def pid_step(ps: PidState, theta_meas: float, cfg: PidConfig, torque_limit: float) -> float:
    """One PID update; regulation target is zero roll angle.

    The measurement is low-pass filtered, the error is e = -theta_f, the
    integral is clamped so Ki*I never exceeds the actuation limit
    (anti-windup), and the derivative is the mean of the last
    ``derivative_window`` backward differences. Startup history is
    zero-filled, so early derivatives treat missing errors as zero.
    """
    ps.filtered_theta = lowpass(ps.filtered_theta, theta_meas, cfg.meas_filter_alpha)
    e = -ps.filtered_theta
    ps.integral_I += cfg.Ts * e
    if cfg.Ki != 0.0:
        bound = torque_limit / abs(cfg.Ki)
        ps.integral_I = min(max(ps.integral_I, -bound), bound)
    ps.error_history.append(e)
    hist = ps.error_history
    diffs = [(hist[-1 - i] - hist[-2 - i]) / cfg.Ts for i in range(cfg.derivative_window)]
    delta_e = sum(diffs) / cfg.derivative_window
    co = cfg.Kp * e + cfg.Ki * ps.integral_I + cfg.Kd * delta_e
    return saturate(co, torque_limit)


def feedforward_compensate(fb_command: float, tau_w_hat_filtered: float,
                           torque_limit: float) -> float:
    """Subtract the estimated wind torque from the feedback command."""
    return saturate(fb_command - tau_w_hat_filtered, torque_limit)


# ---------------------------------------------------------------------------
# MPC


@dataclass(frozen=True)
class MpcConfig:
    """Horizon, weights, and constraint bounds of the receding-horizon MPC.

    Weight magnitudes default to values that reproduce the target
    closed-loop settling at desk scale; the terminal output weight must
    dominate the running weights.
    """

    Np: int = 30
    Qc_diag: np.ndarray = field(default_factory=lambda: np.append(np.ones(29), 50.0))
    Rc_diag: np.ndarray = field(default_factory=lambda: np.full(30, 1e-9))
    u_min: float = -1000.0
    u_max: float = 1000.0
    y_min: float | None = None
    y_max: float | None = None

    def __post_init__(self):
        if self.Np < 1:
            raise InvalidParameterError(f"Np must be >= 1, got {self.Np}", "Np")
        Qc = np.asarray(self.Qc_diag, dtype=float).ravel()
        Rc = np.asarray(self.Rc_diag, dtype=float).ravel()
        if Qc.shape != (self.Np,) or Rc.shape != (self.Np,):
            raise InvalidParameterError("Qc_diag and Rc_diag must have length Np")
        if not np.all((0 <= Qc) & (Qc < np.inf)):  # NaN fails too
            raise InvalidParameterError("Qc_diag entries must be finite and >= 0", "Qc_diag")
        if not np.all((0 < Rc) & (Rc < np.inf)):
            raise InvalidParameterError("Rc_diag entries must be finite and > 0", "Rc_diag")
        if self.Np > 1 and Qc[-1] < np.max(Qc[:-1]):
            raise InvalidParameterError("terminal weight must be >= all other Qc entries",
                                        "Qc_diag")
        if not self.u_min < self.u_max:
            raise InvalidParameterError("u_min must be < u_max", "u_min")
        if (self.y_min is None) != (self.y_max is None):
            raise InvalidParameterError("y_min and y_max must be set together",
                                        "y_max" if self.y_min is None else "y_min")
        if self.y_min is not None and not self.y_min < self.y_max:
            raise InvalidParameterError("y_min must be < y_max", "y_min")
        Qc.setflags(write=False)
        Rc.setflags(write=False)
        object.__setattr__(self, "Qc_diag", Qc)
        object.__setattr__(self, "Rc_diag", Rc)


@dataclass(frozen=True)
class PredictionStack:
    """Precomputed prediction and shift matrices for one (model, config) pair.

    Phi maps the shifted state to the predicted outputs, G maps future
    inputs to outputs (lower triangular, Toeplitz), H = G'QcG + Rc, and
    K_shift / M_shift propagate the state across the kd-sample delay.
    ``qp`` is the constrained step's QP workspace, factorised once for H
    with G as its rows when the config bounds the predicted outputs; its
    ``H2_inv`` = inv(2H) is the stack's only inverse of H.
    """

    Phi: np.ndarray
    G: np.ndarray
    H: np.ndarray
    K_shift: np.ndarray
    M_shift: np.ndarray
    Qc_diag: np.ndarray
    Rc_diag: np.ndarray
    kd: int
    # first row of H^-1 G' Qc, the precomputed unconstrained gain
    gain_row: np.ndarray
    qp: QpWorkspace

    def predict(self, x_shifted: np.ndarray) -> np.ndarray:
        """Free response F(k) of the predicted outputs."""
        return self.Phi @ x_shifted


def build_prediction(dm: DiscreteModel, cfg: MpcConfig) -> PredictionStack:
    """Assemble Phi, G, H and the delay-shift matrices for the MPC."""
    Np = cfg.Np
    A, B, C = dm.A, dm.B, dm.C
    powers = [np.eye(2)]
    for _ in range(max(Np, dm.kd)):
        powers.append(A @ powers[-1])
    Phi = np.vstack([C @ powers[j] for j in range(1, Np + 1)])
    first_col = np.array([(C @ powers[j] @ B)[0, 0] for j in range(Np)])
    G = np.zeros((Np, Np))
    for i in range(Np):
        G[i, : i + 1] = first_col[: i + 1][::-1]
    H = G.T @ (cfg.Qc_diag[:, None] * G) + np.diag(cfg.Rc_diag)
    qp = QpWorkspace(H, rows=G if cfg.y_min is not None else None)
    H_inv = 2.0 * qp.H2_inv  # scaling by 2 is exact: this is inv(H) to the bit
    residual = np.max(np.abs(H @ H_inv - np.eye(Np)))
    if not residual <= 1e-9:  # a NaN residual fails too
        raise InvalidParameterError(
            f"H inverse verification failed: |H H^-1 - I| = {residual:.3e}"
        )
    K_shift = powers[dm.kd]
    if dm.kd > 0:
        M_shift = np.hstack([powers[dm.kd - 1 - i] @ B for i in range(dm.kd)])
    else:
        M_shift = np.zeros((2, 0))
    gain_row = (H_inv @ G.T @ np.diag(cfg.Qc_diag))[0]
    for arr in (Phi, G, H, K_shift, M_shift, gain_row):
        arr.setflags(write=False)
    return PredictionStack(Phi=Phi, G=G, H=H, K_shift=K_shift, M_shift=M_shift,
                           Qc_diag=cfg.Qc_diag, Rc_diag=cfg.Rc_diag, kd=dm.kd,
                           gain_row=gain_row, qp=qp)


def _shift_from_history(x: RollState, history: np.ndarray, stack: PredictionStack) -> np.ndarray:
    """x(k+kd) from x(k) and the kd inputs applied in between."""
    if history.size != stack.kd:
        raise BufferLengthError(f"buffer holds {history.size} commands, model delay is {stack.kd}")
    xv = np.array([x.theta, x.theta_dot])
    if stack.kd == 0:
        return xv
    return stack.K_shift @ xv + stack.M_shift @ history


def shift_state(x_k: RollState, buf: InputBuffer, stack: PredictionStack) -> RollState:
    """Propagate the state across the delay: x(k+kd) from x(k) and the buffer."""
    xs = _shift_from_history(x_k, buf.as_array(), stack)
    return RollState(theta=float(xs[0]), theta_dot=float(xs[1]))


def mpc_unconstrained_step(x: RollState, buf: InputBuffer, stack: PredictionStack,
                           torque_limit: float, wind_estimate: float = 0.0) -> float:
    """Closed-form receding-horizon law: first element of -H^-1 G'Qc F(k).

    ``wind_estimate`` is the feed-forward torque that will be subtracted
    downstream; it shifts both the effective delayed inputs and the
    saturation box so the physical command stays within limits.
    """
    xs = _shift_from_history(x, buf.as_array() + wind_estimate, stack)
    u0 = -float(stack.gain_row @ stack.predict(xs))
    return min(max(u0, -torque_limit + wind_estimate), torque_limit + wind_estimate)


def mpc_constrained_step(x: RollState, buf: InputBuffer, stack: PredictionStack,
                         cfg: MpcConfig, wind_estimate: float = 0.0,
                         qp_tol: float = 1e-8, qp_max_iters: int = 5000) -> float:
    """Receding-horizon step solving the box(+output)-constrained QP.

    The QP is solved on ``stack.qp``, the workspace ``build_prediction``
    factorised for this H, so a step only forms f and the bounds. It
    takes the unconstrained fast path when no bound binds and the dual
    active-set method otherwise (see ``crosswind.qpsolve``).

    Raises QpInfeasibleError, carrying the solver status, when the QP is
    not solved to optimality (possible with tight output constraints);
    callers are expected to fall back to the saturated closed-form law
    and flag the step.
    """
    if (cfg.y_min is None) != (stack.qp.rows is None):
        raise InvalidParameterError("cfg output bounds do not match the stack; "
                                    "build the stack with build_prediction(dm, cfg)")
    xs = _shift_from_history(x, buf.as_array() + wind_estimate, stack)
    F = stack.predict(xs)
    f = 2.0 * (stack.G.T @ (stack.Qc_diag * F))
    lower = np.full(cfg.Np, cfg.u_min + wind_estimate)
    upper = np.full(cfg.Np, cfg.u_max + wind_estimate)
    row_lower = row_upper = None
    if cfg.y_min is not None:
        row_lower = cfg.y_min - F
        row_upper = cfg.y_max - F
    sol = stack.qp.solve(f, lower, upper, row_lower, row_upper,
                         tol=qp_tol, max_iters=qp_max_iters)
    if sol.status != "optimal":
        raise QpInfeasibleError(f"MPC quadratic program ended with status {sol.status!r}",
                                status=sol.status)
    return float(sol.u_star[0])
