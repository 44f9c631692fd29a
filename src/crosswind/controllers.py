"""Controllers: discrete PID baseline, feed-forward compensation, and the
delay-compensating MPC in constrained (QP) and unconstrained (closed-form)
variants.

The MPC predicts from the state shifted past the input delay using the
buffered commands, then optimizes the next Np inputs of the wind-cancelled
model. When feed-forward is active, the effective model input over the
delay window is the buffered command plus the estimated wind torque; the
``wind_estimate`` argument folds that in (see the notes on ``_shifted``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, QpInfeasibleError
from .estimator import lowpass
from .model import DiscreteModel
from .plant import InputBuffer, RollState, saturate
# bench/spans.py times QpProblem, solve_qp and the MPC steps below by wrapping them
# at their controllers.* names, so these two stay importable from here
from .qpsolve import DEFAULT_TOL, QpProblem, QpWorkspace, solve_qp  # noqa: F401

# the largest PID derivative window and MPC horizon: only an MPC step's work grows with
# its bound, and its memory with the horizon squared (at 1000 a run peaks near 120 MB)
MAX_DERIVATIVE_WINDOW = 1000
MAX_HORIZON = 1000

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
        if not 1 <= self.derivative_window <= MAX_DERIVATIVE_WINDOW:
            raise InvalidParameterError(
                f"derivative_window must be in [1, {MAX_DERIVATIVE_WINDOW}]", "derivative_window")
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
    ``derivative_window`` backward differences, which telescopes to
    (e_k - e_(k-window)) / Ts / window. Startup history is zero-filled,
    so early derivatives treat missing errors as zero.
    """
    ps.filtered_theta = lowpass(ps.filtered_theta, theta_meas, cfg.meas_filter_alpha)
    e = -ps.filtered_theta
    ps.integral_I += cfg.Ts * e
    if cfg.Ki != 0.0:
        bound = torque_limit / abs(cfg.Ki)
        ps.integral_I = min(max(ps.integral_I, -bound), bound)
    hist = ps.error_history  # the last derivative_window + 1 errors
    hist.append(e)
    delta_e = (hist[-1] - hist[0]) / cfg.Ts / cfg.derivative_window
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
        if not 1 <= self.Np <= MAX_HORIZON:
            raise InvalidParameterError(f"Np must be in [1, {MAX_HORIZON}], got {self.Np}", "Np")
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
    ``L`` = inv(H) G'Qc Phi is the one MPC gain: -L xs minimizes the QP
    when no bound binds, and its first row is the closed-form law.
    ``qp`` is the constrained step's QP workspace, factorised once for H
    with G as its rows when the config bounds the predicted outputs; its
    ``H2_inv`` = inv(2H) is the stack's only inverse of H.

    The steps read the shift as plain floats: ``shift_floats`` is K_shift
    row by row and m1 = M_shift 1, the wind term's column, so that
    xs = K_shift x + h + w m1 with h the buffer's ``history_term``;
    ``push_coeffs`` is A row by row, B and A^kd B, from which the buffer
    keeps h current; ``L0`` is L's first row.
    """

    Phi: np.ndarray
    G: np.ndarray
    H: np.ndarray
    K_shift: np.ndarray
    M_shift: np.ndarray
    Qc_diag: np.ndarray
    L: np.ndarray
    qp: QpWorkspace
    shift_floats: tuple
    push_coeffs: tuple
    L0: tuple


def build_prediction(dm: DiscreteModel, cfg: MpcConfig) -> PredictionStack:
    """Assemble Phi, G, H and the delay-shift matrices for the MPC."""
    Np = cfg.Np
    A, B, C = dm.A, dm.B, dm.C
    powers = [np.eye(2)]
    for _ in range(Np):
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
    # column i of M_shift is A^(kd-1-i) B, filled newest first from one running
    # power of A, which ends at K_shift = A^kd
    M_shift = np.empty((2, dm.kd))
    K_shift = np.eye(2)
    for i in range(dm.kd - 1, -1, -1):
        M_shift[:, i] = (K_shift @ B)[:, 0]
        K_shift = A @ K_shift
    L = H_inv @ (G.T @ (cfg.Qc_diag[:, None] * Phi))
    for arr in (Phi, G, H, K_shift, M_shift, L):
        arr.setflags(write=False)
    return PredictionStack(
        Phi=Phi, G=G, H=H, K_shift=K_shift, M_shift=M_shift, Qc_diag=cfg.Qc_diag, L=L, qp=qp,
        shift_floats=tuple(K_shift.ravel().tolist() + (M_shift @ np.ones(dm.kd)).tolist()),
        push_coeffs=dm.floats + tuple((K_shift @ B).ravel().tolist()),
        L0=tuple(L[0].tolist()))


def _shifted(x: RollState, buf: InputBuffer, stack: PredictionStack,
             wind_estimate: float) -> tuple:
    """xs = K_shift x + h + w m1 as two floats: the shift of x across the delay
    when the model input over it is the buffered command plus w."""
    k00, k01, k10, k11, m0, m1 = stack.shift_floats
    h0, h1 = buf.history_term(stack)
    theta, theta_dot = x.theta, x.theta_dot
    return (k00 * theta + k01 * theta_dot + (h0 + wind_estimate * m0),
            k10 * theta + k11 * theta_dot + (h1 + wind_estimate * m1))


def shift_state(x_k: RollState, buf: InputBuffer, stack: PredictionStack) -> RollState:
    """Propagate the state across the delay: x(k+kd) from x(k) and the buffer.

    K_shift x(k) + h in O(1), where h = M_shift @ buf.as_array() is the
    buffer's running ``history_term``.
    """
    theta, theta_dot = _shifted(x_k, buf, stack, 0.0)
    return RollState(theta=theta, theta_dot=theta_dot)


def mpc_unconstrained_step(x: RollState, buf: InputBuffer, stack: PredictionStack,
                           torque_limit: float, wind_estimate: float = 0.0) -> float:
    """Closed-form receding-horizon law: first element of -H^-1 G'Qc F(k).

    ``wind_estimate`` is the feed-forward torque that will be subtracted
    downstream; it shifts both the effective delayed inputs and the
    saturation box so the physical command stays within limits.
    """
    xs0, xs1 = _shifted(x, buf, stack, wind_estimate)
    l0, l1 = stack.L0
    u0 = -(l0 * xs0 + l1 * xs1)
    return min(max(u0, -torque_limit + wind_estimate), torque_limit + wind_estimate)


def mpc_constrained_step(x: RollState, buf: InputBuffer, stack: PredictionStack,
                         cfg: MpcConfig, wind_estimate: float = 0.0) -> float:
    """Receding-horizon step of the box(+output)-constrained QP.

    When u = -L xs, the QP's minimizer if no bound binds, passes the
    solver's feasibility test (u in the box, G u in the output band less
    F = Phi xs), u[0] is the command. Otherwise the step forms f and the
    bounds and solves the QP on ``stack.qp`` (``crosswind.qpsolve``). F is
    formed only for an output band or the QP.

    Raises QpInfeasibleError, carrying the solver status, when the QP is
    not solved to optimality (possible with tight output constraints);
    callers are expected to fall back to the saturated closed-form law
    and flag the step.
    """
    if (cfg.y_min is None) != (stack.qp.rows is None):
        raise InvalidParameterError("cfg output bounds do not match the stack; "
                                    "build the stack with build_prediction(dm, cfg)")
    xs0, xs1 = _shifted(x, buf, stack, wind_estimate)
    if not (math.isfinite(xs0) and math.isfinite(xs1)):
        # an infinite xs would meet inf - inf in the products below, which numpy
        # warns of; NaN passes through them quietly to the solver, which rejects f
        xs0 = xs1 = math.nan
    u = stack.L.dot(np.array((-xs0, -xs1)))  # -(L xs) to the bit: negation is exact
    lower, upper = cfg.u_min + wind_estimate, cfg.u_max + wind_estimate
    # the solver's test, slack <= DEFAULT_TOL max(1, |bound|), multiplied out so that
    # an infinite bound is met; on the box only min(u) and max(u) count, read from
    # one sort, which puts any NaN last, where it fails the test
    ends = np.sort(u)
    inside = (ends[-1] - upper <= DEFAULT_TOL * max(1.0, abs(upper))
              and lower - ends[0] <= DEFAULT_TOL * max(1.0, abs(lower)))
    if inside and cfg.y_min is None:
        return float(u[0])
    F = stack.Phi @ np.array((xs0, xs1))
    row_lower = row_upper = None
    if cfg.y_min is not None:
        row_lower, row_upper = cfg.y_min - F, cfg.y_max - F
        if inside:
            y = stack.G @ u
            if ((y - row_upper <= DEFAULT_TOL * np.maximum(1.0, np.abs(row_upper))).all()
                    and (row_lower - y <= DEFAULT_TOL * np.maximum(1.0, np.abs(row_lower))).all()):
                return float(u[0])
    f = 2.0 * (stack.G.T @ (stack.Qc_diag * F))
    sol = stack.qp.solve(f, np.full(cfg.Np, lower), np.full(cfg.Np, upper), row_lower,
                         row_upper)
    if sol.status != "optimal":
        raise QpInfeasibleError(f"MPC quadratic program ended with status {sol.status!r}",
                                status=sol.status)
    return float(sol.u_star[0])
