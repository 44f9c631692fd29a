"""Wind-torque observer design and runtime.

The observer runs on the disturbance-augmented model: its third state is
the wind torque, reconstructed from roll-angle measurements and the
delayed motor command. Two gain designs are provided, pole placement
(Ackermann on the dual pair) and a steady-state Kalman gain from the
filter Riccati equation, solved by doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .model import AugmentedModel, check_observability, observability_matrix
from .plant import RollState

DEFAULT_OBSERVER_POLES = (0.65, 0.7, 0.75)
DEFAULT_TORQUE_FILTER_ALPHA = 0.2

# The Riccati solve ends once the relative one-step residual is below
# ARE_TOL. Doubling pass k advances the recursion 2^k steps; on the nominal
# model every R from 1e-300 to 1e300 converges within 30 passes.
ARE_TOL = 1e-9
ARE_MAX_DOUBLINGS = 64


@dataclass(frozen=True)
class ObserverGain:
    """Observer gain column L; (A_aug - L C_aug) must be Schur stable.

    ``floats`` is L as three plain floats, read once for observer_step.
    """

    L: np.ndarray
    floats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        L = np.asarray(self.L, dtype=float).reshape(3, 1)
        L.setflags(write=False)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "floats", tuple(L.ravel().tolist()))


@dataclass(frozen=True)
class KalmanConfig:
    """Process and measurement noise covariances of the steady-state filter."""

    Q: np.ndarray = field(default_factory=lambda: np.diag([0.0001, 0.15, 3e8]))
    R: float = 0.01

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        if Q.shape != (3, 3):
            raise InvalidParameterError(f"Q must be 3x3, got {Q.shape}", "Q")
        if not np.all(np.isfinite(Q)):
            raise InvalidParameterError("Q must be finite", "Q")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise InvalidParameterError("Q must be symmetric", "Q")
        eigs = np.linalg.eigvalsh(Q)  # ascending; the largest scales the check, and cannot overflow
        if eigs[0] < -1e-9 * max(1.0, eigs[-1]):
            raise InvalidParameterError("Q must be positive semi-definite", "Q")
        if not (0 < self.R < math.inf and 1.0 / float(self.R) < math.inf):  # C'C / R is formed
            raise InvalidParameterError(
                f"R must be finite and > 0 with a finite reciprocal, got {self.R}", "R")
        Q.setflags(write=False)
        object.__setattr__(self, "Q", Q)


@dataclass
class ObserverState(RollState):
    """Running estimate (theta, theta_dot, tau_w_hat) plus the filtered torque.

    It is the roll state the MPC predicts from, as estimated.
    """

    tau_w_hat: float = 0.0
    filtered_tau_w: float = 0.0


def lowpass(prev: float, new: float, alpha: float) -> float:
    """First-order low-pass update: alpha*new + (1-alpha)*prev."""
    if not 0.0 < alpha <= 1.0:
        raise InvalidParameterError(f"alpha must be in (0, 1], got {alpha}")
    return alpha * new + (1.0 - alpha) * prev


def place_observer_gain(am: AugmentedModel, poles=DEFAULT_OBSERVER_POLES) -> ObserverGain:
    """Observer gain assigning the error dynamics eigenvalues to ``poles``.

    Ackermann's formula on the observability matrix: L = p(A) O^-1 e_n,
    where p is the desired characteristic polynomial. Poles must lie in
    the open unit disc and be closed under conjugation.
    """
    poles = np.atleast_1d(np.asarray(poles))
    if poles.shape != (3,):
        raise InvalidParameterError(f"exactly 3 poles required, got {poles.shape}")
    if not np.all(np.abs(poles) < 1.0):  # NaN fails too
        raise InvalidParameterError(f"observer poles must lie inside the unit circle: {poles}")
    coeffs = np.poly(poles)
    if np.max(np.abs(coeffs.imag)) > 1e-9 * max(1.0, np.max(np.abs(coeffs))):
        raise InvalidParameterError("complex poles must come in conjugate pairs")
    coeffs = coeffs.real

    if check_observability(am) < 3:
        raise InvalidParameterError("(A_aug, C_aug) is not observable; cannot place poles")

    A = am.A_aug
    pA = np.zeros_like(A)
    for c in coeffs:  # Horner evaluation of p(A)
        pA = pA @ A + c * np.eye(3)
    O = observability_matrix(A, am.C_aug)
    e3 = np.array([[0.0], [0.0], [1.0]])
    L = pA @ np.linalg.solve(O, e3)
    return ObserverGain(L=L)


def solve_filter_are(am: AugmentedModel, kc: KalmanConfig) -> np.ndarray:
    """Steady-state error covariance P of the filter Riccati recursion.

    The fixed point of P <- A (P - P C' (C P C' + R)^-1 C P) A' + Q from
    P0 = Q. Iterates are advanced with the structure-preserving doubling
    form of the same recursion (the 2^k-step iterate per pass), since
    extreme Q/R ratios contract too slowly for one-step iteration; the
    returned P always satisfies the one-step residual contract
    ||RHS(P) - P|| / ||P|| < ARE_TOL. A residual that is not finite or
    ARE_MAX_DOUBLINGS passes without convergence end the solve.
    """
    A, C = am.A_aug, am.C_aug
    # doubling runs on the dual (control-form) data: A0 = A', G0 = C'C/R
    Ak = A.T.copy()
    Gk = C.T @ C / kc.R
    P = kc.Q.copy()
    eye = np.eye(3)
    with np.errstate(all="ignore"):  # an overflow shows as a residual that is not finite
        for doublings in range(ARE_MAX_DOUBLINGS + 1):
            residual = are_residual(am, kc, P)
            if residual < ARE_TOL:
                return 0.5 * (P + P.T)
            if not math.isfinite(residual) or doublings == ARE_MAX_DOUBLINGS:
                raise InvalidParameterError(
                    f"Riccati iteration did not reach tolerance {ARE_TOL}: "
                    f"residual {residual:.3g} after {doublings} doublings")
            try:
                W = np.linalg.inv(eye + Gk @ P)
            except np.linalg.LinAlgError:
                raise InvalidParameterError("Riccati doubling step became singular") from None
            A_next = Ak @ W @ Ak
            G_next = Gk + Ak @ W @ Gk @ Ak.T
            P = P + Ak.T @ P @ W @ Ak
            Ak, Gk = A_next, G_next
            P = 0.5 * (P + P.T)


def are_residual(am: AugmentedModel, kc: KalmanConfig, P: np.ndarray) -> float:
    """Relative fixed-point residual ||RHS(P) - P|| / ||P||; infinite once ||P|| overflows."""
    A, C = am.A_aug, am.C_aug
    PCt = P @ C.T
    innov = (C @ PCt)[0, 0] + kc.R
    rhs = A @ (P - PCt @ PCt.T / innov) @ A.T + kc.Q
    norm_P = np.linalg.norm(P)
    if not norm_P < math.inf:
        return math.inf
    return float(np.linalg.norm(rhs - P) / max(norm_P, 1e-300))


def kalman_gain(am: AugmentedModel, P: np.ndarray, R: float) -> ObserverGain:
    """Steady-state Kalman gain L = A P C' (C P C' + R)^-1."""
    C = am.C_aug
    innov = (C @ P @ C.T)[0, 0] + R
    if innov <= 0:
        raise InvalidParameterError(f"C P C' + R = {innov} must be positive")
    L = am.A_aug @ P @ C.T / innov
    return ObserverGain(L=L)


def observer_step(os_: ObserverState, y_meas: float, delayed_cmd: float,
                  gain: ObserverGain, am: AugmentedModel,
                  filter_alpha: float = DEFAULT_TORQUE_FILTER_ALPHA) -> ObserverState:
    """One observer update from a measurement and the delayed command.

    x^+ = A_aug x + B_aug u(k-kd) + L (y - C_aug x); the torque estimate
    is additionally low-pass filtered for use by the feed-forward path.
    The update runs on plain floats: the state's fields and the views
    ``am.floats`` and ``gain.floats``.
    """
    a00, a01, a02, a10, a11, a12, a20, a21, a22, b0, b1, b2, c0, c1, c2 = am.floats
    l0, l1, l2 = gain.floats
    x0, x1, x2 = os_.theta, os_.theta_dot, os_.tau_w_hat
    innovation = y_meas - (c0 * x0 + c1 * x1 + c2 * x2)
    tau_w = a20 * x0 + a21 * x1 + a22 * x2 + b2 * delayed_cmd + l2 * innovation
    return ObserverState(
        theta=a00 * x0 + a01 * x1 + a02 * x2 + b0 * delayed_cmd + l0 * innovation,
        theta_dot=a10 * x0 + a11 * x1 + a12 * x2 + b1 * delayed_cmd + l1 * innovation,
        tau_w_hat=tau_w, filtered_tau_w=lowpass(os_.filtered_tau_w, tau_w, filter_alpha))


def error_dynamics_matrix(am: AugmentedModel, gain: ObserverGain) -> np.ndarray:
    """Estimation-error transition matrix A_aug - L C_aug."""
    return am.A_aug - gain.L @ am.C_aug


def spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))
