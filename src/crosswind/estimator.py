"""Wind-torque observer design and runtime.

The observer runs on the disturbance-augmented model: its third state is
the wind torque, reconstructed from roll-angle measurements and the
delayed motor command. Two gain designs are provided, pole placement
(Ackermann on the dual pair) and a steady-state Kalman gain obtained by
fixed-point iteration of the filter Riccati equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AreConvergenceError,
    InvalidParameterError,
    SingularInnovationError,
    UnobservablePairError,
    UnstablePoleError,
)
from .model import AugmentedModel, check_observability, observability_matrix

DEFAULT_OBSERVER_POLES = (0.65, 0.7, 0.75)
DEFAULT_TORQUE_FILTER_ALPHA = 0.2


@dataclass(frozen=True)
class ObserverGain:
    """Observer gain column L; (A_aug - L C_aug) must be Schur stable."""

    L: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.L, dtype=float).reshape(3, 1)
        L.setflags(write=False)
        object.__setattr__(self, "L", L)


@dataclass(frozen=True)
class KalmanConfig:
    """Noise covariances and iteration limits for the steady-state filter."""

    Q: np.ndarray = field(default_factory=lambda: np.diag([0.0001, 0.15, 3e8]))
    R: float = 0.01
    are_tol: float = 1e-9
    are_max_iters: int = 100_000

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        if Q.shape != (3, 3):
            raise InvalidParameterError(f"Q must be 3x3, got {Q.shape}", "Q")
        if not np.all(np.isfinite(Q)):
            raise InvalidParameterError("Q must be finite", "Q")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise InvalidParameterError("Q must be symmetric", "Q")
        if np.min(np.linalg.eigvalsh(Q)) < -1e-9 * max(1.0, np.linalg.norm(Q)):
            raise InvalidParameterError("Q must be positive semi-definite", "Q")
        if not 0 < self.R < np.inf:
            raise InvalidParameterError(f"R must be finite and > 0, got {self.R}", "R")
        Q.setflags(write=False)
        object.__setattr__(self, "Q", Q)


@dataclass
class ObserverState:
    """Running estimate (theta, theta_dot, tau_w) plus the filtered torque."""

    x_hat: np.ndarray = field(default_factory=lambda: np.zeros(3))
    filtered_tau_w: float = 0.0

    @property
    def tau_w_hat(self) -> float:
        return float(self.x_hat[2])


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
        raise UnstablePoleError(f"observer poles must lie inside the unit circle: {poles}")
    coeffs = np.poly(poles)
    if np.max(np.abs(coeffs.imag)) > 1e-9 * max(1.0, np.max(np.abs(coeffs))):
        raise InvalidParameterError("complex poles must come in conjugate pairs")
    coeffs = coeffs.real

    if check_observability(am) < 3:
        raise UnobservablePairError("(A_aug, C_aug) is not observable; cannot place poles")

    A = am.A_aug
    pA = np.zeros_like(A)
    for c in coeffs:  # Horner evaluation of p(A)
        pA = pA @ A + c * np.eye(3)
    O = observability_matrix(A, am.C_aug)
    e3 = np.array([[0.0], [0.0], [1.0]])
    L = pA @ np.linalg.solve(O, e3)
    return ObserverGain(L=L)


def _are_rhs(P: np.ndarray, A: np.ndarray, C: np.ndarray, Q: np.ndarray, R: float) -> np.ndarray:
    PCt = P @ C.T
    innov = (C @ PCt)[0, 0] + R
    return A @ (P - PCt @ PCt.T / innov) @ A.T + Q


def solve_filter_are(am: AugmentedModel, kc: KalmanConfig) -> np.ndarray:
    """Steady-state error covariance P of the filter Riccati recursion.

    The fixed point of P <- A (P - P C' (C P C' + R)^-1 C P) A' + Q from
    P0 = Q. Iterates are advanced with the structure-preserving doubling
    form of the same recursion (the 2^k-step iterate per pass), since
    extreme Q/R ratios contract too slowly for one-step iteration; the
    returned P always satisfies the one-step residual contract
    ||RHS(P) - P|| / ||P|| < are_tol.
    """
    A, C = am.A_aug, am.C_aug
    # doubling runs on the dual (control-form) data: A0 = A', G0 = C'C/R
    Ak = A.T.copy()
    Gk = C.T @ C / kc.R
    P = kc.Q.copy()
    eye = np.eye(3)
    doublings = 0
    while True:
        residual = np.linalg.norm(_are_rhs(P, A, C, kc.Q, kc.R) - P) / max(
            np.linalg.norm(P), 1e-300)
        if residual < kc.are_tol:
            return 0.5 * (P + P.T)
        if 2 ** doublings > kc.are_max_iters:
            raise AreConvergenceError(
                f"Riccati iteration did not reach tolerance {kc.are_tol} within "
                f"the equivalent of {kc.are_max_iters} one-step iterations"
            )
        try:
            W = np.linalg.inv(eye + Gk @ P)
        except np.linalg.LinAlgError:
            raise AreConvergenceError("Riccati doubling step became singular") from None
        A_next = Ak @ W @ Ak
        G_next = Gk + Ak @ W @ Gk @ Ak.T
        P = P + Ak.T @ P @ W @ Ak
        Ak, Gk = A_next, G_next
        P = 0.5 * (P + P.T)
        doublings += 1


def are_residual(am: AugmentedModel, kc: KalmanConfig, P: np.ndarray) -> float:
    """Relative fixed-point residual ||RHS(P) - P|| / ||P||."""
    rhs = _are_rhs(P, am.A_aug, am.C_aug, kc.Q, kc.R)
    return float(np.linalg.norm(rhs - P) / max(np.linalg.norm(P), 1e-300))


def kalman_gain(am: AugmentedModel, P: np.ndarray, R: float) -> ObserverGain:
    """Steady-state Kalman gain L = A P C' (C P C' + R)^-1."""
    C = am.C_aug
    innov = (C @ P @ C.T)[0, 0] + R
    if innov <= 0:
        raise SingularInnovationError(f"C P C' + R = {innov} must be positive")
    L = am.A_aug @ P @ C.T / innov
    return ObserverGain(L=L)


def observer_step(os_: ObserverState, y_meas: float, delayed_cmd: float,
                  gain: ObserverGain, am: AugmentedModel,
                  filter_alpha: float = DEFAULT_TORQUE_FILTER_ALPHA) -> ObserverState:
    """One observer update from a measurement and the delayed command.

    x^+ = A_aug x + B_aug u(k-kd) + L (y - C_aug x); the torque estimate
    is additionally low-pass filtered for use by the feed-forward path.
    """
    x = os_.x_hat
    innovation = y_meas - (am.C_aug @ x)[0]
    x_next = am.A_aug @ x + am.B_aug.ravel() * delayed_cmd + gain.L.ravel() * innovation
    filtered = lowpass(os_.filtered_tau_w, float(x_next[2]), filter_alpha)
    return ObserverState(x_hat=x_next, filtered_tau_w=filtered)


def error_dynamics_matrix(am: AugmentedModel, gain: ObserverGain) -> np.ndarray:
    """Estimation-error transition matrix A_aug - L C_aug."""
    return am.A_aug - gain.L @ am.C_aug


def spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))
