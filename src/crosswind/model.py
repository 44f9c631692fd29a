"""Design models of the wing roll dynamics.

Continuous second-order roll model, its exact zero-order-hold
discretization, and the disturbance-augmented form used for observer
design. All matrices are small (2x2 / 3x3) numpy arrays; types are
immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

# Singular values below this fraction of the largest count as zero when
# computing numerical rank.
RANK_RTOL = 1e-8

# Relative truncation tolerance of the scaling-and-squaring exponential.
_EXPM_TOL = 1e-12

# Most control steps a run or an input delay may span. A run is a Python
# loop of tens of microseconds a step or more, and the delay a deque of kd
# commands: more steps than this take hours or do not fit in memory.
MAX_STEPS = 10**7


@dataclass(frozen=True)
class RollPlantParams:
    """Physical constants of the wing roll model.

    Attributes
    ----------
    inertia_J : wing roll inertia, kg*m^2
    stiffness_K : restoring stiffness, N*m/rad
    damping_B : damping coefficient, N*m*s/rad
    wingspan_d : wing span, m
    input_delay_Td : command-to-torque delay, s
    torque_limit : maximum motor torque magnitude, N*m
    """

    inertia_J: float = 6374.5
    stiffness_K: float = 25489.0
    damping_B: float = 3000.0
    wingspan_d: float = 11.0
    input_delay_Td: float = 1.0
    torque_limit: float = 1000.0

    def __post_init__(self):
        for name in ("inertia_J", "wingspan_d", "torque_limit"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidParameterError(
                    f"{name} must be finite and > 0, got {getattr(self, name)}", name)
        for name in ("stiffness_K", "damping_B", "input_delay_Td"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvalidParameterError(
                    f"{name} must be finite and >= 0, got {getattr(self, name)}", name)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ContinuousModel:
    """State-space form of the roll dynamics, x = (theta, theta_dot)."""

    A_c: np.ndarray
    B_c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A_c", _readonly(self.A_c))
        object.__setattr__(self, "B_c", _readonly(self.B_c))


def _floats(*arrays) -> tuple:
    """The entries of the arrays, each read row by row, as one tuple of plain floats."""
    return tuple(v for a in arrays for v in a.ravel().tolist())


@dataclass(frozen=True)
class DiscreteModel:
    """Exact ZOH discretization of a ContinuousModel plus the sample delay.

    ``floats`` is (a00, a01, a10, a11, b0, b1): A and B as plain floats,
    read once here for the per-step plant map.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray = field(default_factory=lambda: np.array([[1.0, 0.0]]))
    Ts: float = 0.1
    kd: int = 10
    floats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "A", _readonly(self.A))
        object.__setattr__(self, "B", _readonly(np.asarray(self.B, dtype=float).reshape(2, 1)))
        object.__setattr__(self, "C", _readonly(self.C))
        object.__setattr__(self, "floats", _floats(self.A, self.B))


@dataclass(frozen=True)
class AugmentedModel:
    """Roll model augmented with the wind torque as a constant third state.

    ``floats`` holds A_aug (row by row), B_aug and C_aug as 15 plain
    floats, read once here for the per-step observer update.
    """

    A_aug: np.ndarray
    B_aug: np.ndarray
    C_aug: np.ndarray
    floats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "A_aug", _readonly(self.A_aug))
        object.__setattr__(self, "B_aug", _readonly(self.B_aug))
        object.__setattr__(self, "C_aug", _readonly(self.C_aug))
        object.__setattr__(self, "floats", _floats(self.A_aug, self.B_aug, self.C_aug))


def expm_small(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a truncated series.

    Intended for the small (<= 4x4) matrices used here; truncates the
    Taylor series once terms fall below ``_EXPM_TOL`` relative to the
    running sum.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    norm = np.linalg.norm(M, np.inf)
    # scale so the series argument has norm <= 0.5 (a non-finite M is left unscaled)
    s = max(0, int(np.ceil(np.log2(norm / 0.5))) if 0.5 < norm < math.inf else 0)
    Ms = M / (2.0**s)
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ Ms / k
        result = result + term
        if np.linalg.norm(term, np.inf) <= _EXPM_TOL * max(1.0, np.linalg.norm(result, np.inf)):
            break
    for _ in range(s):
        result = result @ result
    return result


def continuous_roll_model(params: RollPlantParams) -> ContinuousModel:
    """Build the continuous design model from physical parameters.

    x_dot = A_c x + B_c * torque with A_c = [[0, 1], [-K/J, -B/J]] and
    B_c = (0, 1/J).
    """
    J, K, B = params.inertia_J, params.stiffness_K, params.damping_B
    A_c = np.array([[0.0, 1.0], [-K / J, -B / J]])
    B_c = np.array([[0.0], [1.0 / J]])
    return ContinuousModel(A_c=A_c, B_c=B_c)


def discretize_zoh(cm: ContinuousModel, Ts: float, Td: float) -> DiscreteModel:
    """Exact ZOH discretization with an integer-sample input delay.

    Uses the augmented-exponential construction: exp([[A, B], [0, 0]] * Ts)
    yields the discrete A in the top-left block and B = integral of
    exp(A*sigma)*B_c in the top-right. The delay Td must be an integer
    multiple of Ts; fractional delays and a non-finite A or B are rejected.
    """
    if not Ts > 0:
        raise InvalidParameterError(f"Ts must be > 0, got {Ts}")
    kd = delay_steps(Td, Ts)
    n = cm.A_c.shape[0]
    m = cm.B_c.shape[1]
    Maug = np.zeros((n + m, n + m))
    Maug[:n, :n] = cm.A_c
    Maug[:n, n:] = cm.B_c
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite E is rejected below
        E = expm_small(Maug * Ts)
    if not np.isfinite(E).all():
        raise InvalidParameterError(
            f"exp(A_c Ts) is not finite: Ts = {Ts}, A_c = {cm.A_c.tolist()}")
    return DiscreteModel(A=E[:n, :n], B=E[:n, n:], Ts=Ts, kd=kd)


def delay_steps(Td: float, Ts: float) -> int:
    """Number of Ts steps in the input delay Td: a whole number, at most MAX_STEPS."""
    ratio = Td / Ts
    if not (0 <= ratio < MAX_STEPS + 0.5 and abs(ratio - round(ratio)) <= 1e-9):  # NaN fails
        raise InvalidParameterError(f"input delay {Td} s is not an integer multiple of Ts={Ts} s, "
                                    f"at most {MAX_STEPS} of them (ratio {ratio})",
                                    "input_delay_Td")
    return round(ratio)


def augment(dm: DiscreteModel) -> AugmentedModel:
    """Append the wind torque as a constant state driven through B."""
    A_aug = np.zeros((3, 3))
    A_aug[:2, :2] = dm.A
    A_aug[:2, 2:] = dm.B
    A_aug[2, 2] = 1.0
    B_aug = np.vstack([dm.B, [[0.0]]])
    C_aug = np.array([[1.0, 0.0, 0.0]])
    return AugmentedModel(A_aug=A_aug, B_aug=B_aug, C_aug=C_aug)


def observability_matrix(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Stacked observability matrix [C; CA; ...; CA^(n-1)]."""
    n = A.shape[0]
    rows = [C]
    for _ in range(n - 1):
        rows.append(rows[-1] @ A)
    return np.vstack(rows)


def check_observability(am: AugmentedModel) -> int:
    """Numerical rank of the augmented pair's observability matrix.

    Singular values below RANK_RTOL times the largest singular value
    count as zero.
    """
    O = observability_matrix(am.A_aug, am.C_aug)
    sv = np.linalg.svd(O, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_RTOL * sv[0]))
