import numpy as np
import pytest

from crosswind.controllers import PredictionStack
from crosswind.model import (
    RollPlantParams,
    augment,
    continuous_roll_model,
    discretize_zoh,
)
from crosswind.qpsolve import QpProblem, QpWorkspace, constraint_stack


@pytest.fixture(scope="session")
def nominal_params():
    return RollPlantParams()


@pytest.fixture(scope="session")
def nominal_cm(nominal_params):
    return continuous_roll_model(nominal_params)


@pytest.fixture(scope="session")
def nominal_dm(nominal_cm):
    return discretize_zoh(nominal_cm, Ts=0.1, Td=1.0)


@pytest.fixture(scope="session")
def nominal_am(nominal_dm):
    return augment(nominal_dm)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def shift_from_history(x, history: np.ndarray, stack: PredictionStack) -> np.ndarray:
    """x(k+kd) from x(k) and the kd inputs applied in between: the exact O(kd)
    product K_shift x + M_shift history, the reference for the O(1) shift."""
    return stack.K_shift @ np.array([x.theta, x.theta_dot]) + stack.M_shift @ history


def capped_lagrangians(p: QpProblem, ws: QpWorkspace | None = None) -> tuple:
    """The solve of ``p`` and the Lagrangian u'Hu + f'u + lam'(M u - gamma) at each
    of its iterates, read from the solves capped at max_iters = 1 ... its iteration
    count; only the finite entries of gamma count. The dual method never lowers it."""
    ws = ws or QpWorkspace(p.H, p.rows)
    bounds = (p.lower, p.upper, p.row_lower, p.row_upper)
    M, gamma = constraint_stack(p)
    usable = gamma < np.inf
    M, gamma = M[usable], gamma[usable]
    sol = ws.solve(p.f, *bounds)
    values = []
    for k in range(1, sol.iterations + 1):
        capped = ws.solve(p.f, *bounds, max_iters=k)
        u, lam = capped.u_star, capped.multipliers[usable]
        values.append(float(u @ p.H @ u + p.f @ u + lam @ (M @ u - gamma)))
    return sol, values
