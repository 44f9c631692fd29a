import numpy as np
import pytest

from crosswind.controllers import PredictionStack
from crosswind.model import (
    RollPlantParams,
    augment,
    continuous_roll_model,
    discretize_zoh,
)


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
