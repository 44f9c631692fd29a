import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from crosswind.controllers import PredictionStack
from crosswind.model import (
    RollPlantParams,
    augment,
    continuous_roll_model,
    discretize_zoh,
)
from crosswind.qpsolve import QpProblem, QpWorkspace, constraint_stack

# A longer run of a property test at its fixed (derandomized) examples: 20 times
# hypothesis's default 100 to a test that sets no max_examples of its own, e.g.
#   pytest --hypothesis-profile=stress tests/test_controllers.py -k reach_bound
settings.register_profile("stress", max_examples=2000, derandomize=True, database=None,
                          deadline=None)


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


BOUND_KINDS = ("box", "free", "lower_only", "upper_only", "pinned")


@st.composite
def small_qps(draw):
    """A QP with n <= 6, a well-conditioned H, mixed box bounds and 0-4 row bands.

    The row bands are drawn independently of the box, so some cannot be
    met inside it and the QP is infeasible. Some rows are zero rows, whose
    band holds for every u when it contains 0 and for none otherwise.
    """
    n = draw(st.integers(1, 6))

    def floats(size, lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    B = floats(n * n, -1.0, 1.0).reshape(n, n)
    H = B @ B.T + n * np.eye(n)  # eigenvalues in [n, 2n]: condition number at most 2
    f = floats(n, -10.0, 10.0)
    centre, width = floats(n, -3.0, 3.0), floats(n, 0.0, 2.0)
    kinds = np.array(draw(st.lists(st.sampled_from(BOUND_KINDS), min_size=n, max_size=n)))
    lower = np.where(np.isin(kinds, ("free", "upper_only")), -np.inf, centre - width)
    upper = np.where(np.isin(kinds, ("free", "lower_only")), np.inf, centre + width)
    pinned = kinds == "pinned"
    lower[pinned] = upper[pinned] = centre[pinned]
    m = draw(st.integers(0, 4))
    if m == 0:
        return QpProblem(H=H, f=f, lower=lower, upper=upper)
    rows = floats(m * n, -1.0, 1.0).reshape(m, n)
    rows[np.abs(rows) < 1e-6] = 0.0  # HiGHS reads tinier entries as 0; so both see one QP
    rows[draw(st.lists(st.booleans(), min_size=m, max_size=m))] = 0.0
    row_centre, row_width = floats(m, -6.0, 6.0), floats(m, 0.0, 2.0)
    open_below, open_above = (np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
                              for _ in range(2))
    return QpProblem(H=H, f=f, lower=lower, upper=upper, rows=rows,
                     row_lower=np.where(open_below, -np.inf, row_centre - row_width),
                     row_upper=np.where(open_above, np.inf, row_centre + row_width))


def lp_feasible(p: QpProblem) -> bool:
    """Whether the constraints of ``p`` have a solution, by scipy's HiGHS LP."""
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
              for lo, hi in zip(p.lower, p.upper)]
    A, b = np.vstack([p.rows, -p.rows]), np.concatenate([p.row_upper, -p.row_lower])
    lp = linprog(np.zeros(p.n), A_ub=A[np.isfinite(b)], b_ub=b[np.isfinite(b)], bounds=bounds,
                 method="highs")
    assert lp.status in (0, 2), lp.message
    return lp.status == 0
