"""Property tests: generated inputs, each checked against an independent oracle."""

import configparser
import contextlib
import dataclasses
import io
import math
import os
import re
import tempfile
from importlib import resources

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from crosswind.cli import main as cli_main
from crosswind.errors import PlantDivergenceError, ScenarioError
from crosswind.harness import check_causality, run_scenario
from crosswind.model import delay_steps
from crosswind.qpsolve import DEFAULT_TOL, QpProblem, check_kkt, solve_qp
from crosswind.scenario import SCENARIO_SCHEMA, parse_scenario

from conftest import capped_lagrangians

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
    A_ub = b_ub = None
    if p.rows is not None:
        A, b = np.vstack([p.rows, -p.rows]), np.concatenate([p.row_upper, -p.row_lower])
        A_ub, b_ub = A[np.isfinite(b)], b[np.isfinite(b)]
    lp = linprog(np.zeros(p.n), A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert lp.status in (0, 2), lp.message
    return lp.status == 0


@settings(derandomize=True, database=None, deadline=None)
@given(small_qps())
def test_qp_status_is_certified(p):
    """Every optimal solve passes check_kkt on an LP-feasible QP, every infeasible
    one is LP-infeasible. Some drawn rows are zero rows, which are constraints too."""
    sol = solve_qp(p)
    assert sol.status in ("optimal", "infeasible")  # never max_iters at the default cap
    if sol.status == "optimal":
        assert check_kkt(p, sol.u_star, sol.multipliers) <= DEFAULT_TOL
        assert lp_feasible(p)
    else:
        assert not lp_feasible(p)


@settings(derandomize=True, database=None, deadline=None)
@given(small_qps())
def test_capped_solves_never_lower_the_lagrangian(p):
    """The dual active-set method's Lagrangian, read at each iterate from the
    solves capped at 1, 2, ... steps, does not decrease from one step to the next."""
    _, values = capped_lagrangians(p)
    assert all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(values, values[1:]))


# a PID, a band-QP MPC and a full-plant scenario, each cut to 2 s with its weight on at 1 s
SHORT_BASES = ("fig8_pid_weight_step", "mpc_tight_limit_weight_step", "fullplant_weight_step")
SCHEMA_KEYS = [(section, key) for section, keys in SCENARIO_SCHEMA.items() for key in keys]
BAD_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300", "", "%", "%(ts)s", "zz")
# one document in four gets a [DEFAULT] or an unknown section
EXTRA_SECTIONS = ("",) * 9 + ("[DEFAULT]\nts = 0.2\n", "[DEFAULT]\nfoo = 1\n", "[extra]\nfoo = 1\n")
# the trace columns of the plant, the command and the disturbance
FINITE_COLUMNS = ("theta", "theta_dot", "wingtip_disp", "cmd_torque", "applied_torque",
                  "tau_w_true")
# an error names a schema section or section.key, alone or first in a list
_NAMED = re.compile(r"([a-z_]+)(?:\.([a-z_]+))?[:,] ")


def _short_copy(name: str) -> configparser.RawConfigParser:
    doc = configparser.RawConfigParser()
    doc.read_string((resources.files("crosswind") / "scenarios" / f"{name}.cfg")
                    .read_text(encoding="utf-8"))
    doc.read_dict({"scenario": {"duration": "2.0"}, "weights": {"schedule": "1:15"}})
    return doc


@st.composite
def scenario_documents(draw):
    """A short bundled scenario with one or two keys set to a bad value, and
    sometimes a [DEFAULT] or an unknown section; returns (text, extra section)."""
    doc = _short_copy(draw(st.sampled_from(SHORT_BASES)))
    edits = st.tuples(st.sampled_from(SCHEMA_KEYS), st.sampled_from(BAD_VALUES))
    for (section, key), value in draw(st.lists(edits, min_size=1, max_size=2)):
        doc.read_dict({section: {key: value}})
    text = io.StringIO()
    doc.write(text)
    extra = draw(st.sampled_from(EXTRA_SECTIONS))
    return text.getvalue() + extra, extra


def _cli_exit(text: str) -> tuple:
    """The CLI's exit status and standard error for ``run`` on the document."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = os.path.join(tmp, "doc.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code = cli_main(["run", path])
    return code, err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(scenario_documents())
def test_scenario_input_runs_or_fails_by_key(document):
    """Every document runs to a finite, causal, repeatable trace, fails as a
    ScenarioError that names its section or key (CLI exit 1), or diverges
    with a step and a finite state (CLI exit 2)."""
    text, extra = document
    try:
        cfg = parse_scenario(text)
        trace = run_scenario(cfg)
    except ScenarioError as exc:
        named = _NAMED.match(str(exc))
        section, key = named.groups() if named else (None, None)
        assert (section in SCENARIO_SCHEMA and key in (None, *SCENARIO_SCHEMA[section])
                or extra and str(exc).startswith(f"unknown section {extra.splitlines()[0]}")), exc
        code, err = _cli_exit(text)
        assert code == 1 and err == f"error: {exc}\n"
    except PlantDivergenceError as exc:
        state = dataclasses.astuple(exc.state)
        assert 0 <= exc.step < round(cfg.duration / cfg.Ts) and np.isfinite(state).all(), exc
        code, err = _cli_exit(text)
        assert code == 2 and err.startswith("runtime divergence: ")
    else:
        limit = cfg.plant_params.torque_limit
        kd = delay_steps(cfg.plant_params.input_delay_Td, cfg.Ts)
        assert len(trace) == round(cfg.duration / cfg.Ts)
        assert all(math.isfinite(getattr(r, name)) for r in trace for name in FINITE_COLUMNS)
        assert check_causality(trace, kd, limit, atol=0)
        assert repr(run_scenario(cfg)) == repr(trace)
