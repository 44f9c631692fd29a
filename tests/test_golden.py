"""Golden-trace gate: the theta and cmd_torque columns of every bundled
scenario stay within 1e-9 of the CSVs in tests/golden, which
tests/golden/make_golden.py wrote before the last change of solver or loop,
and each run makes its pinned number of QP solves and of exact no-bound-binds
tests in the constrained MPC step; and the tolerance rule of
tests/golden/compare_traces.py --atol."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from crosswind import controllers as ctrl
from crosswind.harness import run_scenario
from crosswind.qpsolve import QpWorkspace
from crosswind.scenario import bundled_scenario_names, load_bundled_scenario

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ATOL = 1e-9
# QpWorkspace.solve calls in a run at the scenario's own seed; a constrained
# MPC step calls it only when a bound binds, so every other scenario makes none
QP_SOLVES = {"mpc_tight_limit_weight_step": 165}
# constrained MPC steps in a run that the reach bound cannot clear, so that they
# reach the exact numpy test on u = -L xs; fig9_mpc_weight_square reaches it on
# none of its 1150 steps, and every unlisted scenario on none
EXACT_TESTS = {"fig2_mpc_steady": 10, "fig7_estimator_weights": 3,
               "fig7_estimator_weights_kalman": 7, "mpc_tight_limit_weight_step": 256}


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_trace_matches_golden(name, monkeypatch):
    path = GOLDEN_DIR / f"{name}.csv"
    assert path.read_text(encoding="utf-8").splitlines()[0] == "theta,cmd_torque"
    golden = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    solve, solves = QpWorkspace.solve, []

    def counted_solve(self, *args, **kwargs):
        solves.append(name)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(QpWorkspace, "solve", counted_solve)
    exact, exact_tests = ctrl._solve_if_a_bound_binds, []

    def counted_exact_test(*args):
        exact_tests.append(name)
        return exact(*args)

    monkeypatch.setattr(ctrl, "_solve_if_a_bound_binds", counted_exact_test)
    trace = run_scenario(load_bundled_scenario(name))
    got = np.array([[r.theta, r.cmd_torque] for r in trace])
    assert got.shape == golden.shape
    err = np.max(np.abs(got - golden), axis=0)
    assert np.all(err <= ATOL), f"{name}: max deviation theta {err[0]:.3e}, cmd_torque {err[1]:.3e}"
    assert len(solves) == QP_SOLVES.get(name, 0)
    assert len(exact_tests) == EXACT_TESTS.get(name, 0)


def _compare_traces():
    spec = importlib.util.spec_from_file_location("compare_traces",
                                                  GOLDEN_DIR / "compare_traces.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("theta,status,atol,verdict", [
    ("0.5", "optimal", None, (True, True)),  # byte-identical
    ("0.5000000000001", "optimal", None, (False, False)),
    ("0.5000000000001", "optimal", 1e-9, (False, True)),
    ("0.50001", "optimal", 1e-9, (False, False)),
    ("0.5", "infeasible_fallback", 1e9, (False, False)),  # no tolerance covers qp_status
    ("nan", "optimal", 1e9, (False, False)),  # NaN on one side only
])
def test_compare_traces_tolerance(tmp_path, capsys, theta, status, atol, verdict):
    compare = _compare_traces().compare
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("t,theta,qp_status\n0.0,0.5,optimal\n0.1,0.25,optimal\n")
    new.write_text(f"t,theta,qp_status\n0.0,{theta},{status}\n0.1,0.25,optimal\n")
    assert compare("s", old, new, "REV", atol) == verdict
    assert capsys.readouterr().out.startswith("s: ")
