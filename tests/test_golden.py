"""Golden-trace gate: the theta and cmd_torque columns of every bundled
scenario stay within 1e-9 of the CSVs in tests/golden, which
tests/golden/make_golden.py wrote before the last change of solver or loop."""

from pathlib import Path

import numpy as np
import pytest

from crosswind.harness import run_scenario
from crosswind.scenario import bundled_scenario_names, load_bundled_scenario

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ATOL = 1e-9


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_trace_matches_golden(name):
    path = GOLDEN_DIR / f"{name}.csv"
    assert path.read_text(encoding="utf-8").splitlines()[0] == "theta,cmd_torque"
    golden = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    trace = run_scenario(load_bundled_scenario(name))
    got = np.array([[r.theta, r.cmd_torque] for r in trace])
    assert got.shape == golden.shape
    err = np.max(np.abs(got - golden), axis=0)
    assert np.all(err <= ATOL), f"{name}: max deviation theta {err[0]:.3e}, cmd_torque {err[1]:.3e}"
