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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosswind.cli import main as cli_main
from crosswind.errors import PlantDivergenceError, ScenarioError
from crosswind.harness import check_causality, run_scenario
from crosswind.model import delay_steps
from crosswind.qpsolve import DEFAULT_TOL, QpProblem, check_kkt, solve_qp
from crosswind.scenario import SCENARIO_SCHEMA, parse_scenario

from conftest import capped_lagrangians, lp_feasible, small_qps


@settings(derandomize=True, database=None, deadline=None)
@given(small_qps(), st.integers(-9, 300))
# an unconstrained optimum whose gradient is rounding noise above 1
@example(QpProblem(H=[[2.921410913874391e17]], f=[-7.466147714688387e18],
                   lower=[-1e3], upper=[1e3]), 0)
def test_qp_status_is_certified(p, k):
    """With H and f scaled by 10^k, every optimal solve passes check_kkt on an
    LP-feasible QP, every infeasible one is LP-infeasible. Some drawn rows are
    zero rows, which are constraints too."""
    p = dataclasses.replace(p, H=p.H * 10.0 ** k, f=p.f * 10.0 ** k)
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


# a PID, a band-QP MPC, a full-plant and a Kalman-filter scenario, each cut to 2 s with
# its weight on at 1 s
SHORT_BASES = ("fig8_pid_weight_step", "mpc_tight_limit_weight_step", "fullplant_weight_step",
               "fig7_estimator_weights_kalman")
SCHEMA_KEYS = [(section, key) for section, keys in SCENARIO_SCHEMA.items() for key in keys]
BAD_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300", "", "%", "%(ts)s", "zz")
# a "floats" key may get three tokens: one of BAD_VALUES among two of these. Those keys
# are drawn four times as often as the others, so that such values come up.
FINITE_TOKENS = ("0.0001", "0.15", "0.7", "3e8")
EDIT_KEYS = SCHEMA_KEYS + [(section, key) for section, key in SCHEMA_KEYS
                           if SCENARIO_SCHEMA[section][key][0] == "floats"] * 3
# one document in four gets a [DEFAULT] or an unknown section
EXTRA_SECTIONS = ("",) * 9 + ("[DEFAULT]\nts = 0.2\n", "[DEFAULT]\nfoo = 1\n", "[extra]\nfoo = 1\n")
# the trace columns of the plant, the command and the disturbance
FINITE_COLUMNS = ("theta", "theta_dot", "wingtip_disp", "cmd_torque", "applied_torque",
                  "tau_w_true")
# an error names a schema section or section.key, alone or first in a list
_NAMED = re.compile(r"([a-z_]+)(?:\.([a-z_]+))?[:,] ")


def short_document(name: str, edits=(), extra: str = "") -> tuple:
    """(text, extra): the bundled scenario cut to 2 s, with ``edits`` of
    ((section, key), value) applied and the ``extra`` section appended."""
    doc = configparser.RawConfigParser()
    doc.read_string((resources.files("crosswind") / "scenarios" / f"{name}.cfg")
                    .read_text(encoding="utf-8"))
    doc.read_dict({"scenario": {"duration": "2.0"}, "weights": {"schedule": "1:15"}})
    for (section, key), value in edits:
        doc.read_dict({section: {key: value}})
    text = io.StringIO()
    doc.write(text)
    return text.getvalue() + extra, extra


@st.composite
def bad_edits(draw):
    """((section, key), value): a bad value, or for a "floats" key sometimes
    three tokens with one bad token among finite ones."""
    section, key = draw(st.sampled_from(EDIT_KEYS))
    value = draw(st.sampled_from(BAD_VALUES))
    if SCENARIO_SCHEMA[section][key][0] == "floats" and draw(st.booleans()):
        tokens = draw(st.lists(st.sampled_from(FINITE_TOKENS), min_size=2, max_size=2))
        tokens.insert(draw(st.integers(0, 2)), value)
        value = " ".join(tokens)
    return (section, key), value


@st.composite
def scenario_documents(draw):
    """A short bundled scenario with one or two keys set to a bad value, and
    sometimes a [DEFAULT] or an unknown section; returns (text, extra section)."""
    return short_document(draw(st.sampled_from(SHORT_BASES)),
                          draw(st.lists(bad_edits(), min_size=1, max_size=2)),
                          draw(st.sampled_from(EXTRA_SECTIONS)))


def _cli_exit(text: str) -> tuple:
    """The CLI's exit status and standard error for ``run`` on the document."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = os.path.join(tmp, "doc.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code = cli_main(["run", path])
    return code, err.getvalue()


# a Q too large for the Riccati solve's norms: a RuntimeWarning at parse, on either estimator
@example(short_document("fig7_estimator_weights_kalman",
                        [(("estimator_params", "q_diag"), "0.0001 0.15 1e300")]))
@example(short_document("mpc_tight_limit_weight_step",
                        [(("estimator_params", "q_diag"), "0.0001 0.15 1e300")]))
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
