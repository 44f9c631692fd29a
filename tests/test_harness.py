import math
import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from crosswind import controllers as ctrl
from crosswind.cli import main as cli_main
from crosswind.errors import PlantDivergenceError, ScenarioError
from crosswind.estimator import ObserverState
from crosswind.harness import (
    TRACE_HEADER,
    Trace,
    TraceRecord,
    check_causality,
    compute_metrics,
    read_trace,
    response_reduction,
    response_time,
    run_scenario,
    write_trace,
)
from crosswind.qpsolve import QpProblem, QpWorkspace
from crosswind.scenario import bundled_scenario_names, load_bundled_scenario, parse_scenario

from conftest import lp_feasible, shift_from_history

QUIET = """
[scenario]
controller = {controller}
estimator = {estimator}
feedforward = {ff}
duration = 20.0
noise_std = 0.0
"""


# output bounds tight enough that the QP is infeasible in the weight event's transient
TIGHT_BAND = """
[scenario]
controller = mpc_constrained
estimator = pole_place
feedforward = true
duration = 40.0

[mpc]
output_min = -0.004
output_max = 0.004

[weights]
side = left
schedule = 10:15
"""


def make_trace(disps, dt=0.1):
    return [TraceRecord(t=k * dt, theta=d, theta_dot=0.0, wingtip_disp=d,
                        cmd_torque=0.0, applied_torque=0.0, tau_w_true=0.0,
                        tau_w_hat=0.0, tau_w_hat_filtered=0.0, qp_status="none")
            for k, d in enumerate(disps)]


def causal_trace(cmds, kd, limit=1.0):
    """A trace whose applied torque is its command kd steps late, clipped to the limit."""
    applied = [0.0] * kd + [min(max(c, -limit), limit) for c in cmds]
    return [replace(r, cmd_torque=c, applied_torque=a)
            for r, c, a in zip(make_trace([0.0] * len(cmds)), cmds, applied)]


class TestRunScenario:
    @pytest.mark.parametrize("controller,estimator,ff", [
        ("pid", "none", "false"),
        ("mpc_constrained", "pole_place", "true"),
        ("mpc_unconstrained", "kalman", "true"),
    ])
    def test_equilibrium_stays_zero(self, controller, estimator, ff):
        cfg = parse_scenario(QUIET.format(controller=controller, estimator=estimator, ff=ff))
        trace = run_scenario(cfg)
        assert len(trace) == 200
        assert max(abs(r.theta) for r in trace) < 1e-12
        assert max(abs(r.cmd_torque) for r in trace) < 1e-9

    def test_wingtip_is_half_span_exact(self):
        cfg = load_bundled_scenario("fig8_mpc_weight_step")
        trace = run_scenario(cfg)
        d = cfg.plant_params.wingspan_d
        for r in trace[::50]:
            assert r.wingtip_disp == r.theta * d / 2

    def test_causality_and_saturation(self):
        for name in bundled_scenario_names():
            cfg = load_bundled_scenario(name)
            trace = run_scenario(cfg)
            kd = round(cfg.plant_params.input_delay_Td / cfg.Ts)
            assert check_causality(trace, kd, cfg.plant_params.torque_limit, atol=0.0), name

    @pytest.mark.parametrize("name", ["fig8_pid_weight_step", "fig10_unconstrained_weight_step",
                                      "fig8_mpc_weight_step"])
    def test_zero_delay_runs_end_to_end(self, name, tmp_path):
        cfg = load_bundled_scenario(name, overrides={"plant_params.input_delay": "0"})
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            trace = run_scenario(cfg)
            write_trace(trace, str(p))
        assert all(math.isfinite(v) for r in trace
                   for v in (r.theta, r.theta_dot, r.cmd_torque, r.applied_torque))
        assert check_causality(trace, 0, cfg.plant_params.torque_limit, atol=0.0)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_estimator_columns_nan_without_estimator(self):
        cfg = load_bundled_scenario("fig8_pid_weight_step")
        trace = run_scenario(cfg)
        assert math.isnan(trace[0].tau_w_hat)
        assert math.isnan(trace[-1].tau_w_hat_filtered)

    def test_estimate_tracks_disturbance(self):
        cfg = load_bundled_scenario("fig8_mpc_weight_step")
        trace = run_scenario(cfg)
        # steady window well after the 10 s weight event
        tail = [r for r in trace if 30.0 <= r.t <= 40.0]
        true = tail[0].tau_w_true
        for r in tail:
            assert abs(r.tau_w_hat_filtered - true) < 0.1 * abs(true)

    def test_full_plant_tracks_simplified_loop(self):
        full = run_scenario(load_bundled_scenario("fullplant_weight_step"))
        simp = run_scenario(load_bundled_scenario(
            "fig8_mpc_weight_step", overrides={"scenario.duration": "40.0"}))
        # same controller family, same disturbance size: comparable peaks
        peak_full = max(abs(r.wingtip_disp) for r in full)
        peak_simp = max(abs(r.wingtip_disp) for r in simp)
        assert peak_full == pytest.approx(peak_simp, rel=0.15)

    def test_infeasible_qp_falls_back_and_recovers(self):
        """Tight predicted-output bounds provoke an infeasible QP during the
        disturbance transient; the loop flags it, falls back to the
        closed-form law, and still settles."""
        trace = run_scenario(parse_scenario(TIGHT_BAND))
        statuses = {r.qp_status for r in trace}
        assert "infeasible_fallback" in statuses
        assert "optimal" in statuses
        m = compute_metrics(trace, band=0.02, events=[10.0])
        assert m.settled

    @pytest.mark.parametrize("controller", ["mpc_unconstrained", "mpc_constrained"])
    def test_mpc_steps_read_the_observer_state(self, controller, monkeypatch):
        # the estimate reaches the MPC as it is, and a fallback step reuses it
        seen = {}
        for name in ("mpc_unconstrained_step", "mpc_constrained_step"):
            def recording(x, *args, _step=getattr(ctrl, name), _seen=seen.setdefault(name, []),
                          **kwargs):
                _seen.append(x)
                return _step(x, *args, **kwargs)
            monkeypatch.setattr(ctrl, name, recording)
        trace = run_scenario(parse_scenario(TIGHT_BAND.replace("mpc_constrained", controller)))
        closed_form, constrained = seen["mpc_unconstrained_step"], seen["mpc_constrained_step"]
        assert all(type(x) is ObserverState for x in closed_form + constrained)
        if controller == "mpc_unconstrained":
            assert len(closed_form) == len(trace) and not constrained
        else:
            fell_back = [x for x, r in zip(constrained, trace)
                         if r.qp_status == "infeasible_fallback"]
            assert len(constrained) == len(trace) and fell_back
            assert len(closed_form) == len(fell_back)
            assert all(a is b for a, b in zip(fell_back, closed_form))

    def test_binding_limits_fall_back_only_when_infeasible(self, monkeypatch):
        """At a 380 N m limit with a +-0.01 rad output band the box and the
        band bind for many steps; every QP an LP finds feasible is solved
        to optimality, so no step falls back."""
        from scipy.optimize import linprog

        cfg = parse_scenario("""
[scenario]
controller = mpc_constrained
estimator = pole_place
feedforward = true
duration = 40.0
noise_std = 0.002
rng_seed = 1

[plant_params]
torque_limit = 380.0

[mpc]
output_min = -0.01
output_max = 0.01

[weights]
side = left
schedule = 10:15
""")
        solves, steps = [], []
        solve, step = QpWorkspace.solve, ctrl.mpc_constrained_step

        def recording(ws, f, lower, upper, row_lower=None, row_upper=None, **kwargs):
            sol = solve(ws, f, lower, upper, row_lower, row_upper, **kwargs)
            solves.append((ws, lower, upper, row_lower, row_upper, sol))
            return sol

        def stepping(x, buf, stack, mpc, wind_estimate=0.0, **kwargs):
            # this step's whole QP, solved directly: does a bound bind?
            xs = shift_from_history(x, buf.as_array() + wind_estimate, stack)
            F = stack.Phi @ xs
            ref = solve(stack.qp, 2.0 * (stack.G.T @ (stack.Qc_diag * F)),
                        np.full(mpc.Np, mpc.u_min + wind_estimate),
                        np.full(mpc.Np, mpc.u_max + wind_estimate), mpc.y_min - F, mpc.y_max - F)
            n_solves = len(solves)
            try:
                return step(x, buf, stack, mpc, wind_estimate=wind_estimate, **kwargs)
            finally:
                steps.append((ref.iterations > 0 or ref.status != "optimal",
                              len(solves) > n_solves))

        monkeypatch.setattr(QpWorkspace, "solve", recording)
        monkeypatch.setattr(ctrl, "mpc_constrained_step", stepping)
        trace = run_scenario(cfg)
        # the solver runs on exactly the steps where a bound binds
        assert len(steps) == len(trace)
        assert [solved for _, solved in steps] == [binds for binds, _ in steps]
        # a solve warm-started at its optimum takes no step, so bind means a constraint
        # is active there
        binding = [s for s in solves if (s[-1].multipliers > 0).any() or s[-1].status != "optimal"]
        assert len(binding) == len(solves) >= 20
        for ws, lower, upper, row_lower, row_upper, sol in binding:
            lp = linprog(np.zeros(ws.n), A_ub=np.vstack([ws.rows, -ws.rows]),
                         b_ub=np.concatenate([row_upper, -row_lower]),
                         bounds=list(zip(lower, upper)), method="highs")
            if lp.status == 0:
                assert sol.status == "optimal"
        assert {r.qp_status for r in trace} == {"optimal"}

    def test_warm_starts_take_under_half_the_cold_steps(self, monkeypatch):
        """The bundled band scenario's 165 solves, each warm-started from the run's
        table, end as their cold solves do in under half the active-set steps."""
        solve, solves = QpWorkspace.solve, []

        def recording(ws, *args, **kwargs):
            sol = solve(ws, *args, **kwargs)
            solves.append((sol, solve(ws, *args)))
            return sol

        monkeypatch.setattr(QpWorkspace, "solve", recording)
        run_scenario(load_bundled_scenario("mpc_tight_limit_weight_step"))
        assert len(solves) == 165
        for warm, cold in solves:
            assert warm.status == cold.status == "optimal"
            assert np.abs(warm.u_star - cold.u_star).max() <= 1e-9 * max(
                1.0, np.abs(cold.u_star).max())
        assert 2 * sum(w.iterations for w, _ in solves) < sum(c.iterations for _, c in solves)

    @pytest.mark.parametrize("weight", ["1e-13", "1e-12", "1e-9", "1e200"])
    def test_warm_starts_keep_the_qp_status(self, weight, monkeypatch):
        """At control weights far from the default, where every cold solve is
        optimal, the warm-started run flags the same steps as a cold one."""
        cfg = load_bundled_scenario("mpc_tight_limit_weight_step",
                                    overrides={"mpc.control_weight": weight})
        warm = [r.qp_status for r in run_scenario(cfg)]
        solve = QpWorkspace.solve
        monkeypatch.setattr(QpWorkspace, "solve",
                            lambda ws, *args, start=None, **kwargs: solve(ws, *args, **kwargs))
        assert warm == [r.qp_status for r in run_scenario(cfg)]
        assert set(warm) == {"optimal"}

    @pytest.mark.parametrize("band", [True, False], ids=["band", "box"])
    @pytest.mark.parametrize("weight", ["1e-18", "1e-15", "1e-14", "1e-12", "1e-9", "1e200",
                                        "1e300", "1e305", "1e307"])
    def test_every_control_weight_runs_with_honest_qp_statuses(self, weight, band,
                                                               monkeypatch):
        """The bundled band scenario, and its box-only variant, at control weights
        from 1e-18 (cond(H) near 2e8) to 1e300 (max|H| near 1e300) runs to the end
        without a warning; its optimal solves are certified, with finite
        multipliers and objective, and every other solve is on a QP that HiGHS
        finds infeasible. A weight above 1e300 may instead be rejected at parse
        time, naming its key."""
        overrides = {"mpc.control_weight": weight}
        if not band:
            overrides.update({"mpc.output_min": "none", "mpc.output_max": "none"})
        try:
            cfg = load_bundled_scenario("mpc_tight_limit_weight_step", overrides=overrides)
        except ScenarioError as exc:
            assert float(weight) > 1e300 and str(exc).startswith("mpc.control_weight: ")
            return
        solve, solves = QpWorkspace.solve, []

        def recording(ws, f, lower, upper, row_lower=None, row_upper=None, **kwargs):
            sol = solve(ws, f, lower, upper, row_lower, row_upper, **kwargs)
            solves.append((QpProblem(H=ws.H, f=f, lower=lower, upper=upper, rows=ws.rows,
                                     row_lower=row_lower, row_upper=row_upper), sol))
            return sol

        monkeypatch.setattr(QpWorkspace, "solve", recording)
        trace = run_scenario(cfg)
        assert len(trace) == 400 and solves
        for p, sol in solves:
            if sol.status == "optimal":
                assert sol.kkt_residual <= 1e-8
                assert np.isfinite(sol.multipliers).all() and math.isfinite(sol.objective)
            else:
                assert not lp_feasible(p)

    def test_feedforward_speeds_up_pid(self):
        """Feed-forward compensation also helps the PID loop."""
        cfg_ff = parse_scenario("""
[scenario]
controller = pid
estimator = pole_place
feedforward = true
duration = 70.0
rng_seed = 3

[weights]
side = left
schedule = 10:15
""")
        m_ff = compute_metrics(run_scenario(cfg_ff), band=0.02, events=[10.0])
        m_plain = compute_metrics(run_scenario(load_bundled_scenario("fig8_pid_weight_step")),
                                  band=0.02, events=[10.0])
        assert m_ff.settled
        assert m_ff.settling_time < m_plain.settling_time

    def test_bundled_suite_ordering(self):
        """For every paired disturbance event, the estimation-based MPC settles
        faster than the PID baseline (a run that never settles counts its
        full window)."""
        pairs = [("fig2_pid_steady", "fig2_mpc_steady"),
                 ("fig8_pid_weight_step", "fig8_mpc_weight_step"),
                 ("fig9_pid_weight_square", "fig9_mpc_weight_square")]
        for pid_name, mpc_name in pairs:
            cfg_pid = load_bundled_scenario(pid_name)
            cfg_mpc = load_bundled_scenario(mpc_name)
            m_pid = compute_metrics(run_scenario(cfg_pid), band=0.02,
                                    events=cfg_pid.event_times())
            m_mpc = compute_metrics(run_scenario(cfg_mpc), band=0.02,
                                    events=cfg_mpc.event_times())
            for e_pid, e_mpc in zip(m_pid.per_event, m_mpc.per_event):
                pid_time = (e_pid.settling_time if e_pid.settled
                            else e_pid.window_end - e_pid.event_time)
                assert e_mpc.settled
                assert e_mpc.settling_time < pid_time, (pid_name, e_pid.event_time)


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        cfg = load_bundled_scenario("fig6_mpc_square",
                                    overrides={"scenario.duration": "30.0"})
        paths = []
        for i in range(2):
            trace = run_scenario(cfg)
            p = tmp_path / f"trace{i}.csv"
            write_trace(trace, str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_a_run_does_not_depend_on_an_earlier_run(self, tmp_path):
        """The QP warm starts come from a table of the run's own, so a constrained
        run after another one writes the same bytes as when it runs alone."""
        first = load_bundled_scenario("mpc_tight_limit_weight_step",
                                      overrides={"scenario.rng_seed": "5"})
        then = load_bundled_scenario("mpc_tight_limit_weight_step")
        alone, after = tmp_path / "alone.csv", tmp_path / "after.csv"
        write_trace(run_scenario(then), str(alone))
        run_scenario(first)
        write_trace(run_scenario(then), str(after))
        assert alone.read_bytes() == after.read_bytes()

    def test_seed_changes_noise(self):
        base = load_bundled_scenario("fig8_mpc_weight_step",
                                     overrides={"scenario.duration": "15.0"})
        other = load_bundled_scenario("fig8_mpc_weight_step",
                                      overrides={"scenario.rng_seed": "99",
                                                 "scenario.duration": "15.0"})
        t1 = run_scenario(base)
        t2 = run_scenario(other)
        assert any(a.cmd_torque != b.cmd_torque for a, b in zip(t1, t2))


class TestTrace:
    """A run's Trace reads like the list of TraceRecords it replaced."""

    @staticmethod
    def band_run():
        # a QP with fallbacks, so qp_status takes two values
        return run_scenario(parse_scenario(TIGHT_BAND.replace("40.0", "15.0")))

    def test_rows_are_read_by_index_and_by_iteration(self):
        trace = run_scenario(load_bundled_scenario("fig8_mpc_weight_step",
                                                   overrides={"scenario.duration": "5.0"}))
        rows = list(trace)
        assert len(rows) == len(trace) == 50 and all(type(r) is TraceRecord for r in rows)
        assert trace[7] == rows[7] and trace[-1] == rows[-1] == trace[49]
        assert trace[-1].cmd_torque == trace.column("cmd_torque")[-1]
        assert list(trace[::10]) == rows[::10]
        with pytest.raises(IndexError):
            trace[50]

    def test_a_row_written_through_to_the_store(self):
        trace = self.band_run()
        before = trace.floats.copy()
        trace[-2] = replace(trace[-2], applied_torque=7.0, qp_status="edited")
        assert trace[-2].applied_torque == trace.column("applied_torque")[-2] == 7.0
        assert trace.qp_status[-2] == "edited" and trace[-1].qp_status != "edited"
        assert (trace.floats != before).sum() == 1

    def test_read_trace_gives_equal_columns(self, tmp_path):
        trace = self.band_run()
        assert {"optimal", "infeasible_fallback"} <= set(trace.qp_status)
        p = tmp_path / "t.csv"
        write_trace(trace, str(p))
        back = read_trace(str(p))
        assert isinstance(back, Trace) and back.floats.shape == trace.floats.shape
        np.testing.assert_array_equal(back.floats, trace.floats)
        assert back.qp_status == trace.qp_status

    @pytest.mark.parametrize("name", ["fig8_pid_weight_step", "mpc_tight_limit_weight_step"])
    def test_readers_agree_on_a_trace_and_its_rows(self, name, tmp_path):
        cfg = load_bundled_scenario(name, overrides={"scenario.duration": "15.0"})
        trace = run_scenario(cfg)
        rows = list(trace)
        paths = [tmp_path / "trace.csv", tmp_path / "rows.csv"]
        for t, p in zip((trace, rows), paths):
            write_trace(t, str(p))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        events = cfg.event_times()
        assert compute_metrics(trace, 0.02, events) == compute_metrics(rows, 0.02, events)
        kd = round(cfg.plant_params.input_delay_Td / cfg.Ts)
        limit = cfg.plant_params.torque_limit
        assert check_causality(trace, kd, limit, atol=0.0) is check_causality(rows, kd, limit,
                                                                              atol=0.0) is True

    def test_memory_per_step(self):
        """A run and its metrics take at most 150 bytes more per extra step."""
        def peak(duration):
            cfg = load_bundled_scenario("fig2_pid_steady",
                                        overrides={"scenario.duration": duration})
            tracemalloc.start()
            try:
                compute_metrics(run_scenario(cfg), 0.02, cfg.event_times())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("60.0")  # first-run costs land outside the difference
        assert (peak("120.0") - peak("60.0")) / 600 <= 150


class TestTraceIO:
    def test_header_and_row_count(self, tmp_path):
        p = tmp_path / "t.csv"
        write_trace(make_trace([0.0, 0.0, 0.0]), str(p))
        lines = p.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == TRACE_HEADER
        assert p.read_text().endswith("\n")

    def test_roundtrip_full_precision(self, tmp_path):
        cfg = load_bundled_scenario("fig8_mpc_weight_step",
                                    overrides={"scenario.duration": "10.0"})
        trace = run_scenario(cfg)
        p = tmp_path / "rt.csv"
        write_trace(trace, str(p))
        back = read_trace(str(p))
        assert len(back) == len(trace)
        for a, b in zip(trace, back):
            for field in ("t", "theta", "theta_dot", "wingtip_disp", "cmd_torque",
                          "applied_torque", "tau_w_true"):
                assert getattr(a, field) == getattr(b, field)
            assert a.qp_status == b.qp_status

    def test_roundtrip_nan_columns(self, tmp_path):
        cfg = load_bundled_scenario("fig8_pid_weight_step",
                                    overrides={"scenario.duration": "5.0"})
        trace = run_scenario(cfg)
        p = tmp_path / "nan.csv"
        write_trace(trace, str(p))
        back = read_trace(str(p))
        assert math.isnan(back[0].tau_w_hat)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected trace header"):
            read_trace(str(p))

    def test_row_missing_a_column_rejected(self, tmp_path):
        p = tmp_path / "short.csv"
        write_trace(make_trace([0.0, 0.0]), str(p))
        lines = p.read_text().splitlines()
        lines[2] = lines[2].split(",", 1)[1]  # drop the row's t
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="malformed trace row"):
            read_trace(str(p))

    def test_unwritable_path(self):
        with pytest.raises(OSError):
            write_trace(make_trace([0.0]), "/nonexistent-dir/x.csv")


class TestMetrics:
    def test_constant_zero(self):
        m = compute_metrics(make_trace([0.0] * 100), band=0.02)
        assert m.settling_time == 0.0
        assert m.peak_disp == 0.0
        assert m.settled

    def test_exponential_decay_crossing(self):
        # e^{-t} enters band 0.05 at t = ln(20) ~ 2.996
        dt = 0.1
        disps = [math.exp(-k * dt) for k in range(100)]
        m = compute_metrics(make_trace(disps, dt), band=0.05)
        assert m.settling_time == pytest.approx(math.log(20.0), abs=dt)

    def test_not_settled_flagged(self):
        disps = [0.5] * 50
        m = compute_metrics(make_trace(disps), band=0.02)
        assert m.settling_time is None
        assert not m.settled
        # an unsettled final event counts its whole window, 50 steps of 0.1 s
        assert response_time(m) == m.per_event[-1].window_end == pytest.approx(5.0)

    def test_multi_event_windows(self):
        dt = 0.1
        # two events at t=0 and t=5; settles 1 s after each
        disps = []
        for k in range(100):
            t = k * dt
            base = t if t < 5.0 else t - 5.0
            disps.append(0.5 if base < 1.0 else 0.0)
        m = compute_metrics(make_trace(disps, dt), band=0.02, events=[0.0, 5.0])
        assert len(m.per_event) == 2
        for e in m.per_event:
            assert e.settling_time == pytest.approx(1.0, abs=dt)
            assert e.peak_disp == 0.5

    def test_band_validation(self):
        for band in (0.0, -0.02, float("nan"), float("inf")):  # NaN and inf ran to a result
            with pytest.raises(ValueError, match="band"):
                compute_metrics(make_trace([0.0]), band=band)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            compute_metrics([], 0.02)

    def test_nan_displacement_is_outside_the_band(self):
        m = compute_metrics(make_trace([0.0] * 20 + [float("nan")] + [0.0] * 20), band=0.02)
        assert m.settling_time == pytest.approx(2.1)
        m = compute_metrics(make_trace([0.0] * 20 + [float("nan")]), band=0.02)
        assert not m.settled

    def test_response_reduction(self):
        slow = compute_metrics(make_trace([0.5] * 99 + [0.0]), band=0.02)
        fast_disps = [0.5] * 10 + [0.0] * 90
        fast = compute_metrics(make_trace(fast_disps), band=0.02)
        red = response_reduction(slow, fast)
        assert red == pytest.approx((9.9 - 1.0) / 9.9 * 100.0, abs=2.0)
        settled_at_0 = compute_metrics(make_trace([0.0] * 100), band=0.02)
        with pytest.raises(ValueError, match="baseline response time must be positive"):
            response_reduction(settled_at_0, fast)


class TestCausality:
    CMDS = [0.5, -2.0, 0.25, 3.0, -0.75, 0.0, 0.4]  # two beyond the limit of 1

    def test_delayed_clipped_commands_accepted(self):
        assert check_causality(causal_trace(self.CMDS, 2), 2, 1.0, atol=0.0)

    def test_trace_shorter_than_the_delay_accepted(self):
        assert check_causality(causal_trace(self.CMDS[:3], 5), 5, 1.0, atol=0.0)

    @pytest.mark.parametrize("step,applied", [
        (5, 3.0),  # the command applied on time but not clipped: over the limit
        (4, 0.25 + 2e-9),  # off cmd(k - kd) by 2 atol, inside the limit
        (1, 1e-300),  # a torque before the first command can arrive
        (6, float("nan")),
    ])
    def test_one_broken_rule_rejected(self, step, applied):
        trace = causal_trace(self.CMDS, 2)
        trace[step] = replace(trace[step], applied_torque=applied)
        assert not check_causality(trace, 2, 1.0, atol=1e-9)


class TestCli:
    def test_run_with_metrics(self, capsys):
        code = cli_main(["run", "fig8_mpc_weight_step", "--metrics"])
        out = capsys.readouterr().out
        assert code == 0
        assert "settling_time_s" in out

    def test_run_of_an_unsettled_scenario_says_so(self, capsys):
        # the PID baseline's square wave never holds the band
        assert cli_main(["run", "fig3_pid_square", "--metrics"]) == 0
        assert "\nsettling_time_s: not-settled\n" in capsys.readouterr().out

    def test_run_writes_trace(self, tmp_path, capsys):
        out_file = tmp_path / "trace.csv"
        code = cli_main(["run", "fig8_pid_weight_step", "--out", str(out_file)])
        assert code == 0
        assert out_file.exists()
        assert out_file.read_text().startswith(TRACE_HEADER)

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scenario]\ncontroller = warp\n")
        out_file = tmp_path / "never.csv"
        code = cli_main(["run", str(bad), "--out", str(out_file)])
        assert code == 1
        assert not out_file.exists()
        assert "error:" in capsys.readouterr().err

    def test_non_finite_band_exits_1(self, capsys):
        # printed response_reduction_pct: 0.00
        code = cli_main(["compare", "fig8_pid_weight_step", "fig8_mpc_weight_step",
                         "--band", "nan"])
        assert code == 1 and "band" in capsys.readouterr().err

    def test_unknown_bundled_exits_1(self, capsys):
        assert cli_main(["run", "fig99_missing"]) == 1

    def test_compare_prints_reduction(self, capsys):
        code = cli_main(["compare", "fig2_pid_steady", "fig2_mpc_steady"])
        out = capsys.readouterr().out
        assert code == 0
        assert "response_reduction_pct" in out
        pct = float(out.rsplit("response_reduction_pct:", 1)[1])
        assert pct >= 75.0

    def test_sweep(self, capsys):
        code = cli_main(["sweep", "fig8_mpc_weight_step", "--param",
                         "mpc.control_weight", "--values", "1e-9,1e-7"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("settling_time_s") == 2

    @pytest.mark.parametrize("param,value", [
        ("weights.schedule", "10:15 20:0"),  # two pairs
        ("estimator_params.poles", "0.6 0.7 0.75"),  # three poles
    ])
    def test_sweep_value_of_several_tokens(self, param, value, capsys):
        code = cli_main(["sweep", "fig8_mpc_weight_step", "--param", param, "--values", value])
        assert code == 0
        assert capsys.readouterr().out.startswith(f"{param}={value}: settling_time_s=")

    @pytest.mark.parametrize("values,lines", [("-0.002,-0.001", 2), ("-1e-3", 1)])
    def test_sweep_values_that_start_with_a_minus(self, values, lines, capsys):
        code = cli_main(["sweep", "mpc_tight_limit_weight_step", "--param", "mpc.output_min",
                         "--values", values])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("\n") == lines and out.startswith("mpc.output_min=-")

    @pytest.mark.parametrize("argv", [
        ["run"], ["run", "fig2_pid_steady", "--band", "abc"],
        ["sweep", "fig2_pid_steady", "--param", "scenario.rng_seed", "--values"],
        # abbreviated options are not options: "--val=-1e-3" used to run as "--values"
        ["sweep", "mpc_tight_limit_weight_step", "--param", "mpc.output_min", "--val", "-1e-3"],
        ["sweep", "mpc_tight_limit_weight_step", "--param", "mpc.output_min", "--val=-1e-3"],
        ["sweep", "mpc_tight_limit_weight_step", "--par", "mpc.output_min", "--values", "-1e-3"],
    ])
    def test_usage_error_exits_1_on_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0
        assert "usage: crosswind" in capsys.readouterr().out

    def test_sweep_of_an_overflowing_control_weight_exits_1_on_one_line(self, capsys):
        """At 1e308 the MPC's 2H overflows: the sweep fails at parse time, naming
        the key, with no warning; the closed-form law still runs at 1e307."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["sweep", "fig10_unconstrained_weight_step", "--param",
                             "mpc.control_weight", "--values", "1e308"])
            out, err = capsys.readouterr()
            assert code == 1 and not out
            assert err.startswith("error: mpc.control_weight: ") and err.count("\n") == 1
            assert cli_main(["sweep", "fig10_unconstrained_weight_step", "--param",
                             "mpc.control_weight", "--values", "1e307"]) == 0
        assert capsys.readouterr().out.count("\n") == 1

    def test_sweep_without_values_exits_1(self, capsys):
        code = cli_main(["sweep", "fig2_pid_steady", "--param", "scenario.rng_seed",
                         "--values", ","])
        assert code == 1
        assert capsys.readouterr().err == "error: sweep needs at least one value\n"

    def test_scenarios_listing(self, capsys):
        assert cli_main(["scenarios"]) == 0
        assert "fig6_mpc_square" in capsys.readouterr().out

    def test_divergence_exits_2(self, tmp_path, capsys):
        # unsprung wing, zeroed controller, constant torque: free double
        # integrator runs away
        cfg = tmp_path / "runaway.cfg"
        cfg.write_text("""
[scenario]
controller = pid
duration = 250.0
noise_std = 0.0

[plant_params]
stiffness = 0.0
damping = 0.0

[pid]
kp = 0.0
ki = 0.0
kd = 0.0

[weights]
schedule = 1:15
""")
        code = cli_main(["run", str(cfg)])
        assert code == 2
        assert "divergence" in capsys.readouterr().err

    def test_divergence_line_names_step_time_and_angle(self, capsys):
        # a 1e300 lb weight at t = 2 s throws the wing past 1e3 rad at step 20
        override = {"weights.schedule": "2:1e300"}
        with pytest.raises(PlantDivergenceError) as info:
            run_scenario(load_bundled_scenario("fullplant_weight_step", overrides=override))
        code = cli_main(["sweep", "fullplant_weight_step", "--param", "weights.schedule",
                         "--values", "2:1e300"])
        assert code == 2
        assert capsys.readouterr().err.rstrip("\n").endswith(
            f"(step 20, t = 2 s, theta = {info.value.state.theta:g} rad)")
