import math
import os

import numpy as np
import pytest

from crosswind.cli import main as cli_main
from crosswind.harness import (
    TRACE_HEADER,
    TraceRecord,
    check_causality,
    compute_metrics,
    read_trace,
    response_reduction,
    run_scenario,
    write_trace,
)
from crosswind.qpsolve import QpWorkspace
from crosswind.scenario import bundled_scenario_names, load_bundled_scenario, parse_scenario

QUIET = """
[scenario]
controller = {controller}
estimator = {estimator}
feedforward = {ff}
duration = 20.0
noise_std = 0.0
"""


def make_trace(disps, dt=0.1):
    return [TraceRecord(t=k * dt, theta=d, theta_dot=0.0, wingtip_disp=d,
                        cmd_torque=0.0, applied_torque=0.0, tau_w_true=0.0,
                        tau_w_hat=0.0, tau_w_hat_filtered=0.0, qp_status="none")
            for k, d in enumerate(disps)]


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
        cfg = parse_scenario("""
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
""")
        trace = run_scenario(cfg)
        statuses = {r.qp_status for r in trace}
        assert "infeasible_fallback" in statuses
        assert "optimal" in statuses
        m = compute_metrics(trace, band=0.02, events=[10.0])
        assert m.settled

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
        solves = []
        solve = QpWorkspace.solve

        def recording(ws, f, lower, upper, row_lower=None, row_upper=None, **kwargs):
            sol = solve(ws, f, lower, upper, row_lower, row_upper, **kwargs)
            solves.append((ws, lower, upper, row_lower, row_upper, sol))
            return sol

        monkeypatch.setattr(QpWorkspace, "solve", recording)
        trace = run_scenario(cfg)
        assert len(solves) == len(trace)
        binding = [s for s in solves if s[-1].iterations > 0 or s[-1].status != "optimal"]
        assert len(binding) >= 20
        for ws, lower, upper, row_lower, row_upper, sol in binding:
            lp = linprog(np.zeros(ws.n), A_ub=np.vstack([ws.rows, -ws.rows]),
                         b_ub=np.concatenate([row_upper, -row_lower]),
                         bounds=list(zip(lower, upper)), method="highs")
            if lp.status == 0:
                assert sol.status == "optimal"
        assert {r.qp_status for r in trace} == {"optimal"}

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

    def test_seed_changes_noise(self):
        base = load_bundled_scenario("fig8_mpc_weight_step",
                                     overrides={"scenario.duration": "15.0"})
        other = load_bundled_scenario("fig8_mpc_weight_step",
                                      overrides={"scenario.rng_seed": "99",
                                                 "scenario.duration": "15.0"})
        t1 = run_scenario(base)
        t2 = run_scenario(other)
        assert any(a.cmd_torque != b.cmd_torque for a, b in zip(t1, t2))


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
        with pytest.raises(ValueError):
            compute_metrics(make_trace([0.0]), band=0.0)

    def test_response_reduction(self):
        slow = compute_metrics(make_trace([0.5] * 99 + [0.0]), band=0.02)
        fast_disps = [0.5] * 10 + [0.0] * 90
        fast = compute_metrics(make_trace(fast_disps), band=0.02)
        red = response_reduction(slow, fast)
        assert red == pytest.approx((9.9 - 1.0) / 9.9 * 100.0, abs=2.0)


class TestCli:
    def test_run_with_metrics(self, capsys):
        code = cli_main(["run", "fig8_mpc_weight_step", "--metrics"])
        out = capsys.readouterr().out
        assert code == 0
        assert "settling_time_s" in out

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
