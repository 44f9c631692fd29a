import configparser
import dataclasses
import re
from importlib import resources

import numpy as np
import pytest

from crosswind.cli import main as cli_main
from crosswind.errors import InvalidParameterError, ScenarioError
from crosswind.harness import compute_metrics, run_scenario
from crosswind.model import MAX_STEPS
from crosswind.plant import TorqueSchedule, WindTorqueMap, wind_speed_to_torque
from crosswind.scenario import (
    SCENARIO_SCHEMA,
    bundled_scenario_names,
    load_bundled_scenario,
    load_scenario_file,
    parse_scenario,
)

BASELINE = """
[scenario]
controller = pid
"""


class TestDefaults:
    def test_empty_document_resolves_all_defaults(self):
        cfg = parse_scenario("")
        assert cfg.plant_kind == "simplified"
        assert cfg.controller == "pid"
        assert cfg.estimator_kind == "none"
        assert cfg.feedforward is False
        assert cfg.Ts == 0.1
        assert cfg.noise_std == 0.002
        assert cfg.plant_params.inertia_J == 6374.5
        assert cfg.plant_params.stiffness_K == 25489.0
        assert cfg.plant_params.damping_B == 3000.0
        assert cfg.plant_params.input_delay_Td == 1.0
        assert cfg.pid.Kp == 3200.0 and cfg.pid.Ki == 1200.0 and cfg.pid.Kd == 700.0
        assert cfg.observer_poles == (0.65, 0.7, 0.75)
        assert np.allclose(np.diag(cfg.kalman.Q), [0.0001, 0.15, 3e8])
        assert cfg.kalman.R == 0.01
        assert cfg.mpc.Np == 30
        assert cfg.disturbance == TorqueSchedule()

    def test_pid_baseline_is_default_controller(self):
        cfg = parse_scenario(BASELINE)
        assert cfg.controller == "pid" and cfg.estimator_kind == "none"


class TestParsing:
    def test_wind_profile_parsed(self):
        cfg = parse_scenario("""
[scenario]
controller = pid

[wind]
profile = 0:0, 15:2.22222, 40:0
direction = -1
""")
        wind_map = WindTorqueMap(direction=-1)
        assert cfg.disturbance == TorqueSchedule.from_wind(
            ((0.0, 0.0), (15.0, 2.22222), (40.0, 0.0)), wind_map)
        assert cfg.disturbance.at(20.0) == wind_speed_to_torque(2.22222, wind_map) < 0
        assert cfg.event_times() == [15.0, 40.0]

    def test_weights_parsed(self):
        cfg = parse_scenario("""
[weights]
side = right
schedule = 10:15, 35:0
""")
        assert cfg.disturbance == TorqueSchedule.from_weights(
            ((10.0, 15.0), (35.0, 0.0)), "right", cfg.plant_params)
        assert cfg.disturbance.at(12.0) > 0

    @pytest.mark.parametrize("schedule", ["10:15 35:0", "10 : 15,35: 0", " 10:15 ,  35:0 "])
    def test_pairs_are_separated_by_commas_or_spaces(self, schedule):
        cfg = parse_scenario(f"[weights]\nside = right\nschedule = {schedule}\n")
        assert cfg.disturbance == TorqueSchedule.from_weights(
            ((10.0, 15.0), (35.0, 0.0)), "right", cfg.plant_params)

    @pytest.mark.parametrize("schedule", ["10:5, 10:15"])
    def test_changes_within_one_control_step_are_one_event(self, schedule):
        cfg = load_bundled_scenario("fig8_mpc_weight_step",
                                    overrides={"weights.schedule": schedule})
        assert cfg.event_times() == [10.0]
        metrics = compute_metrics(run_scenario(cfg), 0.02, cfg.event_times())
        assert len(metrics.per_event) == 1 and metrics.settled

    def test_changes_that_cancel_within_one_control_step_are_no_event(self):
        # both land on step 100, and the torque on the grid never changes
        cfg = load_bundled_scenario("fig8_mpc_weight_step", overrides={
            "scenario.duration": "12", "weights.schedule": "10:15, 10.04:0"})
        assert cfg.event_times() == []
        assert {r.tau_w_true for r in run_scenario(cfg)} == {0.0}

    @pytest.mark.parametrize("overrides,step", [
        # the event was at 0.9 s, step 3, and the torque changed at 1.2 s
        ({"scenario.ts": "0.3", "plant_params.input_delay": "0.3", "weights.schedule": "0.9:15"},
         3),
        ({"weights.schedule": "10.04:15"}, 100),  # the event was at 10.0 s, the torque at 10.1 s
    ], ids=["time_on_the_grid_rounds_down", "time_off_the_grid"])
    def test_torque_changes_on_the_step_of_its_event(self, overrides, step):
        cfg = load_bundled_scenario("fig8_mpc_weight_step",
                                    overrides={"scenario.duration": "12", **overrides})
        trace = run_scenario(cfg)
        assert cfg.event_times() == [trace[step].t]
        assert trace[step - 1].tau_w_true == 0.0 != trace[step].tau_w_true

    def test_change_too_far_out_for_the_grid_is_not_an_event(self):
        # round(1e308 / ts) raised OverflowError
        cfg = load_bundled_scenario("fig8_pid_weight_step", overrides={
            "scenario.duration": "20", "weights.schedule": "10:15, 1e308:0"})
        assert cfg.event_times() == [10.0]
        assert run_scenario(cfg)[-1].tau_w_true != 0.0

    def test_change_at_the_end_of_the_run_is_not_an_event(self):
        cfg = load_bundled_scenario("fig8_mpc_weight_step", overrides={
            "scenario.duration": "20", "weights.schedule": "10:15, 19.96:0"})
        assert cfg.event_times() == [10.0]
        metrics = compute_metrics(run_scenario(cfg), 0.02, cfg.event_times())
        assert len(metrics.per_event) == 1 and metrics.settled

    def test_every_field_names_one_key(self):
        # a field's error is reported under the one key that sets it
        fields = [field for keys in SCENARIO_SCHEMA.values() for _, _, field in keys.values()]
        assert len(fields) == len(set(fields))

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="unknown section"):
            parse_scenario("[mystery]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario("[scenario]\nwarp_drive = on\n")

    @pytest.mark.parametrize("line", ["DURATION = 2", "Ts = 0.1"])
    def test_keys_are_read_as_written(self, line, tmp_path, capsys):
        # a document's keys were lowercased, an override's were not
        key = line.split()[0]
        named = f"unknown key scenario.{key}"
        with pytest.raises(ScenarioError, match=re.escape(named)):
            parse_scenario(f"[scenario]\n{line}\n")
        path = tmp_path / "upper.cfg"
        path.write_text(f"[scenario]\n{line}\n", encoding="utf-8")
        assert cli_main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {named}")
        with pytest.raises(ScenarioError, match=re.escape(f"scenario.{key}")):
            load_bundled_scenario("fig8_pid_weight_step", overrides={f"scenario.{key}": "2"})

    def test_comm_delay_is_an_unknown_key(self):
        # the communication delay is part of plant_params.input_delay
        with pytest.raises(ScenarioError, match="unknown key motor.comm_delay"):
            parse_scenario("[motor]\ncomm_delay = 0.1\n")

    def test_malformed_value_diagnostic(self):
        with pytest.raises(ScenarioError, match="scenario.duration"):
            parse_scenario("[scenario]\nduration = soon\n")

    def test_malformed_document(self):
        with pytest.raises(ScenarioError, match="parse error"):
            parse_scenario("not an ini file at all [")


class TestValidation:
    def test_feedforward_requires_estimator(self):
        with pytest.raises(ScenarioError, match="feedforward requires"):
            parse_scenario("[scenario]\nfeedforward = true\n")

    def test_mpc_requires_estimator(self):
        with pytest.raises(ScenarioError, match="MPC controllers require"):
            parse_scenario("[scenario]\ncontroller = mpc_constrained\n")

    def test_wind_and_weights_exclusive(self):
        with pytest.raises(ScenarioError, match="not both") as info:
            parse_scenario("""
[wind]
profile = 0:1
[weights]
schedule = 5:10
""")
        assert str(info.value).startswith("wind.profile, weights.schedule: ")

    @pytest.mark.parametrize("doc,named", [
        ("[scenario]\nnoise_std = 0.002%\n", "scenario.noise_std: "),  # an interpolation traceback
        ("[scenario]\nduration = %(ts)s\n", "scenario.duration: "),  # the same
        ("[scenario]\nts = 0.1\nduration = %(ts)s\n", "scenario.duration: "),  # ran 1 step
        ("[DEFAULT]\nfoo = 1\n", "unknown section [DEFAULT]"),  # ran to exit 0
        ("[DEFAULT]\nts = 0.2\n", "unknown section [DEFAULT]"),  # set scenario.ts
        ("[DEFAULT]\n", "unknown section [DEFAULT]"),
        ("[weights]\nschedule = ,\n", "weights.schedule: empty pair list"),
        ("[wind]\nprofile = ,\n", "wind.profile: empty pair list"),
    ])
    def test_only_the_documented_dialect_is_read(self, doc, named, tmp_path, capsys):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(doc)
        assert str(info.value).startswith(named)
        path = tmp_path / "dialect.cfg"
        path.write_text(doc, encoding="utf-8")
        assert cli_main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {named}")

    def test_side_is_checked_without_a_schedule(self):
        # without weights.schedule the side was never read
        with pytest.raises(ScenarioError, match=re.escape("weights.side")):
            parse_scenario("[weights]\nside = up\n")

    def test_fractional_delay_rejected(self):
        with pytest.raises(ScenarioError, match="integer multiple"):
            parse_scenario("[plant_params]\ninput_delay = 0.55\n")

    def test_negative_duration_rejected(self):
        with pytest.raises(ScenarioError, match="duration"):
            parse_scenario("[scenario]\nduration = -5\n")

    @pytest.mark.parametrize("key,value", [
        ("scenario.duration", "inf"),
        ("scenario.duration", "0.05"),  # below one control step
        ("scenario.ts", "inf"),
        ("scenario.ts", "0"),  # a division by it raised ZeroDivisionError
        ("mpc.horizon", "0"),
        ("mpc.horizon", "-3"),
        ("scenario.noise_std", "nan"),
        ("scenario.noise_std", "1e200"),  # overflowed inside the MPC with no key
        ("scenario.initial_theta", "nan"),
        ("scenario.initial_theta", "2000"),  # was reported as divergence at step 0
        ("scenario.initial_theta", "inf"),
        ("scenario.initial_theta_dot", "nan"),
        ("scenario.rng_seed", "-1"),
        ("mpc.output_min", "-0.01"),  # without mpc.output_max
        ("mpc.terminal_weight", "nan"),  # was reported as plant divergence
        ("mpc.terminal_weight", "0.5"),  # below the other output weights
        ("mpc.control_weight", "inf"),  # ran to exit 0
        ("mpc.control_weight", "0"),
        ("motor.inner_dt", "0.002"),  # above 1 ms
        ("motor.inner_dt", "nan"),
        ("motor.inner_dt", "0.0007"),  # 143 substeps made 0.1001 s per 0.1 s step
        ("weights.schedule", "10:nan"),  # was reported as plant divergence
        ("wind.profile", "0:nan"),  # checked before wind and weights exclude each other
        ("pid.kp", "nan"),
        ("pid.ki", "inf"),
        ("pid.kd", "nan"),
        ("pid.derivative_window", "0"),
        ("pid.meas_filter_alpha", "0"),
        ("pid.meas_filter_alpha", "nan"),
        ("estimator_params.poles", "nan 0.7 0.75"),  # was reported as plant divergence
        ("estimator_params.r", "nan"),  # the error did not name the key
        ("estimator_params.q_diag", "nan 0.15 3e8"),  # was "Q must be symmetric"
        ("estimator_params.r", "-1"),  # each of these reached the CLI without its key
        ("estimator_params.r", "1e-310"),  # C'C / R overflowed with a RuntimeWarning
        ("plant_params.inertia", "nan"),
        ("plant_params.torque_limit", "inf"),
        ("motor.resistance", "0"),
        ("plant_params.input_delay", "1e308"),  # an OverflowError traceback
        ("weights.schedule", "2:1e308"),  # a finite mass, an infinite torque: was exit 2
        ("weights.schedule", "nan:15"),  # a NaN or infinite time failed in event_times
        ("weights.schedule", "inf:15"),
        ("wind.profile", "0:1e155"),  # checked before wind and weights exclude each other
        ("plant_params.input_delay", "1e300"),  # an OverflowError traceback from the buffer
        ("scenario.duration", "1e12"),  # 1e13 steps: a run that did not end
        ("scenario.duration", "5%"),  # "invalid interpolation syntax" without a key
        ("wind.quad_coeff", "-1"),  # ignored without a wind.profile
        ("wind.direction", "7"),
        ("motor.inner_dt", "1e-6"),  # 400 steps of 1e5 substeps, over the run's cap
    ])
    def test_bad_value_is_rejected_naming_its_key(self, key, value, capsys):
        with pytest.raises(ScenarioError, match=re.escape(key)):
            load_bundled_scenario("fullplant_weight_step", overrides={key: value})
        code = cli_main(["sweep", "fullplant_weight_step",
                         "--param", key, "--values", value])
        assert code == 1 and key in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("weights.schedule", "-5:15"),  # counted 5 s never simulated in the settling time
        ("scenario.initial_theta", "-2000"),  # was reported as divergence at step 0
        ("mpc.horizon", "1000000000000"),  # a MemoryError from the weight arrays
        ("pid.derivative_window", "1000000000000"),  # a MemoryError from the PID history
    ])
    def test_value_out_of_range_is_rejected_naming_its_key(self, key, value, capsys):
        with pytest.raises(ScenarioError, match=re.escape(key)):
            load_bundled_scenario("fullplant_weight_step", overrides={key: value})
        code = cli_main(["sweep", "fullplant_weight_step", "--param", key, f"--values={value}"])
        assert code == 1 and key in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["fig8_mpc_weight_step", "fullplant_weight_step"])
    def test_initial_roll_past_the_divergence_bound_exits_1(self, name, capsys):
        # 2000 rad was reported as plant divergence at step 0 (exit 2); 999 is a run
        argv = ["sweep", name, "--param", "scenario.initial_theta", "--values"]
        assert cli_main(argv + ["2000"]) == 1
        assert "scenario.initial_theta" in capsys.readouterr().err
        assert cli_main(argv + ["999"]) == 0

    def test_more_steps_than_the_cap_are_rejected(self, tmp_path, capsys):
        # 7e10 steps of 1 ns with no delay: the run did not end
        ref = resources.files("crosswind") / "scenarios" / "fig8_mpc_weight_step.cfg"
        doc = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        doc.read_string(ref.read_text(encoding="utf-8"))
        doc.read_dict({"scenario": {"ts": "1e-9"}, "plant_params": {"input_delay": "0"}})
        path = tmp_path / "tiny_ts.cfg"
        with open(path, "w", encoding="utf-8") as fh:
            doc.write(fh)
        with pytest.raises(ScenarioError, match=re.escape("scenario.ts")):
            load_scenario_file(str(path))
        assert cli_main(["run", str(path)]) == 1 and "scenario.ts" in capsys.readouterr().err

    @pytest.mark.parametrize("inner_dt", ["1e-9", "1e-300"])  # 4e10 and 4e301 substeps
    def test_full_plant_substeps_over_the_cap_are_rejected(self, inner_dt, tmp_path, capsys):
        # each parsed, and the run did not end
        text = (resources.files("crosswind") / "scenarios" / "fullplant_weight_step.cfg"
                ).read_text(encoding="utf-8")
        doc = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        doc.read_string(text)
        doc.read_dict({"motor": {"inner_dt": inner_dt}})
        path = tmp_path / "tiny_inner_dt.cfg"
        with open(path, "w", encoding="utf-8") as fh:
            doc.write(fh)
        with pytest.raises(ScenarioError, match=re.escape("motor.inner_dt: ")):
            parse_scenario(path.read_text(encoding="utf-8"))
        assert cli_main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: motor.inner_dt: ")
        # 400 steps of 25 000 substeps: MAX_STEPS in all, the most a run may take
        assert MAX_STEPS == 400 * 25_000
        assert parse_scenario(text, overrides={"motor.inner_dt": "4e-6"}).inner_dt == 4e-6

    @pytest.mark.parametrize("name,key,value,section", [
        # RuntimeWarnings from the Riccati solve's overflowing norms
        ("fig7_estimator_weights_kalman", "estimator_params.q_diag", "0.0001 0.15 1e300",
         "estimator_params"),
        # "(A_aug, C_aug) is not observable", without a key
        ("fig8_mpc_weight_step", "plant_params.inertia", "1e300", "estimator_params"),
        # "H must be positive definite", without a key
        ("fig8_mpc_weight_step", "mpc.terminal_weight", "1e300", "mpc"),
    ])
    def test_failed_design_names_its_section(self, name, key, value, section, capsys):
        code = cli_main(["sweep", name, "--param", key, "--values", value])
        assert code == 1 and f"error: {section}: " in capsys.readouterr().err

    @pytest.mark.parametrize("name,key,value", [
        # "SVD did not converge" after RuntimeWarnings, without a key
        ("fig9_mpc_weight_square", "plant_params.stiffness", "1e40"),
        # "runtime divergence" at step 0 (exit 2)
        ("fig9_pid_weight_square", "plant_params.stiffness", "1e40"),
        # an OverflowError traceback from the infinite A_c
        ("fig9_pid_weight_square", "plant_params.inertia", "1e-320"),
    ])
    def test_non_finite_discretization_names_the_model_keys(self, name, key, value, capsys):
        with pytest.raises(ScenarioError, match=re.escape(key)):
            run_scenario(load_bundled_scenario(name, overrides={key: value}))
        assert cli_main(["sweep", name, "--param", key, "--values", value]) == 1
        err = capsys.readouterr().err
        assert all(f"plant_params.{k}" in err for k in ("inertia", "stiffness", "damping"))

    @pytest.mark.parametrize("ts,field", [(0.3, "input_delay_Td"), (0.0, "Ts")])
    def test_unparsed_timing_error_is_not_relabelled(self, ts, field):
        # a config built without parsing rejects a bad delay or Ts as it is
        # built, with the delay's and Ts's own errors
        cfg = load_bundled_scenario("fig9_pid_weight_square")
        with pytest.raises(InvalidParameterError) as info:
            dataclasses.replace(cfg, Ts=ts)
        assert info.value.field == field
        assert not isinstance(info.value, ScenarioError)

    def test_output_bounds_must_pair(self):
        with pytest.raises(ScenarioError):
            parse_scenario("""
[scenario]
controller = mpc_constrained
estimator = pole_place
[mpc]
output_max = 0.05
""")

    def test_crossed_output_band_names_its_key(self, capsys):
        key = "mpc.output_min"
        with pytest.raises(ScenarioError, match=re.escape(f"{key}: y_min must be < y_max")):
            load_bundled_scenario("mpc_tight_limit_weight_step", overrides={key: "0.02"})
        code = cli_main(["sweep", "mpc_tight_limit_weight_step", "--param", key,
                         "--values", "0.02"])
        assert code == 1 and capsys.readouterr().err.startswith(f"error: {key}: ")


class TestOverrides:
    def test_override_applied(self):
        cfg = parse_scenario(BASELINE, overrides={"pid.kp": "10.0"})
        assert cfg.pid.Kp == 10.0

    def test_unknown_override_rejected(self):
        with pytest.raises(ScenarioError, match="unknown override"):
            parse_scenario(BASELINE, overrides={"pid.nothere": "1"})


class TestBundled:
    def test_expected_scenarios_present(self):
        names = bundled_scenario_names()
        for expected in ("fig2_pid_steady", "fig3_pid_square", "fig6_mpc_square",
                         "fig7_estimator_weights", "fig8_mpc_weight_step",
                         "fig9_mpc_weight_square", "fig10_unconstrained_weight_step",
                         "fig11_unconstrained_weight_square"):
            assert expected in names

    def test_fig2_contents(self):
        cfg = load_bundled_scenario("fig2_pid_steady")
        assert cfg.controller == "pid"
        assert cfg.estimator_kind == "none"
        assert cfg.disturbance.at(1.0) == wind_speed_to_torque(
            3.12928, WindTorqueMap(quad_coeff_c=190.0))
        assert cfg.duration >= 90.0

    def test_all_bundled_parse(self):
        for name in bundled_scenario_names():
            load_bundled_scenario(name)

    def test_missing_bundled_name(self):
        with pytest.raises(ScenarioError, match="no bundled scenario"):
            load_bundled_scenario("fig99_nope")
