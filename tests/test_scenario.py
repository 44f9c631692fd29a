import re

import numpy as np
import pytest

from crosswind.cli import main as cli_main
from crosswind.errors import ScenarioError
from crosswind.harness import compute_metrics, run_scenario
from crosswind.scenario import (
    SCENARIO_SCHEMA,
    bundled_scenario_names,
    load_bundled_scenario,
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
        assert cfg.wind_profile is None and cfg.weights is None

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
        assert cfg.wind_profile.breakpoints == ((0.0, 0.0), (15.0, 2.22222), (40.0, 0.0))
        assert cfg.wind_map.direction == -1
        assert cfg.event_times() == [15.0, 40.0]

    def test_weights_parsed(self):
        cfg = parse_scenario("""
[weights]
side = right
schedule = 10:15, 35:0
""")
        assert cfg.weights.side == "right"
        assert cfg.weights.schedule == ((10.0, 15.0), (35.0, 0.0))
        assert cfg.wind_torque_at(12.0) > 0

    @pytest.mark.parametrize("schedule", ["10:5, 10:15", "10:15, 10.04:0"])
    def test_changes_within_one_control_step_are_one_event(self, schedule):
        cfg = load_bundled_scenario("fig8_mpc_weight_step",
                                    overrides={"weights.schedule": schedule})
        assert cfg.event_times() == [10.0]
        metrics = compute_metrics(run_scenario(cfg), 0.02, cfg.event_times())
        assert len(metrics.per_event) == 1 and metrics.settled

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
        with pytest.raises(ScenarioError, match="not both"):
            parse_scenario("""
[wind]
profile = 0:1
[weights]
schedule = 5:10
""")

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
        ("scenario.initial_theta", "nan"),
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
        ("plant_params.inertia", "nan"),
        ("plant_params.torque_limit", "inf"),
        ("motor.resistance", "0"),
        ("plant_params.input_delay", "1e308"),  # an OverflowError traceback
        ("weights.schedule", "2:1e308"),  # a finite mass, an infinite torque: was exit 2
        ("weights.schedule", "nan:15"),  # a NaN or infinite time failed in event_times
        ("weights.schedule", "inf:15"),
        ("wind.profile", "0:1e155"),  # checked before wind and weights exclude each other
    ])
    def test_bad_value_is_rejected_naming_its_key(self, key, value, capsys):
        with pytest.raises(ScenarioError, match=re.escape(key)):
            load_bundled_scenario("fullplant_weight_step", overrides={key: value})
        code = cli_main(["sweep", "fullplant_weight_step",
                         "--param", key, "--values", value])
        assert code == 1 and key in capsys.readouterr().err

    def test_output_bounds_must_pair(self):
        with pytest.raises(ScenarioError):
            parse_scenario("""
[scenario]
controller = mpc_constrained
estimator = pole_place
[mpc]
output_max = 0.05
""")


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
        assert cfg.wind_profile.speed_at(1.0) == pytest.approx(3.12928)
        assert cfg.duration >= 90.0

    def test_all_bundled_parse(self):
        for name in bundled_scenario_names():
            load_bundled_scenario(name)

    def test_missing_bundled_name(self):
        with pytest.raises(ScenarioError, match="no bundled scenario"):
            load_bundled_scenario("fig99_nope")
