"""Scenario definition: a declarative description of one closed-loop run.

Scenario files are INI-style key-value documents with nested sections
(parsed with configparser). Unknown sections or keys are rejected, every
key has a documented default, and validation failures carry the
offending ``section.key``. The full schema is documented in the README
and mirrored by ``SCENARIO_SCHEMA`` below.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import InvalidParameterError, ScenarioError
from .estimator import KalmanConfig
from .model import RollPlantParams
from .plant import (MotorParams, WeightDisturbance, WindProfile, WindTorqueMap,
                    substep_count, wind_speed_to_torque)

PLANT_KINDS = ("simplified", "full")
CONTROLLERS = ("pid", "mpc_constrained", "mpc_unconstrained")
ESTIMATORS = ("none", "pole_place", "kalman")

# section -> key -> (converter-name, default-as-string or None)
SCENARIO_SCHEMA = {
    "scenario": {
        "plant": ("choice:simplified|full", "simplified"),
        "controller": ("choice:pid|mpc_constrained|mpc_unconstrained", "pid"),
        "estimator": ("choice:none|pole_place|kalman", "none"),
        "feedforward": ("bool", "false"),
        "duration": ("float", "60.0"),
        "ts": ("float", "0.1"),
        "noise_std": ("float", "0.002"),
        "rng_seed": ("int", "0"),
        "initial_theta": ("float", "0.0"),
        "initial_theta_dot": ("float", "0.0"),
    },
    "plant_params": {
        "inertia": ("float", "6374.5"),
        "stiffness": ("float", "25489.0"),
        "damping": ("float", "3000.0"),
        "wingspan": ("float", "11.0"),
        "input_delay": ("float", "1.0"),
        "torque_limit": ("float", "1000.0"),
    },
    "wind": {
        "quad_coeff": ("float", "74.3"),
        "direction": ("int", "1"),
        "profile": ("pairs", None),  # presence of 'profile' activates wind
    },
    "weights": {
        "side": ("choice:left|right", "left"),
        "schedule": ("pairs", None),  # presence of 'schedule' activates weights
    },
    "estimator_params": {
        "poles": ("floats", "0.65, 0.7, 0.75"),
        "q_diag": ("floats", "0.0001, 0.15, 3e8"),
        "r": ("float", "0.01"),
        "torque_filter_alpha": ("float", "0.2"),
    },
    "pid": {
        "kp": ("float", "3200.0"),
        "ki": ("float", "1200.0"),
        "kd": ("float", "700.0"),
        "derivative_window": ("int", "3"),
        "meas_filter_alpha": ("float", "0.5"),
    },
    "mpc": {
        "horizon": ("int", "30"),
        "terminal_weight": ("float", "50.0"),
        "control_weight": ("float", "1e-9"),
        "output_min": ("float_or_none", "none"),
        "output_max": ("float_or_none", "none"),
    },
    "motor": {
        "thrust_coeff": ("float", "0.01"),
        "rotor_inertia": ("float", "0.05"),
        "torque_const": ("float", "0.5"),
        "friction": ("float", "0.01"),
        "friction_quad": ("float", "1e-5"),
        "resistance": ("float", "0.2"),
        "inductance": ("float", "0.001"),
        "inner_dt": ("float", "0.001"),
    },
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved experiment description."""

    plant_kind: str
    controller: str
    estimator_kind: str
    feedforward: bool
    duration: float
    Ts: float
    noise_std: float
    rng_seed: int
    initial_theta: float
    initial_theta_dot: float
    plant_params: RollPlantParams
    wind_profile: WindProfile | None
    wind_map: WindTorqueMap | None
    weights: WeightDisturbance | None
    observer_poles: tuple
    kalman: KalmanConfig
    torque_filter_alpha: float
    pid_kp: float
    pid_ki: float
    pid_kd: float
    pid_derivative_window: int
    pid_meas_filter_alpha: float
    mpc_horizon: int
    mpc_terminal_weight: float
    mpc_control_weight: float
    mpc_output_min: float | None
    mpc_output_max: float | None
    motor: MotorParams
    inner_dt: float

    def wind_torque_at(self, t: float) -> float:
        """True disturbance torque at time t."""
        if self.wind_profile is not None:
            return wind_speed_to_torque(self.wind_profile.speed_at(t), self.wind_map)
        if self.weights is not None:
            return self.weights.torque_at(t, self.plant_params)
        return 0.0

    def event_times(self) -> list:
        """Disturbance-change instants on the control grid, each once, before the run ends."""
        disturbance = self.wind_profile or self.weights
        raw = disturbance.event_times() if disturbance is not None else []
        n_steps = round(self.duration / self.Ts)
        steps = (round(t / self.Ts) for t in raw)
        return list(dict.fromkeys(k * self.Ts for k in steps if k < n_steps))


def _convert(kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "bool":
            if raw.lower() in ("true", "yes", "on", "1"):
                return True
            if raw.lower() in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "float_or_none":
            return None if raw.lower() in ("none", "") else float(raw)
        if kind == "floats":
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        if kind == "pairs":
            pairs = []
            for tok in raw.split(","):
                tok = tok.strip()
                if not tok:
                    continue
                a, _, b = tok.partition(":")
                pairs.append((float(a), float(b)))
            if not pairs:
                raise ValueError("empty pair list")
            return tuple(pairs)
        if kind.startswith("choice:"):
            options = kind.split(":", 1)[1].split("|")
            if raw not in options:
                raise ValueError(f"must be one of {options}, got {raw!r}")
            return raw
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    raise AssertionError(f"unknown converter {kind}")


def _build(where: str, make, **kwargs):
    """``make(**kwargs)``, with a ValueError reported as a ScenarioError naming ``where``."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def parse_scenario(text: str, overrides: dict | None = None) -> ScenarioConfig:
    """Parse and validate a scenario document into a ScenarioConfig.

    ``overrides`` maps dotted ``section.key`` names to raw string values
    and is applied before validation (used by the CLI sweep command).
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from None

    for section in parser.sections():
        if section not in SCENARIO_SCHEMA:
            raise ScenarioError(
                f"unknown section [{section}]; expected one of {sorted(SCENARIO_SCHEMA)}"
            )
        for key in parser[section]:
            if key not in SCENARIO_SCHEMA[section]:
                raise ScenarioError(
                    f"unknown key {section}.{key}; expected one of "
                    f"{sorted(SCENARIO_SCHEMA[section])}"
                )

    if overrides:
        for dotted, value in overrides.items():
            section, _, key = dotted.partition(".")
            if section not in SCENARIO_SCHEMA or key not in SCENARIO_SCHEMA[section]:
                raise ScenarioError(f"unknown override parameter {dotted!r}")
            if not parser.has_section(section):
                parser.add_section(section)
            parser[section][key] = str(value)

    def get(section: str, key: str):
        kind, default = SCENARIO_SCHEMA[section][key]
        if parser.has_option(section, key):
            return _convert(kind, parser.get(section, key), f"{section}.{key}")
        if default is None:
            return None
        return _convert(kind, default, f"{section}.{key} (default)")

    try:
        plant_params = RollPlantParams(
            inertia_J=get("plant_params", "inertia"),
            stiffness_K=get("plant_params", "stiffness"),
            damping_B=get("plant_params", "damping"),
            wingspan_d=get("plant_params", "wingspan"),
            input_delay_Td=get("plant_params", "input_delay"),
            torque_limit=get("plant_params", "torque_limit"),
        )
    except ValueError as exc:
        raise ScenarioError(f"plant_params: {exc}") from None

    wind_profile = wind_map = weights = None
    profile_pairs = get("wind", "profile")
    schedule_pairs = get("weights", "schedule")
    if profile_pairs is not None:
        wind_profile = _build("wind.profile", WindProfile, breakpoints=profile_pairs)
        wind_map = _build("wind", WindTorqueMap, quad_coeff_c=get("wind", "quad_coeff"),
                          direction=get("wind", "direction"))
    if schedule_pairs is not None:
        weights = _build("weights.schedule", WeightDisturbance,
                         schedule=schedule_pairs, side=get("weights", "side"))
    if wind_profile is not None and weights is not None:
        raise ScenarioError("a scenario may define wind or weights, not both")

    q_diag = get("estimator_params", "q_diag")
    if len(q_diag) != 3:
        raise ScenarioError("estimator_params.q_diag needs exactly 3 entries")
    if not all(map(math.isfinite, q_diag)):
        raise ScenarioError("estimator_params.q_diag must be finite")
    r = get("estimator_params", "r")
    if not math.isfinite(r):
        raise ScenarioError("estimator_params.r must be finite")
    poles = get("estimator_params", "poles")
    if len(poles) != 3:
        raise ScenarioError("estimator_params.poles needs exactly 3 entries")
    try:
        kalman = KalmanConfig(Q=np.diag(q_diag), R=r)
        motor = MotorParams(
            thrust_coeff_Ktilde=get("motor", "thrust_coeff"),
            rotor_inertia_Jm=get("motor", "rotor_inertia"),
            torque_const_Km=get("motor", "torque_const"),
            friction_bm=get("motor", "friction"),
            friction_btilde=get("motor", "friction_quad"),
            resistance_Rm=get("motor", "resistance"),
            inductance_Lm=get("motor", "inductance"),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    cfg = ScenarioConfig(
        plant_kind=get("scenario", "plant"),
        controller=get("scenario", "controller"),
        estimator_kind=get("scenario", "estimator"),
        feedforward=get("scenario", "feedforward"),
        duration=get("scenario", "duration"),
        Ts=get("scenario", "ts"),
        noise_std=get("scenario", "noise_std"),
        rng_seed=get("scenario", "rng_seed"),
        initial_theta=get("scenario", "initial_theta"),
        initial_theta_dot=get("scenario", "initial_theta_dot"),
        plant_params=plant_params,
        wind_profile=wind_profile,
        wind_map=wind_map,
        weights=weights,
        observer_poles=poles,
        kalman=kalman,
        torque_filter_alpha=get("estimator_params", "torque_filter_alpha"),
        pid_kp=get("pid", "kp"),
        pid_ki=get("pid", "ki"),
        pid_kd=get("pid", "kd"),
        pid_derivative_window=get("pid", "derivative_window"),
        pid_meas_filter_alpha=get("pid", "meas_filter_alpha"),
        mpc_horizon=get("mpc", "horizon"),
        mpc_terminal_weight=get("mpc", "terminal_weight"),
        mpc_control_weight=get("mpc", "control_weight"),
        mpc_output_min=get("mpc", "output_min"),
        mpc_output_max=get("mpc", "output_max"),
        motor=motor,
        inner_dt=get("motor", "inner_dt"),
    )
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig) -> None:
    problems = []
    ts_ok = math.isfinite(cfg.Ts) and cfg.Ts > 0
    if not ts_ok:
        problems.append("scenario.ts must be finite and > 0")
    if not (math.isfinite(cfg.duration) and cfg.duration > 0):
        problems.append("scenario.duration must be finite and > 0")
    elif ts_ok and not 0.5 < cfg.duration / cfg.Ts < math.inf:  # round() of it is n_steps
        problems.append("scenario.duration must span 1 to finitely many scenario.ts steps")
    if not (math.isfinite(cfg.noise_std) and cfg.noise_std >= 0):
        problems.append("scenario.noise_std must be finite and >= 0")
    for key in ("initial_theta", "initial_theta_dot"):
        if not math.isfinite(getattr(cfg, key)):
            problems.append(f"scenario.{key} must be finite")
    if cfg.rng_seed < 0:
        problems.append("scenario.rng_seed must be >= 0")
    for key in ("kp", "ki", "kd"):
        if not math.isfinite(getattr(cfg, f"pid_{key}")):
            problems.append(f"pid.{key} must be finite")
    if cfg.pid_derivative_window < 1:
        problems.append("pid.derivative_window must be >= 1")
    if not 0 < cfg.pid_meas_filter_alpha <= 1:
        problems.append("pid.meas_filter_alpha must be in (0, 1]")
    if cfg.mpc_horizon < 1:
        problems.append("mpc.horizon must be >= 1")
    if ts_ok:
        ratio = cfg.plant_params.input_delay_Td / cfg.Ts
        if abs(ratio - round(ratio)) > 1e-9:
            problems.append("plant_params.input_delay must be an integer multiple of scenario.ts")
    if cfg.feedforward and cfg.estimator_kind == "none":
        problems.append("scenario.feedforward requires an estimator")
    if cfg.controller in ("mpc_constrained", "mpc_unconstrained") and cfg.estimator_kind == "none":
        problems.append("MPC controllers require an estimator (the roll rate is not measured)")
    if (cfg.mpc_output_min is None) != (cfg.mpc_output_max is None):
        problems.append("mpc.output_min and mpc.output_max must be set together")
    elif cfg.mpc_output_min is not None and not cfg.mpc_output_min < cfg.mpc_output_max:
        problems.append("mpc.output_min must be < mpc.output_max")
    if not all(abs(pole) < 1.0 for pole in cfg.observer_poles):  # NaN fails too
        problems.append("estimator_params.poles must lie inside the unit circle")
    if not 0 < cfg.torque_filter_alpha <= 1:
        problems.append("estimator_params.torque_filter_alpha must be in (0, 1]")
    if not (math.isfinite(cfg.mpc_terminal_weight)
            and cfg.mpc_terminal_weight >= (1 if cfg.mpc_horizon > 1 else 0)):
        problems.append("mpc.terminal_weight must be finite and >= the other output weights (1)")
    if not (math.isfinite(cfg.mpc_control_weight) and cfg.mpc_control_weight > 0):
        problems.append("mpc.control_weight must be finite and > 0")
    if cfg.plant_kind == "full" and ts_ok:
        try:
            substep_count(cfg.Ts, cfg.inner_dt)
        except InvalidParameterError as exc:
            problems.append(f"motor.{exc}")
    if problems:
        raise ScenarioError("invalid scenario: " + "; ".join(problems))


def load_scenario_file(path: str, overrides: dict | None = None) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read(), overrides=overrides)


def bundled_scenario_names() -> list:
    """Names of the scenario files shipped with the package."""
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def load_bundled_scenario(name: str, overrides: dict | None = None) -> ScenarioConfig:
    if not name.endswith(".cfg"):
        name = name + ".cfg"
    ref = resources.files(__package__) / "scenarios" / name
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(
            f"no bundled scenario {name!r}; available: {bundled_scenario_names()}"
        ) from None
    return parse_scenario(text, overrides=overrides)
