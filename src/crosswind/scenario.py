"""Scenario definition: a declarative description of one closed-loop run.

Scenario files are INI-style key-value documents with nested sections
(parsed with configparser, without interpolation or a ``[DEFAULT]``
section). Unknown sections or keys are rejected, every key has a
documented default, and validation failures carry the offending
``section.key``. The full schema is documented in the README and
mirrored by ``SCENARIO_SCHEMA`` below.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .controllers import MAX_HORIZON, MAX_QP_CONTROL_WEIGHT, MpcConfig, PidConfig
from .errors import CrosswindError, InvalidParameterError, ScenarioError
from .estimator import KalmanConfig
from .model import MAX_STEPS, RollPlantParams, delay_steps
from .plant import MAX_ROLL, MotorParams, TorqueSchedule, WindTorqueMap, substep_count

# section -> key -> (converter-name, default-as-string or None, the field it sets);
# field names are unique across sections, so a field's error names its key
SCENARIO_SCHEMA = {
    "scenario": {
        "plant": ("choice:simplified|full", "simplified", "plant_kind"),
        "controller": ("choice:pid|mpc_constrained|mpc_unconstrained", "pid", "controller"),
        "estimator": ("choice:none|pole_place|kalman", "none", "estimator_kind"),
        "feedforward": ("bool", "false", "feedforward"),
        "duration": ("float", "60.0", "duration"),
        "ts": ("float", "0.1", "Ts"),
        "noise_std": ("float", "0.002", "noise_std"),
        "rng_seed": ("int", "0", "rng_seed"),
        "initial_theta": ("float", "0.0", "initial_theta"),
        "initial_theta_dot": ("float", "0.0", "initial_theta_dot"),
    },
    "plant_params": {
        "inertia": ("float", "6374.5", "inertia_J"),
        "stiffness": ("float", "25489.0", "stiffness_K"),
        "damping": ("float", "3000.0", "damping_B"),
        "wingspan": ("float", "11.0", "wingspan_d"),
        "input_delay": ("float", "1.0", "input_delay_Td"),
        "torque_limit": ("float", "1000.0", "torque_limit"),
    },
    "wind": {
        "quad_coeff": ("float", "74.3", "quad_coeff_c"),
        "direction": ("int", "1", "direction"),
        "profile": ("pairs", None, "breakpoints"),  # presence of 'profile' activates wind
    },
    "weights": {
        "side": ("choice:left|right", "left", "side"),
        "schedule": ("pairs", None, "schedule"),  # presence of 'schedule' activates weights
    },
    "estimator_params": {
        "poles": ("floats", "0.65, 0.7, 0.75", "observer_poles"),
        "q_diag": ("floats", "0.0001, 0.15, 3e8", "Q"),
        "r": ("float", "0.01", "R"),
        "torque_filter_alpha": ("float", "0.2", "torque_filter_alpha"),
    },
    "pid": {
        "kp": ("float", "3200.0", "Kp"),
        "ki": ("float", "1200.0", "Ki"),
        "kd": ("float", "700.0", "Kd"),
        "derivative_window": ("int", "3", "derivative_window"),
        "meas_filter_alpha": ("float", "0.5", "meas_filter_alpha"),
    },
    "mpc": {
        "horizon": ("int", "30", "Np"),
        "terminal_weight": ("float", "50.0", "Qc_diag"),
        "control_weight": ("float", "1e-9", "Rc_diag"),
        "output_min": ("float_or_none", "none", "y_min"),
        "output_max": ("float_or_none", "none", "y_max"),
    },
    "motor": {
        "thrust_coeff": ("float", "0.01", "thrust_coeff_Ktilde"),
        "rotor_inertia": ("float", "0.05", "rotor_inertia_Jm"),
        "torque_const": ("float", "0.5", "torque_const_Km"),
        "friction": ("float", "0.01", "friction_bm"),
        "friction_quad": ("float", "1e-5", "friction_btilde"),
        "resistance": ("float", "0.2", "resistance_Rm"),
        "inductance": ("float", "0.001", "inductance_Lm"),
        "inner_dt": ("float", "0.001", "inner_dt"),
    },
}

_KEY_OF_FIELD = {field: f"{section}.{key}" for section, keys in SCENARIO_SCHEMA.items()
                 for key, (_, _, field) in keys.items()}


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
    disturbance: TorqueSchedule  # from [wind] or [weights]; zero torque without either
    observer_poles: tuple
    kalman: KalmanConfig
    torque_filter_alpha: float
    pid: PidConfig
    mpc: MpcConfig
    motor: MotorParams
    inner_dt: float

    def __post_init__(self):
        """The rules of the ``[scenario]`` scalars and those that relate keys to each other.

        Every other value is checked by the dataclass it builds, as it is built.
        """
        if not 0 < self.Ts < math.inf:  # first: the rules below divide by it
            raise InvalidParameterError(f"Ts must be finite and > 0, got {self.Ts}", "Ts")
        delay_steps(self.plant_params.input_delay_Td, self.Ts)
        substeps = substep_count(self.Ts, self.inner_dt) if self.plant_kind == "full" else 1
        poles = self.observer_poles
        rules = (  # NaN fails every comparison
            ("duration", 0.5 < self.duration / self.Ts < MAX_STEPS + 0.5,  # round() of it: steps
             f"duration must span 1 to {MAX_STEPS} scenario.ts steps"),
            ("noise_std", 0 <= self.noise_std <= MAX_ROLL,
             f"noise_std must be in [0, {MAX_ROLL:g}] rad"),
            ("initial_theta", abs(self.initial_theta) <= MAX_ROLL,  # further out is divergence
             f"initial_theta must be in [-{MAX_ROLL:g}, {MAX_ROLL:g}] rad"),
            ("initial_theta_dot", math.isfinite(self.initial_theta_dot),
             "initial_theta_dot must be finite"),
            ("rng_seed", self.rng_seed >= 0, "rng_seed must be >= 0"),
            ("feedforward", not self.feedforward or self.estimator_kind != "none",
             "feedforward requires an estimator"),
            ("controller", self.controller == "pid" or self.estimator_kind != "none",
             "MPC controllers require an estimator (the roll rate is not measured)"),
            ("observer_poles", len(poles) == 3 and all(abs(pole) < 1.0 for pole in poles),
             "poles must be 3 poles inside the unit circle"),
            ("torque_filter_alpha", 0 < self.torque_filter_alpha <= 1,
             "torque_filter_alpha must be in (0, 1]"),
        )
        for name, holds, rule in rules:
            if not holds:
                raise InvalidParameterError(f"{rule}, got {getattr(self, name)!r}", name)
        if self.controller == "mpc_constrained" and self.mpc.Rc_diag.max() > MAX_QP_CONTROL_WEIGHT:
            raise InvalidParameterError(
                f"control_weight must be at most {MAX_QP_CONTROL_WEIGHT:g} with the "
                f"mpc_constrained controller, got {float(self.mpc.Rc_diag.max()):g}", "Rc_diag")
        steps = round(self.duration / self.Ts)
        if steps * substeps > MAX_STEPS:
            raise InvalidParameterError(
                f"inner_dt must leave a full-plant run at most {MAX_STEPS} RK4 substeps "
                f"({steps} steps of {substeps:.3g}), got {self.inner_dt!r}", "inner_dt")

    def event_times(self) -> list:
        """Disturbance-torque changes on the control grid, each once, before the run ends."""
        end = round(self.duration / self.Ts) * self.Ts
        return [t for t in self.disturbance.on_grid(self.Ts).change_times() if t < end]


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
            # pairs are separated by commas or spaces; a colon may have spaces around it
            for tok in re.sub(r"\s*:\s*", ":", raw).replace(",", " ").split():
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


def build_named(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a failure reported as a ScenarioError.

    Serves every check of a parsed value and every design step of a run's
    set-up. The error names the ``section.key`` of the field it rejects,
    else ``where``.
    """
    try:
        return make(*args, **kwargs)
    except (CrosswindError, ValueError) as exc:
        key = _KEY_OF_FIELD.get(getattr(exc, "field", None), where)
        raise ScenarioError(f"{key}: {exc}") from None


def parse_scenario(text: str, overrides: dict | None = None) -> ScenarioConfig:
    """Parse and validate a scenario document into a ScenarioConfig.

    ``overrides`` maps dotted ``section.key`` names to raw string values
    and is applied before validation (used by the CLI sweep command).
    """
    # no header names the empty section, so a [DEFAULT] section is an unknown one
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), strict=True,
                                       interpolation=None, default_section="")
    parser.optionxform = str  # keys are read as written: the schema's are lowercase
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
        kind, default, _ = SCENARIO_SCHEMA[section][key]
        if parser.has_option(section, key):
            return _convert(kind, parser.get(section, key), f"{section}.{key}")
        if default is None:
            return None
        return _convert(kind, default, f"{section}.{key} (default)")

    def read(section: str) -> dict:
        """The section's values by the field each one sets."""
        return {field: get(section, key)
                for key, (_, _, field) in SCENARIO_SCHEMA[section].items()}

    scalars = read("scenario")
    plant_params = build_named("plant_params", RollPlantParams, **read("plant_params"))

    # the [wind] and [weights] keys are checked even where no profile or schedule uses them
    disturbance = TorqueSchedule()
    wind_map = build_named("wind", WindTorqueMap, quad_coeff_c=get("wind", "quad_coeff"),
                           direction=get("wind", "direction"))
    side = get("weights", "side")
    profile_pairs = get("wind", "profile")
    schedule_pairs = get("weights", "schedule")
    if profile_pairs is not None:
        disturbance = build_named("wind.profile", TorqueSchedule.from_wind,
                                  breakpoints=profile_pairs, wind_map=wind_map)
    if schedule_pairs is not None:
        disturbance = build_named("weights.schedule", TorqueSchedule.from_weights,
                                  schedule=schedule_pairs, side=side, rp=plant_params)
    if profile_pairs is not None and schedule_pairs is not None:
        raise ScenarioError("wind.profile, weights.schedule: a scenario may define wind or "
                            "weights, not both")

    kalman = build_named("estimator_params", KalmanConfig,
                         Q=np.diag(get("estimator_params", "q_diag")),
                         R=get("estimator_params", "r"))
    pid = build_named("pid", PidConfig, Ts=scalars["Ts"], **read("pid"))
    horizon, limit = get("mpc", "horizon"), plant_params.torque_limit
    n = min(max(horizon, 1), MAX_HORIZON)  # MpcConfig rejects any other horizon by its key
    mpc = build_named("mpc", MpcConfig, Np=horizon,
                      Qc_diag=np.append(np.ones(n - 1), get("mpc", "terminal_weight")),
                      Rc_diag=np.full(n, get("mpc", "control_weight")), u_min=-limit, u_max=limit,
                      y_min=get("mpc", "output_min"), y_max=get("mpc", "output_max"))
    motor = read("motor")
    inner_dt = motor.pop("inner_dt")

    return build_named(
        "scenario", ScenarioConfig,
        **scalars,
        plant_params=plant_params,
        disturbance=disturbance,
        observer_poles=get("estimator_params", "poles"),
        kalman=kalman,
        torque_filter_alpha=get("estimator_params", "torque_filter_alpha"),
        pid=pid,
        mpc=mpc,
        motor=build_named("motor", MotorParams, **motor),
        inner_dt=inner_dt,
    )


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
