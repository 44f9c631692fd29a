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

from .controllers import MAX_HORIZON, MpcConfig, PidConfig
from .errors import ScenarioError
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

    def event_times(self) -> list:
        """Disturbance-torque changes on the control grid, each once, before the run ends."""
        end = round(self.duration / self.Ts) * self.Ts
        changes = self.disturbance.on_grid(self.Ts).change_times()
        return list(dict.fromkeys(t for t in changes if t < end))


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
    """``make(**kwargs)``, with a ValueError reported as a ScenarioError.

    The error names the ``section.key`` of the field it rejects, else ``where``.
    """
    try:
        return make(**kwargs)
    except ValueError as exc:
        key = _KEY_OF_FIELD.get(getattr(exc, "field", None), where)
        raise ScenarioError(f"{key}: {exc}") from None


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
    plant_params = _build("plant_params", RollPlantParams, **read("plant_params"))

    # the [wind] and [weights] keys are checked even where no profile or schedule uses them
    disturbance = TorqueSchedule()
    wind_map = _build("wind", WindTorqueMap, quad_coeff_c=get("wind", "quad_coeff"),
                      direction=get("wind", "direction"))
    side = get("weights", "side")
    profile_pairs = get("wind", "profile")
    schedule_pairs = get("weights", "schedule")
    if profile_pairs is not None:
        disturbance = _build("wind.profile", TorqueSchedule.from_wind,
                             breakpoints=profile_pairs, wind_map=wind_map)
    if schedule_pairs is not None:
        disturbance = _build("weights.schedule", TorqueSchedule.from_weights,
                             schedule=schedule_pairs, side=side, rp=plant_params)
    if profile_pairs is not None and schedule_pairs is not None:
        raise ScenarioError("a scenario may define wind or weights, not both")

    kalman = _build("estimator_params", KalmanConfig,
                    Q=np.diag(get("estimator_params", "q_diag")), R=get("estimator_params", "r"))
    pid = _build("pid", PidConfig, Ts=scalars["Ts"], **read("pid"))
    horizon, limit = get("mpc", "horizon"), plant_params.torque_limit
    n = min(max(horizon, 1), MAX_HORIZON)  # MpcConfig rejects any other horizon by its key
    mpc = _build("mpc", MpcConfig, Np=horizon,
                 Qc_diag=np.append(np.ones(n - 1), get("mpc", "terminal_weight")),
                 Rc_diag=np.full(n, get("mpc", "control_weight")), u_min=-limit, u_max=limit,
                 y_min=get("mpc", "output_min"), y_max=get("mpc", "output_max"))
    motor = read("motor")
    inner_dt = motor.pop("inner_dt")

    cfg = ScenarioConfig(
        **scalars,
        plant_params=plant_params,
        disturbance=disturbance,
        observer_poles=get("estimator_params", "poles"),
        kalman=kalman,
        torque_filter_alpha=get("estimator_params", "torque_filter_alpha"),
        pid=pid,
        mpc=mpc,
        motor=_build("motor", MotorParams, **motor),
        inner_dt=inner_dt,
    )
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig) -> None:
    """The rules that relate keys to each other, and those of the scenario scalars.

    Every other value is checked by the dataclass it builds, as it is built.
    """
    _build("plant_params", delay_steps, Td=cfg.plant_params.input_delay_Td, Ts=cfg.Ts)
    if cfg.plant_kind == "full":
        _build("motor", substep_count, Ts=cfg.Ts, inner_dt=cfg.inner_dt)
    problems = []
    if not 0.5 < cfg.duration / cfg.Ts < MAX_STEPS + 0.5:  # round() of it is n_steps; NaN fails
        problems.append(f"scenario.duration must span 1 to {MAX_STEPS} scenario.ts steps")
    if not 0 <= cfg.noise_std <= MAX_ROLL:  # NaN fails too
        problems.append(f"scenario.noise_std must be in [0, {MAX_ROLL:g}] rad")
    if not abs(cfg.initial_theta) <= MAX_ROLL:  # NaN fails too; further out is divergence
        problems.append(f"scenario.initial_theta must be in [-{MAX_ROLL:g}, {MAX_ROLL:g}] rad")
    if not math.isfinite(cfg.initial_theta_dot):
        problems.append("scenario.initial_theta_dot must be finite")
    if cfg.rng_seed < 0:
        problems.append("scenario.rng_seed must be >= 0")
    if cfg.feedforward and cfg.estimator_kind == "none":
        problems.append("scenario.feedforward requires an estimator")
    if cfg.controller in ("mpc_constrained", "mpc_unconstrained") and cfg.estimator_kind == "none":
        problems.append("MPC controllers require an estimator (the roll rate is not measured)")
    poles = cfg.observer_poles
    if not (len(poles) == 3 and all(abs(pole) < 1.0 for pole in poles)):  # NaN fails too
        problems.append("estimator_params.poles must be 3 poles inside the unit circle")
    if not 0 < cfg.torque_filter_alpha <= 1:
        problems.append("estimator_params.torque_filter_alpha must be in (0, 1]")
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
