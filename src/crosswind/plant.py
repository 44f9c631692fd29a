"""Ground-truth simulators and disturbance generators.

Two plants are provided: the full sixth-order nonlinear model (roll
dynamics plus two DC motors behind the input delay) integrated with
fixed-step RK4, and the simplified saturated linear plant that steps the
exact discrete map. Wind profiles, wingtip-weight schedules, and the
measurement-noise model live here too.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParameterError, PlantDivergenceError
from .model import DiscreteModel, RollPlantParams

LB_TO_N = 4.44822  # pounds-force to newtons


def saturate(u: float, limit: float) -> float:
    """Clip a command to the symmetric actuation range [-limit, limit]."""
    return min(max(u, -limit), limit)


# ---------------------------------------------------------------------------
# disturbances


@dataclass(frozen=True)
class WindTorqueMap:
    """Quadratic surrogate for the wind-speed-to-roll-torque map.

    The default coefficient is calibrated so a 15 lb wingtip weight and an
    8 km/h crosswind produce the same torque on the 11 m wing.
    """

    quad_coeff_c: float = 74.3
    direction: int = 1

    def __post_init__(self):
        if not 0 < self.quad_coeff_c < math.inf:
            raise InvalidParameterError(
                f"quad_coeff_c must be finite and > 0, got {self.quad_coeff_c}", "quad_coeff_c")
        if self.direction not in (-1, 1):
            raise InvalidParameterError(
                f"direction must be -1 or +1, got {self.direction}", "direction")


def wind_speed_to_torque(v: float, wind_map: WindTorqueMap) -> float:
    """Roll torque produced by a crosswind of speed v (m/s); v >= 0, the torque finite."""
    torque = wind_map.direction * wind_map.quad_coeff_c * v * v
    if not (v >= 0 and math.isfinite(torque)):
        raise InvalidParameterError(f"wind speed {v} m/s is not >= 0 with a finite torque")
    return torque


def _value_at(points: tuple, t: float, before: float) -> float:
    """Value at t of a piecewise-constant (time, value) schedule; ``before`` ahead of it."""
    value = before
    for tb, vb in points:
        if t >= tb:
            value = vb
        else:
            break
    return value


def _change_times(points: tuple) -> list:
    """Times at which a schedule's value changes, counting from zero at t=0."""
    changes, prev = [], 0.0
    for tb, vb in points:
        if vb != prev:
            changes.append(tb)
        prev = vb
    return changes


@dataclass(frozen=True)
class WindProfile:
    """Piecewise-constant wind speed, as (start_time, speed) breakpoints."""

    breakpoints: tuple  # ((t0, v0), (t1, v1), ...), t strictly increasing, t0 == 0

    def __post_init__(self):
        bp = tuple((float(t), float(v)) for t, v in self.breakpoints)
        if not bp:
            raise InvalidParameterError("wind profile needs at least one breakpoint", "breakpoints")
        if bp[0][0] != 0.0:
            raise InvalidParameterError("first wind breakpoint must be at t=0", "breakpoints")
        for (t0, _), (t1, _) in zip(bp, bp[1:]):
            if not t0 < t1 < math.inf:
                raise InvalidParameterError(
                    "wind breakpoint times must be finite and strictly increasing", "breakpoints")
        if not all(0 <= v < math.inf for _, v in bp):
            raise InvalidParameterError("wind speeds must be finite and >= 0", "breakpoints")
        object.__setattr__(self, "breakpoints", bp)

    def speed_at(self, t: float) -> float:
        return _value_at(self.breakpoints, t, self.breakpoints[0][1])

    def event_times(self) -> list:
        """Times at which the wind speed actually changes (plus t=0 if nonzero)."""
        return _change_times(self.breakpoints)


def weight_to_torque(mass_lb: float, rp: RollPlantParams) -> float:
    """Torque magnitude of a wingtip weight: mass * g-equivalent * d/2, which must be finite."""
    torque = mass_lb * LB_TO_N * rp.wingspan_d / 2.0
    if not (mass_lb >= 0 and math.isfinite(torque)):
        raise InvalidParameterError(f"mass {mass_lb} lb is not >= 0 with a finite torque")
    return torque


@dataclass(frozen=True)
class WeightDisturbance:
    """Schedule of wingtip weights: (time, mass_lb) events, one side.

    A weight on the left wingtip pulls the left tip down, which is the
    negative roll direction in this convention.
    """

    schedule: tuple  # ((t0, lb0), (t1, lb1), ...), times non-decreasing
    side: str = "left"

    def __post_init__(self):
        sched = tuple((float(t), float(m)) for t, m in self.schedule)
        times = [t for t, _ in sched]
        if not all(math.isfinite(t) for t in times) or times != sorted(times):
            raise InvalidParameterError(
                "weight schedule times must be finite and non-decreasing", "schedule")
        if not all(0 <= m < math.inf for _, m in sched):
            raise InvalidParameterError("weight masses must be finite and >= 0", "schedule")
        if self.side not in ("left", "right"):
            raise InvalidParameterError(
                f"side must be 'left' or 'right', got {self.side!r}", "side")
        object.__setattr__(self, "schedule", sched)

    def mass_at(self, t: float) -> float:
        return _value_at(self.schedule, t, 0.0)

    def torque_at(self, t: float, rp: RollPlantParams) -> float:
        sign = -1.0 if self.side == "left" else 1.0
        return sign * weight_to_torque(self.mass_at(t), rp)

    def event_times(self) -> list:
        return _change_times(self.schedule)


# ---------------------------------------------------------------------------
# states and the shared delay buffer


@dataclass
class RollState:
    """Roll angle and rate of the simplified plant."""

    theta: float = 0.0
    theta_dot: float = 0.0


@dataclass
class FullPlantState:
    """States of the full nonlinear plant: roll plus two motors."""

    theta: float = 0.0
    theta_dot: float = 0.0
    omega_m1: float = 0.0
    omega_m2: float = 0.0
    current_m1: float = 0.0
    current_m2: float = 0.0


class InputBuffer:
    """FIFO of the last kd commanded torques, shared by plant, observer, MPC.

    The oldest entry is the command applied at the current step. ``push``
    appends the new command and returns the evicted oldest one; with
    kd == 0 the command passes straight through.
    """

    def __init__(self, kd: int, initial: float = 0.0):
        if kd < 0:
            raise InvalidParameterError(f"kd must be >= 0, got {kd}")
        self.kd = kd
        self._q = deque([float(initial)] * kd, maxlen=kd if kd > 0 else 1)

    def __len__(self) -> int:
        return self.kd

    def push(self, cmd: float) -> float:
        """Append cmd; return the torque applied at this step."""
        cmd = float(cmd)
        if self.kd == 0:
            return cmd
        applied = self._q[0]
        self._q.append(cmd)
        return applied

    def as_array(self) -> np.ndarray:
        """Buffered commands oldest first: (tau(k-kd), ..., tau(k-1))."""
        return np.array(self._q, dtype=float)


# ---------------------------------------------------------------------------
# motors and the full plant


@dataclass(frozen=True)
class MotorParams:
    """DC motor constants, shared by the two identical wingtip motors.

    Defaults are not identified from hardware; they are chosen so the
    motor settles much faster than the overall input delay.
    """

    thrust_coeff_Ktilde: float = 0.01
    rotor_inertia_Jm: float = 0.05
    torque_const_Km: float = 0.5
    friction_bm: float = 0.01
    friction_btilde: float = 1e-5
    resistance_Rm: float = 0.2
    inductance_Lm: float = 1e-3

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0 < v < math.inf:
                raise InvalidParameterError(f"{f.name} must be finite and > 0, got {v}", f.name)


def torque_to_voltages(tau_cmd: float, mp: MotorParams, rp: RollPlantParams) -> tuple:
    """Steady-state voltage pair realizing a commanded torque.

    Inverts the thrust law and the motor steady state (zero acceleration,
    back-emf included). Positive torque spins motor 2, negative motor 1;
    each motor runs in one direction only.
    """

    def steady_voltage(tau_abs: float) -> float:
        thrust = tau_abs / (rp.wingspan_d / 2.0)
        omega = math.sqrt(thrust / mp.thrust_coeff_Ktilde)
        current = (mp.friction_bm * omega + mp.friction_btilde * omega * omega) / mp.torque_const_Km
        return mp.resistance_Rm * current + mp.torque_const_Km * omega

    if tau_cmd > 0:
        return 0.0, steady_voltage(tau_cmd)
    if tau_cmd < 0:
        return steady_voltage(-tau_cmd), 0.0
    return 0.0, 0.0


def _rk4_substeps(y: tuple, n: int, mp: MotorParams, rp: RollPlantParams,
                  voltages: tuple, tau_w: float, dt: float) -> tuple:
    """n RK4 steps of dt of the coupled roll + motor ODEs on six plain floats.

    ``y`` and the result are (theta, theta_dot, omega_m1, omega_m2,
    current_m1, current_m2). Motor speeds are clamped at zero from below
    after every step since each motor runs in one direction only, and a
    non-finite state raises PlantDivergenceError at the step it appears.
    """
    K, B, J, d = rp.stiffness_K, rp.damping_B, rp.inertia_J, rp.wingspan_d
    Kt, Jm, Km = mp.thrust_coeff_Ktilde, mp.rotor_inertia_Jm, mp.torque_const_Km
    bm, bt, Rm, Lm = mp.friction_bm, mp.friction_btilde, mp.resistance_Rm, mp.inductance_Lm
    V1, V2 = voltages
    half, sixth, isfinite = 0.5 * dt, dt / 6.0, math.isfinite

    def rates(theta, theta_dot, w1, w2, i1, i2):
        # exactly max(w, 0.0) here: w1c, w2c enter only squared, where -0.0 and
        # 0.0 agree, and a NaN w still reaches the rates through the w terms
        w1c = w1 if w1 > 0.0 else 0.0
        w2c = w2 if w2 > 0.0 else 0.0
        F1 = Kt * w1c * w1c
        F2 = Kt * w2c * w2c
        tau_m = (F2 - F1) * d / 2.0
        return (theta_dot,
                (-K * theta - B * theta_dot + tau_m + tau_w) / J,
                (Km * i1 - bm * w1 - bt * w1c * w1c) / Jm,
                (Km * i2 - bm * w2 - bt * w2c * w2c) / Jm,
                (V1 - Rm * i1 - Km * w1) / Lm,
                (V2 - Rm * i2 - Km * w2) / Lm)

    th, thd, w1, w2, i1, i2 = y
    for _ in range(n):
        a0, a1, a2, a3, a4, a5 = rates(th, thd, w1, w2, i1, i2)
        b0, b1, b2, b3, b4, b5 = rates(th + half * a0, thd + half * a1, w1 + half * a2,
                                       w2 + half * a3, i1 + half * a4, i2 + half * a5)
        c0, c1, c2, c3, c4, c5 = rates(th + half * b0, thd + half * b1, w1 + half * b2,
                                       w2 + half * b3, i1 + half * b4, i2 + half * b5)
        d0, d1, d2, d3, d4, d5 = rates(th + dt * c0, thd + dt * c1, w1 + dt * c2,
                                       w2 + dt * c3, i1 + dt * c4, i2 + dt * c5)
        th = th + sixth * (a0 + 2 * b0 + 2 * c0 + d0)
        thd = thd + sixth * (a1 + 2 * b1 + 2 * c1 + d1)
        w1 = max(w1 + sixth * (a2 + 2 * b2 + 2 * c2 + d2), 0.0)
        w2 = max(w2 + sixth * (a3 + 2 * b3 + 2 * c3 + d3), 0.0)
        i1 = i1 + sixth * (a4 + 2 * b4 + 2 * c4 + d4)
        i2 = i2 + sixth * (a5 + 2 * b5 + 2 * c5 + d5)
        if not (isfinite(th) and isfinite(thd) and isfinite(w1) and isfinite(w2)
                and isfinite(i1) and isfinite(i2)):
            raise PlantDivergenceError("full plant state became non-finite")
    return th, thd, w1, w2, i1, i2


def step_full_plant(s: FullPlantState, mp: MotorParams, rp: RollPlantParams,
                    voltages: tuple, tau_w: float, dt: float) -> FullPlantState:
    """One RK4 step of the coupled roll + motor ODEs (the kernel with n = 1).

    ``voltages`` come from the already delayed torque command (see
    FullPlantSimulator). Motor speeds are clamped at zero from below
    after the step since each motor runs in one direction only.
    """
    if dt > 1e-3 + 1e-12:
        raise InvalidParameterError(f"inner integration step must be <= 1 ms, got {dt}")
    y = (s.theta, s.theta_dot, s.omega_m1, s.omega_m2, s.current_m1, s.current_m2)
    return FullPlantState(*_rk4_substeps(y, 1, mp, rp, voltages, tau_w, dt))


def substep_count(Ts: float, inner_dt: float) -> int:
    """Number of RK4 substeps in one control interval; inner_dt must divide Ts."""
    if not 0 < inner_dt <= 1e-3 + 1e-12:
        raise InvalidParameterError(f"inner_dt must be in (0, 1 ms], got {inner_dt}", "inner_dt")
    ratio = Ts / inner_dt
    if not 0.5 < ratio < math.inf or abs(ratio - round(ratio)) > 1e-9:
        raise InvalidParameterError(f"inner_dt {inner_dt} s must divide Ts {Ts} s", "inner_dt")
    return round(ratio)


class FullPlantSimulator:
    """Full nonlinear plant advanced one control interval of Ts at a time.

    Takes the command after the shared input delay, which includes the
    motors' communication delay, and holds the steady-state voltages that
    realize it over the RK4 substeps. Single-owner, mutated in place.
    """

    def __init__(self, rp: RollPlantParams, Ts: float, motor: MotorParams | None = None,
                 inner_dt: float = 1e-3, state: FullPlantState | None = None):
        self.n_inner = substep_count(Ts, inner_dt)
        self.rp = rp
        self.motor = motor or MotorParams()
        self.inner_dt = inner_dt
        self.state = state or FullPlantState()

    def apply_command(self, applied_torque: float, tau_w: float) -> None:
        """Advance one control interval under the delayed command, not clipped here.

        A non-finite command raises PlantDivergenceError, as on the
        simplified plant; ``torque_to_voltages`` would map NaN to rest.
        """
        if not math.isfinite(applied_torque):
            raise PlantDivergenceError("full plant command is not finite")
        voltages = torque_to_voltages(applied_torque, self.motor, self.rp)
        s = self.state
        y = (s.theta, s.theta_dot, s.omega_m1, s.omega_m2, s.current_m1, s.current_m2)
        self.state = FullPlantState(*_rk4_substeps(
            y, self.n_inner, self.motor, self.rp, voltages, tau_w, self.inner_dt))
        if abs(self.state.theta) > 1e3:
            raise PlantDivergenceError("full plant roll angle diverged")


# ---------------------------------------------------------------------------
# simplified plant


def _roll_step(s: RollState, tau: float, dm: DiscreteModel) -> RollState:
    """The exact discrete map under the total roll torque tau."""
    theta = dm.A[0, 0] * s.theta + dm.A[0, 1] * s.theta_dot + dm.B[0, 0] * tau
    theta_dot = dm.A[1, 0] * s.theta + dm.A[1, 1] * s.theta_dot + dm.B[1, 0] * tau
    if not (math.isfinite(theta) and math.isfinite(theta_dot)):
        raise PlantDivergenceError("simplified plant state became non-finite")
    return RollState(theta=theta, theta_dot=theta_dot)


def step_simplified_plant(s: RollState, applied_torque: float, tau_w: float,
                          dm: DiscreteModel, rp: RollPlantParams) -> RollState:
    """Exact discrete step with actuator saturation at application.

    ``applied_torque`` is the buffer-delayed command; it is saturated to
    the physical limits before entering the dynamics together with the
    wind torque.
    """
    return _roll_step(s, saturate(applied_torque, rp.torque_limit) + tau_w, dm)


class SimplifiedPlantSimulator:
    """Simplified saturated linear plant stepping the exact discrete map."""

    def __init__(self, dm: DiscreteModel, rp: RollPlantParams,
                 state: RollState | None = None):
        self.dm = dm
        self.rp = rp
        self.state = state or RollState()

    def apply_command(self, applied_torque: float, tau_w: float) -> float:
        """Advance one sample; returns the saturated torque actually applied."""
        tau_sat = saturate(applied_torque, self.rp.torque_limit)
        self.state = _roll_step(self.state, tau_sat + tau_w, self.dm)
        if abs(self.state.theta) > 1e3:
            raise PlantDivergenceError("simplified plant roll angle diverged")
        return tau_sat


# ---------------------------------------------------------------------------
# measurement


def measure_roll(state, noise_std: float, rng: np.random.Generator) -> float:
    """Roll-angle measurement with zero-mean Gaussian noise.

    Deterministic for a fixed generator state; exact when noise_std is 0.
    """
    if noise_std < 0:
        raise InvalidParameterError(f"noise_std must be >= 0, got {noise_std}")
    theta = state.theta
    if noise_std == 0.0:
        return theta
    return theta + rng.normal(0.0, noise_std)
