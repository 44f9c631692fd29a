"""Ground-truth simulators and disturbance generators.

Two plants are provided: the full sixth-order nonlinear model (roll
dynamics plus two DC motors and a communication delay) integrated with
fixed-step RK4, and the simplified saturated linear plant that steps the
exact discrete map. Wind profiles, wingtip-weight schedules, and the
measurement-noise model live here too.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import BufferLengthError, InvalidParameterError, PlantDivergenceError
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
        if not self.quad_coeff_c > 0:
            raise InvalidParameterError(f"quad_coeff_c must be > 0, got {self.quad_coeff_c}")
        if self.direction not in (-1, 1):
            raise InvalidParameterError(f"direction must be -1 or +1, got {self.direction}")


def wind_speed_to_torque(v: float, wind_map: WindTorqueMap) -> float:
    """Roll torque produced by a crosswind of speed v (m/s)."""
    if v < 0:
        raise InvalidParameterError(f"wind speed must be >= 0, got {v}")
    return wind_map.direction * wind_map.quad_coeff_c * v * v


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
            raise InvalidParameterError("wind profile needs at least one breakpoint")
        if bp[0][0] != 0.0:
            raise InvalidParameterError("first wind breakpoint must be at t=0")
        for (t0, _), (t1, _) in zip(bp, bp[1:]):
            if not t1 > t0:
                raise InvalidParameterError("wind breakpoint times must be strictly increasing")
        if any(v < 0 for _, v in bp):
            raise InvalidParameterError("wind speeds must be >= 0")
        object.__setattr__(self, "breakpoints", bp)

    def speed_at(self, t: float) -> float:
        return _value_at(self.breakpoints, t, self.breakpoints[0][1])

    def event_times(self) -> list:
        """Times at which the wind speed actually changes (plus t=0 if nonzero)."""
        return _change_times(self.breakpoints)


def weight_to_torque(mass_lb: float, rp: RollPlantParams) -> float:
    """Torque magnitude of a wingtip weight: mass * g-equivalent * d/2."""
    if mass_lb < 0:
        raise InvalidParameterError(f"mass must be >= 0, got {mass_lb}")
    return mass_lb * LB_TO_N * rp.wingspan_d / 2.0


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
        for (t0, _), (t1, _) in zip(sched, sched[1:]):
            if t1 < t0:
                raise InvalidParameterError("weight schedule times must be non-decreasing")
        if any(m < 0 for _, m in sched):
            raise InvalidParameterError("weight masses must be >= 0")
        if self.side not in ("left", "right"):
            raise InvalidParameterError(f"side must be 'left' or 'right', got {self.side!r}")
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

    def oldest(self) -> float:
        """The command about to take effect, tau_m(k - kd)."""
        if self.kd == 0:
            raise BufferLengthError("buffer with kd=0 holds no delayed commands")
        return self._q[0]

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
    """DC motor constants for one wingtip motor.

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
    comm_delay_Tc: float = 0.1

    def __post_init__(self):
        positive = {
            "thrust_coeff_Ktilde": self.thrust_coeff_Ktilde,
            "rotor_inertia_Jm": self.rotor_inertia_Jm,
            "torque_const_Km": self.torque_const_Km,
            "friction_bm": self.friction_bm,
            "friction_btilde": self.friction_btilde,
            "resistance_Rm": self.resistance_Rm,
            "inductance_Lm": self.inductance_Lm,
        }
        for name, v in positive.items():
            if not (np.isfinite(v) and v > 0):
                raise InvalidParameterError(f"{name} must be > 0, got {v}")
        if not (np.isfinite(self.comm_delay_Tc) and self.comm_delay_Tc >= 0):
            raise InvalidParameterError(f"comm_delay_Tc must be >= 0, got {self.comm_delay_Tc}")


def motor_thrust(omega: float, mp: MotorParams) -> float:
    """Propeller thrust at rotor speed omega: K~ * omega^2."""
    if omega < 0:
        raise InvalidParameterError(f"motor speed must be >= 0, got {omega}")
    return mp.thrust_coeff_Ktilde * omega * omega


def motor_pair_torque(F1: float, F2: float, d: float) -> float:
    """Net roll torque of the thrust pair: (F2 - F1) * d/2."""
    if not d > 0:
        raise InvalidParameterError(f"wingspan must be > 0, got {d}")
    return (F2 - F1) * d / 2.0


def torque_to_voltages(tau_cmd: float, mp1: MotorParams, mp2: MotorParams,
                       rp: RollPlantParams) -> tuple:
    """Steady-state voltage pair realizing a commanded torque.

    Inverts the thrust law and the motor steady state (zero acceleration,
    back-emf included). Positive torque spins motor 2, negative motor 1;
    each motor runs in one direction only.
    """

    def steady_voltage(tau_abs: float, mp: MotorParams) -> float:
        thrust = tau_abs / (rp.wingspan_d / 2.0)
        omega = math.sqrt(thrust / mp.thrust_coeff_Ktilde)
        current = (mp.friction_bm * omega + mp.friction_btilde * omega * omega) / mp.torque_const_Km
        return mp.resistance_Rm * current + mp.torque_const_Km * omega

    if tau_cmd > 0:
        return 0.0, steady_voltage(tau_cmd, mp2)
    if tau_cmd < 0:
        return steady_voltage(-tau_cmd, mp1), 0.0
    return 0.0, 0.0


def _full_plant_rates(s: tuple, mp1: MotorParams, mp2: MotorParams,
                      rp: RollPlantParams, V1: float, V2: float, tau_w: float) -> tuple:
    theta, theta_dot, w1, w2, i1, i2 = s
    w1c = max(w1, 0.0)
    w2c = max(w2, 0.0)
    F1 = mp1.thrust_coeff_Ktilde * w1c * w1c
    F2 = mp2.thrust_coeff_Ktilde * w2c * w2c
    tau_m = (F2 - F1) * rp.wingspan_d / 2.0
    theta_dd = (-rp.stiffness_K * theta - rp.damping_B * theta_dot + tau_m + tau_w) / rp.inertia_J
    w1_dot = (mp1.torque_const_Km * i1 - mp1.friction_bm * w1 - mp1.friction_btilde * w1c * w1c) / mp1.rotor_inertia_Jm
    w2_dot = (mp2.torque_const_Km * i2 - mp2.friction_bm * w2 - mp2.friction_btilde * w2c * w2c) / mp2.rotor_inertia_Jm
    i1_dot = (V1 - mp1.resistance_Rm * i1 - mp1.torque_const_Km * w1) / mp1.inductance_Lm
    i2_dot = (V2 - mp2.resistance_Rm * i2 - mp2.torque_const_Km * w2) / mp2.inductance_Lm
    return (theta_dot, theta_dd, w1_dot, w2_dot, i1_dot, i2_dot)


def step_full_plant(s: FullPlantState, mp1: MotorParams, mp2: MotorParams,
                    rp: RollPlantParams, voltages: tuple, tau_w: float,
                    dt: float) -> FullPlantState:
    """One RK4 step of the coupled roll + motor ODEs.

    ``voltages`` must already come from a Tc-deep delay line (see
    FullPlantSimulator). Motor speeds are clamped at zero from below
    after the step since each motor runs in one direction only.
    """
    if dt > 1e-3 + 1e-12:
        raise InvalidParameterError(f"inner integration step must be <= 1 ms, got {dt}")
    V1, V2 = voltages
    y0 = (s.theta, s.theta_dot, s.omega_m1, s.omega_m2, s.current_m1, s.current_m2)

    def f(y):
        return _full_plant_rates(y, mp1, mp2, rp, V1, V2, tau_w)

    k1 = f(y0)
    k2 = f(tuple(y + 0.5 * dt * k for y, k in zip(y0, k1)))
    k3 = f(tuple(y + 0.5 * dt * k for y, k in zip(y0, k2)))
    k4 = f(tuple(y + dt * k for y, k in zip(y0, k3)))
    y1 = [y + dt / 6.0 * (a + 2 * b + 2 * c + d)
          for y, a, b, c, d in zip(y0, k1, k2, k3, k4)]
    y1[2] = max(y1[2], 0.0)
    y1[3] = max(y1[3], 0.0)
    if not all(math.isfinite(v) for v in y1):
        raise PlantDivergenceError("full plant state became non-finite")
    return FullPlantState(*y1)


class FullPlantSimulator:
    """Full nonlinear plant advanced one control interval at a time.

    Holds the Tc-deep voltage-command delay line at inner resolution and
    converts torque commands to voltages with the steady-state
    precompensation. Single-owner, mutated in place.
    """

    def __init__(self, rp: RollPlantParams, motor1: MotorParams | None = None,
                 motor2: MotorParams | None = None, inner_dt: float = 1e-3,
                 state: FullPlantState | None = None):
        self.rp = rp
        self.motor1 = motor1 or MotorParams()
        self.motor2 = motor2 or MotorParams()
        if self.motor1.comm_delay_Tc != self.motor2.comm_delay_Tc:
            raise InvalidParameterError("both motors must share one communication delay")
        if self.motor1.comm_delay_Tc > 0 and self.motor1.comm_delay_Tc >= rp.input_delay_Td:
            raise InvalidParameterError(
                f"comm delay {self.motor1.comm_delay_Tc} s must be below the total "
                f"input delay {rp.input_delay_Td} s"
            )
        if not 0 < inner_dt <= 1e-3 + 1e-12:
            raise InvalidParameterError(f"inner_dt must be in (0, 1 ms], got {inner_dt}")
        self.inner_dt = inner_dt
        self.state = state or FullPlantState()
        n_delay = round(self.motor1.comm_delay_Tc / inner_dt)
        self._voltage_line = deque([(0.0, 0.0)] * n_delay)

    def apply_command(self, tau_cmd: float, tau_w: float, Ts: float) -> None:
        """Advance one control interval under a held torque command, not clipped here."""
        voltages = torque_to_voltages(tau_cmd, self.motor1, self.motor2, self.rp)
        n_inner = max(1, round(Ts / self.inner_dt))
        for _ in range(n_inner):
            self._voltage_line.append(voltages)
            applied_v = self._voltage_line.popleft()
            self.state = step_full_plant(
                self.state, self.motor1, self.motor2, self.rp, applied_v, tau_w, self.inner_dt
            )
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
