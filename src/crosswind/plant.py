"""Ground-truth simulators and disturbance generators.

Two plants are provided: the full sixth-order nonlinear model (roll
dynamics plus two DC motors behind the input delay) integrated with
fixed-step RK4, and the simplified saturated linear plant that steps the
exact discrete map. The disturbance torque schedule, built from a wind
profile or wingtip weights, and the measurement-noise model live here too.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidParameterError, PlantDivergenceError
from .model import MAX_STEPS, DiscreteModel, RollPlantParams

LB_TO_N = 4.44822  # pounds-force to newtons
MAX_ROLL = 1e3  # rad: a plant rolled further has diverged, and no measurement noise is larger


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


def weight_to_torque(mass_lb: float, rp: RollPlantParams) -> float:
    """Torque magnitude of a wingtip weight: mass * g-equivalent * d/2, which must be finite."""
    torque = mass_lb * LB_TO_N * rp.wingspan_d / 2.0
    if not (mass_lb >= 0 and math.isfinite(torque)):
        raise InvalidParameterError(f"mass {mass_lb} lb is not >= 0 with a finite torque")
    return torque


@dataclass(frozen=True)
class TorqueSchedule:
    """Piecewise-constant disturbance roll torque, the one the observer estimates.

    ``before`` holds until the first point; each (start_time, torque)
    point holds from its start time on, and of the points written at one
    time the last holds. Start times are non-decreasing. Built once per
    scenario from a crosswind profile or a wingtip-weight schedule.
    """

    points: tuple = ()
    before: float = 0.0
    _starts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        starts = tuple(t for t, _ in self.points)
        # each time against the one before it, the first against itself: NaN fails too
        if not all(t0 <= t1 for t0, t1 in zip(starts[:1] + starts, starts)):
            raise InvalidParameterError("torque schedule times must be non-decreasing", "points")
        object.__setattr__(self, "_starts", starts)

    @classmethod
    def from_wind(cls, breakpoints: tuple, wind_map: WindTorqueMap) -> TorqueSchedule:
        """Torque of (start_time, speed) breakpoints: times from 0, strictly increasing."""
        bp = tuple((float(t), float(v)) for t, v in breakpoints)
        if not bp:
            raise InvalidParameterError("wind profile needs at least one breakpoint", "breakpoints")
        if bp[0][0] != 0.0:
            raise InvalidParameterError("first wind breakpoint must be at t=0", "breakpoints")
        for (t0, _), (t1, _) in zip(bp, bp[1:]):
            if not t0 < t1 < math.inf:
                raise InvalidParameterError(
                    "wind breakpoint times must be finite and strictly increasing", "breakpoints")
        points = tuple((t, wind_speed_to_torque(v, wind_map)) for t, v in bp)
        return cls(points, before=points[0][1])

    @classmethod
    def from_weights(cls, schedule: tuple, side: str, rp: RollPlantParams) -> TorqueSchedule:
        """Torque of (time, mass_lb) events on one wingtip: times finite, >= 0, non-decreasing.

        A weight on the left wingtip pulls the left tip down, which is the
        negative roll direction in this convention.
        """
        sched = tuple((float(t), float(m)) for t, m in schedule)
        times = [t for t, _ in sched]
        if not all(0.0 <= t < math.inf for t in times) or times != sorted(times):  # NaN fails
            raise InvalidParameterError(
                "weight schedule times must be finite, >= 0 and non-decreasing", "schedule")
        if side not in ("left", "right"):
            raise InvalidParameterError(f"side must be 'left' or 'right', got {side!r}", "side")
        sign = -1.0 if side == "left" else 1.0
        return cls(tuple((t, sign * weight_to_torque(m, rp)) for t, m in sched),
                   before=sign * weight_to_torque(0.0, rp))

    def at(self, t: float) -> float:
        """Torque at time t: the last point starting at or before t, in O(log n)."""
        i = bisect_right(self._starts, t) if t == t else 0  # NaN is before every point
        return self.points[i - 1][1] if i else self.before

    def on_grid(self, ts: float) -> TorqueSchedule:
        """This schedule with each change moved to step round(time / ts) of a ts grid.

        The loop looks the torque up at k * ts, and an event is counted at
        the same step. A time too far out for round() is beyond any run.
        """
        return TorqueSchedule(tuple((round(t / ts) * ts if abs(t / ts) < math.inf else t, v)
                                    for t, v in self.points), self.before)

    def change_times(self) -> list:
        """Times at which the torque changes, counting from zero at t=0.

        Of the points written at one time only the last holds, so changes
        that cancel there are no change.
        """
        changes, prev = [], 0.0
        for start, value in dict(self.points).items():
            if value != prev:
                changes.append(start)
            prev = value
        return changes


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
    appends the new command and returns the oldest one, which with
    kd == 0 is the command just pushed.

    The MPC shift reads the buffer only through ``history_term``, the two
    floats h = M_shift @ as_array(). The buffer computes h exactly when a
    stack reads it first, then keeps it current on each push in O(1),
    h <- A h + B u_new - A^kd B u_old, and computes it exactly again on
    the first read after kd pushes, so rounding drift stays bounded even
    when A has eigenvalues at 1. A read by another stack, and a push that
    makes h non-finite, also lead to the exact computation.
    """

    def __init__(self, kd: int):
        if kd < 0:
            raise InvalidParameterError(f"kd must be >= 0, got {kd}")
        self._q = deque([0.0] * kd)
        self._reader = None  # the stack whose h is kept current, None when h is stale
        self._left = 0  # pushes h is kept current for before the next exact computation
        self._h = (0.0, 0.0)
        self._coeffs = None

    def push(self, cmd: float) -> float:
        """Append cmd; return the torque applied at this step."""
        cmd = float(cmd)
        q = self._q
        q.append(cmd)
        old = q.popleft()
        if self._left:
            self._left -= 1
            a00, a01, a10, a11, b0, b1, c0, c1 = self._coeffs
            h0, h1 = self._h
            h0, h1 = (a00 * h0 + a01 * h1 + b0 * cmd - c0 * old,
                      a10 * h0 + a11 * h1 + b1 * cmd - c1 * old)
            if self._left and math.isfinite(h0) and math.isfinite(h1):
                self._h = h0, h1
            else:  # kd pushes since h was exact, or h is not finite: the next read recomputes it
                self._reader, self._left = None, 0
        return old

    def history_term(self, stack) -> tuple:
        """h = stack.M_shift @ as_array() as two floats; see the class notes.

        ``stack`` is a ``controllers.PredictionStack``: its ``M_shift``
        gives the exact h and its ``push_coeffs`` (A, B and A^kd B as
        plain floats) the update on each push.
        """
        if self._reader is not stack:
            kd = stack.M_shift.shape[1]
            if kd != len(self._q):
                raise InvalidParameterError(
                    f"buffer holds {len(self._q)} commands, model delay is {kd}")
            self._h = tuple((stack.M_shift @ self.as_array()).tolist())
            self._coeffs, self._reader, self._left = stack.push_coeffs, stack, kd
        return self._h

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
    if not (tau_cmd > 0 or tau_cmd < 0):  # zero, or NaN
        return 0.0, 0.0
    thrust = abs(tau_cmd) / (rp.wingspan_d / 2.0)
    omega = math.sqrt(thrust / mp.thrust_coeff_Ktilde)
    current = (mp.friction_bm * omega + mp.friction_btilde * omega * omega) / mp.torque_const_Km
    voltage = mp.resistance_Rm * current + mp.torque_const_Km * omega
    return (0.0, voltage) if tau_cmd > 0 else (voltage, 0.0)


def _rk4_substeps(y: tuple, n: int, mp: MotorParams, rp: RollPlantParams,
                  voltages: tuple, tau_w: float, dt: float) -> tuple:
    """n RK4 steps of dt of the coupled roll + motor ODEs on six plain floats.

    ``y`` and the result are (theta, theta_dot, omega_m1, omega_m2,
    current_m1, current_m2). Motor speeds are clamped at zero from below
    after every step since each motor runs in one direction only, and a
    non-finite state raises PlantDivergenceError at the step it appears.

    The four stages are written out on local floats. Every operation has
    the operands and the order of the textbook form (one rates function
    called at y, y + dt/2 k1, y + dt/2 k2 and y + dt k3), so the result
    is that form's to the bit: ``tests/test_plant.py::reference_rk4_step``
    pins it. Within a stage a speed enters the thrust and the quadratic
    friction clamped at zero, as max(w, 0.0).
    """
    nK, B, J, d = -rp.stiffness_K, rp.damping_B, rp.inertia_J, rp.wingspan_d
    Kt, Jm, Km = mp.thrust_coeff_Ktilde, mp.rotor_inertia_Jm, mp.torque_const_Km
    bm, bt, Rm, Lm = mp.friction_bm, mp.friction_btilde, mp.resistance_Rm, mp.inductance_Lm
    V1, V2 = voltages
    half, sixth = 0.5 * dt, dt / 6.0
    th, thd, w1, w2, i1, i2 = y
    for _ in range(n):
        # k1 = (thd, a1, ..., a5) at y
        w1c = 0.0 if w1 < 0.0 else w1
        w2c = 0.0 if w2 < 0.0 else w2
        a1 = (nK * th - B * thd + (Kt * w2c * w2c - Kt * w1c * w1c) * d / 2.0 + tau_w) / J
        a2 = (Km * i1 - bm * w1 - bt * w1c * w1c) / Jm
        a3 = (Km * i2 - bm * w2 - bt * w2c * w2c) / Jm
        a4 = (V1 - Rm * i1 - Km * w1) / Lm
        a5 = (V2 - Rm * i2 - Km * w2) / Lm
        # k2 = (b0, ..., b5) at y + dt/2 k1
        s0, b0 = th + half * thd, thd + half * a1
        s2, s3 = w1 + half * a2, w2 + half * a3
        s4, s5 = i1 + half * a4, i2 + half * a5
        w1c = 0.0 if s2 < 0.0 else s2
        w2c = 0.0 if s3 < 0.0 else s3
        b1 = (nK * s0 - B * b0 + (Kt * w2c * w2c - Kt * w1c * w1c) * d / 2.0 + tau_w) / J
        b2 = (Km * s4 - bm * s2 - bt * w1c * w1c) / Jm
        b3 = (Km * s5 - bm * s3 - bt * w2c * w2c) / Jm
        b4 = (V1 - Rm * s4 - Km * s2) / Lm
        b5 = (V2 - Rm * s5 - Km * s3) / Lm
        # k3 = (c0, ..., c5) at y + dt/2 k2
        s0, c0 = th + half * b0, thd + half * b1
        s2, s3 = w1 + half * b2, w2 + half * b3
        s4, s5 = i1 + half * b4, i2 + half * b5
        w1c = 0.0 if s2 < 0.0 else s2
        w2c = 0.0 if s3 < 0.0 else s3
        c1 = (nK * s0 - B * c0 + (Kt * w2c * w2c - Kt * w1c * w1c) * d / 2.0 + tau_w) / J
        c2 = (Km * s4 - bm * s2 - bt * w1c * w1c) / Jm
        c3 = (Km * s5 - bm * s3 - bt * w2c * w2c) / Jm
        c4 = (V1 - Rm * s4 - Km * s2) / Lm
        c5 = (V2 - Rm * s5 - Km * s3) / Lm
        # k4 at y + dt k3, its rates written into y + dt/6 (k1 + 2 k2 + 2 k3 + k4)
        s0, d0 = th + dt * c0, thd + dt * c1
        s2, s3 = w1 + dt * c2, w2 + dt * c3
        s4, s5 = i1 + dt * c4, i2 + dt * c5
        w1c = 0.0 if s2 < 0.0 else s2
        w2c = 0.0 if s3 < 0.0 else s3
        th = th + sixth * (thd + 2.0 * b0 + 2.0 * c0 + d0)
        thd = thd + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + (
            nK * s0 - B * d0 + (Kt * w2c * w2c - Kt * w1c * w1c) * d / 2.0 + tau_w) / J)
        w1 = w1 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + (Km * s4 - bm * s2 - bt * w1c * w1c) / Jm)
        w2 = w2 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + (Km * s5 - bm * s3 - bt * w2c * w2c) / Jm)
        i1 = i1 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + (V1 - Rm * s4 - Km * s2) / Lm)
        i2 = i2 + sixth * (a5 + 2.0 * b5 + 2.0 * c5 + (V2 - Rm * s5 - Km * s3) / Lm)
        w1 = 0.0 if w1 < 0.0 else w1  # max(w1, 0.0): -inf becomes 0.0, NaN stays
        w2 = 0.0 if w2 < 0.0 else w2
        # x * 0.0 is a signed zero for a finite x and NaN otherwise, and NaN propagates
        if th * 0.0 + thd * 0.0 + w1 * 0.0 + w2 * 0.0 + i1 * 0.0 + i2 * 0.0 != 0.0:
            raise PlantDivergenceError("full plant state became non-finite")
    return th, thd, w1, w2, i1, i2


def _check_inner_dt(dt: float) -> None:
    """An RK4 substep must be in (0, 1 ms]; NaN fails too."""
    if not 0 < dt <= 1e-3 + 1e-12:
        raise InvalidParameterError(f"inner_dt must be in (0, 1 ms], got {dt}", "inner_dt")


def step_full_plant(s: FullPlantState, mp: MotorParams, rp: RollPlantParams,
                    voltages: tuple, tau_w: float, dt: float) -> FullPlantState:
    """One RK4 step of the coupled roll + motor ODEs (the kernel with n = 1).

    ``voltages`` come from the already delayed torque command (see
    FullPlantSimulator). Motor speeds are clamped at zero from below
    after the step since each motor runs in one direction only.
    """
    _check_inner_dt(dt)
    y = (s.theta, s.theta_dot, s.omega_m1, s.omega_m2, s.current_m1, s.current_m2)
    return FullPlantState(*_rk4_substeps(y, 1, mp, rp, voltages, tau_w, dt))


def substep_count(Ts: float, inner_dt: float) -> int:
    """Number of RK4 substeps in one control interval: inner_dt must divide Ts
    into 1 to MAX_STEPS of them."""
    _check_inner_dt(inner_dt)
    ratio = Ts / inner_dt
    if not 0.5 < ratio < MAX_STEPS + 0.5 or abs(ratio - round(ratio)) > 1e-9:
        raise InvalidParameterError(f"inner_dt {inner_dt} s must divide Ts {Ts} s into 1 to "
                                    f"{MAX_STEPS} substeps", "inner_dt")
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
        if abs(self.state.theta) > MAX_ROLL:
            raise PlantDivergenceError("full plant roll angle diverged")


# ---------------------------------------------------------------------------
# simplified plant


def _roll_step(s: RollState, tau: float, dm: DiscreteModel) -> RollState:
    """The exact discrete map under the total roll torque tau, on dm's plain floats."""
    a00, a01, a10, a11, b0, b1 = dm.floats
    theta = a00 * s.theta + a01 * s.theta_dot + b0 * tau
    theta_dot = a10 * s.theta + a11 * s.theta_dot + b1 * tau
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
        if abs(self.state.theta) > MAX_ROLL:
            raise PlantDivergenceError("simplified plant roll angle diverged")
        return tau_sat


# ---------------------------------------------------------------------------
# measurement


def measure_roll(state, noise_std: float, rng: np.random.Generator) -> float:
    """Roll-angle measurement with zero-mean Gaussian noise.

    Deterministic for a fixed generator state; exact when noise_std is 0.
    """
    if not 0 <= noise_std <= MAX_ROLL:  # NaN fails too
        raise InvalidParameterError(f"noise_std must be in [0, {MAX_ROLL:g}] rad, got {noise_std}")
    theta = state.theta
    if noise_std == 0.0:
        return theta
    return theta + rng.normal(0.0, noise_std)
