import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosswind.errors import InvalidParameterError, PlantDivergenceError
from crosswind.harness import run_scenario
from crosswind.model import MAX_STEPS, RollPlantParams
from crosswind.plant import (
    FullPlantSimulator,
    FullPlantState,
    InputBuffer,
    MotorParams,
    RollState,
    SimplifiedPlantSimulator,
    TorqueSchedule,
    WindTorqueMap,
    _rk4_substeps,
    measure_roll,
    saturate,
    step_full_plant,
    step_simplified_plant,
    torque_to_voltages,
    weight_to_torque,
    wind_speed_to_torque,
)
from crosswind.scenario import load_bundled_scenario


class TestMotorAlgebra:
    """Thrust K~ w^2 per motor and roll torque (F2 - F1) d/2, read off the RK4 kernel."""

    DT = 1e-9  # over one such step the motor speeds and the roll rate barely move

    def roll_rate(self, w1, w2, mp=MotorParams()):
        s = FullPlantState(omega_m1=w1, omega_m2=w2)
        return step_full_plant(s, mp, RollPlantParams(), (0.0, 0.0), 0.0, self.DT).theta_dot

    def motor_torque(self, w1, w2, mp=MotorParams()):
        return self.roll_rate(w1, w2, mp) / self.DT * RollPlantParams().inertia_J

    def test_thrust_zero_speed(self):
        assert self.roll_rate(0.0, 0.0) == 0.0

    def test_thrust_quadratic(self):
        assert self.motor_torque(0.0, 200.0) == pytest.approx(
            4.0 * self.motor_torque(0.0, 100.0), rel=1e-6)

    def test_thrust_value(self):
        # 100 N of thrust at 100 rad/s on one wingtip, 5.5 m from the roll axis
        mp = MotorParams(thrust_coeff_Ktilde=0.01)
        assert self.motor_torque(0.0, 100.0, mp) == pytest.approx(100.0 * 5.5, rel=1e-6)

    def test_negative_speed_gives_no_thrust(self):
        assert self.roll_rate(-50.0, 0.0) == 0.0

    def test_pair_torque_balanced(self):
        assert self.roll_rate(50.0, 50.0) == 0.0

    def test_pair_torque_value(self):
        # 111.2 N on the right wingtip: 611.6 N m
        w = (111.2 / MotorParams().thrust_coeff_Ktilde) ** 0.5
        assert self.motor_torque(0.0, w) == pytest.approx(611.6, rel=1e-6)

    def test_pair_torque_antisymmetric(self):
        assert self.roll_rate(30.0, 70.0) == -self.roll_rate(70.0, 30.0)


class TestDisturbances:
    def test_weight_examples(self):
        rp = RollPlantParams()
        assert weight_to_torque(25.0, rp) == pytest.approx(611.6, abs=0.05)
        assert weight_to_torque(20.0, rp) == pytest.approx(489.3, abs=0.05)
        assert weight_to_torque(0.0, rp) == 0.0
        with pytest.raises(InvalidParameterError, match="finite torque"):
            weight_to_torque(1e308, rp)

    def test_wind_zero(self):
        assert wind_speed_to_torque(0.0, WindTorqueMap()) == 0.0

    def test_wind_calibration_point(self):
        # 8 km/h is the 15 lb equivalent
        v = 8.0 / 3.6
        assert wind_speed_to_torque(v, WindTorqueMap()) == pytest.approx(366.9, abs=0.5)
        rp = RollPlantParams()
        assert wind_speed_to_torque(v, WindTorqueMap()) == pytest.approx(
            weight_to_torque(15.0, rp), rel=2e-3)

    def test_wind_7mph(self):
        v = 7.0 * 0.44704
        assert wind_speed_to_torque(v, WindTorqueMap()) == pytest.approx(727.0, abs=1.0)

    def test_wind_direction(self):
        m = WindTorqueMap(direction=-1)
        assert wind_speed_to_torque(2.0, m) < 0

    def test_profile_lookup_and_events(self):
        wind_map = WindTorqueMap()
        prof = TorqueSchedule.from_wind(((0.0, 0.0), (15.0, 2.2), (40.0, 0.0)), wind_map)
        assert prof.at(0.0) == 0.0
        assert prof.at(15.0) == wind_speed_to_torque(2.2, wind_map)
        assert prof.at(39.9) == wind_speed_to_torque(2.2, wind_map)
        assert prof.at(40.0) == 0.0
        assert prof.change_times() == [15.0, 40.0]

    def test_profile_validation(self):
        wind_map = WindTorqueMap()
        with pytest.raises(InvalidParameterError):
            TorqueSchedule.from_wind(((1.0, 0.0),), wind_map)   # must start at zero
        with pytest.raises(InvalidParameterError):
            TorqueSchedule.from_wind(((0.0, 0.0), (0.0, 1.0)), wind_map)  # not increasing
        for t in (float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError, match="finite"):
                TorqueSchedule.from_wind(((0.0, 0.0), (t, 1.0)), wind_map)
        with pytest.raises(InvalidParameterError, match="finite torque"):
            wind_speed_to_torque(1e155, wind_map)
        with pytest.raises(InvalidParameterError, match="quad_coeff_c"):
            WindTorqueMap(quad_coeff_c=float("inf"))
        for v in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                TorqueSchedule.from_wind(((0.0, v),), wind_map)
            with pytest.raises(InvalidParameterError):
                wind_speed_to_torque(v, wind_map)

    @pytest.mark.parametrize("mass", [-1.0, float("nan"), float("inf")])
    def test_weight_must_be_finite_and_nonnegative(self, mass):
        with pytest.raises(InvalidParameterError):
            TorqueSchedule.from_weights(((10.0, 15.0), (20.0, mass)), "left", RollPlantParams())
        with pytest.raises(InvalidParameterError):
            weight_to_torque(mass, RollPlantParams())

    @pytest.mark.parametrize("t", [5.0, float("nan"), float("inf")])
    def test_weight_times_must_be_finite_and_nondecreasing(self, t):
        with pytest.raises(InvalidParameterError, match="times"):
            TorqueSchedule.from_weights(((10.0, 15.0), (t, 0.0)), "left", RollPlantParams())

    def test_weight_schedule(self):
        rp = RollPlantParams()
        w = TorqueSchedule.from_weights(((10.0, 15.0), (35.0, 0.0)), "left", rp)
        assert w.at(5.0) == 0.0
        assert math.copysign(1.0, w.at(5.0)) == -1.0  # tau_w_true prints -0.0 before 10 s
        assert w.at(10.0) == pytest.approx(-weight_to_torque(15.0, rp))
        assert w.at(40.0) == 0.0
        assert w.change_times() == [10.0, 35.0]
        right = TorqueSchedule.from_weights(((0.0, 15.0),), "right", rp)
        assert right.at(1.0) > 0


class TestScheduleLookup:
    @staticmethod
    def scan(schedule, t):
        """The lookup as a linear scan of the points in order."""
        torque = schedule.before
        for start, value in schedule.points:
            if t >= start:
                torque = value
            else:
                break
        return torque

    def test_bisection_matches_the_scan(self, rng):
        for _ in range(200):
            n = int(rng.integers(0, 12))
            times = np.sort(rng.integers(0, 8, size=n) * 0.5 + rng.choice([0.0, 0.03], size=n))
            sched = TorqueSchedule(tuple(zip(times.tolist(), rng.normal(size=n).tolist())),
                                   before=float(rng.normal()))
            queries = np.concatenate([times, times - 1e-9, times + 1e-9,
                                      rng.uniform(-1.0, 5.0, size=20), [-np.inf, np.inf]])
            for s in (sched, sched.on_grid(0.1), sched.on_grid(0.25)):
                for t in queries.tolist() + [float("nan")]:
                    got, want = s.at(t), self.scan(s, t)
                    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_last_point_at_a_tied_time_wins(self):
        sched = TorqueSchedule(((1.0, 5.0), (1.0, 7.0), (2.0, 0.0)), before=-1.0)
        assert [sched.at(t) for t in (0.5, 1.0, 1.5, 2.0)] == [-1.0, 7.0, 7.0, 0.0]

    @pytest.mark.parametrize("points", [((2.0, 1.0), (1.0, 0.0)), ((float("nan"), 1.0),),
                                        ((0.0, 1.0), (float("nan"), 0.0))])
    def test_times_must_be_non_decreasing(self, points):
        with pytest.raises(InvalidParameterError, match="non-decreasing"):
            TorqueSchedule(points)


class TestInputBuffer:
    def test_fifo_order_with_lag(self):
        buf = InputBuffer(kd=3)
        outs = [buf.push(float(i)) for i in range(1, 8)]
        # first kd pushes evict the zero fill, then commands come out in order
        assert outs == [0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0]

    def test_zero_delay_passthrough(self):
        buf = InputBuffer(kd=0)
        assert buf.push(42.0) == 42.0
        assert buf.push(-7.0) == -7.0 and buf.as_array().size == 0

    def test_as_array_oldest_first(self):
        buf = InputBuffer(kd=3)
        for v in (1.0, 2.0, 3.0, 4.0):
            buf.push(v)
        assert np.array_equal(buf.as_array(), [2.0, 3.0, 4.0])
        assert buf.push(5.0) == 2.0


class TestSaturation:
    def test_boundary(self):
        assert saturate(2000.0, 1000.0) == 1000.0
        assert saturate(-2000.0, 1000.0) == -1000.0
        assert saturate(500.0, 1000.0) == 500.0

    def test_idempotent(self, rng):
        for _ in range(100):
            u = rng.normal(scale=3000.0)
            once = saturate(u, 1000.0)
            assert saturate(once, 1000.0) == once


class TestSimplifiedPlant:
    def test_rest_is_equilibrium(self, nominal_dm, nominal_params):
        s = RollState()
        for _ in range(50):
            s = step_simplified_plant(s, 0.0, 0.0, nominal_dm, nominal_params)
        assert s.theta == 0.0 and s.theta_dot == 0.0

    def test_saturation_applied(self, nominal_dm, nominal_params):
        sim = SimplifiedPlantSimulator(nominal_dm, nominal_params)
        applied = sim.apply_command(2.0 * nominal_params.torque_limit, 0.0)
        assert applied == nominal_params.torque_limit

    def test_steady_state_deflection(self, nominal_dm, nominal_params):
        s = RollState()
        tau_w = 600.0
        for _ in range(3000):
            s = step_simplified_plant(s, 0.0, tau_w, nominal_dm, nominal_params)
        assert abs(s.theta - tau_w / nominal_params.stiffness_K) < 1e-6

    def test_dissipation_in_energy_norm(self, nominal_dm, nominal_params):
        # V = K theta^2 + J theta_dot^2 must not grow without input
        J, K = nominal_params.inertia_J, nominal_params.stiffness_K
        s = RollState(theta=0.05, theta_dot=0.1)
        v_prev = K * s.theta**2 + J * s.theta_dot**2
        for _ in range(500):
            s = step_simplified_plant(s, 0.0, 0.0, nominal_dm, nominal_params)
            v = K * s.theta**2 + J * s.theta_dot**2
            assert v <= v_prev + 1e-6
            v_prev = v

    def test_nan_command_is_divergence(self, nominal_dm, nominal_params):
        sim = SimplifiedPlantSimulator(nominal_dm, nominal_params)
        with pytest.raises(PlantDivergenceError):
            sim.apply_command(float("nan"), 0.0)


FAST_MOTOR = MotorParams(rotor_inertia_Jm=0.002, inductance_Lm=1e-4,
                         friction_btilde=1e-6)


def reference_rk4_step(s, mp, rp, voltages, tau_w, dt):
    """The RK4 step written out on tuples, the form the kernel must reproduce exactly."""
    V1, V2 = voltages

    def f(y):
        theta, theta_dot, w1, w2, i1, i2 = y
        w1c, w2c = max(w1, 0.0), max(w2, 0.0)
        F1 = mp.thrust_coeff_Ktilde * w1c * w1c
        F2 = mp.thrust_coeff_Ktilde * w2c * w2c
        tau_m = (F2 - F1) * rp.wingspan_d / 2.0
        Km, bm, bt = mp.torque_const_Km, mp.friction_bm, mp.friction_btilde
        return (theta_dot,
                (-rp.stiffness_K * theta - rp.damping_B * theta_dot + tau_m + tau_w) / rp.inertia_J,
                (Km * i1 - bm * w1 - bt * w1c * w1c) / mp.rotor_inertia_Jm,
                (Km * i2 - bm * w2 - bt * w2c * w2c) / mp.rotor_inertia_Jm,
                (V1 - mp.resistance_Rm * i1 - Km * w1) / mp.inductance_Lm,
                (V2 - mp.resistance_Rm * i2 - Km * w2) / mp.inductance_Lm)

    y0 = (s.theta, s.theta_dot, s.omega_m1, s.omega_m2, s.current_m1, s.current_m2)
    k1 = f(y0)
    k2 = f(tuple(y + 0.5 * dt * k for y, k in zip(y0, k1)))
    k3 = f(tuple(y + 0.5 * dt * k for y, k in zip(y0, k2)))
    k4 = f(tuple(y + dt * k for y, k in zip(y0, k3)))
    y1 = [y + dt / 6.0 * (a + 2 * b + 2 * c + d) for y, a, b, c, d in zip(y0, k1, k2, k3, k4)]
    y1[2], y1[3] = max(y1[2], 0.0), max(y1[3], 0.0)
    return FullPlantState(*y1)


SIGNED_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def kernel_cases(draw):
    """A state, voltages, wind torque, substep and substep count for the RK4 kernel.

    Motor speeds include -0.0, negative values and speeds whose quadratic
    friction overflows within the interval; currents run both ways and the
    roll rate can be large. The command is of either sign or exactly zero,
    and tau_w is any float, infinite and NaN included.
    """
    speed = SIGNED_ZERO | st.floats(-1e3, 1e4) | st.floats(1e8, 1e12)
    current = SIGNED_ZERO | st.floats(-1e4, 1e4)
    y = (draw(st.floats(-1e3, 1e3)), draw(SIGNED_ZERO | st.floats(-1e7, 1e7)),
         draw(speed), draw(speed), draw(current), draw(current))
    cmd = draw(SIGNED_ZERO | st.floats(-5e3, 5e3))
    tau_w = draw(st.floats())
    return (y, torque_to_voltages(cmd, MotorParams(), RollPlantParams()), tau_w,
            draw(st.floats(0.0, 1e-3, exclude_min=True)), draw(st.integers(1, 200)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(kernel_cases())
def test_kernel_is_the_chained_textbook_step(case):
    """n substeps of the kernel are n chained reference steps, to the bit.

    Where the chain becomes non-finite at substep j, the kernel runs j - 1
    substeps and raises on the j-th.
    """
    y, voltages, tau_w, dt, n = case
    mp, rp = MotorParams(), RollPlantParams()

    def bits(values):
        return tuple(v.hex() for v in values)

    prev, ref = y, FullPlantState(*y)
    for j in range(1, n + 1):
        ref = reference_rk4_step(ref, mp, rp, voltages, tau_w, dt)
        ys = tuple(vars(ref).values())
        if not all(map(math.isfinite, ys)):
            assert bits(_rk4_substeps(y, j - 1, mp, rp, voltages, tau_w, dt)) == bits(prev)
            with pytest.raises(PlantDivergenceError, match="non-finite"):
                _rk4_substeps(y, j, mp, rp, voltages, tau_w, dt)
            return
        prev = ys
    assert bits(_rk4_substeps(y, n, mp, rp, voltages, tau_w, dt)) == bits(prev)


class TestFullPlant:
    def test_rest_is_equilibrium(self, nominal_params):
        sim = FullPlantSimulator(nominal_params, 0.1)
        for _ in range(20):
            sim.apply_command(0.0, 0.0)
        s = sim.state
        assert abs(s.theta) < 1e-15 and abs(s.theta_dot) < 1e-15

    def test_static_wind_deflection(self, nominal_params):
        sim = FullPlantSimulator(nominal_params, 0.1)
        for _ in range(400):
            sim.apply_command(0.0, 600.0)
        expected = 600.0 / nominal_params.stiffness_K  # ~0.02354 rad
        assert sim.state.theta == pytest.approx(expected, abs=1e-4)
        assert sim.state.theta * nominal_params.wingspan_d / 2 == pytest.approx(0.1295, abs=1e-3)

    def test_rk4_step_halving(self, nominal_params):
        def endpoint(dt):
            sim = FullPlantSimulator(nominal_params, 0.1, inner_dt=dt)
            for k in range(100):
                sim.apply_command(300.0 if k >= 5 else 0.0, 200.0)
            return sim.state.theta

        assert abs(endpoint(1e-3) - endpoint(5e-4)) < 1e-6

    def test_motor_speeds_stay_nonnegative(self, nominal_params):
        sim = FullPlantSimulator(nominal_params, 0.1)
        for k in range(100):
            sim.apply_command(-400.0 if k % 7 else 350.0, 0.0)
            assert sim.state.omega_m1 >= 0.0
            assert sim.state.omega_m2 >= 0.0

    @pytest.mark.parametrize("inner_dt", [7e-4, 2e-3, 0.0, float("nan")])
    def test_inner_dt_must_divide_ts_and_stay_below_1ms(self, nominal_params, inner_dt):
        with pytest.raises(InvalidParameterError, match="inner_dt"):
            FullPlantSimulator(nominal_params, 0.1, inner_dt=inner_dt)

    @pytest.mark.parametrize("inner_dt", [1e-9, 1e-300])  # 1e8 and 1e299 substeps
    def test_substeps_per_interval_capped_at_max_steps(self, inner_dt):
        # 1e-300 set n_inner to a 300-digit integer, and the first interval never ended
        with pytest.raises(InvalidParameterError, match=f"1 to {MAX_STEPS} substeps") as err:
            FullPlantSimulator(RollPlantParams(), 0.1, inner_dt=inner_dt)
        assert err.value.field == "inner_dt"

    def test_max_steps_substeps_per_interval_build(self):
        assert FullPlantSimulator(RollPlantParams(), 0.1, inner_dt=1e-8).n_inner == MAX_STEPS

    def test_precompensation_inverts_at_steady_state(self, nominal_params):
        # hold one torque command; realized motor torque approaches it
        mp = FAST_MOTOR
        sim = FullPlantSimulator(nominal_params, 0.1, motor=mp, inner_dt=2e-4)
        for _ in range(50):
            sim.apply_command(367.0, 0.0)
        s = sim.state
        Kt, d = mp.thrust_coeff_Ktilde, nominal_params.wingspan_d
        torque = Kt * (s.omega_m2 ** 2 - s.omega_m1 ** 2) * d / 2.0
        assert torque == pytest.approx(367.0, rel=1e-3)

    def test_matches_simplified_within_5pct(self, nominal_dm, nominal_params):
        """Model-reduction check: fast motors + precompensated commands give
        the same roll trajectory as the delayed linear model, 5% L-inf."""
        mp = FAST_MOTOR
        full = FullPlantSimulator(nominal_params, 0.1, motor=mp, inner_dt=2e-4)
        simp = SimplifiedPlantSimulator(nominal_dm, nominal_params)
        buf = InputBuffer(nominal_dm.kd)
        tau_w = 367.0
        full_traj, simp_traj = [], []
        for k in range(200):
            applied = buf.push(150.0 if 40 <= k < 120 else 0.0)
            full.apply_command(applied, tau_w)
            simp.apply_command(applied, tau_w)
            full_traj.append(full.state.theta)
            simp_traj.append(simp.state.theta)
        full_traj = np.array(full_traj)
        simp_traj = np.array(simp_traj)
        err = np.max(np.abs(full_traj - simp_traj)) / np.max(np.abs(simp_traj))
        assert err < 0.05


    @pytest.mark.parametrize("dt", [float("nan"), -1e-3, 0.0, 2e-3])
    def test_substep_outside_0_to_1ms_rejected(self, nominal_params, dt):
        # NaN was reported as divergence, -1 ms integrated backwards, 0 did nothing
        with pytest.raises(InvalidParameterError, match="inner_dt"):
            step_full_plant(FullPlantState(), MotorParams(), nominal_params, (0.0, 0.0), 0.0, dt)

    @pytest.mark.parametrize("motor,inner_dt", [(MotorParams(), 1e-3), (FAST_MOTOR, 2e-4)])
    @pytest.mark.parametrize("cmd", [350.0, -420.0, 0.0])
    def test_interval_equals_chained_substeps(self, nominal_params, motor, inner_dt, cmd):
        tau_w = 200.0
        sim = FullPlantSimulator(nominal_params, 0.1, motor=motor, inner_dt=inner_dt,
                                 state=FullPlantState(theta=0.01, theta_dot=-0.02))
        voltages = torque_to_voltages(cmd, motor, nominal_params)
        chained = ref = sim.state
        for _ in range(3):
            sim.apply_command(cmd, tau_w)
            for _ in range(sim.n_inner):
                chained = step_full_plant(chained, motor, nominal_params, voltages, tau_w, inner_dt)
                ref = reference_rk4_step(ref, motor, nominal_params, voltages, tau_w, inner_dt)
            assert sim.state == chained == ref

    def test_motor_speed_clamped_after_every_substep(self, nominal_params):
        # a spinning motor with no voltage and a reverse current is driven below zero
        s = FullPlantState(omega_m1=1.0, current_m1=-500.0)
        out = step_full_plant(s, MotorParams(), nominal_params, (0.0, 0.0), 0.0, 1e-3)
        assert out.omega_m1 == 0.0
        assert out == reference_rk4_step(s, MotorParams(), nominal_params, (0.0, 0.0), 0.0, 1e-3)

    def test_blow_up_inside_an_interval_raises(self, nominal_params):
        # the quadratic friction overflows about ten substeps into the interval
        sim = FullPlantSimulator(nominal_params, 0.1, state=FullPlantState(omega_m1=1e10))
        with pytest.raises(PlantDivergenceError, match="non-finite"):
            sim.apply_command(0.0, 0.0)

    def test_blow_up_reports_its_control_step(self):
        # a 1e300 lb weight at t = 2 s throws the wing past 1e3 rad at step 20
        cfg = load_bundled_scenario("fullplant_weight_step", overrides={
            "weights.schedule": "2:1e300", "scenario.duration": "3"})
        with pytest.raises(PlantDivergenceError, match="roll angle diverged") as info:
            run_scenario(cfg)
        assert info.value.step == 20 and len(info.value.partial_trace) == 21

    def test_blow_up_reports_its_time_and_last_finite_state(self):
        cfg = load_bundled_scenario("fullplant_weight_step", overrides={
            "weights.schedule": "2:1e300", "scenario.duration": "3"})
        with pytest.raises(PlantDivergenceError) as info:
            run_scenario(cfg)
        exc = info.value
        assert exc.step == 20 and exc.t == 20 * cfg.Ts
        assert isinstance(exc.state, FullPlantState)
        assert all(map(math.isfinite, vars(exc.state).values()))
        assert abs(exc.state.theta) > 1e3  # the state that passed the divergence roll
        assert exc.partial_trace[-1].theta != exc.state.theta

    def test_a_non_finite_step_keeps_the_last_finite_state(self, nominal_params):
        start = FullPlantState(omega_m1=1e10)
        sim = FullPlantSimulator(nominal_params, 0.1, state=start)
        with pytest.raises(PlantDivergenceError, match="non-finite"):
            sim.apply_command(0.0, 0.0)
        assert sim.state is start

    def test_nan_command_is_divergence(self, nominal_params):
        sim = FullPlantSimulator(nominal_params, 0.1)
        with pytest.raises(PlantDivergenceError, match="command"):
            sim.apply_command(float("nan"), 0.0)


class TestMeasurement:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(0)
        s = RollState(theta=0.0123)
        assert measure_roll(s, 0.0, rng) == 0.0123

    def test_statistics(self):
        rng = np.random.default_rng(42)
        s = RollState(theta=0.01)
        n, sigma = 100_000, 0.002
        draws = np.array([measure_roll(s, sigma, rng) for _ in range(n)])
        assert abs(draws.mean() - 0.01) < 3 * sigma / np.sqrt(n)
        assert draws.std() == pytest.approx(sigma, rel=0.02)

    def test_fixed_seed_reproducible(self):
        s = FullPlantState(theta=0.5)
        a = [measure_roll(s, 0.01, np.random.default_rng(7)) for _ in range(3)]
        b = [measure_roll(s, 0.01, np.random.default_rng(7)) for _ in range(3)]
        assert a == b

    def test_negative_std_rejected(self):
        with pytest.raises(InvalidParameterError):
            measure_roll(RollState(), -0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("std", [float("nan"), float("inf"), 2e3])
    def test_non_finite_std_rejected(self, std):
        # a NaN or infinite measurement came back; above the divergence roll, a huge one
        with pytest.raises(InvalidParameterError, match="noise_std"):
            measure_roll(RollState(), std, np.random.default_rng(0))


class TestTorqueToVoltages:
    def test_zero(self):
        assert torque_to_voltages(0.0, MotorParams(), RollPlantParams()) == (0.0, 0.0)

    def test_sign_routing(self):
        rp = RollPlantParams()
        v1, v2 = torque_to_voltages(300.0, MotorParams(), rp)
        assert v1 == 0.0 and v2 > 0.0
        v1, v2 = torque_to_voltages(-300.0, MotorParams(), rp)
        assert v1 > 0.0 and v2 == 0.0
