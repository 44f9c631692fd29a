import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from crosswind import controllers as ctrl
from crosswind.controllers import (
    MAX_DERIVATIVE_WINDOW,
    MAX_HORIZON,
    MpcConfig,
    PidConfig,
    PidState,
    build_prediction,
    feedforward_compensate,
    mpc_constrained_step,
    mpc_unconstrained_step,
    pid_step,
    shift_state,
)
from crosswind.errors import BufferLengthError, InvalidParameterError, QpInfeasibleError
from crosswind.model import RollPlantParams, continuous_roll_model, discretize_zoh
from crosswind.plant import InputBuffer, RollState, step_simplified_plant
from crosswind.qpsolve import QpWorkspace

from conftest import shift_from_history


def make_mpc_cfg(Np=30, terminal=50.0, rc=1e-9, u_lim=1000.0, y_min=None, y_max=None):
    qc = np.ones(Np)
    qc[-1] = terminal
    return MpcConfig(Np=Np, Qc_diag=qc, Rc_diag=np.full(Np, rc),
                     u_min=-u_lim, u_max=u_lim, y_min=y_min, y_max=y_max)


@pytest.fixture(scope="module")
def stack(nominal_dm):
    return build_prediction(nominal_dm, make_mpc_cfg())


class TestPid:
    def test_derivative_window_is_capped(self):
        PidConfig(derivative_window=MAX_DERIVATIVE_WINDOW)
        with pytest.raises(InvalidParameterError, match="derivative_window") as err:
            PidConfig(derivative_window=10**12)  # rejected before any history is allocated
        assert err.value.field == "derivative_window"

    def test_zero_measurement_zero_command(self):
        cfg = PidConfig()
        ps = PidState.fresh(cfg)
        assert pid_step(ps, 0.0, cfg, 1000.0) == 0.0

    def test_first_step_term_values(self):
        # unfiltered measurement of -0.01 rad gives e = 0.01 on the first step
        cfg = PidConfig(meas_filter_alpha=1.0)
        ps = PidState.fresh(cfg)
        cmd = pid_step(ps, -0.01, cfg, 1000.0)
        p_term = 3200.0 * 0.01
        i_term = 1200.0 * (0.1 * 0.01)
        d_term = 700.0 * (0.01 / 0.1) / 3.0  # two of three differences still zero
        assert p_term == pytest.approx(32.0)
        assert i_term == pytest.approx(1.2)
        assert cmd == pytest.approx(p_term + i_term + d_term)

    @pytest.mark.parametrize("window", [1, 3, 7])
    def test_derivative_is_the_mean_backward_difference(self, rng, window):
        # with only the D term, the command is the mean of the window's last
        # backward differences of e, the startup history counting as zeros
        cfg = PidConfig(Kp=0.0, Ki=0.0, Kd=1.0, derivative_window=window, meas_filter_alpha=1.0)
        ps = PidState.fresh(cfg)
        errors = [0.0] * window
        for theta in rng.normal(scale=0.05, size=20):
            errors.append(-theta)
            diffs = [(errors[-1 - i] - errors[-2 - i]) / cfg.Ts for i in range(window)]
            assert pid_step(ps, theta, cfg, 1e9) == pytest.approx(sum(diffs) / window,
                                                                  rel=1e-12, abs=1e-15)

    def test_integral_clamped_at_limit(self):
        cfg = PidConfig(meas_filter_alpha=1.0)
        ps = PidState.fresh(cfg)
        limit = 1000.0
        for _ in range(500):
            pid_step(ps, -0.5, cfg, limit)  # large sustained error
            assert abs(cfg.Ki * ps.integral_I) <= limit + 1e-12
        assert abs(cfg.Ki * ps.integral_I) == pytest.approx(limit)

    def test_output_saturated(self):
        cfg = PidConfig(meas_filter_alpha=1.0)
        ps = PidState.fresh(cfg)
        cmd = pid_step(ps, -10.0, cfg, 1000.0)
        assert cmd == 1000.0

    def test_measurement_filter_reduces_first_response(self):
        cfg_f = PidConfig(meas_filter_alpha=0.5)
        cfg_r = PidConfig(meas_filter_alpha=1.0)
        cmd_f = pid_step(PidState.fresh(cfg_f), -0.01, cfg_f, 1000.0)
        cmd_r = pid_step(PidState.fresh(cfg_r), -0.01, cfg_r, 1000.0)
        assert 0 < cmd_f < cmd_r

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            PidConfig(Ts=0.0)
        with pytest.raises(InvalidParameterError, match="Ts"):
            PidConfig(Ts=float("inf"))
        with pytest.raises(InvalidParameterError):
            PidConfig(derivative_window=0)
        with pytest.raises(InvalidParameterError):
            PidConfig(meas_filter_alpha=0.0)


class TestFeedforward:
    def test_pure_cancellation(self):
        assert feedforward_compensate(0.0, 600.0, 1000.0) == -600.0

    def test_saturated_sum(self):
        assert feedforward_compensate(800.0, -400.0, 1000.0) == 1000.0

    def test_cancellation_identity_on_plant(self, nominal_dm, nominal_params, rng):
        """Commands u - tau_w on the windy plant match commands u on the
        wind-free plant exactly (within saturation)."""
        tau_w = 400.0
        windy = RollState()
        windfree = RollState()
        for _ in range(100):
            u = float(rng.uniform(-300.0, 300.0))
            cmd = feedforward_compensate(u, tau_w, nominal_params.torque_limit)
            windy = step_simplified_plant(windy, cmd, tau_w, nominal_dm, nominal_params)
            windfree = step_simplified_plant(windfree, u, 0.0, nominal_dm, nominal_params)
            assert abs(windy.theta - windfree.theta) < 1e-9
            assert abs(windy.theta_dot - windfree.theta_dot) < 1e-9


class TestShiftState:
    def test_zero_delay_identity(self, nominal_cm):
        dm0 = discretize_zoh(nominal_cm, Ts=0.1, Td=0.0)
        cfg = make_mpc_cfg(Np=5)
        st = build_prediction(dm0, cfg)
        x = RollState(theta=0.02, theta_dot=-0.1)
        xs = shift_state(x, InputBuffer(0), st)
        assert xs.theta == x.theta and xs.theta_dot == x.theta_dot

    def test_zero_buffer_homogeneous(self, nominal_dm, stack):
        x = RollState(theta=0.03, theta_dot=0.2)
        xs = shift_state(x, InputBuffer(nominal_dm.kd), stack)
        expected = np.linalg.matrix_power(nominal_dm.A, nominal_dm.kd) @ np.array(
            [x.theta, x.theta_dot])
        assert abs(xs.theta - expected[0]) < 1e-15
        assert abs(xs.theta_dot - expected[1]) < 1e-15

    def test_brute_force_propagation_oracle(self, nominal_dm, nominal_params, stack, rng):
        """Stepping the wind-free plant kd times with the buffered inputs
        reproduces the shifted state."""
        for _ in range(25):
            x0 = RollState(theta=float(rng.uniform(-0.05, 0.05)),
                           theta_dot=float(rng.uniform(-0.2, 0.2)))
            buf = InputBuffer(nominal_dm.kd)
            cmds = rng.uniform(-500.0, 500.0, size=nominal_dm.kd)
            for c in cmds:
                buf.push(float(c))
            xs = shift_state(x0, buf, stack)
            sim = RollState(theta=x0.theta, theta_dot=x0.theta_dot)
            for c in cmds:
                sim = step_simplified_plant(sim, float(c), 0.0, nominal_dm, nominal_params)
            assert abs(xs.theta - sim.theta) < 1e-12
            assert abs(xs.theta_dot - sim.theta_dot) < 1e-12

    def test_buffer_order_matters(self, nominal_dm, stack, rng):
        """Delay bookkeeping sensitivity: shuffling the buffer changes the shift."""
        x = RollState(theta=0.01, theta_dot=0.0)
        cmds = rng.uniform(100.0, 500.0, size=nominal_dm.kd)
        buf_fwd = InputBuffer(nominal_dm.kd)
        buf_rev = InputBuffer(nominal_dm.kd)
        for c in cmds:
            buf_fwd.push(float(c))
        for c in cmds[::-1]:
            buf_rev.push(float(c))
        a = shift_state(x, buf_fwd, stack)
        b = shift_state(x, buf_rev, stack)
        assert abs(a.theta - b.theta) > 1e-9

    def test_length_mismatch_rejected(self, stack):
        with pytest.raises(BufferLengthError):
            shift_state(RollState(), InputBuffer(3), stack)


class TestBuildPrediction:
    def test_single_step_horizon(self, nominal_dm):
        cfg = MpcConfig(Np=1, Qc_diag=np.array([1.0]), Rc_diag=np.array([1e-8]),
                        u_min=-1000.0, u_max=1000.0)
        st = build_prediction(nominal_dm, cfg)
        assert st.Phi.shape == (1, 2)
        assert np.allclose(st.Phi, nominal_dm.C @ nominal_dm.A)
        assert st.G.shape == (1, 1)
        assert st.G[0, 0] == pytest.approx((nominal_dm.C @ nominal_dm.B)[0, 0])

    def test_toeplitz_structure(self, stack):
        G = stack.G
        for i in range(1, G.shape[0]):
            for j in range(1, i + 1):
                assert G[i, j] == G[i - 1, j - 1]
        # strictly lower-triangular-plus-diagonal
        for i in range(G.shape[0]):
            for j in range(i + 1, G.shape[1]):
                assert G[i, j] == 0.0

    def test_shift_matrices_are_powers_of_a(self, nominal_dm, stack):
        # K_shift = A^kd and column i of M_shift = A^(kd-1-i) B, to the bit
        A, B, kd = nominal_dm.A, nominal_dm.B, nominal_dm.kd
        powers = [np.eye(2)]
        for _ in range(kd):
            powers.append(A @ powers[-1])
        assert np.array_equal(stack.K_shift, powers[kd])
        assert np.array_equal(stack.M_shift, np.hstack([powers[kd - 1 - i] @ B for i in range(kd)]))

    def test_setup_memory_at_a_long_delay(self, nominal_cm):
        # kd = 10^4 kept every power of A up to kd: a 3.7 MB peak
        dm = discretize_zoh(nominal_cm, Ts=0.1, Td=1000.0)
        tracemalloc.start()
        try:
            st = build_prediction(dm, make_mpc_cfg())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.M_shift.shape == (2, 10_000) and peak < 1_000_000

    def test_h_inverse_verified(self, stack):
        Np = stack.H.shape[0]
        assert np.max(np.abs(stack.H @ (2.0 * stack.qp.H2_inv) - np.eye(Np))) < 1e-9

    def test_gain_gives_the_qp_minimizer(self, stack, rng):
        # -L xs is the unconstrained minimizer -inv(2H) f of the step's QP
        assert stack.L.shape == (30, 2)
        for _ in range(20):
            xs = np.array([rng.uniform(-0.05, 0.05), rng.uniform(-0.2, 0.2)])
            f = 2.0 * (stack.G.T @ (stack.Qc_diag * (stack.Phi @ xs)))
            ref = stack.qp.H2_inv @ -f
            assert np.max(np.abs(-(stack.L @ xs) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("terminal,rc", [(float("nan"), 1e-9), (50.0, float("inf"))])
    def test_nan_inverse_residual_fails(self, nominal_dm, terminal, rc):
        # MpcConfig rejects these weights, so a stand-in with the fields
        # build_prediction reads carries them to its own check
        qc = np.append(np.ones(29), terminal)
        cfg = SimpleNamespace(Np=30, Qc_diag=qc, Rc_diag=np.full(30, rc), y_min=None)
        with np.errstate(invalid="ignore"), \
                pytest.raises(InvalidParameterError, match="H inverse verification"):
            build_prediction(nominal_dm, cfg)

    def test_predictor_matches_simulation(self, nominal_dm, nominal_params, rng):
        """Y = Phi x_shifted + G U against stepwise simulation, Np = 3."""
        cfg = make_mpc_cfg(Np=3)
        st = build_prediction(nominal_dm, cfg)
        for _ in range(20):
            xs = np.array([rng.uniform(-0.05, 0.05), rng.uniform(-0.2, 0.2)])
            U = rng.uniform(-800.0, 800.0, size=3)
            Y = st.Phi @ xs + st.G @ U
            sim = RollState(theta=xs[0], theta_dot=xs[1])
            for j in range(3):
                sim = step_simplified_plant(sim, float(U[j]), 0.0, nominal_dm,
                                            nominal_params)
                assert abs(Y[j] - sim.theta) < 1e-12

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            MpcConfig(Np=0, Qc_diag=np.array([]), Rc_diag=np.array([]))
        with pytest.raises(InvalidParameterError):
            MpcConfig(Np=2, Qc_diag=np.array([5.0, 1.0]), Rc_diag=np.full(2, 1e-8))
        with pytest.raises(InvalidParameterError):
            MpcConfig(Np=2, Qc_diag=np.ones(2), Rc_diag=np.array([0.0, 1e-8]))
        with pytest.raises(InvalidParameterError):
            MpcConfig(Np=2, Qc_diag=np.ones(2), Rc_diag=np.full(2, 1e-8),
                      u_min=5.0, u_max=-5.0)
        nan, inf = float("nan"), float("inf")
        for terminal, rc, field in ((nan, 1e-9, "Qc_diag"), (inf, 1e-9, "Qc_diag"),
                                    (50.0, inf, "Rc_diag"), (50.0, nan, "Rc_diag")):
            with pytest.raises(InvalidParameterError, match=field):
                make_mpc_cfg(terminal=terminal, rc=rc)

    def test_horizon_is_capped(self):
        make_mpc_cfg(Np=MAX_HORIZON)
        with pytest.raises(InvalidParameterError, match="Np") as err:
            MpcConfig(Np=10**12, Qc_diag=np.ones(1), Rc_diag=np.ones(1))
        assert err.value.field == "Np"


class TestMpcSteps:
    def test_zero_state_zero_command(self, nominal_dm, stack):
        buf = InputBuffer(nominal_dm.kd)
        x = RollState()
        assert mpc_unconstrained_step(x, buf, stack, 1000.0) == 0.0
        cmd = mpc_constrained_step(x, buf, stack, make_mpc_cfg())
        assert abs(cmd) < 1e-9

    def test_constrained_matches_unconstrained_when_loose(self, nominal_dm, rng):
        cfg = make_mpc_cfg(u_lim=1e6)
        st = build_prediction(nominal_dm, cfg)
        for _ in range(10):
            x = RollState(theta=float(rng.uniform(-0.05, 0.05)),
                          theta_dot=float(rng.uniform(-0.2, 0.2)))
            buf = InputBuffer(nominal_dm.kd)
            for c in rng.uniform(-300.0, 300.0, size=nominal_dm.kd):
                buf.push(float(c))
            u_con = mpc_constrained_step(x, buf, st, cfg)
            u_unc = mpc_unconstrained_step(x, buf, st, 1e6)
            assert abs(u_con - u_unc) < 1e-6

    @pytest.mark.parametrize("theta,band,binds", [
        (0.01, None, False),
        (0.2, None, True),  # the torque box binds
        (0.01, 0.005, False),
        (0.015, 0.005, True),  # the output band binds, the box does not
    ])
    def test_qp_is_solved_only_when_a_bound_binds(self, nominal_dm, monkeypatch,
                                                  theta, band, binds):
        cfg = make_mpc_cfg(Np=10, y_min=None if band is None else -band, y_max=band)
        st = build_prediction(nominal_dm, cfg)
        x, buf = RollState(theta=theta), InputBuffer(nominal_dm.kd)
        xs = st.K_shift @ np.array([theta, 0.0])  # zero buffer: only the state moves
        F = st.Phi @ xs
        row_bounds = () if band is None else (-band - F, band - F)
        solved = st.qp.solve(2.0 * (st.G.T @ (st.Qc_diag * F)), np.full(10, -1000.0),
                             np.full(10, 1000.0), *row_bounds)
        assert (solved.iterations > 0) == binds and solved.status == "optimal"
        calls = []
        solve = QpWorkspace.solve
        monkeypatch.setattr(QpWorkspace, "solve",
                            lambda ws, *a, **k: calls.append(a) or solve(ws, *a, **k))
        cmd = mpc_constrained_step(x, buf, st, cfg)
        assert len(calls) == binds
        if binds:
            assert cmd == solved.u_star[0]
        else:  # the closed-form law
            assert cmd == pytest.approx(mpc_unconstrained_step(x, buf, st, 1000.0), rel=1e-12)

    def test_infinite_bounds_are_met(self, nominal_dm, monkeypatch):
        # an unbounded box and a one-sided band: the closed form, no solve, no warning
        cfg = MpcConfig(Np=10, Qc_diag=np.append(np.ones(9), 50.0), Rc_diag=np.full(10, 1e-9),
                        u_min=-np.inf, u_max=np.inf, y_min=-0.01, y_max=np.inf)
        st = build_prediction(nominal_dm, cfg)
        monkeypatch.setattr(QpWorkspace, "solve", None)
        x, buf = RollState(theta=-0.3), InputBuffer(nominal_dm.kd)  # asks for over 5000 N m
        closed_form = mpc_unconstrained_step(x, buf, st, np.inf)
        assert mpc_constrained_step(x, buf, st, cfg) == pytest.approx(closed_form, rel=1e-12)

    def test_weight_scaling_invariance(self, nominal_dm):
        """Scaling Qc and Rc together leaves the law unchanged."""
        x = RollState(theta=0.02, theta_dot=-0.05)
        buf = InputBuffer(nominal_dm.kd)
        cfg1 = make_mpc_cfg()
        cfg2 = MpcConfig(Np=30, Qc_diag=7.3 * cfg1.Qc_diag, Rc_diag=7.3 * cfg1.Rc_diag,
                         u_min=-1000.0, u_max=1000.0)
        u1 = mpc_unconstrained_step(x, buf, build_prediction(nominal_dm, cfg1), 1000.0)
        u2 = mpc_unconstrained_step(x, buf, build_prediction(nominal_dm, cfg2), 1000.0)
        assert abs(u1 - u2) < 1e-9 * max(1.0, abs(u1))

    def test_commands_respect_limits(self, nominal_dm, stack, rng):
        cfg = make_mpc_cfg()
        for _ in range(50):
            x = RollState(theta=float(rng.uniform(-0.3, 0.3)),
                          theta_dot=float(rng.uniform(-1.0, 1.0)))
            buf = InputBuffer(nominal_dm.kd)
            for c in rng.uniform(-1000.0, 1000.0, size=nominal_dm.kd):
                buf.push(float(c))
            u_unc = mpc_unconstrained_step(x, buf, stack, 1000.0)
            u_con = mpc_constrained_step(x, buf, stack, cfg)
            assert abs(u_unc) <= 1000.0 + 1e-9
            assert abs(u_con) <= 1000.0 + 1e-9

    def test_wind_estimate_shifts_box(self, nominal_dm, stack):
        """With feed-forward active the physical command stays in bounds."""
        x = RollState(theta=0.25, theta_dot=0.0)  # large deflection
        buf = InputBuffer(nominal_dm.kd)
        wind = 600.0
        u = mpc_unconstrained_step(x, buf, stack, 1000.0, wind_estimate=wind)
        physical = feedforward_compensate(u, wind, 1000.0)
        assert -1000.0 <= u - wind <= 1000.0
        assert abs(physical - (u - wind)) < 1e-12

    def test_closed_loop_regulation(self, nominal_dm, nominal_params, stack, rng):
        """Perfect feed-forward: both variants regulate any |theta0| <= 0.05
        below 1e-4 rad within 10 s."""
        cfg = make_mpc_cfg()
        for variant in ("constrained", "unconstrained"):
            for theta0 in (-0.05, 0.02, 0.05):
                plant = RollState(theta=theta0)
                buf = InputBuffer(nominal_dm.kd)
                tau_w = 300.0
                for _ in range(100):
                    x = RollState(plant.theta, plant.theta_dot)  # noiseless state
                    if variant == "constrained":
                        u = mpc_constrained_step(x, buf, stack, cfg, wind_estimate=tau_w)
                    else:
                        u = mpc_unconstrained_step(x, buf, stack, 1000.0,
                                                   wind_estimate=tau_w)
                    cmd = feedforward_compensate(u, tau_w, 1000.0)
                    applied = buf.push(cmd)
                    plant = step_simplified_plant(plant, applied, tau_w,
                                                  nominal_dm, nominal_params)
                assert abs(plant.theta) < 1e-4

    def test_qp_failure_carries_solver_status(self, nominal_dm, monkeypatch):
        buf = InputBuffer(nominal_dm.kd)
        cfg = make_mpc_cfg(Np=10, u_lim=400.0, y_min=-0.001, y_max=0.001)
        st = build_prediction(nominal_dm, cfg)
        with pytest.raises(QpInfeasibleError) as err:  # band out of reach
            mpc_constrained_step(RollState(theta=0.2), buf, st, cfg)
        assert err.value.status == "infeasible"
        cfg = make_mpc_cfg(Np=10, u_lim=50.0)
        st = build_prediction(nominal_dm, cfg)
        x = RollState(theta=0.05)
        assert abs(mpc_constrained_step(x, buf, st, cfg)) == pytest.approx(50.0)
        solve = QpWorkspace.solve
        monkeypatch.setattr(QpWorkspace, "solve", lambda ws, *args: solve(ws, *args, max_iters=1))
        with pytest.raises(QpInfeasibleError) as err:  # feasible, but cut off
            mpc_constrained_step(x, buf, st, cfg)
        assert err.value.status == "max_iters"

    def test_stack_and_config_must_agree_on_output_bounds(self, nominal_dm, stack):
        cfg = make_mpc_cfg(y_min=-0.01, y_max=0.01)
        with pytest.raises(InvalidParameterError):
            mpc_constrained_step(RollState(), InputBuffer(nominal_dm.kd), stack, cfg)


class TestRunningShift:
    """The buffer's running history term h = M_shift @ history and the O(1) shift."""

    @staticmethod
    def stack_for(kd, stiffness=25489.0, damping=3000.0):
        rp = RollPlantParams(stiffness_K=stiffness, damping_B=damping, input_delay_Td=kd * 0.1)
        dm = discretize_zoh(continuous_roll_model(rp), Ts=0.1, Td=rp.input_delay_Td)
        return dm, build_prediction(dm, make_mpc_cfg(Np=5))

    @pytest.mark.parametrize("kd", [0, 1, 10, 1000])
    @pytest.mark.parametrize("stiffness,damping", [(25489.0, 3000.0), (0.0, 0.0)])
    def test_running_term_tracks_the_product(self, kd, stiffness, damping, rng):
        # with K = B = 0 both eigenvalues of A are 1: drift would never decay
        dm, st = self.stack_for(kd, stiffness, damping)
        buf = InputBuffer(kd)
        for cmd in np.clip(rng.normal(0.0, 800.0, 20_000), -1000.0, 1000.0):
            history = buf.as_array()
            h = buf.history_term(st)
            assert all(type(v) is float for v in h)
            # relative to the magnitude of the sum's terms: a component of h can
            # cancel to near zero, and its own size is then no scale for rounding
            scale = np.abs(st.M_shift) @ np.abs(history)
            assert np.all(np.abs(np.array(h) - st.M_shift @ history) <= 1e-12 * scale)
            buf.push(float(cmd))

    def test_a_second_stack_gets_its_exact_term(self, nominal_dm, stack, rng):
        other = build_prediction(nominal_dm, make_mpc_cfg(Np=12))
        buf = InputBuffer(nominal_dm.kd)
        for _ in range(5):
            for cmd in rng.uniform(-1000.0, 1000.0, size=7):
                buf.push(float(cmd))
            for st in (stack, other):
                assert buf.history_term(st) == tuple((st.M_shift @ buf.as_array()).tolist())

    def test_a_non_finite_command_is_held_only_while_buffered(self, nominal_dm, stack, rng):
        buf = InputBuffer(nominal_dm.kd)
        buf.history_term(stack)
        buf.push(float("nan"))
        for _ in range(nominal_dm.kd):
            assert np.isnan(buf.history_term(stack)).all()
            buf.push(float(rng.uniform(-1000.0, 1000.0)))
        exact = stack.M_shift @ buf.as_array()
        assert np.all(np.isfinite(exact))
        assert np.allclose(buf.history_term(stack), exact, rtol=1e-12, atol=0.0)

    def test_shift_matches_the_exact_product(self, nominal_dm, stack, rng):
        buf = InputBuffer(nominal_dm.kd)
        for _ in range(200):
            x = RollState(float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.5, 0.5)))
            w = float(rng.uniform(-500.0, 500.0))
            exact = shift_from_history(x, buf.as_array() + w, stack)
            assert np.allclose(ctrl._shifted(x, buf, stack, w), exact, rtol=0.0, atol=1e-14)
            shifted = shift_state(x, buf, stack)
            assert np.allclose([shifted.theta, shifted.theta_dot],
                               shift_from_history(x, buf.as_array(), stack),
                               rtol=0.0, atol=1e-14)
            buf.push(float(rng.uniform(-1000.0, 1000.0)))

    def test_float_views_equal_their_arrays(self, nominal_dm, stack):
        def same(floats, *arrays):
            values = [v for a in arrays for v in a.ravel()]
            return (len(floats) == len(values) and all(type(f) is float for f in floats)
                    and all(f == v for f, v in zip(floats, values)))

        m1 = stack.M_shift @ np.ones(nominal_dm.kd)
        assert same(stack.shift_floats, stack.K_shift, m1)
        assert same(stack.push_coeffs, nominal_dm.A, nominal_dm.B, stack.K_shift @ nominal_dm.B)
        assert same(stack.L0, stack.L[0])

    @pytest.mark.parametrize("theta,theta_dot,wind", [
        (v if i == 0 else 0.01, v if i == 1 else 0.0, v if i == 2 else 5.0)
        for v in (float("nan"), float("inf"), -float("inf")) for i in range(3)])
    def test_non_finite_input_reaches_the_solver(self, nominal_dm, stack, monkeypatch,
                                                 theta, theta_dot, wind):
        buf = InputBuffer(nominal_dm.kd)
        for cmd in np.linspace(-300.0, 300.0, 25):
            buf.push(float(cmd))
        x = RollState(theta, theta_dot)
        band = make_mpc_cfg(y_min=-0.01, y_max=0.01)
        solves = []
        solve = QpWorkspace.solve
        monkeypatch.setattr(QpWorkspace, "solve",
                            lambda ws, *a, **k: solves.append(a) or solve(ws, *a, **k))
        # the closed form fails the solver's test, and the solver rejects f
        for st, cfg in ((stack, make_mpc_cfg()), (build_prediction(nominal_dm, band), band)):
            with pytest.raises(InvalidParameterError, match="f must be finite"):
                mpc_constrained_step(x, buf, st, cfg, wind_estimate=wind)
        assert len(solves) == 2
        # the closed form clips an infinite angle with a finite rate and wind to the
        # box; every other case gives a command that is not finite, and after the
        # feed-forward subtraction a NaN
        u = mpc_unconstrained_step(x, buf, stack, 1000.0, wind_estimate=wind)
        clipped = math.isinf(theta) and math.isfinite(theta_dot) and math.isfinite(wind)
        assert math.isfinite(u) == clipped
        if clipped:
            assert abs(u - wind) == 1000.0
        elif math.isinf(wind):
            assert math.isnan(feedforward_compensate(u, wind, 1000.0))

    @pytest.mark.parametrize("theta,theta_dot,wind", [
        (v if i == 0 else 0.01, v if i == 1 else 0.0, v if i == 2 else 5.0)
        for v in (float("nan"), float("inf"), -float("inf")) for i in range(3)])
    def test_non_finite_input_raises_without_a_warning(self, nominal_dm, stack,
                                                       theta, theta_dot, wind):
        # no np.errstate here: the suite turns a RuntimeWarning into an error, and an
        # infinite state used to warn of inf - inf in -L xs before the solver raised
        buf = InputBuffer(nominal_dm.kd)
        for cmd in np.linspace(-300.0, 300.0, 25):
            buf.push(float(cmd))
        band = make_mpc_cfg(y_min=-0.01, y_max=0.01)
        for st, cfg in ((stack, make_mpc_cfg()), (build_prediction(nominal_dm, band), band)):
            with pytest.raises(InvalidParameterError, match="f must be finite"):
                mpc_constrained_step(RollState(theta, theta_dot), buf, st, cfg,
                                     wind_estimate=wind)
