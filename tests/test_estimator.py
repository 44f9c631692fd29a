import numpy as np
import pytest
import scipy.linalg

from crosswind.errors import (
    InvalidParameterError,
    SingularInnovationError,
    UnobservablePairError,
    UnstablePoleError,
)
from crosswind.estimator import (
    KalmanConfig,
    ObserverState,
    are_residual,
    error_dynamics_matrix,
    kalman_gain,
    lowpass,
    observer_step,
    place_observer_gain,
    solve_filter_are,
    spectral_radius,
)
from crosswind.model import AugmentedModel, DiscreteModel, augment
from crosswind.plant import RollState, step_simplified_plant

DESIGN_POLES = (0.65, 0.7, 0.75)


def closed_loop_eigs(am, gain):
    return np.sort(np.linalg.eigvals(error_dynamics_matrix(am, gain)).real)


class TestPolePlacement:
    def test_nominal_placement_exact(self, nominal_am):
        gain = place_observer_gain(nominal_am, DESIGN_POLES)
        eigs = closed_loop_eigs(nominal_am, gain)
        assert np.max(np.abs(eigs - np.array(DESIGN_POLES))) < 1e-6

    def test_random_observable_models(self, rng):
        """Placement exactness across 100 random observable augmented models."""
        count = 0
        while count < 100:
            A = rng.normal(scale=0.6, size=(3, 3))
            C = rng.normal(size=(1, 3))
            am = AugmentedModel(A_aug=A, B_aug=np.zeros((3, 1)), C_aug=C)
            from crosswind.model import check_observability
            if check_observability(am) < 3:
                continue
            poles = np.sort(rng.uniform(-0.9, 0.9, size=3))
            gain = place_observer_gain(am, tuple(poles))
            eigs = np.sort(np.linalg.eigvals(error_dynamics_matrix(am, gain)))
            assert np.max(np.abs(eigs - poles)) < 1e-6
            count += 1

    def test_fixed_point_when_already_placed(self):
        # a stable diagonal system whose eigenvalues are the requested poles
        # needs (nearly) no correction
        A = np.diag([0.5, 0.6, 0.7])
        C = np.array([[1.0, 1.0, 1.0]])
        am = AugmentedModel(A_aug=A, B_aug=np.zeros((3, 1)), C_aug=C)
        gain = place_observer_gain(am, (0.5, 0.6, 0.7))
        assert np.max(np.abs(gain.L)) < 1e-12

    def test_unobservable_rejected(self, nominal_dm):
        dm0 = DiscreteModel(A=nominal_dm.A, B=np.zeros((2, 1)), Ts=0.1, kd=10)
        with pytest.raises(UnobservablePairError):
            place_observer_gain(augment(dm0), DESIGN_POLES)

    def test_unstable_poles_rejected(self, nominal_am):
        with pytest.raises(UnstablePoleError):
            place_observer_gain(nominal_am, (0.65, 0.7, 1.0))
        with pytest.raises(UnstablePoleError):  # gave an all-NaN gain
            place_observer_gain(nominal_am, (float("nan"), 0.7, 0.75))

    def test_unpaired_complex_poles_rejected(self, nominal_am):
        with pytest.raises(InvalidParameterError):
            place_observer_gain(nominal_am, (0.5 + 0.2j, 0.5 + 0.2j, 0.3))

    def test_conjugate_pair_accepted(self, nominal_am):
        poles = (0.6 + 0.1j, 0.6 - 0.1j, 0.7)
        gain = place_observer_gain(nominal_am, poles)
        eigs = np.sort_complex(np.linalg.eigvals(error_dynamics_matrix(nominal_am, gain)))
        assert np.max(np.abs(eigs - np.sort_complex(np.array(poles)))) < 1e-6


class TestFilterAre:
    def test_zero_dynamics_gives_q(self):
        am = AugmentedModel(A_aug=np.zeros((3, 3)), B_aug=np.zeros((3, 1)),
                            C_aug=np.array([[1.0, 0.0, 0.0]]))
        kc = KalmanConfig(Q=np.diag([1.0, 2.0, 3.0]), R=0.5)
        P = solve_filter_are(am, kc)
        assert np.max(np.abs(P - kc.Q)) == 0.0

    def test_nominal_self_consistency(self, nominal_am):
        kc = KalmanConfig()
        P = solve_filter_are(nominal_am, kc)
        assert are_residual(nominal_am, kc, P) < 1e-9
        assert np.max(np.abs(P - P.T)) < 1e-12 * np.linalg.norm(P)
        assert np.min(np.linalg.eigvalsh(P)) > -1e-9 * np.linalg.norm(P)

    def test_against_scipy_dare(self, nominal_am):
        kc = KalmanConfig()
        P = solve_filter_are(nominal_am, kc)
        ref = scipy.linalg.solve_discrete_are(
            nominal_am.A_aug.T, nominal_am.C_aug.T, kc.Q, np.array([[kc.R]]))
        assert np.linalg.norm(P - ref) / np.linalg.norm(ref) < 1e-6

    def test_homogeneity(self, nominal_am):
        kc1 = KalmanConfig()
        c = 37.5
        kc2 = KalmanConfig(Q=c * kc1.Q, R=c * kc1.R)
        P1 = solve_filter_are(nominal_am, kc1)
        P2 = solve_filter_are(nominal_am, kc2)
        assert np.linalg.norm(P2 - c * P1) / np.linalg.norm(P2) < 1e-9
        L1 = kalman_gain(nominal_am, P1, kc1.R).L
        L2 = kalman_gain(nominal_am, P2, kc2.R).L
        assert np.max(np.abs(L1 - L2)) < 1e-9 * max(1.0, np.max(np.abs(L1)))

    def test_invalid_configs_rejected(self):
        with pytest.raises(InvalidParameterError):
            KalmanConfig(R=0.0)
        with pytest.raises(InvalidParameterError):
            KalmanConfig(Q=np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(InvalidParameterError):
            KalmanConfig(Q=np.ones((2, 2)))
        with pytest.raises(InvalidParameterError, match="R must be finite"):
            KalmanConfig(R=float("inf"))
        with pytest.raises(InvalidParameterError, match="Q must be finite"):
            KalmanConfig(Q=np.diag([1.0, float("inf"), 1.0]))


class TestKalmanGain:
    def test_zero_covariance_zero_gain(self, nominal_am):
        gain = kalman_gain(nominal_am, np.zeros((3, 3)), 0.01)
        assert np.array_equal(gain.L, np.zeros((3, 1)))

    def test_nominal_stable(self, nominal_am):
        kc = KalmanConfig()
        P = solve_filter_are(nominal_am, kc)
        gain = kalman_gain(nominal_am, P, kc.R)
        assert spectral_radius(error_dynamics_matrix(nominal_am, gain)) < 1.0

    def test_large_r_shrinks_gain(self, nominal_am):
        kc = KalmanConfig()
        P = solve_filter_are(nominal_am, kc)
        L_nom = kalman_gain(nominal_am, P, kc.R).L
        big_r = 1e12 * np.trace(kc.Q)
        # the weakly-corrected recursion needs ~1e6 equivalent one-step iterations
        kc_big = KalmanConfig(Q=kc.Q, R=big_r, are_max_iters=10**9)
        P_big = solve_filter_are(nominal_am, kc_big)
        L_big = kalman_gain(nominal_am, P_big, big_r).L
        assert np.linalg.norm(L_big) < 1e-3 * np.linalg.norm(L_nom)

    def test_singular_innovation_rejected(self, nominal_am):
        with pytest.raises(SingularInnovationError):
            kalman_gain(nominal_am, np.zeros((3, 3)), 0.0)


class TestObserverStep:
    def test_exact_state_pure_prediction(self, nominal_am):
        gain = place_observer_gain(nominal_am, DESIGN_POLES)
        x_true = np.array([0.01, -0.02, 300.0])
        os_ = ObserverState(x_hat=x_true.copy())
        y = x_true[0]  # noiseless output, matching estimate
        nxt = observer_step(os_, y, 120.0, gain, nominal_am)
        pred = nominal_am.A_aug @ x_true + nominal_am.B_aug.ravel() * 120.0
        assert np.max(np.abs(nxt.x_hat - pred)) < 1e-15

    def test_error_recursion_identity(self, nominal_am, rng):
        """e(k+1) = (A - L C) e(k) exactly, for 50 random error vectors."""
        gain = place_observer_gain(nominal_am, DESIGN_POLES)
        A_err = error_dynamics_matrix(nominal_am, gain)
        for _ in range(50):
            x_true = rng.normal(scale=[0.05, 0.1, 500.0])
            err = rng.normal(scale=[0.01, 0.02, 100.0])
            cmd = rng.normal(scale=200.0)
            os_ = ObserverState(x_hat=x_true - err)
            y = x_true[0]
            nxt = observer_step(os_, y, cmd, gain, nominal_am)
            x_true_next = nominal_am.A_aug @ x_true + nominal_am.B_aug.ravel() * cmd
            err_next = x_true_next - nxt.x_hat
            expected = A_err @ err
            scale = max(1.0, np.max(np.abs(expected)))
            assert np.max(np.abs(err_next - expected)) < 1e-12 * scale

    @pytest.mark.parametrize("design", ["pole_place", "kalman"])
    def test_step_disturbance_convergence(self, nominal_am, nominal_dm,
                                          nominal_params, design):
        """Noiseless plant, constant 600 N.m wind: estimate within 5% in 2 s."""
        if design == "pole_place":
            gain = place_observer_gain(nominal_am, DESIGN_POLES)
        else:
            kc = KalmanConfig()
            gain = kalman_gain(nominal_am, solve_filter_are(nominal_am, kc), kc.R)
        tau_w = 600.0
        plant = RollState()
        os_ = ObserverState()
        conv = None
        for k in range(int(5.0 / nominal_dm.Ts)):
            y = plant.theta
            os_ = observer_step(os_, y, 0.0, gain, nominal_am)
            plant = step_simplified_plant(plant, 0.0, tau_w, nominal_dm, nominal_params)
            if conv is None and abs(os_.tau_w_hat - tau_w) <= 0.05 * tau_w:
                conv = (k + 1) * nominal_dm.Ts
        assert conv is not None and conv <= 2.0

    def test_geometric_error_decay(self, nominal_am, nominal_dm, nominal_params):
        gain = place_observer_gain(nominal_am, DESIGN_POLES)
        rho = spectral_radius(error_dynamics_matrix(nominal_am, gain))
        tau_w = 400.0
        plant = RollState()
        os_ = ObserverState()
        errs = []
        for _ in range(110):
            x_true = np.array([plant.theta, plant.theta_dot, tau_w])
            errs.append(np.linalg.norm(x_true - os_.x_hat))
            os_ = observer_step(os_, plant.theta, 0.0, gain, nominal_am)
            plant = step_simplified_plant(plant, 0.0, tau_w, nominal_dm, nominal_params)
        # once sub-dominant modes die off, the average rate over a window is
        # bounded by the spectral radius
        start, window = 80, 25
        rate = (errs[start + window] / errs[start]) ** (1.0 / window)
        assert rate <= rho + 1e-3
        assert errs[-1] < 1e-6 * errs[0]


class TestLowpass:
    def test_passthrough(self):
        assert lowpass(3.0, 7.0, 1.0) == 7.0

    def test_formula(self):
        assert lowpass(0.0, 100.0, 0.2) == pytest.approx(20.0)

    def test_geometric_convergence_to_constant(self):
        x, target, alpha = 0.0, 50.0, 0.3
        prev_gap = target
        for _ in range(40):
            x = lowpass(x, target, alpha)
            gap = abs(target - x)
            assert gap == pytest.approx(prev_gap * (1 - alpha), rel=1e-12)
            prev_gap = gap

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            lowpass(0.0, 1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            lowpass(0.0, 1.0, 1.5)
