import numpy as np
import pytest
import scipy.linalg

from crosswind.errors import InvalidParameterError
from crosswind.model import (
    AugmentedModel,
    ContinuousModel,
    RollPlantParams,
    augment,
    check_observability,
    continuous_roll_model,
    discretize_zoh,
    expm_small,
)

# Golden ZOH matrices for the nominal model at Ts = 0.1 s, frozen from an
# independent scipy.linalg.expm run on the augmented-exponential block.
GOLDEN_A = np.array([
    [0.98038233618946036, 0.097033690386600632],
    [-0.38799776206197562, 0.9347158413804868],
])
GOLDEN_B = np.array([[7.6965215624542568e-07], [1.5222164936324516e-05]])


class TestRollPlantParams:
    def test_nominal_valid(self):
        RollPlantParams()

    @pytest.mark.parametrize("field,value", [
        ("inertia_J", 0.0),
        ("inertia_J", -1.0),
        ("stiffness_K", -1.0),
        ("damping_B", -0.1),
        ("wingspan_d", 0.0),
        ("input_delay_Td", -0.5),
        ("torque_limit", 0.0),
        ("inertia_J", float("nan")),
    ])
    def test_invalid_rejected(self, field, value):
        with pytest.raises(InvalidParameterError):
            RollPlantParams(**{field: value})


class TestContinuousModel:
    def test_nominal_entries(self, nominal_cm):
        assert nominal_cm.A_c[0, 0] == 0.0
        assert nominal_cm.A_c[0, 1] == 1.0
        assert nominal_cm.A_c[1, 0] == pytest.approx(-3.99859, rel=1e-5)
        assert nominal_cm.A_c[1, 1] == pytest.approx(-0.470625, rel=1e-5)
        assert nominal_cm.B_c[0, 0] == 0.0
        assert nominal_cm.B_c[1, 0] == pytest.approx(1.56875e-4, rel=1e-5)

    def test_double_integrator_when_unsprung(self):
        cm = continuous_roll_model(RollPlantParams(stiffness_K=0.0, damping_B=0.0))
        assert np.array_equal(cm.A_c, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_underdamped_characteristics(self, nominal_params, nominal_cm):
        J, K, B = (nominal_params.inertia_J, nominal_params.stiffness_K,
                   nominal_params.damping_B)
        wn = np.sqrt(K / J)
        zeta = B / (2.0 * np.sqrt(K * J))
        assert wn == pytest.approx(1.9996, rel=1e-4)
        assert zeta == pytest.approx(0.1177, rel=1e-3)
        assert zeta < 1.0  # oscillatory open loop
        eigs = np.linalg.eigvals(nominal_cm.A_c)
        assert np.all(np.abs(eigs.imag) > 0)


class TestExpm:
    def test_matches_scipy_on_random_matrices(self, rng):
        for _ in range(50):
            n = rng.integers(2, 5)
            M = rng.normal(scale=2.0, size=(n, n))
            ours = expm_small(M)
            ref = scipy.linalg.expm(M)
            assert np.max(np.abs(ours - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))

    def test_zero_matrix(self):
        assert np.array_equal(expm_small(np.zeros((3, 3))), np.eye(3))


class TestDiscretizeZoh:
    def test_zero_dynamics(self):
        cm = ContinuousModel(A_c=np.zeros((2, 2)), B_c=np.array([[0.0], [1.0]]))
        dm = discretize_zoh(cm, Ts=0.1, Td=0.0)
        assert np.allclose(dm.A, np.eye(2), atol=1e-15)
        assert np.allclose(dm.B.ravel(), [0.0, 0.1], atol=1e-15)
        assert dm.kd == 0

    def test_nominal_golden_values(self, nominal_dm):
        assert np.max(np.abs(nominal_dm.A - GOLDEN_A)) < 1e-12
        assert np.max(np.abs(nominal_dm.B - GOLDEN_B)) < 1e-18
        assert nominal_dm.kd == 10
        assert np.array_equal(nominal_dm.C, np.array([[1.0, 0.0]]))

    def test_matches_scipy_oracle(self, nominal_cm):
        dm = discretize_zoh(nominal_cm, Ts=0.07, Td=0.0)
        M = np.zeros((3, 3))
        M[:2, :2] = nominal_cm.A_c
        M[:2, 2:] = nominal_cm.B_c
        ref = scipy.linalg.expm(M * 0.07)
        assert np.max(np.abs(dm.A - ref[:2, :2])) < 1e-13
        assert np.max(np.abs(dm.B - ref[:2, 2:])) < 1e-13

    def test_semigroup_property(self, nominal_cm):
        dm1 = discretize_zoh(nominal_cm, Ts=0.1, Td=0.0)
        dm10 = discretize_zoh(nominal_cm, Ts=1.0, Td=0.0)
        x0 = np.array([0.02, -0.3])
        x = x0.copy()
        for _ in range(10):
            x = dm1.A @ x
        assert np.max(np.abs(x - dm10.A @ x0)) < 1e-9

    def test_eigenvalue_mapping(self, nominal_cm, nominal_dm):
        lam_c = np.linalg.eigvals(nominal_cm.A_c)
        lam_d = np.linalg.eigvals(nominal_dm.A)
        expected = np.exp(lam_c * 0.1)
        assert np.max(np.abs(np.sort_complex(lam_d) - np.sort_complex(expected))) < 1e-8

    def test_fractional_delay_rejected(self, nominal_cm):
        with pytest.raises(InvalidParameterError, match="is not an integer multiple of Ts"):
            discretize_zoh(nominal_cm, Ts=0.1, Td=0.55)

    def test_bad_ts_rejected(self, nominal_cm):
        with pytest.raises(InvalidParameterError):
            discretize_zoh(nominal_cm, Ts=0.0, Td=0.0)

    @pytest.mark.parametrize("params", [RollPlantParams(stiffness_K=1e40),
                                        RollPlantParams(inertia_J=1e-320)])
    def test_non_finite_discretization_rejected(self, params):
        # an overflowing exponential, and an infinite A_c, without a RuntimeWarning
        with pytest.raises(InvalidParameterError, match="not finite"):
            discretize_zoh(continuous_roll_model(params), Ts=0.1, Td=1.0)


class TestAugment:
    def test_block_structure(self, nominal_dm, nominal_am):
        am = nominal_am
        assert np.array_equal(am.A_aug[:2, :2], nominal_dm.A)
        assert np.array_equal(am.A_aug[:2, 2:], nominal_dm.B)
        assert np.array_equal(am.A_aug[2], np.array([0.0, 0.0, 1.0]))
        assert np.array_equal(am.B_aug[:2], nominal_dm.B)
        assert am.B_aug[2, 0] == 0.0
        assert np.array_equal(am.C_aug, np.array([[1.0, 0.0, 0.0]]))

    def test_float_views_equal_their_arrays(self, nominal_dm, nominal_am):
        for floats, arrays in ((nominal_dm.floats, (nominal_dm.A, nominal_dm.B)),
                               (nominal_am.floats,
                                (nominal_am.A_aug, nominal_am.B_aug, nominal_am.C_aug))):
            values = [v for a in arrays for v in a.ravel()]
            assert all(type(f) is float for f in floats)
            assert len(floats) == len(values) and all(f == v for f, v in zip(floats, values))

    def test_nominal_observable(self, nominal_am):
        assert check_observability(nominal_am) == 3

    def test_zero_input_channel_unobservable(self, nominal_dm):
        from crosswind.model import DiscreteModel
        dm0 = DiscreteModel(A=nominal_dm.A, B=np.zeros((2, 1)), Ts=0.1, kd=10)
        assert check_observability(augment(dm0)) <= 2

    def test_zero_output_rank_zero(self, nominal_am):
        am0 = AugmentedModel(A_aug=nominal_am.A_aug, B_aug=nominal_am.B_aug,
                             C_aug=np.zeros((1, 3)))
        assert check_observability(am0) == 0
