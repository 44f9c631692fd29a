import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosswind import qpsolve
from crosswind.controllers import MpcConfig, build_prediction
from crosswind.errors import InvalidParameterError
from crosswind.harness import run_scenario
from crosswind.model import continuous_roll_model, discretize_zoh
from crosswind.qpsolve import QpProblem, QpWorkspace, check_kkt, constraint_stack, solve_qp
from crosswind.scenario import load_bundled_scenario

from conftest import capped_lagrangians, small_qps


def random_pd(rng, n, scale=1.0):
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T + n * np.eye(n))


def projected_gradient(H, f, lo, hi, tol=1e-10, max_iters=500_000):
    """Independent first-order oracle for the box-constrained QP."""
    n = len(f)
    step = 1.0 / (2.0 * np.linalg.norm(H, 2))
    u = np.clip(np.zeros(n), lo, hi)
    for _ in range(max_iters):
        g = 2.0 * H @ u + f
        u_new = np.clip(u - step * g, lo, hi)
        if np.max(np.abs(u_new - u)) < tol:
            return u_new
        u = u_new
    return u


class TestAnalytic1D:
    def test_active_lower_bound(self):
        # min u^2 + 2u on [-0.5, 0.5]: unconstrained optimum -1, clipped
        p = QpProblem(H=np.array([[1.0]]), f=np.array([2.0]),
                      lower=np.array([-0.5]), upper=np.array([0.5]))
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert sol.u_star[0] == pytest.approx(-0.5, abs=1e-12)
        assert sol.objective == pytest.approx(-0.75, abs=1e-12)
        assert sol.kkt_residual < 1e-8

    def test_exact_multipliers_certify(self):
        p = QpProblem(H=np.array([[1.0]]), f=np.array([2.0]),
                      lower=np.array([-0.5]), upper=np.array([0.5]))
        # stationarity: 2u + 2 - lambda_lower = 0 at u = -0.5 -> lambda = 1
        lam = np.array([0.0, 1.0])
        assert check_kkt(p, np.array([-0.5]), lam) < 1e-12

    def test_interior_optimum(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            H = random_pd(rng, n)
            f = rng.normal(size=n)
            u_unc = -0.5 * np.linalg.solve(H, f)
            margin = np.abs(u_unc) + 1.0
            p = QpProblem(H=H, f=f, lower=u_unc - margin, upper=u_unc + margin)
            sol = solve_qp(p)
            assert sol.status == "optimal"
            assert sol.iterations == 0  # fast path
            assert np.max(np.abs(sol.u_star - u_unc)) < 1e-9
            assert check_kkt(p, sol.u_star, sol.multipliers) < 1e-10


class TestAgainstOracles:
    def test_100_random_box_problems_vs_projected_gradient(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            H = random_pd(rng, n)
            f = rng.normal(scale=3.0, size=n)
            lo = rng.uniform(-1.5, -0.2, size=n)
            hi = rng.uniform(0.2, 1.5, size=n)
            p = QpProblem(H=H, f=f, lower=lo, upper=hi)
            sol = solve_qp(p)
            assert sol.status == "optimal"
            ref = projected_gradient(H, f, lo, hi)
            assert np.max(np.abs(sol.u_star - ref)) < 1e-6
            assert sol.kkt_residual < 1e-8

    def test_grid_search_oracle_n2(self, rng):
        grid = np.linspace(-1.0, 1.0, 401)  # pitch 5e-3
        uu, vv = np.meshgrid(grid, grid)
        pts = np.stack([uu.ravel(), vv.ravel()], axis=1)
        for _ in range(20):
            H = random_pd(rng, 2)
            f = rng.normal(scale=2.0, size=2)
            p = QpProblem(H=H, f=f, lower=np.array([-1.0, -1.0]),
                          upper=np.array([1.0, 1.0]))
            sol = solve_qp(p)
            assert sol.status == "optimal"
            objs = np.einsum("ij,jk,ik->i", pts, H, pts) + pts @ f
            best = pts[np.argmin(objs)]
            # within one grid cell of the exhaustive optimum
            assert np.max(np.abs(sol.u_star - best)) < 2 * (grid[1] - grid[0])

    def test_row_constraints_vs_dense_grid(self, rng):
        grid = np.linspace(-1.0, 1.0, 201)
        uu, vv = np.meshgrid(grid, grid)
        pts = np.stack([uu.ravel(), vv.ravel()], axis=1)
        rows = np.array([[1.0, 1.0]])
        for _ in range(10):
            H = random_pd(rng, 2)
            f = rng.normal(scale=2.0, size=2)
            p = QpProblem(H=H, f=f, lower=np.array([-1.0, -1.0]),
                          upper=np.array([1.0, 1.0]),
                          rows=rows, row_lower=np.array([-0.7]), row_upper=np.array([0.5]))
            sol = solve_qp(p)
            assert sol.status == "optimal"
            feas = (pts.sum(axis=1) >= -0.7) & (pts.sum(axis=1) <= 0.5)
            objs = np.einsum("ij,jk,ik->i", pts[feas], H, pts[feas]) + pts[feas] @ f
            best_obj = np.min(objs)
            assert sol.objective <= best_obj + 1e-6
            assert check_kkt(p, sol.u_star, sol.multipliers) < 1e-8


class TestCertificates:
    def test_every_optimal_status_passes_kkt(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            H = random_pd(rng, n, scale=float(rng.uniform(0.1, 10)))
            f = rng.normal(scale=5.0, size=n)
            p = QpProblem(H=H, f=f, lower=np.full(n, -1.0), upper=np.full(n, 1.0))
            sol = solve_qp(p, tol=1e-8)
            if sol.status == "optimal":
                assert check_kkt(p, sol.u_star, sol.multipliers) < 1e-8

    def test_perturbation_raises_residual(self, rng):
        H = random_pd(rng, 3)
        f = np.array([0.5, -0.2, 0.1])
        p = QpProblem(H=H, f=f, lower=np.full(3, -10.0), upper=np.full(3, 10.0))
        sol = solve_qp(p)
        base = check_kkt(p, sol.u_star, sol.multipliers)
        u_pert = sol.u_star.copy()
        u_pert[1] += 1e-3
        perturbed = check_kkt(p, u_pert, sol.multipliers)
        assert perturbed > base
        assert perturbed >= 1e-3 * 2.0 * H[1, 1] / (10 * max(1.0, np.max(np.abs(f))))

    def test_infinite_bound_certifies_without_warning(self):
        # -inf / inf in the primal term warned "invalid value encountered in divide"
        p = QpProblem(H=[[0.1]], f=[0.0], lower=[0.0], upper=[np.inf])
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert check_kkt(p, sol.u_star, sol.multipliers) == 0.0

    def test_zero_multipliers_interior(self, rng):
        H = random_pd(rng, 2)
        u_unc = -0.5 * np.linalg.solve(H, np.ones(2))
        p = QpProblem(H=H, f=np.ones(2), lower=u_unc - 1, upper=u_unc + 1)
        m = constraint_stack(p)[1].size
        assert check_kkt(p, u_unc, np.zeros(m)) < 1e-10


class TestSolverBehavior:
    def test_monotone_dual_objective(self, rng):
        H = random_pd(rng, 4)
        f = np.array([5.0, -3.0, 2.0, 1.0])
        p = QpProblem(H=H, f=f, lower=np.full(4, -0.1), upper=np.full(4, 0.1))
        _, values = capped_lagrangians(p)
        assert len(values) >= 1
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_strong_duality_gap_closes(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            H = random_pd(rng, n)
            f = rng.normal(scale=4.0, size=n)
            p = QpProblem(H=H, f=f, lower=np.full(n, -0.2), upper=np.full(n, 0.2))
            sol, values = capped_lagrangians(p)
            assert sol.status == "optimal"
            if values:
                gap = abs(values[-1] - sol.objective)
                assert gap < 1e-5 * max(1.0, abs(sol.objective))

    def test_scale_robustness(self, rng):
        H = random_pd(rng, 3)
        f = np.array([4.0, -1.0, 0.5])
        lo, hi = np.full(3, -0.3), np.full(3, 0.3)
        a = solve_qp(QpProblem(H=H, f=f, lower=lo, upper=hi))
        b = solve_qp(QpProblem(H=1e6 * H, f=1e6 * f, lower=lo, upper=hi))
        assert a.status == b.status == "optimal"
        denom = max(1.0, np.max(np.abs(a.u_star)))
        assert np.max(np.abs(a.u_star - b.u_star)) / denom < 1e-6

    def test_infeasible_detected(self):
        # box forces u <= 1 while the row demands u >= 2
        p = QpProblem(H=np.array([[1.0]]), f=np.array([0.0]),
                      lower=np.array([-1.0]), upper=np.array([1.0]),
                      rows=np.array([[1.0]]), row_lower=np.array([2.0]),
                      row_upper=np.array([3.0]))
        sol = solve_qp(p, max_iters=200_000)
        assert sol.status in ("infeasible", "max_iters")
        assert sol.status == "infeasible"

    def test_infeasible_with_a_subnormal_row(self):
        # the ratio test's division by a tiny r warned "overflow encountered in divide"
        p = QpProblem(H=[[1.0]], f=[0.0], lower=[1.0], upper=[1.0],
                      rows=[[2.2250738585072014e-309]], row_lower=[1.0], row_upper=[1.0])
        assert solve_qp(p).status == "infeasible"

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="at cond(H) 1e6 the multipliers are off by about 1e-6 relative")
    def test_ill_conditioned_h_solve_is_certified(self):
        # ends optimal after 4 steps at u = [3.3e-22, 0, 1] with check_kkt 1.0e-6
        p = QpProblem(H=[[100000.9, 0, -299999.7], [0, 1000, 0], [-299999.7, 0, 900000.1]],
                      f=[0, 0, 0], lower=[-1, 0, 1], upper=[1, 0, 1],
                      rows=[[0, 0, 0], [0.5, 0, 0]], row_lower=[0, 0], row_upper=[0, 0])
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert check_kkt(p, sol.u_star, sol.multipliers) <= 1e-8

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="with a 1.18e-38 row entry the loop runs to max_iters")
    def test_tiny_row_entry_solve_ends_optimal(self):
        # feasible, with its solution near u1 = 8.5e37; ends max_iters after 5000 steps
        p = QpProblem(H=3.0 * np.eye(3), f=np.zeros(3), lower=[-np.inf, -np.inf, 0.0],
                      upper=[np.inf, np.inf, 0.0], rows=[[0.75, 1.0, 0.0],
                                                         [0.0, 1.1754943508222875e-38, 0.0]],
                      row_lower=[0.0, 1.0], row_upper=[0.0, 1.0])
        assert solve_qp(p).status == "optimal"

    def test_equality_like_box(self):
        # lower == upper pins the variable
        p = QpProblem(H=np.eye(2), f=np.array([1.0, 1.0]),
                      lower=np.array([0.25, -1.0]), upper=np.array([0.25, 1.0]))
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert sol.u_star[0] == pytest.approx(0.25, abs=1e-9)
        assert sol.u_star[1] == pytest.approx(-0.5, abs=1e-9)


class TestValidation:
    def test_asymmetric_h_rejected(self):
        with pytest.raises(InvalidParameterError):
            QpProblem(H=np.array([[1.0, 0.5], [0.0, 1.0]]), f=np.zeros(2),
                      lower=np.full(2, -1.0), upper=np.full(2, 1.0))
        # the bound is relative to max|H|: at the MPC's scale, 1e-9, an absolute
        # bound of 1e-10 let H[0, 1] differ from H[1, 0] by 20%
        for scale in (1e-9, 1e300):
            with pytest.raises(InvalidParameterError, match="symmetric"):
                QpWorkspace(scale * np.array([[1.0, 0.6], [0.5, 1.0]]))

    def test_indefinite_h_rejected(self):
        with pytest.raises(InvalidParameterError):
            QpProblem(H=np.diag([1.0, -1.0]), f=np.zeros(2),
                      lower=np.full(2, -1.0), upper=np.full(2, 1.0))

    def test_crossed_bounds_rejected(self):
        with pytest.raises(InvalidParameterError):
            QpProblem(H=np.eye(1), f=np.zeros(1),
                      lower=np.array([1.0]), upper=np.array([-1.0]))

    def test_non_finite_f_rejected(self):
        # a NaN f fails the fast-path test and must not reach the active-set loop
        ws = QpWorkspace(np.eye(2), rows=np.array([[1.0, 1.0]]))
        with pytest.raises(InvalidParameterError, match="f must be finite"):
            ws.solve(np.array([np.nan, 0.0]), np.full(2, -1.0), np.full(2, 1.0),
                     np.array([-1.0]), np.array([1.0]))

    @pytest.mark.parametrize("bounds", [
        {"lower": [np.inf], "upper": [np.inf]},
        {"lower": [-np.inf], "upper": [-np.inf]},
        {"lower": [np.nan]},
        {"rows": [[1.0]], "row_lower": [np.inf], "row_upper": [np.inf]},
        {"rows": [[1.0]], "row_lower": [np.nan], "row_upper": [1.0]},
    ])
    def test_bounds_that_admit_no_value_rejected(self, bounds):
        # each was dropped, and the solve reported optimal with check_kkt 0.0
        qp = {"lower": [-1.0], "upper": [1.0], "rows": None, "row_lower": None,
              "row_upper": None, **bounds}
        with pytest.raises(InvalidParameterError):
            QpProblem(H=np.eye(1), f=np.zeros(1), **qp)
        ws = QpWorkspace(np.eye(1), rows=qp["rows"])
        with pytest.raises(InvalidParameterError):
            ws.solve(np.zeros(1), qp["lower"], qp["upper"], qp["row_lower"], qp["row_upper"])

    @pytest.mark.parametrize("qp,match", [
        ({"H": [[1.0, 0.0]]}, "H must be 1x1"),
        ({"rows": [[1.0, 1.0]], "row_lower": [-1.0], "row_upper": [1.0]}, "with 1 columns"),
        ({"lower": [-1.0, -1.0]}, "need 1 box bounds"),
        ({"rows": [[1.0]], "row_lower": [-1.0, -1.0], "row_upper": [1.0, 1.0]}, "and 1 row"),
    ])
    def test_inputs_of_the_wrong_shape_rejected(self, qp, match):
        qp = {"H": np.eye(1), "f": np.zeros(1), "lower": [-1.0], "upper": [1.0], "rows": None,
              "row_lower": None, "row_upper": None, **qp}
        with pytest.raises(InvalidParameterError, match=match):
            QpProblem(**qp)
        with pytest.raises(InvalidParameterError, match=match):
            QpWorkspace(qp["H"], rows=qp["rows"]).solve(
                qp["f"], qp["lower"], qp["upper"], qp["row_lower"], qp["row_upper"])

    def test_no_rows_is_the_0_by_n_matrix(self, rng):
        # rows=None was kept as None, and rows=np.zeros((0, n)) refused a solve without row bounds
        H, f = random_pd(rng, 3), 10.0 * rng.normal(size=3)
        lo, hi = np.full(3, -0.1), np.full(3, 0.1)
        p = QpProblem(H=H, f=f, lower=lo, upper=hi)
        assert p.rows.shape == (0, 3)
        assert p.row_lower.shape == p.row_upper.shape == (0,)
        ref = QpWorkspace(H).solve(f, lo, hi)
        assert ref.multipliers.any()
        empty = QpWorkspace(H, rows=np.zeros((0, 3)))
        for sol in (empty.solve(f, lo, hi), empty.solve(f, lo, hi, [], []),
                    QpWorkspace(H).solve(f, lo, hi, [], []), solve_qp(p)):
            np.testing.assert_array_equal(sol.u_star, ref.u_star)
            np.testing.assert_array_equal(sol.multipliers, ref.multipliers)

    def test_violated_zero_row_is_infeasible(self):
        # 0 u in [1, 2] was dropped as a zero row, and the solve reported optimal
        p = QpProblem(H=np.eye(1), f=np.zeros(1), lower=[-1.0], upper=[1.0],
                      rows=[[0.0]], row_lower=[1.0], row_upper=[2.0])
        sol = solve_qp(p)
        assert sol.status == "infeasible"
        assert check_kkt(p, sol.u_star, sol.multipliers) > 1e-8

    def test_half_open_bounds_solve(self):
        # only the row's upper bound is finite: u is (2, 0) projected on u0 + u1 <= 1
        p = QpProblem(H=np.eye(2), f=[-4.0, 0.0], lower=np.full(2, -np.inf),
                      upper=np.full(2, np.inf), rows=[[1.0, 1.0]], row_lower=[-np.inf],
                      row_upper=[1.0])
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert check_kkt(p, sol.u_star, sol.multipliers) <= 1e-8
        np.testing.assert_allclose(sol.u_star, [1.5, -0.5], atol=1e-12)

    def test_bad_multiplier_shape(self):
        p = QpProblem(H=np.eye(1), f=np.zeros(1),
                      lower=np.array([-1.0]), upper=np.array([1.0]))
        with pytest.raises(InvalidParameterError):
            check_kkt(p, np.zeros(1), np.zeros(5))


def banded_mpc(dm, Np=10, u_lim=400.0, band=0.01):
    """A constrained-MPC stack with a torque box and an output band."""
    qc = np.ones(Np)
    qc[-1] = 50.0
    cfg = MpcConfig(Np=Np, Qc_diag=qc, Rc_diag=np.full(Np, 1e-9),
                    u_min=-u_lim, u_max=u_lim, y_min=-band, y_max=band)
    return cfg, build_prediction(dm, cfg)


def mpc_problem(cfg, stack, xs, wind=0.0):
    """f and bounds of the constrained MPC step for the shifted state xs."""
    F = stack.Phi @ xs
    f = 2.0 * (stack.G.T @ (stack.Qc_diag * F))
    Np = cfg.Np
    return (f, np.full(Np, cfg.u_min + wind), np.full(Np, cfg.u_max + wind),
            cfg.y_min - F, cfg.y_max - F)


class TestWorkspace:
    def test_reused_workspace_matches_fresh_solves_bit_for_bit(self, nominal_dm, rng):
        cfg, stack = banded_mpc(nominal_dm)
        paths = set()
        for _ in range(40):
            xs = np.array([rng.uniform(-0.03, 0.03), rng.uniform(-0.1, 0.1)])
            f, lo, hi, rl, ru = mpc_problem(cfg, stack, xs, wind=rng.uniform(-100.0, 100.0))
            sol = stack.qp.solve(f, lo, hi, rl, ru)
            ref = solve_qp(QpProblem(H=stack.H, f=f, lower=lo, upper=hi,
                                     rows=stack.G, row_lower=rl, row_upper=ru))
            assert np.array_equal(sol.u_star, ref.u_star)
            assert np.array_equal(sol.multipliers, ref.multipliers)
            assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
            paths.add((sol.status, sol.iterations > 0))
        # the sequence exercised the fast path and the active-set iteration
        assert ("optimal", False) in paths and ("optimal", True) in paths

    def test_fast_path_is_the_cached_unconstrained_minimizer(self, rng):
        H = random_pd(rng, 4)
        f = rng.normal(size=4)
        ws = QpWorkspace(H)
        sol = ws.solve(f, np.full(4, -1e3), np.full(4, 1e3))
        assert sol.iterations == 0
        assert np.array_equal(sol.u_star, -np.linalg.inv(2.0 * H) @ f)

    def test_reported_kkt_residual_equals_check_kkt(self, rng):
        seen_fast = seen_active = False
        for _ in range(60):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(0, 4))
            H = random_pd(rng, n)
            f = rng.normal(scale=3.0, size=n)
            rows = rl = ru = None
            if k:
                rows = rng.normal(size=(k, n))
                rl = rng.uniform(-2.0, -0.1, size=k)
                ru = rng.uniform(0.1, 2.0, size=k)
            p = QpProblem(H=H, f=f, lower=np.full(n, -0.5), upper=np.full(n, 0.5),
                          rows=rows, row_lower=rl, row_upper=ru)
            sol = solve_qp(p)
            assert sol.status == "optimal"
            assert sol.kkt_residual == check_kkt(p, sol.u_star, sol.multipliers)
            seen_fast |= sol.iterations == 0
            seen_active |= sol.iterations > 0
        assert seen_fast and seen_active

    def test_solution_keeps_its_own_copy_of_the_qp(self, rng):
        """Editing the caller's f and bound arrays in place after a solve leaves the
        solution's objective and certificate those of the QP it solved."""
        H, k = random_pd(rng, 4), 2
        rows = rng.normal(size=(k, 4))
        f, lo, hi = rng.normal(scale=3.0, size=4), np.full(4, -0.5), np.full(4, 0.5)
        rl, ru = np.full(k, -0.2), np.full(k, 0.2)
        p = QpProblem(H=H, f=f.copy(), lower=lo, upper=hi, rows=rows, row_lower=rl,
                      row_upper=ru)
        sol = QpWorkspace(H, rows).solve(f, lo, hi, rl, ru)
        assert sol.status == "optimal" and sol.iterations > 0
        for a in (f, lo, hi, rl, ru):
            a *= 3.0
        u = sol.u_star
        assert sol.objective == float(u @ p.H @ u + p.f @ u)
        assert sol.kkt_residual == check_kkt(p, u, sol.multipliers)

    def test_a_closed_loop_run_computes_no_certificate(self, monkeypatch):
        """The constrained MPC reads neither the objective nor the certificate of
        its solves: with the one certificate function raising, the bundled band
        scenario still runs all 400 steps and makes its 165 solves."""
        solve, solves = QpWorkspace.solve, []

        def counted(ws, *args, **kwargs):
            solves.append(None)
            return solve(ws, *args, **kwargs)

        def no_certificate(*args):
            raise AssertionError("KKT certificate computed")

        monkeypatch.setattr(QpWorkspace, "solve", counted)
        monkeypatch.setattr(qpsolve, "_kkt", no_certificate)
        assert len(run_scenario(load_bundled_scenario("mpc_tight_limit_weight_step"))) == 400
        assert len(solves) == 165

    def test_pinned_variable_with_row_on_same_variable(self):
        H, f = np.eye(2), np.array([1.0, 1.0])
        box = dict(lower=np.array([0.25, -1.0]), upper=np.array([0.25, 1.0]))
        rows = np.array([[0.1, 0.0]])
        # 0.1 u0 <= 0.03 leaves the pin feasible: the row holds strictly
        p = QpProblem(H=H, f=-4.0 * f, **box, rows=rows,
                      row_lower=np.array([-1.0]), row_upper=np.array([0.03]))
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert np.allclose(sol.u_star, [0.25, 1.0], atol=1e-12)
        assert check_kkt(p, sol.u_star, sol.multipliers) < 1e-12
        # 0.1 u0 <= 0.02 contradicts u0 = 0.25
        p = QpProblem(H=H, f=-4.0 * f, **box, rows=rows,
                      row_lower=np.array([-1.0]), row_upper=np.array([0.02]))
        sol = solve_qp(p)
        assert sol.status == "infeasible"
        assert sol.iterations <= 5

    def test_dependent_constraint_replaces_active_one(self):
        # u <= 2 binds first (larger scaled violation); then 0.1 u <= 0.15,
        # parallel to it, is violated: a pure dual step drops u <= 2 and
        # the row takes over at u = 1.5
        p = QpProblem(H=np.array([[1.0]]), f=np.array([-10.0]),
                      lower=np.array([-5.0]), upper=np.array([2.0]),
                      rows=np.array([[0.1]]), row_lower=np.array([-1.0]),
                      row_upper=np.array([0.15]))
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert sol.u_star[0] == pytest.approx(1.5, abs=1e-12)
        assert sol.multipliers[0] == 0.0  # upper box dropped
        assert sol.multipliers[2] == pytest.approx(70.0, rel=1e-12)  # 2u - 10 + 0.1 lam = 0
        assert check_kkt(p, sol.u_star, sol.multipliers) < 1e-12

    def test_duplicated_and_negated_rows(self, rng):
        for _ in range(20):
            H = random_pd(rng, 3)
            f = rng.normal(scale=5.0, size=3)
            lo, hi = np.full(3, -1.0), np.full(3, 1.0)
            row = rng.normal(size=3)
            single = solve_qp(QpProblem(H=H, f=f, lower=lo, upper=hi, rows=row[None, :],
                                        row_lower=np.array([-0.3]), row_upper=np.array([0.2])))
            # the same band written three times: twice as is, once negated
            p = QpProblem(H=H, f=f, lower=lo, upper=hi, rows=np.vstack([row, row, -row]),
                          row_lower=np.array([-0.3, -0.5, -0.2]),
                          row_upper=np.array([0.2, 0.2, 0.3]))
            sol = solve_qp(p)
            assert single.status == sol.status == "optimal"
            assert np.max(np.abs(sol.u_star - single.u_star)) < 1e-10
            assert check_kkt(p, sol.u_star, sol.multipliers) < 1e-10

    def test_closed_loop_band_sequence_with_drops(self, monkeypatch):
        # the QPs of the bundled tight-limit scenario: after the weight step
        # its torque box and output band bind, and some solves drop constraints
        calls = []
        solve = QpWorkspace.solve

        def record(ws, *args, **kwargs):
            calls.append((ws, args))
            return solve(ws, *args, **kwargs)

        monkeypatch.setattr(QpWorkspace, "solve", record)
        run_scenario(load_bundled_scenario("mpc_tight_limit_weight_step",
                                           overrides={"scenario.duration": "31"}))
        monkeypatch.undo()
        with_drops = 0
        for ws, (f, lo, hi, rl, ru) in calls:
            p = QpProblem(H=ws.H, f=f, lower=lo, upper=hi, rows=ws.rows,
                          row_lower=rl, row_upper=ru)
            sol, values = capped_lagrangians(p, ws)
            assert sol.status == "optimal"
            assert check_kkt(p, sol.u_star, sol.multipliers) <= 1e-8
            assert all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(values, values[1:]))
            # every iteration adds or drops one constraint
            with_drops += sol.iterations > np.count_nonzero(sol.multipliers)
        assert with_drops

    def test_drops_at_a_tiny_control_weight_solve(self):
        """A QP of the bundled band scenario at mpc.control_weight = 1e-15, cond(H)
        about 2e7, with the shifted state, wind estimate and warm start of the run's
        step where a rank-one downdate of the active-set inverse once lost definiteness
        on a drop (math domain error). Factored afresh on each drop, it solves."""
        scn = load_bundled_scenario("mpc_tight_limit_weight_step",
                                    overrides={"mpc.control_weight": "1e-15"})
        rp, cfg = scn.plant_params, scn.mpc
        stack = build_prediction(
            discretize_zoh(continuous_roll_model(rp), scn.Ts, rp.input_delay_Td), cfg)
        f, lo, hi, rl, ru = mpc_problem(cfg, stack, np.array([-0.00387252536068546,
                                                              0.0011075053044890398]),
                                        wind=-380.94114668410805)
        sol = stack.qp.solve(f, lo, hi, rl, ru, start=[0, 1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 14])
        assert sol.status == "optimal"
        p = QpProblem(H=stack.H, f=f, lower=lo, upper=hi, rows=stack.G,
                      row_lower=rl, row_upper=ru)
        assert check_kkt(p, sol.u_star, sol.multipliers) <= 1e-8

    def test_output_pinned_by_equal_band_rows(self, nominal_dm):
        cfg, stack = banded_mpc(nominal_dm, Np=6, u_lim=1000.0, band=0.05)
        f, lo, hi, rl, ru = mpc_problem(cfg, stack, np.array([0.02, 0.0]))
        rl[2] = ru[2] = -0.004  # upper and lower row of output 2 coincide
        sol = stack.qp.solve(f, lo, hi, rl, ru)
        assert sol.status == "optimal" and sol.iterations > 0
        assert (stack.G @ sol.u_star)[2] == pytest.approx(-0.004, abs=1e-12)
        scaled = QpProblem(H=stack.H / stack.H.max(), f=f / stack.H.max(), lower=lo, upper=hi,
                           rows=stack.G, row_lower=rl, row_upper=ru)
        assert check_kkt(scaled, sol.u_star, sol.multipliers / stack.H.max()) < 1e-9
        # an output the torque box cannot reach: proven infeasible quickly
        rl[0] = ru[0] = 1.0
        sol = stack.qp.solve(f, lo, hi, rl, ru)
        assert sol.status == "infeasible"
        assert sol.iterations <= 2 * cfg.Np

    def test_infeasibility_proven_in_few_iterations(self, rng):
        p = QpProblem(H=np.array([[1.0]]), f=np.array([0.0]),
                      lower=np.array([-1.0]), upper=np.array([1.0]),
                      rows=np.array([[1.0]]), row_lower=np.array([2.0]),
                      row_upper=np.array([3.0]))
        sol = solve_qp(p)
        assert sol.status == "infeasible"
        assert sol.iterations <= 2
        for _ in range(10):
            n = int(rng.integers(2, 7))
            # the box caps sum(u) at n, the row demands more
            p = QpProblem(H=random_pd(rng, n), f=rng.normal(size=n),
                          lower=np.full(n, -1.0), upper=np.full(n, 1.0),
                          rows=np.ones((1, n)), row_lower=np.array([n + 0.5]),
                          row_upper=np.array([n + 1.0]))
            sol = solve_qp(p)
            assert sol.status == "infeasible"
            assert sol.iterations <= 2 * n + 1

    def test_max_iters_only_when_cap_reached(self, rng):
        H = random_pd(rng, 5)
        f = np.array([5.0, -3.0, 2.0, 1.0, -4.0])
        p = QpProblem(H=H, f=f, lower=np.full(5, -0.1), upper=np.full(5, 0.1))
        full = solve_qp(p)
        assert full.status == "optimal" and full.iterations >= 2
        capped = solve_qp(p, max_iters=1)
        assert capped.status == "max_iters"
        assert capped.iterations == 1

    def test_bounds_checked_per_solve(self, rng):
        ws = QpWorkspace(random_pd(rng, 2), rows=np.array([[1.0, 1.0]]))
        lo, hi = np.full(2, -1.0), np.full(2, 1.0)
        with pytest.raises(InvalidParameterError):
            ws.solve(np.zeros(2), lo, hi)  # row bounds missing
        with pytest.raises(InvalidParameterError):
            ws.solve(np.zeros(2), hi, lo, np.array([-1.0]), np.array([1.0]))
        with pytest.raises(InvalidParameterError):
            ws.solve(np.zeros(3), lo, hi, np.array([-1.0]), np.array([1.0]))
        with pytest.raises(InvalidParameterError):
            QpWorkspace(random_pd(rng, 2)).solve(np.zeros(2), lo, hi, np.array([-1.0]),
                                                 np.array([1.0]))
        with pytest.raises(InvalidParameterError):
            QpWorkspace(np.diag([1.0, -1.0]))


START_KINDS = ("subset", "both_sides", "infinite", "empty", "cold")


@st.composite
def started_qps(draw):
    """(QP, start kind, start): a start of stacked constraint indices of one of
    the ``START_KINDS``. ``both_sides`` holds the two sides of one box or row
    bound among others, ``infinite`` every constraint with a +inf bound, and
    ``cold`` the active set of the QP's cold solve."""
    p, kind = draw(small_qps()), draw(st.sampled_from(START_KINDS))
    gamma = constraint_stack(p)[1]
    m, n = gamma.size, p.n
    subset = draw(st.sets(st.integers(0, m - 1), max_size=2 * n))
    if kind == "subset":
        start = subset
    elif kind == "both_sides":
        k = draw(st.integers(0, (m - 1) // 2))  # the upper side of box bound or row k - n
        pair = {k, k + n} if k < n else {n + k, n + k + (m - 2 * n) // 2}
        start = subset | pair
    elif kind == "infinite":
        start = subset | set(np.flatnonzero(gamma == np.inf).tolist())
    elif kind == "empty":
        start = set()
    else:
        start = set(np.flatnonzero(solve_qp(p).multipliers).tolist())
    return p, kind, sorted(start)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(started_qps())
def test_a_warm_start_reaches_the_cold_solution(case):
    """From any start the solve ends with the cold solve's status, and an optimal
    one at its minimizer with a KKT certificate; the cold solve's own active set
    is already optimal, so it takes no step."""
    p, kind, start = case
    ws = QpWorkspace(p.H, p.rows)
    bounds = (p.lower, p.upper, p.row_lower, p.row_upper)
    cold, warm = ws.solve(p.f, *bounds), ws.solve(p.f, *bounds, start=start)
    assert warm.status == cold.status
    if cold.status == "optimal":
        scale = max(1.0, np.abs(cold.u_star).max())
        assert np.abs(warm.u_star - cold.u_star).max() <= 1e-9 * scale
        assert check_kkt(p, warm.u_star, warm.multipliers) <= 1e-8
        if kind == "cold":
            assert warm.iterations == 0


@pytest.mark.parametrize("start", [[6], [-1], [0, 0], [1.0], [[0, 1], [1, 2]]])
def test_a_start_of_bad_indices_is_rejected(start):
    ws = QpWorkspace(np.eye(1), rows=np.ones((2, 1)))
    with pytest.raises(InvalidParameterError, match="start"):
        ws.solve(np.zeros(1), [-1.0], [1.0], [-1.0, -1.0], [1.0, 1.0], start=start)
