"""Dense convex QP solver for the MPC subproblem.

Minimizes u' H u + f' u subject to elementwise box bounds on u and
optional two-sided linear inequality rows. In a receding-horizon loop H
and the row matrix stay fixed while f and the bounds change every step,
so a ``QpWorkspace`` validates and factorises the fixed part once:
inv(2H) and the constraint normals in the metric of inv(2H). Each
``QpWorkspace.solve`` then takes only f and the bounds.

The unconstrained minimizer -inv(2H) f is returned at once when it
satisfies every bound (the fast path). Otherwise the Goldfarb-Idnani
dual active-set method (Goldfarb & Idnani, Math. Programming 27, 1983)
adds the most violated constraint, taking partial steps that drop
blocking constraints from the active set and a pure dual step when the
new constraint depends linearly on the active ones. It ends in finitely
many steps, and a violated constraint that cannot be added proves the
QP infeasible. Certificates are verifiable with ``check_kkt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 5000

# a constraint whose normal keeps less than this share of its squared
# inv(2H)-norm after projection off the active normals counts as dependent
_DEPENDENT_REL = 1e-12


def _check_hessian(H: np.ndarray, n: int) -> None:
    if H.shape != (n, n):
        raise InvalidParameterError(f"H must be {n}x{n}, got {H.shape}")
    scale = max(1.0, float(np.max(np.abs(H))))
    if np.max(np.abs(H - H.T)) > 1e-10 * scale:
        raise InvalidParameterError("H must be symmetric")
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise InvalidParameterError("H must be positive definite") from None


@dataclass(frozen=True)
class QpProblem:
    """min u'Hu + f'u  s.t.  lower <= u <= upper, row_lower <= rows @ u <= row_upper."""

    H: np.ndarray
    f: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    rows: np.ndarray | None = None
    row_lower: np.ndarray | None = None
    row_upper: np.ndarray | None = None

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        f = np.asarray(self.f, dtype=float).ravel()
        n = f.size
        _check_hessian(H, n)
        lower = np.asarray(self.lower, dtype=float).ravel()
        upper = np.asarray(self.upper, dtype=float).ravel()
        if lower.shape != (n,) or upper.shape != (n,):
            raise InvalidParameterError("box bounds must match the size of f")
        if np.any(lower > upper):
            raise InvalidParameterError("box bounds must satisfy lower <= upper")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if self.rows is not None:
            rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
            rl = np.asarray(self.row_lower, dtype=float).ravel()
            ru = np.asarray(self.row_upper, dtype=float).ravel()
            if rows.shape[1] != n or rl.shape != (rows.shape[0],) or ru.shape != (rows.shape[0],):
                raise InvalidParameterError("row constraints have inconsistent shapes")
            if np.any(rl > ru):
                raise InvalidParameterError("row bounds must satisfy row_lower <= row_upper")
            object.__setattr__(self, "rows", rows)
            object.__setattr__(self, "row_lower", rl)
            object.__setattr__(self, "row_upper", ru)

    @property
    def n(self) -> int:
        return self.f.size


@dataclass
class QpSolution:
    """Solver output; ``status == "optimal"`` means no constraint is violated
    beyond the tolerance and the multipliers are dual feasible.

    ``multipliers`` are the Lagrange multipliers of the stacked one-sided
    constraints (see ``constraint_stack``). ``dual_objective_history``
    holds, when requested, the dual objective after every active-set
    step; the dual method makes it non-decreasing.
    """

    u_star: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    status: str  # optimal | infeasible | max_iters
    multipliers: np.ndarray
    dual_objective_history: list = field(default_factory=list)


def constraint_stack(p: QpProblem):
    """All constraints as one-sided rows M u <= gamma.

    Order: upper box, lower box (negated), then row upper / row lower if
    present. Rows with non-finite bounds are kept but masked out by an
    ``active-allowed`` flag so multiplier indices stay aligned.
    """
    n = p.n
    I = np.eye(n)
    blocks = [I, -I]
    bounds = [p.upper, -p.lower]
    if p.rows is not None:
        blocks.extend([p.rows, -p.rows])
        bounds.extend([p.row_upper, -p.row_lower])
    M = np.vstack(blocks)
    gamma = np.concatenate(bounds)
    usable = np.isfinite(gamma) & (np.abs(M).max(axis=1) > 0.0)
    return M, gamma, usable


def check_kkt(p: QpProblem, u: np.ndarray, multipliers: np.ndarray) -> float:
    """Max of scaled stationarity, primal, dual, complementarity violations.

    Stationarity is normalized by the gradient magnitude so the
    certificate is invariant to uniform scaling of (H, f); primal and
    complementarity terms are normalized per-row by max(1, |bound|).
    """
    u = np.asarray(u, dtype=float).ravel()
    lam = np.asarray(multipliers, dtype=float).ravel()
    M, gamma, usable = constraint_stack(p)
    if lam.shape != gamma.shape:
        raise InvalidParameterError(f"expected {gamma.size} multipliers, got {lam.size}")
    grad = 2.0 * p.H @ u + p.f
    stat_raw = grad + M.T @ lam
    stat_scale = max(1.0, np.max(np.abs(grad)), np.max(np.abs(M.T @ lam)))
    stationarity = np.max(np.abs(stat_raw)) / stat_scale
    slack = M @ u - gamma
    row_scale = np.maximum(1.0, np.abs(gamma))
    primal = max(0.0, np.max(np.where(usable, slack / row_scale, -np.inf)))
    dual = max(0.0, -np.min(lam)) if lam.size else 0.0
    comp_scale = np.maximum(row_scale, np.abs(lam))
    comp = np.max(np.where(usable, np.abs(lam * slack) / comp_scale, 0.0))
    return float(max(stationarity, primal, dual, comp))


class QpWorkspace:
    """The fixed part of a family of QPs: H and the row matrix.

    Built once, it validates H and caches ``H2_inv`` = inv(2H), the one
    inverse of H (the fast path returns exactly -inv(2H) f). For the
    stacked constraints of ``constraint_stack`` it also caches the
    normals mapped through inv(2H) and their inner products. Every
    constraint normal is plus or minus a row of N = [I; rows], so only
    N's products are stored. ``solve`` is stateless: the same inputs
    give the same bits.
    """

    def __init__(self, H, rows=None):
        H = np.asarray(H, dtype=float)
        n = H.shape[0] if H.ndim else 0
        _check_hessian(H, n)
        N = np.eye(n)
        if rows is not None:
            rows = np.atleast_2d(np.asarray(rows, dtype=float))
            if rows.shape[1] != n:
                raise InvalidParameterError(f"rows must have {n} columns, got {rows.shape[1]}")
            N = np.vstack([N, rows])
        self.H = H
        self.rows = rows
        self.n = n
        self.H2_inv = np.linalg.inv(2.0 * H)
        self.H2_inv.setflags(write=False)
        self._H2 = 2.0 * H
        self._W = self.H2_inv @ N.T
        self._P = N @ self._W
        # stacked constraint k is sign[k] times row base[k] of N
        k = np.arange(N.shape[0])
        self._base = np.concatenate([k[:n], k[:n], k[n:], k[n:]])
        self._sign = np.concatenate([np.ones(n), -np.ones(n), np.ones(k.size - n),
                                     -np.ones(k.size - n)])
        self._nonzero = (np.abs(N).max(axis=1) > 0.0)[self._base]

    def solve(self, f, lower, upper, row_lower=None, row_upper=None,
              tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS,
              warm_multipliers: np.ndarray | None = None,
              track_objective: bool = False) -> QpSolution:
        """Solve min u'Hu + f'u within the given bounds; see the module docstring.

        Row bounds are required exactly when the workspace has rows.
        ``warm_multipliers`` (stacked, as returned in ``multipliers``)
        seed the active set with the constraints they mark positive, when
        those define a dual-feasible start; otherwise the solve starts cold.
        """
        n = self.n
        f = np.asarray(f, dtype=float).ravel()
        lower = np.asarray(lower, dtype=float).ravel()
        upper = np.asarray(upper, dtype=float).ravel()
        if f.shape != (n,) or lower.shape != (n,) or upper.shape != (n,):
            raise InvalidParameterError(f"f and box bounds must have length {n}")
        if (lower > upper).any():
            raise InvalidParameterError("box bounds must satisfy lower <= upper")
        bounds = [upper, -lower]
        if self.rows is not None:
            if row_lower is None or row_upper is None:
                raise InvalidParameterError("this workspace has rows; row bounds are required")
            rl = np.asarray(row_lower, dtype=float).ravel()
            ru = np.asarray(row_upper, dtype=float).ravel()
            if rl.shape != (self.rows.shape[0],) or ru.shape != rl.shape:
                raise InvalidParameterError("row bounds must have one entry per row")
            if (rl > ru).any():
                raise InvalidParameterError("row bounds must satisfy row_lower <= row_upper")
            bounds.extend([ru, -rl])
        elif row_lower is not None or row_upper is not None:
            raise InvalidParameterError("this workspace has no rows; row bounds must be None")
        gamma = np.concatenate(bounds)
        usable = np.isfinite(gamma) & self._nonzero
        gamma = np.where(usable, gamma, 0.0)  # finite stand-ins, masked out below
        scale = np.maximum(1.0, np.abs(gamma))

        u = self.H2_inv @ -f  # -(H2_inv @ f) would turn an exact +0 into -0
        slack = self._slack(u, gamma)
        viol = np.where(usable, slack / scale, -np.inf)
        lam = np.zeros(gamma.size)
        history: list = []
        if viol.max() <= tol:
            iterations, status = 0, "optimal"
        else:
            u, lam, iterations, status = self._dual_active_set(
                f, u, gamma, scale, usable, tol, max_iters, warm_multipliers,
                history if track_objective else None)
            slack = self._slack(u, gamma)
            viol = np.where(usable, slack / scale, -np.inf)
        return QpSolution(u_star=u, objective=float(u @ self.H @ u + f @ u),
                          kkt_residual=self._kkt_residual(u, f, lam, slack, scale, usable, viol),
                          iterations=iterations, status=status, multipliers=lam,
                          dual_objective_history=history)

    def _slack(self, u, gamma):
        """M u - gamma for the stacked constraints, box rows taken on u directly."""
        n = self.n
        if self.rows is None:
            return np.concatenate([u - gamma[:n], -gamma[n:] - u])
        y = self.rows @ u
        r = y.size
        return np.concatenate([u - gamma[:n], -gamma[n:2 * n] - u,
                               y - gamma[2 * n:2 * n + r], -gamma[2 * n + r:] - y])

    def _kkt_residual(self, u, f, lam, slack, scale, usable, viol):
        """``check_kkt`` evaluated on the cached data (equal up to rounding)."""
        n = self.n
        grad = self._H2 @ u + f
        primal = max(0.0, viol.max())
        if not lam.any():  # zero multipliers: only two terms remain
            g = np.abs(grad).max()
            return float(max(g / max(1.0, g), primal))
        M_lam = lam[:n] - lam[n:2 * n]
        if self.rows is not None:
            r = self.rows.shape[0]
            M_lam = M_lam + self.rows.T @ (lam[2 * n:2 * n + r] - lam[2 * n + r:])
        stationarity = np.abs(grad + M_lam).max() / max(
            1.0, np.abs(grad).max(), np.abs(M_lam).max())
        dual = max(0.0, -lam.min())
        comp = (np.abs(lam * slack) / np.maximum(scale, np.abs(lam))).max()
        return float(max(stationarity, primal, dual, comp))

    def _dual_active_set(self, f, u, gamma, scale, usable, tol, max_iters, warm, history):
        """Goldfarb-Idnani iterations from the unconstrained minimizer.

        The first ``a`` entries of ``act`` and ``lam_A`` hold the active
        constraints and their multipliers, and the leading a x a block of
        ``S_inv`` the inverse of M_A inv(2H) M_A'. Invariant: u minimizes
        the Lagrangian at the current multipliers and every active
        constraint holds with equality. At most n independent constraints
        can be active. Returns (u, multipliers, iterations, status).
        """
        n, base, sign, P, W = self.n, self._base, self._sign, self._P, self._W
        act = np.zeros(n, dtype=np.intp)
        lam_A = np.zeros(n)
        S_inv = np.zeros((n, n))
        a = 0
        if warm is not None:
            u, a = self._warm_start(u, gamma, usable, warm, act, lam_A, S_inv)
        iterations, status = 0, "optimal"
        while status == "optimal":
            slack = self._slack(u, gamma)
            if a:  # undo the drift of the step updates: active constraints back on equality
                bA, sA = base[act[:a]], sign[act[:a]]
                d_lam = S_inv[:a, :a] @ slack[act[:a]]
                lam_A[:a] += d_lam
                u = u - W[:, bA] @ (sA * d_lam)
                slack = self._slack(u, gamma)
            viol = np.where(usable, slack / scale, -np.inf)
            p = int(viol.argmax())
            if viol[p] <= tol:
                break
            bp, sp = base[p], sign[p]
            slack_p, lam_p, w_p = slack[p], 0.0, sp * W[:, bp]
            # raise lam_p from zero until constraint p holds with equality
            while True:
                if iterations == max_iters:
                    status = "max_iters"
                    break
                iterations += 1
                bA, sA = base[act[:a]], sign[act[:a]]
                b = (sp * sA) * P[bA, bp]
                r = S_inv[:a, :a] @ b  # active multipliers fall by r per unit of lam_p
                z = W[:, bA] @ (sA * r) - w_p  # primal direction
                # = P[p, p] - b'r, computed without its cancellation
                curvature = z @ (self._H2 @ z)
                independent = a < n and curvature > _DEPENDENT_REL * P[bp, bp]
                full = slack_p / curvature if independent else np.inf
                ratios = np.divide(np.maximum(lam_A[:a], 0.0), r, out=np.full(a, np.inf),
                                   where=r > 0.0)
                j = int(ratios.argmin()) if a else -1
                step = min(full, ratios[j]) if a else full
                if step == np.inf:
                    status = "infeasible"
                    break
                lam_A[:a] -= step * r
                lam_p += step
                if independent:
                    u = u + step * z
                    slack_p -= step * curvature
                if history is not None:
                    s_now = self._slack(u, gamma)
                    history.append(float(u @ self.H @ u + f @ u + lam_A[:a] @ s_now[act[:a]]
                                         + lam_p * s_now[p]))
                if step == full:  # add p, bordering S_inv
                    rs = r / np.sqrt(curvature)
                    S_inv[:a, :a] += np.outer(rs, rs)
                    S_inv[:a, a] = S_inv[a, :a] = -r / curvature
                    S_inv[a, a] = 1.0 / curvature
                    act[a], lam_A[a] = p, lam_p
                    a += 1
                    break
                # drop the blocking constraint j: swap it to the end, then cut it off
                a -= 1
                for buf in (act, lam_A):
                    buf[[j, a]] = buf[[a, j]]
                S_inv[[j, a], :a + 1] = S_inv[[a, j], :a + 1]
                S_inv[:a + 1, [j, a]] = S_inv[:a + 1, [a, j]]
                cs = S_inv[:a, a] / np.sqrt(S_inv[a, a])
                S_inv[:a, :a] -= np.outer(cs, cs)
        lam = np.zeros(gamma.size)
        lam[act[:a]] = lam_A[:a]
        if status != "optimal":
            lam[p] += lam_p
        return u, lam, iterations, status

    def _warm_start(self, u, gamma, usable, warm, act, lam_A, S_inv):
        """Seed the active set from positive warm multipliers.

        Accepted only if those constraints are independent and the
        equality-constrained minimizer on them has nonnegative
        multipliers; the buffers are then filled in place. Returns
        (u, number of active constraints), which is (u, 0) for a cold start.
        """
        warm = np.asarray(warm, dtype=float).ravel()
        if warm.shape != gamma.shape:
            return u, 0
        idx = np.flatnonzero((warm > 0.0) & usable)
        if not 0 < idx.size <= self.n:
            return u, 0
        bA, sA = self._base[idx], self._sign[idx]
        S = np.outer(sA, sA) * self._P[np.ix_(bA, bA)]
        try:
            np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            return u, 0
        S_inv_A = np.linalg.inv(S)
        lam = S_inv_A @ self._slack(u, gamma)[idx]
        if (lam < 0.0).any():
            return u, 0
        a = idx.size
        act[:a], lam_A[:a], S_inv[:a, :a] = idx, lam, S_inv_A
        return u - self._W[:, bA] @ (sA * lam), a


def solve_qp(p: QpProblem, tol: float = DEFAULT_TOL,
             max_iters: int = DEFAULT_MAX_ITERS,
             warm_multipliers: np.ndarray | None = None,
             track_objective: bool = False) -> QpSolution:
    """Solve one QP with a one-off ``QpWorkspace``; see the module docstring.

    ``warm_multipliers`` seeds the active set (e.g. with the multipliers
    of the previous receding-horizon step).
    """
    ws = QpWorkspace(p.H, p.rows)
    return ws.solve(p.f, p.lower, p.upper, p.row_lower, p.row_upper, tol=tol,
                    max_iters=max_iters, warm_multipliers=warm_multipliers,
                    track_objective=track_objective)
