"""Dense convex QP solver for the MPC subproblem.

Minimizes u' H u + f' u subject to elementwise box bounds on u and
optional two-sided linear inequality rows. In a receding-horizon loop H
and the row matrix stay fixed while f and the bounds change every step,
so a ``QpWorkspace`` validates and factorises the fixed part once:
inv(2H) and the constraint normals in the metric of inv(2H). Each
``QpWorkspace.solve`` then takes only f and the bounds.

The Goldfarb-Idnani dual active-set method (Goldfarb & Idnani, Math.
Programming 27, 1983) starts from the unconstrained minimizer -inv(2H) f
and returns it at its first test when it meets every bound. Otherwise it
adds the most violated constraint, taking partial steps that drop
blocking constraints from the active set and a pure dual step when the
new constraint depends linearly on the active ones. It ends in finitely
many steps, and a violated constraint that cannot be added proves the
QP infeasible. Certificates are verifiable with ``check_kkt``.

Every solve starts cold from the unconstrained minimizer, so its result
depends only on its inputs (there are no warm starts). Within a solve
the loop keeps two n x n buffers: the inverse of M_A inv(2H) M_A' for
the active constraints M_A, bordered on an add and downdated on a drop,
and the rows of M_A inv(2H), which give each primal direction as one
vector-matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _row_matrix(rows, n: int) -> np.ndarray:
    """``rows`` as an (m, n) float matrix; no rows (None) is the (0, n) matrix."""
    if rows is None:
        return np.zeros((0, n))
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != n:
        raise InvalidParameterError(f"rows must be a matrix with {n} columns, got {rows.shape}")
    return rows


def _stack_bounds(n: int, rows, lower, upper, row_lower, row_upper) -> np.ndarray:
    """The bounds, validated and stacked as gamma = (upper, -lower, row_upper, -row_lower).

    There are n box bounds on each side and, exactly when ``rows`` is not
    None, one row bound per row; each lower <= upper, which NaN fails; and
    min(gamma) > -inf: no lower bound is +inf and no upper bound -inf, so
    none rules out every value. A +inf in gamma is then the only
    constraint a solve may drop.
    """
    if (row_lower is None, row_upper is None) != (rows is None, rows is None):
        raise InvalidParameterError("row bounds must be given exactly when there are rows")
    m = 0 if rows is None else rows.shape[0]
    lower, upper, rl, ru = (np.asarray(() if b is None else b, dtype=float).ravel()
                            for b in (lower, upper, row_lower, row_upper))
    if lower.shape != (n,) or upper.shape != (n,) or rl.shape != (m,) or ru.shape != (m,):
        raise InvalidParameterError(f"need {n} box bounds and {m} row bounds on each side")
    if not ((lower <= upper).all() and (rl <= ru).all()):
        raise InvalidParameterError("bounds must satisfy lower <= upper, and not be NaN")
    gamma = np.concatenate((upper, -lower, ru, -rl))
    if not gamma.min() > -math.inf:
        raise InvalidParameterError("no lower bound may be +inf and no upper bound -inf")
    return gamma


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
        _check_hessian(H, f.size)
        rows = None if self.rows is None else _row_matrix(self.rows, f.size)
        # copies, so that no later edit of the caller's arrays gets past the check below
        bounds = [None if b is None else np.array(b, dtype=float).ravel()
                  for b in (self.lower, self.upper, self.row_lower, self.row_upper)]
        _stack_bounds(f.size, rows, *bounds)
        for name, value in zip(("H", "f", "rows", "lower", "upper", "row_lower", "row_upper"),
                               (H, f, rows, *bounds)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.f.size


@dataclass
class QpSolution:
    """Solver output; ``status == "optimal"`` means no constraint is violated
    beyond the tolerance and the multipliers are dual feasible.

    ``multipliers`` are the Lagrange multipliers of the stacked one-sided
    constraints (see ``constraint_stack``). A solve stopped at ``max_iters``
    returns the iterate and the multipliers after exactly that many
    active-set steps, the multiplier of the constraint being added
    included; the dual method makes the Lagrangian at those iterates
    non-decreasing in the step count.
    """

    u_star: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    status: str  # optimal | infeasible | max_iters
    multipliers: np.ndarray


def constraint_stack(p: QpProblem):
    """All constraints as one-sided rows M u <= gamma; returns (M, gamma).

    Order: upper box, lower box (negated), row upper, row lower (negated);
    no rows is zero rows. A +inf entry of gamma is a constraint that is
    not there; its row is kept so multiplier indices stay aligned.
    """
    I = np.eye(p.n)
    R = _row_matrix(p.rows, p.n)
    return np.vstack([I, -I, R, -R]), _stack_bounds(p.n, p.rows, p.lower, p.upper,
                                                    p.row_lower, p.row_upper)


def check_kkt(p: QpProblem, u: np.ndarray, multipliers: np.ndarray) -> float:
    """Max of scaled stationarity, primal, dual, complementarity violations.

    Stationarity is normalized by the gradient magnitude so the
    certificate is invariant to uniform scaling of (H, f); primal and
    complementarity terms are normalized per-row by max(1, |bound|).
    """
    u = np.asarray(u, dtype=float).ravel()
    lam = np.asarray(multipliers, dtype=float).ravel()
    M, gamma = constraint_stack(p)
    if lam.shape != gamma.shape:
        raise InvalidParameterError(f"expected {gamma.size} multipliers, got {lam.size}")
    usable = gamma < np.inf
    gamma = np.where(usable, gamma, 0.0)  # finite stand-ins, masked out below
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
    inverse of H (every solve starts from exactly -inv(2H) f). For the
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
        self.H = H
        self._rows = _row_matrix(rows, n)
        self.rows = None if rows is None else self._rows
        self.n = n
        self.H2_inv = np.linalg.inv(2.0 * H)
        self.H2_inv.setflags(write=False)
        # row k of _WT / _PT: column k of W = inv(2H) N' / of P = N W
        N = np.vstack([np.eye(n), self._rows])
        W = self.H2_inv @ N.T
        self._PT = np.ascontiguousarray((N @ W).T)
        self._WT = np.ascontiguousarray(W.T)
        # stacked constraint k is sign[k] times row base[k] of N
        k = np.arange(N.shape[0])
        self._base = np.concatenate([k[:n], k[:n], k[n:], k[n:]])
        self._sign = np.repeat([1.0, -1.0, 1.0, -1.0], [n, n, k.size - n, k.size - n])

    def solve(self, f, lower, upper, row_lower=None, row_upper=None,
              tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS) -> QpSolution:
        """Solve min u'Hu + f'u within the given bounds; see the module docstring.

        Row bounds are required exactly when the workspace has rows.
        """
        n = self.n
        f = np.asarray(f, dtype=float).ravel()
        if f.shape != (n,):
            raise InvalidParameterError(f"f must have length {n}")
        u = self.H2_inv @ -f  # -(H2_inv @ f) would turn an exact +0 into -0
        if not np.isfinite(u).all():
            raise InvalidParameterError("f must be finite, and so must -inv(2H) f")
        gamma = _stack_bounds(n, self.rows, lower, upper, row_lower, row_upper)
        usable = gamma < np.inf  # a +inf bound is the one constraint a solve drops
        gamma = np.where(usable, gamma, 0.0)  # finite stand-ins, masked out by ``mask``
        scale = np.maximum(1.0, np.abs(gamma))
        mask = np.where(usable, 0.0, -np.inf)
        # the ratio test divides by r, which may be 0 or small enough to overflow
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u, lam, iterations, status = self._dual_active_set(u, gamma, scale, mask, tol,
                                                               max_iters)
        slack = self._slack(u, gamma)
        viol_max = (slack / scale + mask).max()
        return QpSolution(u_star=u, objective=float(u @ self.H @ u + f @ u),
                          kkt_residual=self._kkt_residual(u, f, lam, slack, scale, viol_max),
                          iterations=iterations, status=status, multipliers=lam)

    def _slack(self, u, gamma):
        """M u - gamma for the stacked constraints, box rows taken on u directly."""
        y = self._rows @ u
        return np.concatenate((u, -u, y, -y)) - gamma

    def _kkt_residual(self, u, f, lam, slack, scale, viol_max):
        """``check_kkt`` evaluated on the cached data (equal up to rounding)."""
        n, r = self.n, self._rows.shape[0]
        grad = 2.0 * (self.H @ u) + f  # the bits of (2H) u + f: doubling is exact
        M_lam = lam[:n] - lam[n:2 * n] + self._rows.T @ (lam[2 * n:2 * n + r] - lam[2 * n + r:])
        stationarity = np.abs(grad + M_lam).max() / max(
            1.0, np.abs(grad).max(), np.abs(M_lam).max())
        dual = max(0.0, -lam.min())
        comp = (np.abs(lam * slack) / np.maximum(scale, np.abs(lam))).max()
        return float(max(stationarity, viol_max, dual, comp))  # a negative viol_max never wins

    def _dual_active_set(self, u, gamma, scale, mask, tol, max_iters):
        """Goldfarb-Idnani iterations from the unconstrained minimizer.

        The first ``a`` entries of ``act`` and ``lam_A`` hold the active
        constraints and their multipliers, ``base_A``/``sign_A``/``gamma_A``
        their rows of N, signs and bounds, and row k of ``JT`` the signed
        column of W of active constraint k. The leading a x a block of
        ``S_inv`` holds the inverse of M_A inv(2H) M_A'. Invariant: u minimizes
        the Lagrangian at the current multipliers and every active
        constraint holds with equality. At most n independent constraints
        can be active. Returns (u, multipliers, iterations, status).
        """
        n, base, sign, PT, WT, H = self.n, self._base, self._sign, self._PT, self._WT, self.H
        act = np.zeros(n, dtype=np.intp)
        base_A = np.zeros(n, dtype=np.intp)
        sign_A = np.zeros(n)
        gamma_A = np.zeros(n)
        lam_A = np.zeros(n)
        JT = np.zeros((n, n))
        S_inv = np.zeros((n, n))
        a = on_rows = 0  # on_rows: active constraints on rows, whose slack needs rows @ u
        iterations, status = 0, "optimal"
        while status == "optimal":
            if a:  # undo the drift of the step updates: active constraints back on equality
                Nu = np.concatenate((u, self._rows @ u)) if on_rows else u
                d_lam = S_inv[:a, :a] @ (sign_A[:a] * Nu[base_A[:a]] - gamma_A[:a])
                lam_A[:a] += d_lam
                u = u - d_lam @ JT[:a]
            slack = self._slack(u, gamma)
            viol = slack / scale + mask
            p = int(viol.argmax())
            if viol[p] <= tol:
                break
            bp, sp = int(base[p]), float(sign[p])
            slack_p, lam_p = float(slack[p]), 0.0
            w_p, p_col = (WT[bp] if sp > 0.0 else -WT[bp]), PT[bp]
            dependent_below = _DEPENDENT_REL * float(p_col[bp])
            # raise lam_p from zero until constraint p holds with equality
            while True:
                if iterations == max_iters:
                    status = "max_iters"
                    break
                iterations += 1
                S_a, lam_a = S_inv[:a, :a], lam_A[:a]  # views
                b = (sp * sign_A[:a]) * p_col[base_A[:a]]
                r = S_a @ b  # active multipliers fall by r per unit of lam_p
                z = r @ JT[:a] - w_p  # primal direction
                # = P[p, p] - b'r, computed without its cancellation
                curvature = 2.0 * float(z @ (H @ z))
                independent = a < n and curvature > dependent_below
                full = slack_p / curvature if independent else math.inf
                step, j = full, -1
                if a:
                    # only constraints whose multiplier falls (r > 0) can block
                    ratios = np.maximum(lam_a, 0.0) / r
                    ratios[r <= 0.0] = np.inf
                    j = int(ratios.argmin())
                    step = min(full, float(ratios[j]))
                if step == math.inf:
                    status = "infeasible"
                    break
                lam_a -= step * r
                lam_p += step
                if independent:
                    u = u + step * z
                    slack_p -= step * curvature
                if step == full:  # add p, bordering S_inv
                    rs = r / math.sqrt(curvature)
                    S_a += rs[:, None] * rs
                    S_inv[:a, a] = S_inv[a, :a] = -r / curvature
                    S_inv[a, a] = 1.0 / curvature
                    act[a], base_A[a], sign_A[a], gamma_A[a] = p, bp, sp, gamma[p]
                    lam_A[a], JT[a] = lam_p, w_p
                    a += 1
                    on_rows += bp >= n
                    break
                # drop the blocking constraint j: move the last one into its place
                a -= 1
                on_rows -= int(base_A[j]) >= n
                for buf in (act, base_A, sign_A, gamma_A, lam_A, JT):
                    buf[j] = buf[a]
                S_inv[[j, a], :a + 1] = S_inv[[a, j], :a + 1]
                S_inv[:a + 1, [j, a]] = S_inv[:a + 1, [a, j]]
                cs = S_inv[:a, a] / math.sqrt(S_inv[a, a])
                S_inv[:a, :a] -= cs[:, None] * cs
        lam = np.zeros(gamma.size)
        lam[act[:a]] = lam_A[:a]
        if status != "optimal":
            lam[p] += lam_p
        return u, lam, iterations, status


def solve_qp(p: QpProblem, tol: float = DEFAULT_TOL,
             max_iters: int = DEFAULT_MAX_ITERS) -> QpSolution:
    """Solve one QP with a one-off ``QpWorkspace``; see the module docstring."""
    return QpWorkspace(p.H, p.rows).solve(p.f, p.lower, p.upper, p.row_lower, p.row_upper,
                                          tol=tol, max_iters=max_iters)
