"""Dense convex QP solver for the MPC subproblem.

Minimizes u' H u + f' u subject to elementwise box bounds on u and
two-sided linear inequality rows; no rows is the (0, n) row matrix with
empty row bounds. In a receding-horizon loop H and the row matrix stay
fixed while f and the bounds change every step, so a ``QpWorkspace``
validates and factorises the fixed part once: inv(2H) and the constraint
normals in the metric of inv(2H). Each ``QpWorkspace.solve`` then takes
only f and the bounds.

The Goldfarb-Idnani dual active-set method (Goldfarb & Idnani, Math.
Programming 27, 1983) starts from the unconstrained minimizer -inv(2H) f and
returns it at its first test when it meets every bound. Otherwise it adds
the most violated constraint, taking partial steps that drop blocking
constraints from the active set and a pure dual step when the new constraint
depends linearly on the active ones. It ends in finitely many steps, and a
violated constraint that cannot be added proves the QP infeasible. A
solution's objective and ``check_kkt`` certificate are computed when read.

A solve starts cold, from the unconstrained minimizer, unless it is
given a ``start``: stacked constraints to begin with as active, such as
the active set of a nearby QP. The dual method can begin at any active
set of independent normals whose multipliers are all >= 0, so a start
drops its constraints with a +inf bound, falls back to a cold start if
the rest fail the loop's independence test, and drops every constraint
whose multiplier comes out negative until none does. The loop then runs
unchanged, and its result depends only on its inputs, the start
included. Within a solve the loop keeps three buffers: the active
constraints' stacked indices, their multipliers, and the inverse of
M_A inv(2H) M_A' for the active constraints M_A, bordered on an add and
computed afresh at the start and on a drop; an active constraint's row
of N, sign, bound and column of W (``QpWorkspace``) are read by index.

The loop runs on H 2^-e, e the exponent of max|H|, so its largest entry
lies in [0.5, 1) at any scale of H. The power-of-two scaling is exact,
and the multipliers are scaled back by 2^e on the way out.
"""

from __future__ import annotations

import math
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
    if np.max(np.abs(H - H.T)) > 1e-10 * np.max(np.abs(H)):
        raise InvalidParameterError("H must be symmetric")
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise InvalidParameterError("H must be positive definite") from None


def _row_matrix(rows, n: int) -> np.ndarray:
    """``rows`` as an (m, n) float matrix; no rows (None or []) is the (0, n) matrix."""
    if rows is None:
        return np.zeros((0, n))
    rows = np.asarray(rows, dtype=float)
    rows = rows.reshape(0, n) if rows.shape == (0,) else np.atleast_2d(rows)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise InvalidParameterError(f"rows must be a matrix with {n} columns, got {rows.shape}")
    return rows


def _stack_bounds(n: int, rows: np.ndarray, lower, upper, row_lower, row_upper) -> np.ndarray:
    """The bounds, validated and stacked as gamma = (upper, -lower, row_upper, -row_lower).

    There are n box bounds and one row bound per row of ``rows`` on each
    side, a bound of None being none; each lower <= upper, which NaN fails; and
    min(gamma) > -inf: no lower bound is +inf and no upper bound -inf, so
    none rules out every value. A +inf in gamma is then the only
    constraint a solve may drop.
    """
    m = rows.shape[0]
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


def _start_set(start, usable: np.ndarray) -> np.ndarray:
    """``start``'s constraints with a finite bound, as sorted stacked indices.

    ``start`` must hold distinct integer indices below ``usable.size``.
    """
    idx = np.sort(np.asarray(start).ravel())
    if idx.size and (idx.dtype.kind not in "iu" or idx[0] < 0 or idx[-1] >= usable.size):
        raise InvalidParameterError(
            f"start must hold indices of the {usable.size} stacked constraints")
    if (idx[1:] == idx[:-1]).any():
        raise InvalidParameterError("start must not repeat a constraint")
    idx = idx.astype(np.intp, copy=False)
    return idx[usable[idx]]


@dataclass(frozen=True)
class QpProblem:
    """min u'Hu + f'u  s.t.  lower <= u <= upper, row_lower <= rows @ u <= row_upper;
    ``rows=None`` is stored as the (0, n) matrix, with empty row bounds."""

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
        rows = _row_matrix(self.rows, f.size)
        # copies, so that no later edit of the caller's arrays gets past the check below
        bounds = [np.array(() if b is None else b, dtype=float).ravel()
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
    beyond the tolerance and the multipliers are dual feasible. ``objective``
    and ``kkt_residual``, the value of ``check_kkt``, are computed when read.

    ``multipliers`` are the Lagrange multipliers of the stacked one-sided
    constraints (see ``constraint_stack``). A solve stopped at ``max_iters``
    returns the iterate and the multipliers after exactly that many
    active-set steps, the multiplier of the constraint being added
    included; the dual method makes the Lagrangian at those iterates
    non-decreasing in the step count.
    """

    u_star: np.ndarray
    iterations: int  # active-set steps, counted from the start if one was given
    status: str  # optimal | infeasible | max_iters
    multipliers: np.ndarray
    _qp: tuple = field(repr=False)  # (H, a copy of f, rows, gamma): what the properties read

    @property
    def objective(self) -> float:
        H, f, _, _ = self._qp
        return float(self.u_star @ H @ self.u_star + f @ self.u_star)

    @property
    def kkt_residual(self) -> float:
        H, f, rows, gamma = self._qp
        return _kkt(H, f, _normals(rows), gamma, self.u_star, self.multipliers)


def constraint_stack(p: QpProblem):
    """All constraints as one-sided rows M u <= gamma; returns (M, gamma).

    Order: upper box, lower box (negated), row upper, row lower (negated).
    A +inf entry of gamma is a constraint that is not there; its row is
    kept so multiplier indices stay aligned.
    """
    return _normals(p.rows), _stack_bounds(p.n, p.rows, p.lower, p.upper, p.row_lower, p.row_upper)


def _normals(rows: np.ndarray) -> np.ndarray:
    """The stacked normals M = [I; -I; rows; -rows] for an (m, n) ``rows``."""
    return np.vstack([np.eye(rows.shape[1]), -np.eye(rows.shape[1]), rows, -rows])


def check_kkt(p: QpProblem, u: np.ndarray, multipliers: np.ndarray) -> float:
    """Max of scaled stationarity, primal, dual, complementarity violations.

    Stationarity 2Hu + f + M'lam is normalized by the size of its terms,
    max(1, |2Hu|, |f|, |M'lam|), so the certificate is invariant to
    uniform scaling of (H, f); primal and complementarity terms are
    normalized per-row by max(1, |bound|).
    """
    lam = np.asarray(multipliers, dtype=float).ravel()
    M, gamma = constraint_stack(p)
    if lam.shape != gamma.shape:
        raise InvalidParameterError(f"expected {gamma.size} multipliers, got {lam.size}")
    return _kkt(p.H, p.f, M, gamma, np.asarray(u, dtype=float).ravel(), lam)


def _kkt(H, f, M, gamma, u, lam) -> float:
    """``check_kkt``'s certificate for min u'Hu + f'u s.t. M u <= gamma."""
    usable = gamma < np.inf
    gamma = np.where(usable, gamma, 0.0)  # finite stand-ins, masked out below
    Hu2 = 2.0 * H @ u
    M_lam = M.T @ lam
    stat_scale = max(1.0, np.max(np.abs(Hu2)), np.max(np.abs(f)), np.max(np.abs(M_lam)))
    stationarity = np.max(np.abs(Hu2 + f + M_lam)) / stat_scale
    slack = M @ u - gamma
    row_scale = np.maximum(1.0, np.abs(gamma))
    primal = max(0.0, np.max(np.where(usable, slack / row_scale, -np.inf)))
    dual = max(0.0, -np.min(lam)) if lam.size else 0.0
    comp_scale = np.maximum(row_scale, np.abs(lam))
    comp = np.max(np.where(usable, np.abs(lam * slack) / comp_scale, 0.0))
    return float(max(stationarity, primal, dual, comp))


class QpWorkspace:
    """The fixed part of a family of QPs: H and the row matrix, (0, n) for ``rows=None``.

    Built once, it validates H and caches ``H2_inv`` = inv(2H), the one
    inverse of H (every solve begins at exactly -inv(2H) f). For the
    stacked constraints of ``constraint_stack`` it also caches the
    normals mapped through inv(2H) and their inner products. Every
    constraint normal is plus or minus a row of N = [I; rows], so only
    N's products W = inv(2H) N' 2^e and P = N W, for the loop's H 2^-e,
    are stored. ``solve`` is stateless: the same inputs give the same bits.
    """

    def __init__(self, H, rows=None):
        H = np.asarray(H, dtype=float)
        n = H.shape[0] if H.ndim else 0
        _check_hessian(H, n)
        self.H = H
        self.rows = _row_matrix(rows, n)
        self.n = n
        self.H2_inv = np.linalg.inv(2.0 * H)
        self.H2_inv.setflags(write=False)
        # the loop's Hessian H 2^-e, with largest entry in [0.5, 1)
        self._e = math.frexp(float(np.max(np.abs(H))))[1]
        self._Hs = np.ldexp(H, -self._e)
        # row k of _WT / _PT: column k of W = inv(2H) N' 2^e / of P = N W
        N = np.vstack([np.eye(n), self.rows])
        W = np.ldexp(self.H2_inv, self._e) @ N.T
        self._PT = np.ascontiguousarray((N @ W).T)
        self._WT = np.ascontiguousarray(W.T)
        # stacked constraint k is sign[k] times row base[k] of N
        k = np.arange(N.shape[0])
        self._base = np.concatenate([k[:n], k[:n], k[n:], k[n:]])
        self._sign = np.repeat([1.0, -1.0, 1.0, -1.0], [n, n, k.size - n, k.size - n])

    def solve(self, f, lower, upper, row_lower=None, row_upper=None,
              tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS,
              start=None) -> QpSolution:
        """Solve min u'Hu + f'u within the given bounds; see the module docstring.

        There is one row bound per row of ``rows`` on each side, None being none.
        ``start``, if given, holds distinct indices of stacked constraints
        (``constraint_stack`` order) to begin with as active.
        """
        n = self.n
        f = np.array(f, dtype=float).ravel()  # a copy: the solution keeps it
        if f.shape != (n,):
            raise InvalidParameterError(f"f must have length {n}")
        u = self.H2_inv @ -f  # -(H2_inv @ f) would turn an exact +0 into -0
        if not np.isfinite(u).all():
            raise InvalidParameterError("f must be finite, and so must -inv(2H) f")
        stacked = _stack_bounds(n, self.rows, lower, upper, row_lower, row_upper)
        usable = stacked < np.inf  # a +inf bound is the one constraint a solve drops
        gamma = np.where(usable, stacked, 0.0)  # finite stand-ins, masked out by ``mask``
        scale = np.maximum(1.0, np.abs(gamma))
        mask = np.where(usable, 0.0, -np.inf)
        if start is not None:
            start = _start_set(start, usable)
        # the ratio test divides by r, which may be 0 or small enough to overflow
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u, lam, iterations, status = self._dual_active_set(u, gamma, scale, mask, tol,
                                                               max_iters, start)
        return QpSolution(u, iterations, status, lam, (self.H, f, self.rows, stacked))

    def _factor(self, bA, sA, out) -> bool:
        """inv(M_A inv(2H) M_A') into ``out``; whether M_A passes the independence test."""
        S_A = self._PT.take(bA, 0).take(bA, 1) * np.multiply.outer(sA, sA)
        try:
            out[...] = np.linalg.inv(S_A)
        except np.linalg.LinAlgError:
            return False
        d = np.diagonal(out)  # 1 / d[j]: constraint j's curvature off the others; NaN fails
        return bool(((d > 0.0) & (d * np.diagonal(S_A) < 1.0 / _DEPENDENT_REL)).all())

    def _dual_active_set(self, u, gamma, scale, mask, tol, max_iters, start):
        """Goldfarb-Idnani iterations from the unconstrained minimizer ``u``, or
        from what is kept of ``start`` (sorted, with finite bounds; see the
        module docstring).

        The first ``a`` entries of ``act`` and ``lam_A`` hold the active
        constraints' stacked indices and their multipliers, and the leading
        a x a block of ``S_inv`` holds the inverse of M_A inv(2H) M_A'. An
        active constraint's row of N, sign, bound and column of W are read
        through its index: bA = base[act[:a]], sA = sign[act[:a]], and the
        signed columns combined by x are (x * sA) @ WT.take(bA, 0) (``take``
        gathers the rows about three times as fast as WT[bA]). Multipliers,
        steps and curvatures are those of the scaled QP, H 2^-e. Invariant: u
        minimizes the Lagrangian at the current multipliers and every active
        constraint holds with equality. At most n independent constraints
        can be active. Returns (u, multipliers, iterations, status).
        """
        n, base, sign, PT, WT, H = self.n, self._base, self._sign, self._PT, self._WT, self._Hs
        act = np.zeros(n, dtype=np.intp)
        lam_A = np.zeros(n)
        S_inv = np.zeros((n, n))
        a = on_rows = 0  # on_rows: active constraints on rows, whose slack needs rows @ u
        while start is not None and 0 < start.size <= n:
            k, bA, sA = start.size, base[start], sign[start]
            if not self._factor(bA, sA, S_inv[:k, :k]):
                break
            lam_s = S_inv[:k, :k] @ (sA * np.concatenate((u, self.rows @ u))[bA] - gamma[start])
            if (lam_s >= 0.0).all():  # dual feasible: begin here
                a, on_rows = k, int(np.count_nonzero(bA >= n))
                act[:a], lam_A[:a] = start, lam_s
                u = u - (lam_s * sA) @ WT.take(bA, 0)
                break
            start = start[lam_s >= 0.0]
        iterations, status = 0, "optimal"
        while status == "optimal":
            bA, sA = base[act[:a]], sign[act[:a]]
            if a:  # undo the drift of the step updates: active constraints back on equality
                Nu = np.concatenate((u, self.rows @ u)) if on_rows else u
                d_lam = S_inv[:a, :a] @ (sA * Nu[bA] - gamma[act[:a]])
                lam_A[:a] += d_lam
                u = u - (d_lam * sA) @ WT.take(bA, 0)
            slack = np.concatenate((u, self.rows @ u))[base] * sign - gamma
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
                b = (sp * sA) * p_col[bA]
                r = S_a @ b  # active multipliers fall by r per unit of lam_p
                z = (r * sA) @ WT.take(bA, 0) - w_p  # primal direction
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
                    act[a], lam_A[a] = p, lam_p
                    a += 1
                    on_rows += bp >= n
                    break
                # drop the blocking constraint j: move the last one into its place, factor anew
                a -= 1
                on_rows -= int(bA[j]) >= n
                act[j], lam_A[j] = act[a], lam_A[a]
                bA, sA = base[act[:a]], sign[act[:a]]
                self._factor(bA, sA, S_inv[:a, :a])
        lam = np.zeros(gamma.size)
        lam[act[:a]] = lam_A[:a]
        if status != "optimal":
            lam[p] += lam_p
        return u, np.ldexp(lam, self._e, out=lam), iterations, status


def solve_qp(p: QpProblem, tol: float = DEFAULT_TOL,
             max_iters: int = DEFAULT_MAX_ITERS) -> QpSolution:
    """Solve one QP with a one-off ``QpWorkspace``; see the module docstring."""
    return QpWorkspace(p.H, p.rows).solve(p.f, p.lower, p.upper, p.row_lower, p.row_upper,
                                          tol=tol, max_iters=max_iters)
