"""Interior-point solver for the box-bounded cone LPs of ``orders``.

Solves  min c.xi  subject to  S xi <= 0,  -1 <= xi <= 1  by Mehrotra's
predictor-corrector method (Mehrotra, SIAM J. Optim. 2, 1992), with the box
folded into the n x n normal matrix S^T W S as diagonal terms. The nonzeros
of S are read once per call, so each iteration assembles that matrix with
one weighted ``np.bincount`` over the products of nonzero pairs within each
row (a stencil row has at most four nonzeros) instead of a dense m n^2
product. A Cholesky factorization serves only as the test of positive
definiteness that triggers the ridge retry; both Newton directions are then
``np.linalg.solve`` calls on the (ridged) matrix, and no inverse is formed.
The answer is reported as two bounds on the optimum that do not depend on
the solver having converged:

* ``lower = -||c + S^T lam||_1`` for the solver's own multipliers lam >= 0
  of the S rows at the last iterate, a lower bound for every such lam by weak
  duality (the box turns the dual into an l1 norm);
* ``upper = c.xi`` for the iterate clipped to the box, counted only when
  ``max(S xi) <= CONE_TOL``, and +inf otherwise.

The module keeps its historical name, and ``solve_lp`` its name, because the
benchmark's tracer wraps ``cascade_lab.simplex.solve_lp``; renaming both
waits for the next revision of the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
ITERATION_LIMIT = "iteration-limit"
# No ridge made the normal matrix factorable, or a direction solve met a
# singular matrix; the bounds of the last iterate are still valid.
STALLED = "stalled"

# A witness may violate a cone row by at most this much.
CONE_TOL = 1e-9
MAX_ITERATIONS = 100
# Stop once the average complementarity product and every residual are this
# small; the certificate bounds then sit well inside ORDER_ATOL.
_STOP_TOL = 1e-13
# Fraction of the way to the boundary that each step may travel.
_STEP_FRACTION = 0.995
# Near the optimum the normal matrix is positive definite only in exact
# arithmetic; a Cholesky failure is retried with this multiple of its largest
# diagonal entry added to the diagonal, growing a hundredfold per retry.
_RIDGE = 1e-16
_RIDGE_RETRIES = 6


@dataclass(frozen=True)
class LpResult:
    status: str
    x: np.ndarray
    lower: float
    upper: float
    iterations: int


def solve_lp(c, S) -> LpResult:
    """Bound min c.xi over {S xi <= 0, -1 <= xi <= 1} from both sides."""
    c = np.asarray(c, dtype=np.float64).ravel()
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[1] != c.size:
        raise ValueError(f"shape mismatch: S {S.shape}, c {c.shape}")
    m, n = S.shape
    # All inequalities G xi <= h at once, G = [S; I; -I] and h = [0; 1; 1],
    # with slacks v >= 0 and multipliers y >= 0 stacked the same way; G is
    # applied blockwise so the identity rows are never built.
    h = np.concatenate([np.zeros(m), np.ones(2 * n)])

    def g(x):
        return np.concatenate([S @ x, x, -x])

    def g_t(y):
        return S.T @ y[:m] + y[m : m + n] - y[m + n :]

    pairs = _row_pairs(S)

    x, v, y = np.zeros(n), np.ones(m + 2 * n), np.ones(m + 2 * n)
    status = ITERATION_LIMIT
    iterations = 0
    while iterations < MAX_ITERATIONS:
        r_dual = c + g_t(y)
        r_primal = g(x) + v - h
        mu = (v @ y) / v.size
        if mu <= _STOP_TOL and max(np.abs(r_dual).max(), np.abs(r_primal).max()) <= _STOP_TOL:
            status = OPTIMAL
            break
        w = y / v
        normal = _normal_matrix(pairs, w)
        if not _factorable(normal):
            status = STALLED
            break

        def direction(rc):
            """Newton step that drives the residuals and v * y + rc to zero."""
            rhs = -r_dual - g_t((y * r_primal - rc) / v)
            dx = np.linalg.solve(normal, rhs)
            dv = -r_primal - g(dx)
            return dx, dv, -(rc + y * dv) / v

        # The LU solve can meet an exact zero pivot on a matrix whose
        # Cholesky test passed; the bounds of the last iterate still hold.
        try:
            dx, dv, dy = direction(v * y)
            a_p, a_d = min(1.0, _max_step(v, dv)), min(1.0, _max_step(y, dy))
            mu_aff = ((v + a_p * dv) @ (y + a_d * dy)) / v.size
            dx, dv, dy = direction(v * y + dv * dy - (mu_aff / mu) ** 3 * mu)
        except np.linalg.LinAlgError:
            status = STALLED
            break
        iterations += 1
        a_p = min(1.0, _STEP_FRACTION * _max_step(v, dv))
        a_d = min(1.0, _STEP_FRACTION * _max_step(y, dy))
        x, v, y = x + a_p * dx, v + a_p * dv, y + a_d * dy

    lower = _lower_bound(c, S, y[:m])
    x = np.clip(x, -1.0, 1.0)
    feasible = float((S @ x).max(initial=0.0)) <= CONE_TOL
    upper = float(c @ x) if feasible else math.inf
    return LpResult(status, x, lower, upper, iterations)


def _row_pairs(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros of S as ``_normal_matrix`` reads them: the flat n x n
    position i * n + j of every pair of nonzeros (i, j) within each row r,
    followed by the n diagonal positions, and the products S[r, i] * S[r, j]
    shaped (m, k * k) for the densest row's k nonzeros. Sparser rows are
    padded with column 0 and value 0."""
    m, n = S.shape
    rows, cols = np.nonzero(S)
    counts = np.bincount(rows, minlength=m)
    k = int(counts.max(initial=0))
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    col = np.zeros((m, k), dtype=np.intp)
    val = np.zeros((m, k))
    col[rows, slot] = cols
    val[rows, slot] = S[rows, cols]
    index = (col[:, :, None] * n + col[:, None, :]).ravel()
    value = val[:, :, None] * val[:, None, :]
    return np.concatenate([index, np.arange(n) * (n + 1)]), value.reshape(m, k * k)


def _normal_matrix(pairs: tuple[np.ndarray, np.ndarray], w: np.ndarray) -> np.ndarray:
    """S^T diag(w[:m]) S + diag(w[m:m+n] + w[m+n:]) for the m x n matrix S
    whose ``_row_pairs`` are given, summed by one ``np.bincount``."""
    index, value = pairs
    m = value.shape[0]
    n = (w.size - m) // 2
    weights = np.concatenate([(value * w[:m, None]).ravel(), w[m : m + n] + w[m + n :]])
    return np.bincount(index, weights=weights, minlength=n * n).reshape(n, n)


def _factorable(normal: np.ndarray) -> bool:
    """Whether ``normal`` has a Cholesky factor, after ridging it in place if
    needed; False if no ridge up to the last retry makes it factorable."""
    ridge = _RIDGE * normal.diagonal().max()
    for _ in range(_RIDGE_RETRIES):
        try:
            np.linalg.cholesky(normal)
            return True
        except np.linalg.LinAlgError:
            normal[np.diag_indices_from(normal)] += ridge
            ridge *= 100.0
    return False


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest step t with v + t dv >= 0 (inf if dv >= 0)."""
    falling = dv < 0
    return float((v[falling] / -dv[falling]).min(initial=math.inf))


def _lower_bound(c: np.ndarray, S: np.ndarray, lam: np.ndarray) -> float:
    """Weak-duality bound -||c + S^T lam||_1, valid for any lam >= 0."""
    return -float(np.abs(c + S.T @ lam).sum())

