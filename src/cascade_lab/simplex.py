"""Interior-point solver for the box-bounded cone LPs of ``orders``.

Solves  min c.xi  subject to  S xi <= 0,  -1 <= xi <= 1  by Mehrotra's
predictor-corrector method (Mehrotra, SIAM J. Optim. 2, 1992), with the box
folded into the n x n normal matrix as diagonal terms and a Cholesky factor
per iteration. The answer is reported as two bounds on the optimum that do
not depend on the solver having converged:

* ``lower = -||c + S^T lam||_1`` for the multipliers lam >= 0 of the S rows,
  a lower bound for every such lam by weak duality (the box turns the dual
  into an l1 norm);
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
# No ridge made the normal matrix factorable; the bounds of the last iterate
# are still valid.
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
    diagonal = np.diag_indices(n)

    def g(x):
        return np.concatenate([S @ x, x, -x])

    def g_t(y):
        return S.T @ y[:m] + y[m : m + n] - y[m + n :]

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
        normal = S.T @ (w[:m, None] * S)
        normal[diagonal] += w[m : m + n] + w[m + n :]
        factor_inv = _inverse_cholesky_factor(normal)
        if factor_inv is None:
            status = STALLED
            break
        iterations += 1

        def direction(rc):
            """Newton step that drives the residuals and v * y + rc to zero."""
            rhs = -r_dual - g_t((y * r_primal - rc) / v)
            dx = factor_inv.T @ (factor_inv @ rhs)
            dv = -r_primal - g(dx)
            return dx, dv, -(rc + y * dv) / v

        dx, dv, dy = direction(v * y)
        a_p, a_d = min(1.0, _max_step(v, dv)), min(1.0, _max_step(y, dy))
        mu_aff = ((v + a_p * dv) @ (y + a_d * dy)) / v.size
        dx, dv, dy = direction(v * y + dv * dy - (mu_aff / mu) ** 3 * mu)
        a_p = min(1.0, _STEP_FRACTION * _max_step(v, dv))
        a_d = min(1.0, _STEP_FRACTION * _max_step(y, dy))
        x, v, y = x + a_p * dx, v + a_p * dv, y + a_d * dy

    lam, slack = y[:m], v[:m]
    lower = max(_lower_bound(c, S, lam), _lower_bound(c, S, _polish(c, S, slack, lam)))
    x = np.clip(x, -1.0, 1.0)
    feasible = float((S @ x).max(initial=0.0)) <= CONE_TOL
    upper = float(c @ x) if feasible else math.inf
    return LpResult(status, x, lower, upper, iterations)


def _inverse_cholesky_factor(normal: np.ndarray) -> np.ndarray | None:
    """Inverse of the lower Cholesky factor of ``normal`` (ridged in place
    if needed), or None if no ridge up to the last retry makes it factorable."""
    ridge = _RIDGE * normal.diagonal().max()
    for _ in range(_RIDGE_RETRIES):
        try:
            return np.linalg.inv(np.linalg.cholesky(normal))
        except np.linalg.LinAlgError:
            normal[np.diag_indices_from(normal)] += ridge
            ridge *= 100.0
    return None


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest step t with v + t dv >= 0 (inf if dv >= 0)."""
    falling = dv < 0
    return float((v[falling] / -dv[falling]).min(initial=math.inf))


def _lower_bound(c: np.ndarray, S: np.ndarray, lam: np.ndarray) -> float:
    """Weak-duality bound -||c + S^T lam||_1, valid for any lam >= 0."""
    return -float(np.abs(c + S.T @ lam).sum())


def _polish(c: np.ndarray, S: np.ndarray, s: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Multipliers that solve S^T lam = -c in least squares on the rows the
    interior point regards as active (slack below multiplier), clipped at 0."""
    active = s < lam
    polished = np.zeros_like(lam)
    if active.any():
        sol = np.linalg.lstsq(S[active].T, -c, rcond=None)[0]
        polished[active] = np.maximum(sol, 0.0)
    return polished
