"""Multi-type branching analysis: mean matrix, criticality, extinction.

The failure process is a branching process over ``2n`` agent types. Its mean
matrix, a read-only array, holds the expected children counts per type; the
process can sustain an epidemic iff the spectral radius exceeds 1, and the
per-type die-out probabilities form the minimal fixed point of the offspring
generating functions, reached by Newton's method from zero. Both work on
any sequence of ``OffspringLaw``s, closed-form or enumerated (thinning one),
and read only ``n_types``, ``origin_type``, ``mean()``, ``support``, ``mass``
and ``thinning``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .children import CHILDREN_MASS_TOL, OffspringLaw, offspring_laws
from .model import SystemModel
from .pmf import pgf

# Entries below this are treated as structural zeros by the regularity check.
STRUCTURAL_ZERO = 1e-15
# Half-width of the band around spectral radius 1 treated as critical.
CRITICAL_BAND = 1e-9
# A generating function on [0, 1] is at most its law's total mass, at most
# 1 + CHILDREN_MASS_TOL; the other half of the slack absorbs rounding. A
# Newton step, nonnegative in exact arithmetic, may fall this far below zero.
ITERATE_SLACK = 2 * CHILDREN_MASS_TOL
# Newton steps after which the solve stops and reports converged = False.
MAX_NEWTON_STEPS = 100
# A type stops once its Newton step falls below this; away from criticality
# the iterate is then at rounding level.
NEWTON_STEP_TOL = 1e-12

SUBCRITICAL = "subcritical"
CRITICAL = "critical"
SUPERCRITICAL = "supercritical"


def mean_matrix(children: Sequence[OffspringLaw]) -> np.ndarray:
    """The read-only mean matrix: entry (i, j) is the mean number of type-j
    children of a failing type-i agent.

    Each law keeps its own row nonnegative and zero outside
    ``allowed_child_types``; the one fact no single law can see is checked
    here: removing one internal neighbor cannot raise the internal children
    mean.
    """
    if not children:
        raise ValueError("no children distributions given")
    n_types = children[0].n_types
    if len(children) != n_types:
        raise ValueError(f"expected {n_types} children distributions, got {len(children)}")
    rows = np.zeros((n_types, n_types))
    for idx, h in enumerate(children):
        if h.origin_type != idx:
            raise ValueError(f"children distribution {idx} has origin_type {h.origin_type}")
        rows[idx] = h.mean()
    n = n_types // 2
    for i in range(n):
        if rows[i, n + i] < rows[n + i, n + i] - 1e-12:
            raise ValueError(f"internal children mean of type {n + i} exceeds that of type {i}")
    rows.setflags(write=False)
    return rows


def is_positively_regular(m: np.ndarray) -> bool:
    """True iff some power of the matrix is entrywise positive (primitivity).

    Works on the boolean positivity pattern only; by Wielandt's bound a
    primitive n x n matrix has an all-positive power at exponent
    n^2 - 2n + 2, so only exponents up to that need checking.
    """
    pattern = np.asarray(m, dtype=np.float64) > STRUCTURAL_ZERO
    n = pattern.shape[0]
    power = pattern.copy()
    limit = n * n - 2 * n + 2
    for _ in range(limit):
        if power.all():
            return True
        power = (power.astype(np.int64) @ pattern.astype(np.int64)) > 0
    return bool(power.all())


def spectral_radius(m: np.ndarray) -> float:
    """Spectral radius of a nonnegative matrix: the largest eigenvalue
    modulus. Exact up to rounding for periodic matrices too."""
    values = np.asarray(m, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError("matrix must be square")
    if np.any(values < 0):
        raise ValueError("matrix must be nonnegative")
    return float(np.max(np.abs(np.linalg.eigvals(values))))


def _gf_map(children: Sequence[OffspringLaw]):
    """The generating map s -> (f_t(s))_t of a sequence of laws and its
    Jacobian, as ``pgf`` calls on their supports stacked into a (types, rows,
    types) array; the padding rows of shorter laws carry no mass."""
    n_rows = max(h.support.shape[0] for h in children)
    n_types = children[0].n_types
    support = np.zeros((len(children), n_rows, n_types), dtype=np.int64)
    mass = np.zeros((len(children), n_rows))
    thinning = np.empty((len(children), 1, n_types))
    for t, h in enumerate(children):
        support[t, : h.support.shape[0]] = h.support
        mass[t, : h.mass.shape[0]] = h.mass
        thinning[t, 0] = h.thinning
    keep = 1.0 - thinning
    # Jacobian entry (t, j) = pi_j sum_k m_k d_kj prod_l u_l ** (d_kl - [l = j])
    # with u = 1 - pi + pi s: per column j, supports lowered by one in j and
    # weights m_k d_kj. Rows with d_kj = 0 weigh nothing; the clip at 0 keeps
    # 0 ** -1 out of them.
    lowered = np.maximum(support[:, None] - np.eye(n_types, dtype=np.int64)[:, None], 0)
    weights = mass[:, None] * np.moveaxis(support, 2, 1)

    def gf(s: np.ndarray) -> np.ndarray:
        return pgf(support, mass, keep + thinning * s)

    def jacobian(s: np.ndarray) -> np.ndarray:
        u = keep + thinning * s
        return thinning[:, 0] * pgf(lowered, weights, u[:, None])

    return gf, jacobian


@dataclass(frozen=True)
class PoEVector:
    """Per-type die-out probabilities with solver metadata.

    ``values[i]`` is the probability that the failure cascade seeded by one
    type-i agent dies out. ``regime`` classifies the process by the spectral
    radius of the mean matrix; ``iterations`` counts Newton steps and
    ``residual`` is max |f(values) - values|. ``converged`` is False only when
    MAX_NEWTON_STEPS steps ran out first (the last iterate is still returned).
    """

    values: np.ndarray
    spectral_radius_value: float
    regime: str
    iterations: int
    residual: float
    converged: bool

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def to_dict(self) -> dict:
        return {
            "poe": [float(v) for v in self.values],
            "spectral_radius": float(self.spectral_radius_value),
            "regime": self.regime,
            "iterations": self.iterations,
            "residual": float(self.residual),
            "converged": self.converged,
        }


def solve_extinction(children: Sequence[OffspringLaw]) -> PoEVector:
    """Minimal fixed point of the offspring generating functions.

    Types where f^k(0) stays 0 for every k never die out. On the others
    Newton's method from 0 rises monotonically to the fixed point (Esparza,
    Kiefer & Luttenberger, SIAM J. Comput. 2010) until every step is below
    NEWTON_STEP_TOL; a type that reaches 1 is solved. In the critical regime
    (spectral radius within CRITICAL_BAND of 1) with every type able to die
    the answer is all ones, which Newton would approach only linearly.
    """
    mm = mean_matrix(children)
    rho = spectral_radius(mm)
    if rho > 1.0 + CRITICAL_BAND:
        regime = SUPERCRITICAL
    elif rho < 1.0 - CRITICAL_BAND:
        regime = SUBCRITICAL
    else:
        regime = CRITICAL
    n_types = children[0].n_types
    gf, jacobian = _gf_map(children)
    can_die = np.zeros(n_types, dtype=bool)
    for _ in range(n_types):
        can_die = gf(can_die.astype(np.float64)) > 0.0
    s = np.full(n_types, 1.0 if regime == CRITICAL and can_die.all() else 0.0)
    active = can_die & (s < 1.0)
    steps = 0
    while active.any() and steps < MAX_NEWTON_STEPS:
        steps += 1
        value = gf(s)
        if np.any(value > 1.0 + ITERATE_SLACK):
            raise RuntimeError("fixed-point iterate escaped [0, 1]")
        # f(s) >= s at every Newton iterate; a negative gap is rounding.
        gap = np.maximum(value - s, 0.0)[active]
        system = np.eye(gap.size) - jacobian(s)[np.ix_(active, active)]
        step = np.linalg.solve(system, gap)
        if np.any(step < -ITERATE_SLACK):
            raise RuntimeError("fixed-point iteration not monotone")
        s[active] = np.clip(s[active] + step, 0.0, 1.0)
        active &= (s < 1.0) & np.any(np.abs(step) >= NEWTON_STEP_TOL)
    return PoEVector(
        values=s,
        spectral_radius_value=rho,
        regime=regime,
        iterations=steps,
        residual=float(np.max(np.abs(gf(s) - s))),
        converged=not active.any(),
    )


def extinction_probabilities(model: SystemModel) -> PoEVector:
    """Die-out probabilities of the cascade seeded in each type of ``model``."""
    return solve_extinction(offspring_laws(model))

