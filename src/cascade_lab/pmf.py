"""Finite-support probability mass functions over integer degree vectors.

Joint pmfs describe how many dependence neighbors an agent has in each
constituent system (CS); marginal pmfs describe a single coordinate.
Supports are always finite and explicitly enumerated: every downstream
computation (binomial thinning, generating functions, order checks) is an
exact finite sum over these supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

# Total-mass validation tolerance, applied to the double-precision mass sum.
MASS_TOL = 1e-12
# Tolerance for pmf equality / cell-wise comparisons.
EQ_TOL = 1e-9


class PmfError(ValueError):
    """Structurally invalid pmf: bad shapes, negative mass, duplicate support."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def pgf(support: np.ndarray, mass: np.ndarray, u) -> np.ndarray:
    """Generating function sum_k mass[k] * prod_j u[j] ** support[k, j], with
    0 ** 0 == 1: the one evaluator behind every law's ``gf``. ``u`` broadcasts
    against the support rows: one point ``(dim,)``, a batch ``(m, 1, dim)``,
    or one point ``(T, 1, dim)`` per law of a stack ``(T, N, dim)``."""
    terms = np.prod(np.asarray(u, dtype=np.float64) ** support, axis=-1)
    # One dot product over the support rows per law and per point.
    return np.matmul(terms[..., None, :], mass[..., :, None])[..., 0, 0]


@dataclass(frozen=True, eq=False)
class MarginalPmf:
    """Pmf of a single nonnegative integer degree.

    ``support`` is strictly increasing, ``mass`` aligned with it.
    """

    support: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64).ravel()
        mass = np.asarray(self.mass, dtype=np.float64).ravel()
        if support.shape != mass.shape:
            raise PmfError("support and mass must have identical length")
        if support.size == 0:
            raise PmfError("empty support")
        if np.any(support < 0):
            raise PmfError("support must be nonnegative")
        if np.any(mass < 0):
            raise PmfError("negative mass")
        order = np.argsort(support, kind="stable")
        support = support[order]
        mass = mass[order]
        if np.any(np.diff(support) == 0):
            raise PmfError("duplicate support point")
        object.__setattr__(self, "support", _frozen(support))
        object.__setattr__(self, "mass", _frozen(mass))

    @classmethod
    def from_dict(cls, entries: Mapping[int, float]) -> "MarginalPmf":
        items = sorted(entries.items())
        return cls(np.array([k for k, _ in items]), np.array([v for _, v in items]))

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def is_normalized(self, tol: float = MASS_TOL) -> bool:
        return abs(self.total_mass - 1.0) <= tol

    def mean(self) -> float:
        return float(self.support @ self.mass)

    def cdf_at(self, t: float) -> float:
        return float(self.mass[self.support <= t].sum())

    def prob(self, d: int) -> float:
        hit = np.nonzero(self.support == d)[0]
        return float(self.mass[hit[0]]) if hit.size else 0.0

    def as_dict(self) -> dict[int, float]:
        return {int(d): float(m) for d, m in zip(self.support, self.mass)}


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Pmf of a nonnegative integer degree vector of fixed dimension.

    ``support`` has shape (n_points, dimension) and is stored in row-lexicographic
    order so that equal pmfs have identical array layouts. The constructor
    enforces structural invariants (nonnegative deduplicated support, nonnegative
    mass); whether the total mass is 1 is checked separately so that validators
    can report mass-sum violations instead of refusing to build the object.
    """

    support: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        if support.ndim == 1:
            support = support[:, None]
        if support.ndim != 2 or support.size == 0:
            raise PmfError("support must be a nonempty (n_points, dimension) array")
        mass = np.asarray(self.mass, dtype=np.float64).ravel()
        if mass.shape[0] != support.shape[0]:
            raise PmfError("support and mass must have identical length")
        if np.any(support < 0):
            raise PmfError("support vectors must be nonnegative")
        if np.any(mass < 0):
            raise PmfError("negative mass")
        order = np.lexsort(support.T[::-1])
        support = support[order]
        mass = mass[order]
        if support.shape[0] > 1 and np.any(np.all(np.diff(support, axis=0) == 0, axis=1)):
            raise PmfError("duplicate support vector")
        object.__setattr__(self, "support", _frozen(support))
        object.__setattr__(self, "mass", _frozen(mass))

    @classmethod
    def from_dict(cls, entries: Mapping[tuple, float]) -> "JointPmf":
        keys = list(entries.keys())
        return cls(np.array(keys, dtype=np.int64), np.array([entries[k] for k in keys]))

    @property
    def dimension(self) -> int:
        return self.support.shape[1]

    @property
    def n_points(self) -> int:
        return self.support.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def is_normalized(self, tol: float = MASS_TOL) -> bool:
        return abs(self.total_mass - 1.0) <= tol

    def prob(self, vec) -> float:
        vec = np.asarray(vec, dtype=np.int64)
        hit = np.nonzero(np.all(self.support == vec, axis=1))[0]
        return float(self.mass[hit[0]]) if hit.size else 0.0

    def as_dict(self) -> dict[tuple, float]:
        return {tuple(int(x) for x in v): float(m) for v, m in zip(self.support, self.mass)}

    def gf(self, u) -> np.ndarray:
        """Generating function E[prod_j u_j ** D_j] (see ``pgf``)."""
        return pgf(self.support, self.mass, u)


def marginal(joint: JointPmf, axis: int) -> MarginalPmf:
    """Marginal law of one coordinate of a joint degree vector."""
    if not 0 <= axis < joint.dimension:
        raise IndexError(f"axis {axis} out of range for dimension {joint.dimension}")
    values = joint.support[:, axis]
    uniq = np.unique(values)
    mass = np.array([joint.mass[values == d].sum() for d in uniq])
    return MarginalPmf(uniq, mass)


def mean_vector(joint: JointPmf) -> np.ndarray:
    """Componentwise expectation of the degree vector."""
    return joint.mass @ joint.support.astype(np.float64)


def entropy_bits(m: MarginalPmf) -> float:
    """Shannon entropy in bits, with 0*log(0) taken as 0."""
    p = m.mass[m.mass > 0]
    return float(-(p @ np.log2(p)))


def kl_divergence(p: JointPmf, q: JointPmf) -> float:
    """Kullback-Leibler divergence sum(p * ln(p/q)) in nats.

    Raises PmfError if some cell has p > 0 but q = 0 (absolute-continuity
    violation).
    """
    if p.dimension != q.dimension:
        raise PmfError("dimension mismatch")
    q_map = q.as_dict()
    total = 0.0
    for vec, mp in p.as_dict().items():
        if mp <= 0.0:
            continue
        mq = q_map.get(vec, 0.0)
        if mq <= 0.0:
            raise PmfError(f"absolute continuity violated at {vec}: p={mp}, q=0")
        total += mp * math.log(mp / mq)
    return total


def is_independent(joint: JointPmf, tol: float = EQ_TOL) -> bool:
    """True iff the joint pmf deviates from the product of its marginals by
    at most ``tol`` in every cell."""
    margs = [marginal(joint, j) for j in range(joint.dimension)]
    return joints_equal(joint, product_pmf(*margs), tol)


def correlation(joint: JointPmf, i: int, j: int) -> float:
    """Pearson correlation coefficient of coordinates i and j."""
    for axis in (i, j):
        if not 0 <= axis < joint.dimension:
            raise IndexError(f"axis {axis} out of range")
    x = joint.support[:, i].astype(np.float64)
    y = joint.support[:, j].astype(np.float64)
    w = joint.mass
    mx, my = float(w @ x), float(w @ y)
    vx = float(w @ (x - mx) ** 2)
    vy = float(w @ (y - my) ** 2)
    if vx <= 0.0 or vy <= 0.0:
        raise PmfError("correlation undefined for a degenerate coordinate")
    cov = float(w @ ((x - mx) * (y - my)))
    return cov / math.sqrt(vx * vy)


def product_pmf(*marginals_: MarginalPmf) -> JointPmf:
    """Joint pmf of independent coordinates with the given marginal laws."""
    grids = np.meshgrid(*[m.support for m in marginals_], indexing="ij")
    support = np.stack([g.ravel() for g in grids], axis=1)
    mass = np.ones(support.shape[0])
    for j, m in enumerate(marginals_):
        lookup = dict(zip(m.support.tolist(), m.mass.tolist()))
        mass *= np.array([lookup[int(d)] for d in support[:, j]])
    keep = mass > 0.0
    return JointPmf(support[keep], mass[keep])


def joints_equal(a: JointPmf, b: JointPmf, tol: float = EQ_TOL) -> bool:
    if a.dimension != b.dimension:
        return False
    bd = b.as_dict()
    ad = a.as_dict()
    keys = set(ad) | set(bd)
    return all(abs(ad.get(k, 0.0) - bd.get(k, 0.0)) <= tol for k in keys)
