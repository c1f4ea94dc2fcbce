"""Offspring laws of the failure-propagation process, by agent type.

With ``n`` constituent systems there are ``2n`` agent types, indexed 0-based:
type ``i`` (``0 <= i < n``) is a freshly failed CS-i agent whose internal
neighbors are all still up; type ``n + i`` is a CS-i agent brought down by an
internal neighbor. A failing agent of either CS-i type produces children only
of types ``{j : j != i, j < n}`` (external, fresh) and ``n + i`` (internal).

An ``OffspringLaw`` is the closed form: the degree pmf as potential children
and an independent binomial thinning per coordinate, with the transmission
probability ``q[i, j]`` externally and internally the probability that a
randomly chosen internal neighbor is vulnerable (size-biased internal degree
law averaged against the vulnerability profile). The internally-infected law
first removes the one internal neighbor that did the infecting, replacing the
internal potential count D by max(D - 1, 0); when the internal-degree floor
holds this is exactly the shifted joint law, and it stays a probability
distribution when the floor is lifted. ``build_children`` enumerates the laws
into explicit ``ChildrenPmf`` tables for sampling and inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping

import numpy as np

from .model import ProfileCoverageError, SystemModel, VulnerabilityProfile
from .pmf import MarginalPmf, PmfError, _frozen, pgf

# ChildrenPmf masses come out of float convolutions; unit-mass tolerance.
CHILDREN_MASS_TOL = 1e-10
# Hard guard on the exact-convolution support size.
MAX_SUPPORT_POINTS = 1_000_000


class ZeroInternalDegreeError(ValueError):
    """Internal degree law has zero mean: no size-biased neighbor law exists."""


class SupportExplosionError(RuntimeError):
    """Exact offspring support exceeded the configured hard limit."""


def allowed_child_types(origin_cs: int, n_systems: int) -> frozenset[int]:
    """Types a failing CS-``origin_cs`` agent can produce."""
    return frozenset(j for j in range(n_systems) if j != origin_cs) | {n_systems + origin_cs}


@dataclass(frozen=True, eq=False)
class SizeBiasedPmf:
    """Internal degree law of a randomly selected internal neighbor:
    w(d) proportional to d * p(d), normalized by the mean degree."""

    support: np.ndarray
    mass: np.ndarray

    @classmethod
    def from_marginal(cls, p: MarginalPmf) -> "SizeBiasedPmf":
        weights = p.support.astype(np.float64) * p.mass
        mean = weights.sum()
        if mean <= 0.0:
            raise ZeroInternalDegreeError("marginal has zero mean degree")
        keep = weights > 0.0
        return cls(_frozen(p.support[keep].copy()), _frozen(weights[keep] / mean))

    def expectation(self, fn: Callable[[int], float]) -> float:
        return float(sum(m * fn(int(d)) for d, m in zip(self.support, self.mass)))


@dataclass(frozen=True, eq=False)
class ChildrenPmf:
    """Finite-support pmf of the children-count vector of one agent type.

    Support vectors have length ``2 * n_systems`` and are zero outside the
    coordinates a failing agent of ``origin_type`` can actually produce.
    """

    origin_type: int
    n_systems: int
    support: np.ndarray
    mass: np.ndarray
    thinning = 1.0  # class attribute: enumerated laws are thinned with probability one

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        if support.ndim == 1:
            support = support[:, None]
        mass = np.asarray(self.mass, dtype=np.float64).ravel()
        n = self.n_systems
        if support.shape[1] != 2 * n:
            raise PmfError(f"children vectors must have length {2 * n}")
        if mass.shape[0] != support.shape[0]:
            raise PmfError("support and mass must have identical length")
        if not 0 <= self.origin_type < 2 * n:
            raise PmfError("origin_type out of range")
        if np.any(support < 0) or np.any(mass < 0):
            raise PmfError("negative entries")
        allowed = allowed_child_types(self.origin_cs, n)
        forbidden = [j for j in range(2 * n) if j not in allowed]
        if forbidden and np.any(support[:, forbidden] != 0):
            raise PmfError(
                f"type {self.origin_type} children must vanish outside {sorted(allowed)}"
            )
        if abs(mass.sum() - 1.0) > CHILDREN_MASS_TOL:
            raise PmfError(f"children masses sum to {mass.sum()!r}, expected 1")
        order = np.lexsort(support.T[::-1])
        support = support[order]
        mass = mass[order]
        if support.shape[0] > 1 and np.any(np.all(np.diff(support, axis=0) == 0, axis=1)):
            raise PmfError("duplicate support vector")
        object.__setattr__(self, "support", _frozen(support))
        object.__setattr__(self, "mass", _frozen(mass))

    @property
    def origin_cs(self) -> int:
        return self.origin_type % self.n_systems

    @property
    def n_types(self) -> int:
        return 2 * self.n_systems

    def mean(self) -> np.ndarray:
        """Expected children count per type (one row of the mean matrix)."""
        return self.mass @ self.support.astype(np.float64)

    def gf(self, s) -> np.ndarray:
        """Generating function of the children vector (see ``pgf``)."""
        return pgf(self.support, self.mass, s)

    def prob(self, vec) -> float:
        vec = np.asarray(vec, dtype=np.int64)
        hit = np.nonzero(np.all(self.support == vec, axis=1))[0]
        return float(self.mass[hit[0]]) if hit.size else 0.0

    def as_dict(self) -> dict[tuple, float]:
        return {tuple(int(x) for x in v): float(m) for v, m in zip(self.support, self.mass)}

    def to_document(self) -> dict:
        """Sparse-entries document in the model-file format, for inspection."""
        return {
            "origin_type": self.origin_type,
            "n_systems": self.n_systems,
            "entries": [
                [[int(x) for x in vec], float(m)]
                for vec, m in zip(self.support, self.mass)
            ],
        }


def internal_vulnerability(p_ii: MarginalPmf, profile: VulnerabilityProfile) -> float:
    """Probability that a randomly chosen internal neighbor is vulnerable.

    Averages the vulnerability profile under the size-biased internal degree
    law. Raises ZeroInternalDegreeError when the mean internal degree is 0.
    """
    w = SizeBiasedPmf.from_marginal(p_ii)
    value = w.expectation(profile)
    return min(1.0, max(0.0, value))


def inter_cs_infection_prob(
    chi: MarginalPmf, eta: Mapping[int, float] | Callable[[int], float]
) -> float:
    """Transmission probability from an incoming-degree infection model.

    ``chi`` is the law of the number of supporting agents a dependent has in
    the failing CS (supported on d >= 1) and ``eta(d)`` the infection
    probability given d supporters; the result is the eta-average under chi.
    """
    if np.any(chi.support < 1):
        raise PmfError("incoming-degree law must be supported on d >= 1")
    get = eta.__getitem__ if isinstance(eta, Mapping) else eta
    total = 0.0
    for d, m in zip(chi.support, chi.mass):
        value = float(get(int(d)))
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"eta({int(d)}) = {value!r} outside [0, 1]")
        total += float(m) * value
    return total


def _binomial_row(n: int, q: float) -> np.ndarray:
    """Pmf of Binomial(n, q) on 0..n (exact at q = 0 and q = 1)."""
    return np.array([math.comb(n, k) * q**k * (1.0 - q) ** (n - k) for k in range(n + 1)])


def thinning_probabilities(model: SystemModel, cs: int) -> np.ndarray:
    """Per-coordinate infection probabilities for a failing CS-``cs`` agent:
    the transmission matrix off the diagonal, the size-biased vulnerability
    average on it."""
    probs = np.clip(model.infection[cs], 0.0, 1.0)
    probs[cs] = internal_vulnerability(model.internal_marginal(cs), model.vulnerability[cs])
    return probs


@dataclass(frozen=True, eq=False)
class OffspringLaw:
    """Offspring law of one agent type in closed form: ``support``/``mass``
    is the law of the potential-children vector over the ``2 * n_systems``
    types, and ``thinning[j]`` the probability that a type-j potential child
    fails. The children vector is its coordinatewise binomial thinning."""

    origin_type: int
    n_systems: int
    support: np.ndarray
    mass: np.ndarray
    thinning: np.ndarray

    @property
    def n_types(self) -> int:
        return 2 * self.n_systems

    def gf(self, s) -> np.ndarray:
        """Generating function of the children vector: the potential-children
        generating function at 1 - thinning + thinning * s."""
        return pgf(self.support, self.mass, 1.0 - self.thinning + self.thinning * s)

    def mean(self) -> np.ndarray:
        """Expected children count per type (one row of the mean matrix)."""
        return self.thinning * (self.mass @ self.support.astype(np.float64))

    def children(self) -> ChildrenPmf:
        """Enumerate the thinned law into an explicit children table."""
        acc: dict[tuple, float] = {}
        for d, m in zip(self.support, self.mass):
            if m == 0.0:
                continue
            rows = [_binomial_row(int(k), q) for k, q in zip(d, self.thinning)]
            for combo in product(*(range(int(k) + 1) for k in d)):
                weight = float(m)
                for row, k in zip(rows, combo):
                    weight *= row[k]
                if weight == 0.0:
                    continue
                acc[combo] = acc.get(combo, 0.0) + weight
                if len(acc) > MAX_SUPPORT_POINTS:
                    raise SupportExplosionError(f"more than {MAX_SUPPORT_POINTS} support points")
        return ChildrenPmf(self.origin_type, self.n_systems, list(acc), list(acc.values()))


def offspring_law(model: SystemModel, origin_type: int) -> OffspringLaw:
    """Closed-form offspring law of one type, without enumeration: degree
    coordinate ``cs`` of a CS-``cs`` agent becomes type ``n + cs``, and the
    infected type loses the internal neighbor that infected it."""
    n = model.n_systems
    if not 0 <= origin_type < 2 * n:
        raise IndexError(f"origin_type {origin_type} out of range")
    cs = origin_type % n
    joint = model.degree_dists[cs]
    cols = [n + cs if j == cs else j for j in range(n)]
    support = np.zeros((joint.n_points, 2 * n), dtype=np.int64)
    support[:, cols] = joint.support
    if origin_type >= n:
        support[:, n + cs] = np.maximum(support[:, n + cs] - 1, 0)
    thinning = np.zeros(2 * n)
    thinning[cols] = thinning_probabilities(model, cs)
    return OffspringLaw(origin_type, n, _frozen(support), joint.mass, _frozen(thinning))


def offspring_laws(model: SystemModel) -> list[OffspringLaw]:
    """All ``2 * n_systems`` closed-form offspring laws, indexed by type."""
    return [offspring_law(model, t) for t in range(2 * model.n_systems)]


def children_distribution_fresh(model: SystemModel, cs: int) -> ChildrenPmf:
    """Exact offspring law of a freshly failed CS-``cs`` agent."""
    return offspring_law(model, cs).children()


def children_distribution_infected(model: SystemModel, cs: int) -> ChildrenPmf:
    """Exact offspring law of a CS-``cs`` agent infected through an internal
    neighbor: one internal potential child is removed before thinning."""
    return offspring_law(model, model.n_systems + cs).children()


def build_children(model: SystemModel) -> list[ChildrenPmf]:
    """All ``2 * n_systems`` offspring laws enumerated, indexed by type."""
    return [law.children() for law in offspring_laws(model)]


@dataclass(frozen=True)
class ScalingCheck:
    """Result of the aggregate-risk shape check on a vulnerability profile."""

    holds: bool
    violated_at: int | None = None
    reason: str = ""


def check_vulnerability_scaling(
    profile: VulnerabilityProfile, d_max: int
) -> ScalingCheck:
    """Verify that the aggregate risk d * phi(d) is nondecreasing and concave
    on 1..d_max (the shape the degree-variability comparisons require of
    vulnerability profiles)."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    star = []
    for d in range(1, d_max + 1):
        try:
            star.append(d * profile(d))
        except ProfileCoverageError:
            return ScalingCheck(False, d, f"profile does not cover internal degree {d}")
    for idx in range(len(star) - 1):
        if star[idx + 1] < star[idx] - 1e-12:
            return ScalingCheck(
                False, idx + 1, f"d*phi(d) decreases from d={idx + 1} to d={idx + 2}"
            )
    for idx in range(len(star) - 2):
        if star[idx + 2] - 2 * star[idx + 1] + star[idx] > 1e-12:
            return ScalingCheck(
                False, idx + 1, f"d*phi(d) is convex at d={idx + 2}"
            )
    return ScalingCheck(True)
