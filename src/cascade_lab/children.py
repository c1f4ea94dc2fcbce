"""Offspring laws of the failure-propagation process, by agent type.

With ``n`` constituent systems there are ``2n`` agent types, indexed 0-based:
type ``i`` (``0 <= i < n``) is a freshly failed CS-i agent whose internal
neighbors are all still up; type ``n + i`` is a CS-i agent brought down by an
internal neighbor. A failing agent of either CS-i type produces children only
of types ``{j : j != i, j < n}`` (external, fresh) and ``n + i`` (internal).

``OffspringLaw`` is the one law type: a pmf of potential children and an
independent binomial thinning per coordinate. ``offspring_law`` builds the
closed form from the degree pmf, thinning with the transmission probability
``q[i, j]`` externally and internally with the probability that a randomly
chosen internal neighbor is vulnerable (size-biased internal degree law
averaged against the vulnerability profile). The internally-infected law
first removes the one internal neighbor that did the infecting, replacing the
internal potential count D by max(D - 1, 0); when the internal-degree floor
holds this is exactly the shifted joint law, and it stays a probability
distribution when the floor is lifted. ``OffspringLaw.children`` enumerates
a law into the same law with thinning one, an explicit children table for
sampling and inspection; ``build_children`` does so for every type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .model import ProfileCoverageError, SystemModel, VulnerabilityProfile
from .pmf import MarginalPmf, PmfError, _frozen, pgf

# Enumerated masses come out of float convolutions; unit-mass tolerance.
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


def internal_vulnerability(p_ii: MarginalPmf, profile: VulnerabilityProfile) -> float:
    """Probability that a randomly chosen internal neighbor is vulnerable.

    Averages the vulnerability profile under the size-biased internal degree
    law w(d) = d p(d) / E[D]. Raises ZeroInternalDegreeError when the mean
    internal degree is 0.
    """
    weights = p_ii.support.astype(np.float64) * p_ii.mass
    mean = weights.sum()
    if mean <= 0.0:
        raise ZeroInternalDegreeError("marginal has zero mean degree")
    keep = weights > 0.0
    value = float(
        sum(m * profile(int(d)) for d, m in zip(p_ii.support[keep], weights[keep] / mean))
    )
    return min(1.0, max(0.0, value))


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
    """Offspring law of one agent type: ``support``/``mass`` is the law of
    the potential-children vector over the ``2 * n_systems`` types, and
    ``thinning[j]`` the probability that a type-j potential child fails.
    The children vector is its coordinatewise binomial thinning; with
    thinning one it is the potential-children vector itself.

    Support vectors are zero outside the coordinates a failing agent of
    ``origin_type`` can produce. Rows are kept in the order given, repeats
    included: that order fixes every generating-function sum.
    """

    origin_type: int
    n_systems: int
    support: np.ndarray
    mass: np.ndarray
    thinning: np.ndarray

    def __post_init__(self):
        n = self.n_systems
        if n < 2:
            raise PmfError("a law needs n_systems >= 2")
        support = np.array(self.support, dtype=np.int64)
        mass = np.array(self.mass, dtype=np.float64)
        thinning = np.array(self.thinning, dtype=np.float64)
        if support.ndim != 2 or support.shape[1] != 2 * n:
            raise PmfError(f"children vectors must have length {2 * n}")
        if mass.shape != support.shape[:1]:
            raise PmfError("support and mass must have identical length")
        if thinning.shape != (2 * n,):
            raise PmfError(f"thinning must have shape ({2 * n},)")
        if not 0 <= self.origin_type < 2 * n:
            raise PmfError("origin_type out of range")
        if support.min(initial=0) < 0 or mass.min(initial=0.0) < 0.0:
            raise PmfError("negative entries")
        if not (thinning.min() >= 0.0 and thinning.max() <= 1.0):
            raise PmfError("thinning probabilities must lie in [0, 1]")
        allowed = allowed_child_types(self.origin_cs, n)
        forbidden = [j for j in range(2 * n) if j not in allowed]
        if support[:, forbidden].any():
            raise PmfError(
                f"type {self.origin_type} children must vanish outside {sorted(allowed)}"
            )
        if abs(mass.sum() - 1.0) > CHILDREN_MASS_TOL:
            raise PmfError(f"children masses sum to {mass.sum()!r}, expected 1")
        object.__setattr__(self, "support", _frozen(support))
        object.__setattr__(self, "mass", _frozen(mass))
        object.__setattr__(self, "thinning", _frozen(thinning))

    @property
    def origin_cs(self) -> int:
        return self.origin_type % self.n_systems

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

    def as_dict(self) -> dict[tuple, float]:
        return {tuple(int(x) for x in v): float(m) for v, m in zip(self.support, self.mass)}

    def children(self) -> "OffspringLaw":
        """Enumerate the thinned law: the same law with thinning one, on
        distinct lexsorted children vectors."""
        acc: dict[tuple, float] = {}
        for d, m in zip(self.support, self.mass):
            if m == 0.0:
                continue
            try:
                rows = [_binomial_row(int(k), q) for k, q in zip(d, self.thinning)]
            except OverflowError:
                raise SupportExplosionError(
                    f"degree {int(d.max())} is too large to enumerate exactly"
                ) from None
            for combo in product(*(range(int(k) + 1) for k in d)):
                weight = float(m)
                for row, k in zip(rows, combo):
                    weight *= row[k]
                if weight == 0.0:
                    continue
                acc[combo] = acc.get(combo, 0.0) + weight
                if len(acc) > MAX_SUPPORT_POINTS:
                    raise SupportExplosionError(f"more than {MAX_SUPPORT_POINTS} support points")
        support = np.array(list(acc), dtype=np.int64).reshape(len(acc), self.n_types)
        mass = np.array(list(acc.values()), dtype=np.float64)
        order = np.lexsort(support.T[::-1])
        return OffspringLaw(
            self.origin_type, self.n_systems, support[order], mass[order], np.ones(self.n_types)
        )


def offspring_law(model: SystemModel, origin_type: int) -> OffspringLaw:
    """Closed-form offspring law of one type, without enumeration: degree
    coordinate ``cs`` of a CS-``cs`` agent becomes type ``n + cs``, and the
    infected type loses the internal neighbor that infected it."""
    n = model.n_systems
    if not 0 <= origin_type < 2 * n:
        raise IndexError(f"origin_type {origin_type} out of range")
    if origin_type >= n:
        return _infected(offspring_law(model, origin_type - n))
    joint = model.degree_dists[origin_type]
    cols = [n + origin_type if j == origin_type else j for j in range(n)]
    support = np.zeros((joint.n_points, 2 * n), dtype=np.int64)
    support[:, cols] = joint.support
    thinning = np.zeros(2 * n)
    thinning[cols] = thinning_probabilities(model, origin_type)
    return OffspringLaw(origin_type, n, support, joint.mass, thinning)


def _infected(fresh: OffspringLaw) -> OffspringLaw:
    """The infected type's law from its CS's fresh law: one internal
    potential child fewer, the same thinning."""
    n, internal = fresh.n_systems, fresh.n_systems + fresh.origin_type
    support = fresh.support.copy()
    support[:, internal] = np.maximum(support[:, internal] - 1, 0)
    return OffspringLaw(internal, n, support, fresh.mass, fresh.thinning)


def offspring_laws(model: SystemModel) -> list[OffspringLaw]:
    """All ``2 * n_systems`` closed-form offspring laws, indexed by type;
    each CS's thinning is computed once, for both of its types."""
    fresh = [offspring_law(model, cs) for cs in range(model.n_systems)]
    return fresh + [_infected(law) for law in fresh]


def build_children(model: SystemModel) -> list[OffspringLaw]:
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
