"""System model: per-CS degree laws, inter-CS infection matrix, vulnerability.

A ``SystemModel`` bundles everything the analytic pipeline needs: one joint
degree pmf per constituent system (CS), the inter-CS transmission
probabilities, and one vulnerability profile per CS giving the probability
that an agent with a given internal degree collapses when a single internal
neighbor fails.

Validation is report-based: objects with out-of-range data can be built and
inspected, and ``validate_model`` lists every violation instead of stopping
at the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .pmf import MASS_TOL, JointPmf, marginal

POWER_LAW = "power-law"
TABLE = "table"

MODE_DEGREE = "degree"
MODE_CHILDREN = "children"


class ProfileCoverageError(ValueError):
    """A table vulnerability profile was evaluated outside its table."""


@dataclass(frozen=True)
class VulnerabilityProfile:
    """Probability that an agent fails when one internal neighbor fails,
    as a function of its internal degree.

    Two kinds:
      * ``power-law``: scale * d**(-exponent), clamped to [0, 1];
      * ``table``: explicit degree -> probability map (must cover every
        internal degree it is evaluated at).
    """

    kind: str = POWER_LAW
    scale: float = 1.0
    exponent: float = 0.0
    table: Mapping[int, float] | None = None

    def __post_init__(self):
        if self.kind not in (POWER_LAW, TABLE):
            raise ValueError(f"unknown vulnerability kind {self.kind!r}")
        if self.kind == TABLE:
            if self.table is None:
                raise ValueError("table profile requires a table")
            object.__setattr__(
                self, "table", {int(k): float(v) for k, v in dict(self.table).items()}
            )

    def __call__(self, d: int) -> float:
        return min(1.0, max(0.0, self.raw(d)))

    def raw(self, d: int) -> float:
        """Table value without clamping (used by validation); power laws
        are clamped here already."""
        if d < 0:
            raise ValueError("degree must be nonnegative")
        if self.kind == TABLE:
            try:
                return self.table[int(d)]
            except KeyError:
                raise ProfileCoverageError(
                    f"vulnerability table does not cover internal degree {d}"
                ) from None
        if d == 0:
            # Degree-0 agents have no internal infection path; the value is
            # never used by the pipeline but must stay in [0, 1].
            value = self.scale if self.exponent == 0.0 else 1.0
        elif self.scale == 0.0:
            value = 0.0
        else:
            try:
                power = float(d) ** (-self.exponent)
            except OverflowError:
                # A large negative exponent: the clamp below saturates phi.
                power = math.inf
            value = self.scale * power
        return min(1.0, max(0.0, value))


def constant_profile(value: float = 1.0) -> VulnerabilityProfile:
    """phi(d) == value for every degree (power-law with exponent 0)."""
    return VulnerabilityProfile(kind=POWER_LAW, scale=value, exponent=0.0)


@dataclass(frozen=True)
class SystemModel:
    """Interdependent-system model with ``n_systems`` constituent systems.

    ``degree_dists[i]`` is the joint pmf of the degree vector of a CS-i agent
    (coordinate j counts its CS-j dependence neighbors; coordinate i is the
    internal degree). ``infection[i, j]`` is the probability that a failing
    CS-i agent takes down a given CS-j dependent (i != j; the diagonal is
    derived from the vulnerability profile and never read from this matrix).

    ``internal_degree_floor`` distinguishes the two input conventions:
      * degree mode (floor on): every agent has internal degree >= 1;
      * children mode (floor off): internal degree 0 is allowed.
    It only switches the ``degree-floor`` check. In both modes the offspring
    laws are binomial thinnings of the degrees; a fresh agent's offspring
    counts are its degree pmf exactly when every transmission probability
    and vulnerability value is 1.
    """

    degree_dists: tuple[JointPmf, ...]
    infection: np.ndarray
    vulnerability: tuple[VulnerabilityProfile, ...]
    internal_degree_floor: bool = True
    name: str = ""

    def __post_init__(self):
        dists = tuple(self.degree_dists)
        if len(dists) < 2:
            raise ValueError("a system model needs at least two constituent systems")
        n = len(dists)
        infection = np.array(self.infection, dtype=np.float64)
        if infection.shape != (n, n):
            raise ValueError(f"infection matrix must be {n}x{n}")
        infection = infection.copy()
        np.fill_diagonal(infection, np.nan)
        infection.setflags(write=False)
        profiles = tuple(self.vulnerability)
        if len(profiles) != n:
            raise ValueError("need one vulnerability profile per constituent system")
        object.__setattr__(self, "degree_dists", dists)
        object.__setattr__(self, "infection", infection)
        object.__setattr__(self, "vulnerability", profiles)

    @property
    def n_systems(self) -> int:
        return len(self.degree_dists)

    @property
    def mode(self) -> str:
        return MODE_DEGREE if self.internal_degree_floor else MODE_CHILDREN

    def internal_marginal(self, cs: int):
        return marginal(self.degree_dists[cs], cs)


@dataclass(frozen=True)
class Violation:
    code: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.where}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def validate_model(model: SystemModel) -> ValidationReport:
    """Check every model invariant and return the full list of violations.

    Codes: ``mass-sum`` (a pmf does not sum to 1), ``dimension`` (pmf
    dimension does not match the system count), ``infection-range``
    (off-diagonal transmission probability outside (0, 1]),
    ``degree-floor`` (internal degree 0 has positive mass in degree mode),
    ``phi-range`` (vulnerability value outside [0, 1] or missing table entry).
    """
    found: list[Violation] = []
    n = model.n_systems
    for i, pmf in enumerate(model.degree_dists):
        where = f"degree_dists[{i}]"
        if pmf.dimension != n:
            found.append(
                Violation("dimension", where, f"dimension {pmf.dimension}, expected {n}")
            )
            continue
        if not pmf.is_normalized():
            found.append(
                Violation("mass-sum", where, f"total mass {pmf.total_mass!r} != 1")
            )
        if model.internal_degree_floor:
            zero_mass = float(pmf.mass[pmf.support[:, i] == 0].sum())
            if zero_mass > MASS_TOL:
                found.append(
                    Violation(
                        "degree-floor",
                        where,
                        f"internal degree 0 has mass {zero_mass!r} but the floor is on",
                    )
                )
    infection = model.infection
    for i, j in np.argwhere(~((infection > 0.0) & (infection <= 1.0))):
        if i != j:
            detail = f"value {float(infection[i, j])!r} outside (0, 1]"
            found.append(Violation("infection-range", f"infection[{i}][{j}]", detail))
    for i, profile in enumerate(model.vulnerability):
        if model.degree_dists[i].dimension != n:
            continue
        degrees = np.unique(model.degree_dists[i].support[:, i])
        for d in degrees[degrees > 0].tolist():
            try:
                value = profile.raw(d)
            except ProfileCoverageError as exc:
                found.append(Violation("phi-range", f"vulnerability[{i}]", str(exc)))
                continue
            if not (0.0 <= value <= 1.0):
                found.append(
                    Violation(
                        "phi-range",
                        f"vulnerability[{i}]",
                        f"phi({d}) = {value!r} outside [0, 1]",
                    )
                )
    return ValidationReport(tuple(found))
