"""Model files: JSON load/save and the bundled example fixtures.

A model file holds ``n_systems``, a ``mode`` flag (``degree`` keeps the
internal-degree floor, ``children`` lifts it; both thin the degrees into
offspring laws), one sparse pmf per CS as ``[[degree-vector], mass]``
entries, the inter-CS infection matrix (diagonal ``null``), and one
vulnerability profile per CS. Numbers are read as doubles, and
``load_model`` always validates: each pmf's masses must sum to 1 within
``pmf.MASS_TOL`` (1e-12) in double precision.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from .model import (
    MODE_CHILDREN,
    MODE_DEGREE,
    SystemModel,
    ValidationReport,
    VulnerabilityProfile,
    validate_model,
)
from .pmf import JointPmf


class ModelFormatError(ValueError):
    """The file does not parse into a model; carries every issue found."""

    def __init__(self, issues: list[str]):
        super().__init__("; ".join(issues))
        self.issues = issues


class ModelValidationError(ValueError):
    """The file parsed but the model violates its invariants."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


def _parse_profile(raw, where: str, issues: list[str]) -> VulnerabilityProfile | None:
    if not isinstance(raw, dict) or "kind" not in raw:
        issues.append(f"{where}: expected an object with a 'kind' field")
        return None
    kind = raw["kind"]
    try:
        if kind == "power-law":
            return VulnerabilityProfile(
                kind="power-law",
                scale=float(raw.get("scale", 1.0)),
                exponent=float(raw.get("exponent", 0.0)),
            )
        if kind == "table":
            table = raw.get("table")
            if not isinstance(table, dict) or not table:
                issues.append(f"{where}: table profile needs a nonempty 'table' object")
                return None
            return VulnerabilityProfile(
                kind="table", table={int(k): float(v) for k, v in table.items()}
            )
    except (TypeError, ValueError) as exc:
        issues.append(f"{where}: {exc}")
        return None
    issues.append(f"{where}: unknown vulnerability kind {kind!r}")
    return None


def parse_model(document: dict) -> SystemModel:
    """Build a SystemModel from a parsed model document; raises
    ModelFormatError listing every structural issue."""
    if not isinstance(document, dict):
        raise ModelFormatError(["model document must be a JSON object"])
    issues: list[str] = []
    n = document.get("n_systems")
    if not isinstance(n, int) or n < 2:
        raise ModelFormatError(["n_systems must be an integer >= 2"])
    mode = document.get("mode", MODE_DEGREE)
    if mode not in (MODE_DEGREE, MODE_CHILDREN):
        issues.append(f"mode must be 'degree' or 'children', got {mode!r}")

    raw_dists = document.get("degree_dists")
    dists: list[JointPmf] = []
    if not isinstance(raw_dists, list) or len(raw_dists) != n:
        issues.append(f"degree_dists must be a list of {n} pmfs")
    else:
        for i, raw in enumerate(raw_dists):
            where = f"degree_dists[{i}]"
            entries = raw.get("entries") if isinstance(raw, dict) else None
            if not isinstance(entries, list) or not entries:
                issues.append(f"{where}: expected an object with a nonempty 'entries' list")
                continue
            support, mass = [], []
            for k, item in enumerate(entries):
                if (
                    not isinstance(item, list)
                    or len(item) != 2
                    or not isinstance(item[0], list)
                ):
                    issues.append(f"{where}.entries[{k}]: expected [[degrees...], mass]")
                    continue
                vec, m = item
                if len(vec) != n or not all(isinstance(d, int) and d >= 0 for d in vec):
                    issues.append(
                        f"{where}.entries[{k}]: degree vector must be {n} nonnegative integers"
                    )
                    continue
                if not isinstance(m, (int, float)):
                    issues.append(f"{where}.entries[{k}]: mass must be a number")
                    continue
                support.append(vec)
                mass.append(float(m))
            if not support:
                continue
            try:
                dists.append(JointPmf(np.array(support), np.array(mass)))
            except ValueError as exc:
                issues.append(f"{where}: {exc}")

    raw_infection = document.get("infection")
    infection = np.full((n, n), np.nan)
    if not isinstance(raw_infection, list) or len(raw_infection) != n:
        issues.append(f"infection must be a {n}x{n} matrix (diagonal null)")
    else:
        for i, row in enumerate(raw_infection):
            if not isinstance(row, list) or len(row) != n:
                issues.append(f"infection[{i}] must have {n} entries")
                continue
            for j, value in enumerate(row):
                if i == j:
                    continue
                if value is None:
                    issues.append(f"infection[{i}][{j}] is missing")
                elif isinstance(value, (int, float)):
                    infection[i, j] = float(value)
                else:
                    issues.append(f"infection[{i}][{j}] must be a number")

    raw_profiles = document.get("vulnerability")
    profiles: list[VulnerabilityProfile] = []
    if not isinstance(raw_profiles, list) or len(raw_profiles) != n:
        issues.append(f"vulnerability must be a list of {n} profiles")
    else:
        for i, raw in enumerate(raw_profiles):
            profile = _parse_profile(raw, f"vulnerability[{i}]", issues)
            if profile is not None:
                profiles.append(profile)

    if issues or len(dists) != n or len(profiles) != n:
        raise ModelFormatError(issues or ["incomplete model document"])
    return SystemModel(
        degree_dists=tuple(dists),
        infection=infection,
        vulnerability=tuple(profiles),
        internal_degree_floor=(mode == MODE_DEGREE),
        name=str(document.get("name", "")),
    )


def load_model(path: str | Path) -> SystemModel:
    """Load and validate a model file.

    Raises ModelFormatError for parse/shape problems (with every issue and
    its field path), ModelValidationError when the parsed model violates the
    invariants, and json.JSONDecodeError (with line/column) for broken JSON.
    """
    model = parse_model(json.loads(Path(path).read_text()))
    report = validate_model(model)
    if not report.ok:
        raise ModelValidationError(report)
    return model


def serialize_model(model: SystemModel) -> dict:
    """JSON-able document; load(serialize(m)) is semantically identical to m."""
    dists = []
    for pmf in model.degree_dists:
        entries = [
            [[int(x) for x in vec], float(m)] for vec, m in zip(pmf.support, pmf.mass)
        ]
        dists.append({"entries": entries})
    infection = [
        [None if i == j else float(model.infection[i, j]) for j in range(model.n_systems)]
        for i in range(model.n_systems)
    ]
    profiles = []
    for profile in model.vulnerability:
        if profile.kind == "power-law":
            profiles.append(
                {"kind": "power-law", "scale": profile.scale, "exponent": profile.exponent}
            )
        else:
            profiles.append(
                {"kind": "table", "table": {str(k): v for k, v in sorted(profile.table.items())}}
            )
    return {
        "name": model.name,
        "n_systems": model.n_systems,
        "mode": model.mode,
        "degree_dists": dists,
        "infection": infection,
        "vulnerability": profiles,
    }


def save_model(model: SystemModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(serialize_model(model), indent=2, sort_keys=True) + "\n")


def fixture_path(name: str) -> Path:
    """Path of a bundled example model (e.g. 'example1_p1')."""
    if not name.endswith(".json"):
        name = name + ".json"
    ref = resources.files("cascade_lab").joinpath("fixtures", name)
    with resources.as_file(ref) as concrete:
        return Path(concrete)


def load_fixture(name: str) -> SystemModel:
    return load_model(fixture_path(name))
