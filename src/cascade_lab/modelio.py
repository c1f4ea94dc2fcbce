"""Model files: JSON load/save and the bundled example fixtures.

A model file holds ``n_systems``, a ``mode`` flag (``degree`` keeps the
internal-degree floor, ``children`` lifts it; both thin the degrees into
offspring laws), one sparse pmf per CS as ``[[degree-vector], mass]``
entries, the inter-CS infection matrix (diagonal ``null``), and one
vulnerability profile per CS. Degrees are integers in [0, 2**63). Every
other number is a JSON number that is finite as a double: NaN, +-inf, bools,
strings and integers beyond double range are format errors. ``load_model``
always validates: each pmf's masses must sum to 1 within ``pmf.MASS_TOL``
(1e-12) in double precision. Files are read and written as UTF-8, as JSON
requires, whatever the locale.
"""

from __future__ import annotations

import json
import math
import re
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from .model import (
    MODE_CHILDREN,
    MODE_DEGREE,
    POWER_LAW,
    TABLE,
    SystemModel,
    ValidationReport,
    VulnerabilityProfile,
    validate_model,
)
from .pmf import JointPmf

# A vulnerability table key: one degree in canonical decimal, below 2**63.
_DEGREE_KEY = re.compile(r"0|[1-9][0-9]{0,17}")


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


def _number(value, where: str, issues: list[str]) -> float | None:
    """The double that a JSON number denotes, or None after recording an
    issue. Bools, strings and other JSON values are not numbers; NaN, +-inf
    and integers beyond double range are not finite."""
    if type(value) in (int, float):
        try:
            if math.isfinite(number := float(value)):
                return number
        except OverflowError:
            pass
    text = json.dumps(value)
    text = text if len(text) <= 40 else text[:37] + "..."
    issues.append(f"{where} must be a finite number, got {text}")
    return None


def _parse_pmf(raw, n: int, where: str, issues: list[str]) -> JointPmf | None:
    entries = raw.get("entries") if isinstance(raw, dict) else None
    if not isinstance(entries, list) or not entries:
        issues.append(f"{where}: expected an object with a nonempty 'entries' list")
        return None
    count, vectors, masses = len(issues), [], []
    for k, item in enumerate(entries):
        if isinstance(item, list) and len(item) == 2 and _is_list(item[0], n):
            vectors.append(item[0])
            masses.append(_number(item[1], f"{where}.entries[{k}] mass", issues))
        else:
            issues.append(f"{where}.entries[{k}]: expected [[{n} degrees], mass]")
    if len(vectors) < len(entries):
        return None
    # One type check (exactly int: no bools, floats or strings), then one
    # array, which is int64 unless a degree lies outside that range.
    ints = set(map(type, chain.from_iterable(vectors))) == {int}
    support = np.array(vectors) if ints else None
    if support is None or support.dtype != np.int64:
        issues.append(f"{where}: degrees must be integers in [0, 2**63)")
    if len(issues) > count:
        return None
    try:
        return JointPmf(support, np.array(masses))
    except ValueError as exc:
        issues.append(f"{where}: {exc}")
        return None


def _parse_profile(raw, where: str, issues: list[str]) -> VulnerabilityProfile | None:
    if not isinstance(raw, dict) or "kind" not in raw:
        issues.append(f"{where}: expected an object with a 'kind' field")
        return None
    kind, count = raw["kind"], len(issues)
    if kind == POWER_LAW:
        scale = _number(raw.get("scale", 1.0), f"{where}.scale", issues)
        exponent = _number(raw.get("exponent", 0.0), f"{where}.exponent", issues)
        return VulnerabilityProfile(POWER_LAW, scale, exponent) if len(issues) == count else None
    if kind == TABLE:
        table = raw.get("table")
        if not isinstance(table, dict) or not table:
            issues.append(f"{where}: table profile needs a nonempty 'table' object")
            return None
        values = {k: _number(v, f"{where}.table[{k!r}]", issues) for k, v in table.items()}
        if bad := [key[:40] for key in table if not _DEGREE_KEY.fullmatch(key)]:
            issues.append(f"{where}.table: keys {bad} are not decimal degrees")
        if len(issues) > count:
            return None
        return VulnerabilityProfile(kind=TABLE, table=values)
    issues.append(f"{where}: unknown vulnerability kind {kind!r}")
    return None


def _is_list(value, n: int) -> bool:
    return isinstance(value, list) and len(value) == n


def parse_model(document: dict) -> SystemModel:
    """Build a SystemModel from a parsed model document; raises
    ModelFormatError listing every structural issue."""
    if not isinstance(document, dict):
        raise ModelFormatError(["model document must be a JSON object"])
    n = document.get("n_systems")
    if type(n) is not int or n < 2:
        raise ModelFormatError(["n_systems must be an integer >= 2"])
    issues: list[str] = []

    def section(key: str, items: str) -> list:
        if _is_list(value := document.get(key), n):
            return value
        issues.append(f"{key} must be a list of {n} {items}")
        return []

    mode = document.get("mode", MODE_DEGREE)
    if mode not in (MODE_DEGREE, MODE_CHILDREN):
        issues.append(f"mode must be 'degree' or 'children', got {mode!r}")
    if not isinstance(name := document.get("name", ""), str):
        issues.append("name must be a string")
    raw_dists = section("degree_dists", "pmfs")
    dists = [_parse_pmf(raw, n, f"degree_dists[{i}]", issues) for i, raw in enumerate(raw_dists)]
    rows = document.get("infection")
    if not (_is_list(rows, n) and all(_is_list(row, n) for row in rows)):
        issues.append(f"infection must be a {n}x{n} matrix (diagonal null)")
        rows = []
    infection = [
        [math.nan if i == j else _number(value, f"infection[{i}][{j}]", issues)
         for j, value in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    raw_vuln = section("vulnerability", "profiles")
    profiles = [_parse_profile(p, f"vulnerability[{i}]", issues) for i, p in enumerate(raw_vuln)]
    if issues:
        raise ModelFormatError(issues)
    return SystemModel(
        degree_dists=tuple(dists),
        infection=infection,
        vulnerability=tuple(profiles),
        internal_degree_floor=(mode == MODE_DEGREE),
        name=name,
    )


def load_model(path: str | Path) -> SystemModel:
    """Load and validate a model file.

    Raises ModelFormatError for parse/shape problems (with every issue and
    its field path), ModelValidationError when the parsed model violates the
    invariants, and json.JSONDecodeError (with line/column) for broken JSON.
    OSError from reading the file passes through.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # text that is not UTF-8, or an over-long integer literal
        raise ModelFormatError([f"unreadable model file: {str(exc).split(';')[0]}"]) from None
    model = parse_model(document)
    report = validate_model(model)
    if not report.ok:
        raise ModelValidationError(report)
    return model


def serialize_model(model: SystemModel) -> dict:
    """JSON-able document; load(serialize(m)) is semantically identical to m."""
    dists = [
        {"entries": [[v, m] for v, m in zip(pmf.support.tolist(), pmf.mass.tolist())]}
        for pmf in model.degree_dists
    ]
    infection = model.infection.tolist()
    for i, row in enumerate(infection):
        row[i] = None
    profiles = [
        {"kind": POWER_LAW, "scale": p.scale, "exponent": p.exponent}
        if p.kind == POWER_LAW
        else {"kind": TABLE, "table": {str(k): v for k, v in sorted(p.table.items())}}
        for p in model.vulnerability
    ]
    return {
        "name": model.name,
        "n_systems": model.n_systems,
        "mode": model.mode,
        "degree_dists": dists,
        "infection": infection,
        "vulnerability": profiles,
    }


def save_model(model: SystemModel, path: str | Path) -> None:
    text = json.dumps(serialize_model(model), indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def fixture_path(name: str) -> Path:
    """Path of a bundled example model (e.g. 'example1_p1')."""
    if not name.endswith(".json"):
        name = name + ".json"
    ref = resources.files("cascade_lab").joinpath("fixtures", name)
    with resources.as_file(ref) as concrete:
        return Path(concrete)


def load_fixture(name: str) -> SystemModel:
    return load_model(fixture_path(name))
