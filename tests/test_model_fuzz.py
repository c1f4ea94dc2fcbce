"""Seeded mutation fuzzing of the bundled model files.

Each mutant of a fixture changes one thing: one number becomes NaN, +-inf, a
400-digit integer, ``true`` or a string; one object key is dropped or
written twice; or the file is cut short. ``validate``, ``solve``,
``compare`` and ``orders --relation idcv`` must each exit 0, 1 or 2 on every
mutant without a traceback, and every mutant that validates must solve.
"""

import json

import numpy as np
import pytest

from cascade_lab.cli import main
from cascade_lab.modelio import fixture_path

FIXTURES = ("example1_p1", "example1_p2", "example2_p3", "demo_ns3")
REPLACEMENTS = ("NaN", "Infinity", "-Infinity", "1" + "0" * 400, "true", '"0.5"')
SECTIONS = ("degree_dists", "infection", "vulnerability")
HOLE = '"\\u0000"'  # json.dumps of the placeholder string "\x00"


def _walk(node, path=()):
    """(numbers, keys): the paths of every number (bools excluded) and of
    every object key in a parsed document."""
    numbers, keys = [], []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, dict):
            keys.append(path + (key,))
        if isinstance(value, (dict, list)):
            inner = _walk(value, path + (key,))
            numbers += inner[0]
            keys += inner[1]
        elif type(value) in (int, float):
            numbers.append(path + (key,))
    return numbers, keys


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replace(doc, path, raw: str) -> str:
    """The JSON text of ``doc`` with the value at ``path`` written as ``raw``."""
    if not path:
        return raw
    doc = json.loads(json.dumps(doc))
    _node(doc, path[:-1])[path[-1]] = "\x00"
    return json.dumps(doc).replace(HOLE, raw)


def mutants(name: str, seed: int):
    """(label, text) of every mutant of one fixture."""
    text = fixture_path(name).read_text()
    doc = json.loads(text)
    numbers, keys = _walk(doc)
    rng = np.random.default_rng(seed)
    # Numbers from each section, so that masses, degrees, transmission
    # probabilities and vulnerability parameters are all hit.
    for section in SECTIONS:
        pool = [path for path in numbers if path[0] == section]
        for k in rng.choice(len(pool), size=min(3, len(pool)), replace=False):
            for raw in REPLACEMENTS:
                yield f"{pool[k]} = {raw[:12]}", _replace(doc, pool[k], raw)
    for k in rng.choice(len(keys), size=4, replace=False):
        *where, key = keys[k]
        node = _node(doc, where)
        rest = {other: value for other, value in node.items() if other != key}
        yield f"drop {keys[k]}", _replace(doc, where, json.dumps(rest))
        pairs = [*node.items(), (key, node[key])]
        twice = ", ".join(f"{json.dumps(a)}: {json.dumps(b)}" for a, b in pairs)
        yield f"twice {keys[k]}", _replace(doc, where, "{" + twice + "}")
    for cut in rng.integers(1, len(text), size=3):
        yield f"cut at {cut}", text[:cut]


@pytest.mark.parametrize("seed, name", list(enumerate(FIXTURES)))
def test_mutants_exit_cleanly(tmp_path, capsys, seed, name):
    original = str(fixture_path(name))
    for label, text in mutants(name, seed):
        path = tmp_path / "mutant.json"
        path.write_text(text)
        mutant = str(path)
        codes = {}
        for argv in (
            ["validate", mutant],
            ["solve", mutant],
            ["compare", mutant, original],
            ["orders", mutant, original, "--relation", "idcv"],
        ):
            codes[argv[0]] = main(argv)
            err = capsys.readouterr().err
            assert codes[argv[0]] in (0, 1, 2), (label, argv[0])
            assert "Traceback" not in err, (label, argv[0])
        if codes["validate"] == 0:
            assert codes["solve"] == 0, label
