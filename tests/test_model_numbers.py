"""One rule for every number in a model file: a JSON number (never a bool or
a string) that is finite as a double; degrees are integers in [0, 2**63).
Anything else is a format error that names its field, and every command
exits 1 on it with a message instead of a traceback or a silent answer."""

import json
import math
import warnings

import pytest

from cascade_lab.cli import main
from cascade_lab.modelio import ModelFormatError, _number, fixture_path, load_model

BIG = "1" + "0" * 400

MASS = ("degree_dists", 0, "entries", 0, 1)
DEGREE = ("degree_dists", 0, "entries", 0, 0, 0)
INFECTION = ("infection", 0, 1)
SCALE = ("vulnerability", 0, "scale")
EXPONENT = ("vulnerability", 0, "exponent")
TABLE = ("vulnerability", 0)


def write_variant(tmp_path, path, raw: str):
    """example1_p1 with the value at ``path`` replaced by the JSON text ``raw``."""
    doc = json.loads(fixture_path("example1_p1").read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@@"
    file = tmp_path / "variant.json"
    file.write_text(json.dumps(doc).replace('"@@"', raw))
    return file


REFUSED = [
    (MASS, BIG, "degree_dists[0].entries[0] mass must be a finite number"),
    (MASS, "NaN", "degree_dists[0].entries[0] mass must be a finite number, got NaN"),
    (MASS, "true", "degree_dists[0].entries[0] mass must be a finite number, got true"),
    (MASS, '"0.4"', 'degree_dists[0].entries[0] mass must be a finite number, got "0.4"'),
    (INFECTION, BIG, "infection[0][1] must be a finite number, got 1000"),
    (INFECTION, "true", "infection[0][1] must be a finite number, got true"),
    (INFECTION, "NaN", "infection[0][1] must be a finite number, got NaN"),
    (SCALE, BIG, "vulnerability[0].scale must be a finite number"),
    (SCALE, '"0.5"', 'vulnerability[0].scale must be a finite number, got "0.5"'),
    (SCALE, "-Infinity", "vulnerability[0].scale must be a finite number, got -Infinity"),
    (EXPONENT, "NaN", "vulnerability[0].exponent must be a finite number, got NaN"),
    (EXPONENT, '"nan"', 'vulnerability[0].exponent must be a finite number, got "nan"'),
    (EXPONENT, '"inf"', 'vulnerability[0].exponent must be a finite number, got "inf"'),
    (EXPONENT, "Infinity", "vulnerability[0].exponent must be a finite number"),
    (EXPONENT, "null", "vulnerability[0].exponent must be a finite number, got null"),
    (DEGREE, BIG, "degree_dists[0]: degrees must be integers in [0, 2**63)"),
    (DEGREE, str(2**63), "degree_dists[0]: degrees must be integers in [0, 2**63)"),
    (DEGREE, "-1", "degree_dists[0]: support vectors must be nonnegative"),
    (DEGREE, str(-(2**63) - 1), "degree_dists[0]: degrees must be integers in [0, 2**63)"),
    (DEGREE, "true", "degree_dists[0]: degrees must be integers in [0, 2**63)"),
    (DEGREE, "0.0", "degree_dists[0]: degrees must be integers in [0, 2**63)"),
    (("name",), "3", "name must be a string"),
    (TABLE, '{"kind": "table", "table": {"01": 1.0}}', "keys ['01'] are not decimal degrees"),
    (TABLE, '{"kind": "table", "table": {" 1": 1.0}}', "not decimal degrees"),
    (TABLE, '{"kind": "table", "table": {"-1": 1.0}}', "not decimal degrees"),
    (TABLE, '{"kind": "table", "table": {"1": "1"}}', "vulnerability[0].table['1'] must be"),
    (MASS, "1" + "0" * 5000, "unreadable model file: Exceeds the limit (4300 digits)"),
]


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("path, raw, message", REFUSED)
def test_refused_with_message(tmp_path, capsys, command, path, raw, message):
    file = write_variant(tmp_path, path, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(file)]) == 1
    captured = capsys.readouterr()
    assert message in captured.out + captured.err
    assert "Traceback" not in captured.err


def test_text_that_is_not_utf8_is_a_format_error(tmp_path, capsys):
    file = tmp_path / "latin1.json"
    file.write_bytes(b'{"name": "caf\xe9"}')
    assert main(["solve", str(file)]) == 1
    assert "unreadable model file: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_validate_json_lists_format_error(tmp_path, capsys):
    file = write_variant(tmp_path, EXPONENT, "NaN")
    assert main(["validate", str(file), "--json"]) == 1
    entry = json.loads(capsys.readouterr().out)[str(file)]
    assert entry == {
        "ok": False,
        "errors": ["vulnerability[0].exponent must be a finite number, got NaN"],
    }


def test_every_issue_is_listed(tmp_path):
    doc = json.loads(fixture_path("example1_p1").read_text())
    doc["infection"][1][0] = True
    doc["vulnerability"][1]["scale"] = "0.5"
    doc["degree_dists"][1]["entries"][2][1] = math.inf
    file = tmp_path / "variant.json"
    file.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError) as err:
        load_model(file)
    assert [issue.split(" must")[0] for issue in err.value.issues] == [
        "degree_dists[1].entries[2] mass",
        "infection[1][0]",
        "vulnerability[1].scale",
    ]


def test_integer_masses_and_table_keys_load(tmp_path):
    """Integers are numbers too, and canonical decimal keys name degrees."""
    doc = json.loads(fixture_path("example1_p1").read_text())
    doc["infection"][0][1] = 1
    doc["vulnerability"][0] = {"kind": "table", "table": {str(d): 1 for d in range(12)}}
    file = tmp_path / "variant.json"
    file.write_text(json.dumps(doc))
    model = load_model(file)
    assert model.infection[0, 1] == 1.0
    assert model.vulnerability[0].table == {d: 1.0 for d in range(12)}


@pytest.mark.parametrize("value", [0, 1, 2.5, -3, 10**300, 1.7976931348623157e308])
def test_number_accepts_finite(value):
    issues = []
    assert _number(value, "x", issues) == float(value)
    assert issues == []


@pytest.mark.parametrize(
    "value", [True, False, None, "1", [1], {}, math.nan, math.inf, -math.inf, 10**400, 2**1024]
)
def test_number_refuses(value):
    issues = []
    assert _number(value, "x", issues) is None
    assert len(issues) == 1 and issues[0].startswith("x must be a finite number, got ")
