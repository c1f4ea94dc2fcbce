"""Command-line handling of repeated calls and of inputs that cannot be
read as a model or a run."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cascade_lab
from cascade_lab.cli import build_parser, main
from cascade_lab.modelio import ModelFormatError, fixture_path, load_fixture, load_model
from cascade_lab.simulate import estimate_epidemic_probability

PAIR = [str(fixture_path("example1_p2")), str(fixture_path("example2_p3"))]
SRC = str(Path(cascade_lab.__file__).resolve().parent.parent)


def test_repeated_calls_share_no_arguments(capsys):
    assert build_parser() is build_parser()
    assert main(["orders", *PAIR, "--relation", "concordance", "--cs", "0", "--json"]) == 0
    assert [r["cs"] for r in json.loads(capsys.readouterr().out)["results"]] == [0]
    assert main(["orders", *PAIR, "--relation", "concordance", "--json"]) == 0
    assert [r["cs"] for r in json.loads(capsys.readouterr().out)["results"]] == [0, 1]
    assert build_parser().parse_args(["orders", *PAIR, "--relation", "idcv"]).cs is None


def test_solve_directory_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_validate_directory_exits_2(tmp_path, capsys):
    assert main(["validate", str(fixture_path("example1_p1")), str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


class TestNonObjectDocument:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        return path

    def test_load_raises_format_error(self, path):
        with pytest.raises(ModelFormatError, match="must be a JSON object"):
            load_model(path)

    def test_solve_exits_1(self, path, capsys):
        assert main(["solve", str(path)]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    def test_validate_lists_format_error(self, path, capsys):
        assert main(["validate", str(path), "--json"]) == 1
        entry = json.loads(capsys.readouterr().out)[str(path)]
        assert entry == {"ok": False, "errors": ["model document must be a JSON object"]}


def test_validate_prints_tables_under_their_file(capsys):
    paths = [str(fixture_path("example1_p1")), str(fixture_path("demo_ns3"))]
    assert main(["validate", *paths]) == 0
    out = capsys.readouterr().out.splitlines()
    status = [out.index(f"{path}: valid") for path in paths]
    tables = [k for k, line in enumerate(out) if line.startswith("CS 0 degree pmf")]
    assert status[0] == 0 and len(tables) == 2
    assert status[0] < tables[0] < status[1] < tables[1]


def test_mass_sum_at_tolerance_edge_same_exit_code(tmp_path):
    """Masses written to sum to 1 - 1.000000000001e-12, whose double sum is
    within the 1e-12 tolerance: validate and solve both accept the file."""
    text = fixture_path("example1_p1").read_text()
    path = tmp_path / "edge.json"
    path.write_text(text.replace("0.0375", "0.03749999999899999998", 1))
    assert main(["validate", str(path)]) == 0
    assert main(["solve", str(path)]) == 0


@pytest.mark.parametrize("gamma", [1.5, 2.0, -0.1, math.nan])
def test_unreachable_gamma_rejected(gamma):
    with pytest.raises(ValueError, match="epidemic_fraction"):
        estimate_epidemic_probability(
            load_fixture("example1_p1"), (100, 100), epidemic_fraction=gamma, trials=1
        )


def test_unreachable_gamma_exits_2(capsys):
    argv = ["simulate-graph", str(fixture_path("example1_p1")), "--sizes", "100,100",
            "--trials", "1", "--gamma", "2"]
    assert main(argv) == 2
    assert "epidemic_fraction" in capsys.readouterr().err


def _edited_p1(tmp_path, edit) -> str:
    doc = json.loads(fixture_path("example1_p1").read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_compare_with_large_negative_exponent_exits_0(tmp_path, capsys):
    """phi = d ** 400 overflows a double at d = 20, where compare checks the
    aggregate-risk shape; phi saturates at 1 instead."""
    def edit(doc):
        doc["vulnerability"][0]["exponent"] = -400.0

    path = _edited_p1(tmp_path, edit)
    p1 = str(fixture_path("example1_p1"))
    for argv in (["compare", path, p1, "--json"], ["compare", p1, path, "--json"]):
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["risk_shape"] == []


class TestHugeDegree:
    """One CS-0 degree of 10**12: the LP box would hold 10**12 points and the
    increasing-concave walk as many levels."""

    @pytest.fixture
    def path(self, tmp_path):
        def edit(doc):
            doc["degree_dists"][0]["entries"][-1][0][0] = 10**12

        return _edited_p1(tmp_path, edit)

    def test_orders_idcv_reports_necessary_conditions(self, path, capsys):
        assert main(["orders", path, path, "--relation", "idcv", "--cs", "0", "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["results"]
        assert (row["outcome"], row["method"]) == ("inconclusive", "necessary-conditions")
        assert row["detail"].startswith("grid of 4000000000004 points exceeds limit 400")

    @pytest.mark.parametrize("first", [True, False])
    def test_compare_exits_0(self, path, first, capsys):
        p1 = str(fixture_path("example1_p1"))
        assert main(["compare", *((path, p1) if first else (p1, path)), "--json"]) == 0
        idcv = json.loads(capsys.readouterr().out)["hypotheses"][2]["rows"][0]
        assert idcv["method"] == "necessary-conditions"

    def test_orders_icv_with_huge_second_argument(self, path, capsys):
        p1 = str(fixture_path("example1_p1"))
        assert main(["orders", p1, path, "--relation", "icv", "--cs", "0", "--axis", "0"]) == 0
        assert "cs 0 axis 0: holds (exact)" in capsys.readouterr().out

    def test_simulate_graph_out_of_memory_exits_2(self, path):
        """The stub array of a 10**12 degree cannot be allocated: exit 2 with
        a message, under an address-space limit of 3 GB."""
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))\n"
            "from cascade_lab.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", script, "simulate-graph", path, "--sizes", "2000,2000"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("degree", [1030, 10**12])
def test_simulate_bp_degree_beyond_binomial_range_exits_2(tmp_path, degree, capsys):
    """From degree 1030 on, a binomial coefficient no longer fits a double,
    so the law cannot be enumerated: exit 2 naming the degree."""

    def edit(doc):
        doc["degree_dists"][0]["entries"][-1][0][0] = degree

    path = _edited_p1(tmp_path, edit)
    assert main(["simulate-bp", path, "--trials", "10"]) == 2
    assert capsys.readouterr().err == f"error: degree {degree} is too large to enumerate exactly\n"


def test_simulate_bp_degree_1029_runs(tmp_path, capsys):
    def edit(doc):
        doc["degree_dists"][0]["entries"][-1][0][0] = 1029

    assert main(["simulate-bp", _edited_p1(tmp_path, edit), "--trials", "10"]) == 0
    assert capsys.readouterr().out.startswith("extinction estimate")


def test_compare_means_one_millionth_apart_are_unequal(tmp_path, capsys):
    """Moving 1e-6 of CS-0 mass one internal degree up gives internal means
    1.0 and 1.000001: inside a relative tolerance of 1e-5, but not equal
    within ORDER_ATOL, so the equal-means idcv hypothesis cannot hold."""

    def edit(doc):
        entries = doc["degree_dists"][0]["entries"]
        assert entries[0][0] == [0, 0] and entries[4][0] == [1, 0]
        entries[0][1] -= 1e-6
        entries[4][1] += 1e-6

    path = _edited_p1(tmp_path, edit)
    assert main(["compare", str(fixture_path("example1_p1")), path, "--json"]) == 0
    idcv = json.loads(capsys.readouterr().out)["hypotheses"][2]
    assert idcv["rows"][-1]["means_equal"] is False
    assert idcv["holds"] is False


def test_utf8_model_file_under_ascii_locale(tmp_path):
    """A model file is UTF-8 JSON whatever the locale: a non-ASCII model name
    loads under the C locale with UTF-8 mode off."""
    doc = json.loads(fixture_path("example1_p1").read_text(encoding="utf-8"))
    doc["name"] = "Réseau α"
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    env = dict(
        os.environ,
        PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
        PYTHONUTF8="0",
        PYTHONCOERCECLOCALE="0",
        LC_ALL="C",
        PYTHONIOENCODING="utf-8",
    )
    script = "import sys\nfrom cascade_lab.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    for argv in (["solve", str(path)], ["solve", str(path), "--json"], ["validate", str(path)]):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr.decode("utf-8")
        if argv[-1] == "--json":
            assert json.loads(proc.stdout.decode("utf-8"))["model"] == "Réseau α"
