"""Model files, fixtures, and the command-line interface."""

import json

import numpy as np
import pytest

from cascade_lab import JointPmf
from cascade_lab.cli import main
from cascade_lab.modelio import (
    ModelFormatError,
    ModelValidationError,
    fixture_path,
    load_fixture,
    load_model,
    save_model,
    serialize_model,
)
from cascade_lab.pmf import joints_equal

from conftest import TABLE_P1, TABLE_P2, TABLE_P3, mirrored


class TestFixtures:
    @pytest.mark.parametrize(
        "name, table",
        [("example1_p1", TABLE_P1), ("example1_p2", TABLE_P2), ("example2_p3", TABLE_P3)],
    )
    def test_bundled_tables_match(self, name, table):
        model = load_fixture(name)
        assert model.mode == "children"
        assert joints_equal(model.degree_dists[0], JointPmf.from_dict(table), tol=1e-15)
        assert joints_equal(
            model.degree_dists[1], JointPmf.from_dict(mirrored(table)), tol=1e-15
        )
        assert model.infection[0, 1] == 1.0

    def test_ns3_demo_loads_and_is_degree_mode(self):
        model = load_fixture("demo_ns3")
        assert model.n_systems == 3
        assert model.mode == "degree"

    def test_children_serialize_to_entries_document(self, model_p1):
        from cascade_lab.children import build_children

        h = build_children(model_p1)[0]
        doc = h.to_document()
        assert doc["origin_type"] == 0
        assert json.dumps(doc)  # JSON-able
        total = sum(mass for _, mass in doc["entries"])
        assert total == pytest.approx(1.0, abs=1e-10)


class TestRoundTrip:
    def test_serialize_load_identity(self, tmp_path, model_p1, analog_model):
        for model in (model_p1, analog_model):
            path = tmp_path / "m.json"
            save_model(model, path)
            back = load_model(path)
            assert back.n_systems == model.n_systems
            assert back.internal_degree_floor == model.internal_degree_floor
            for a, b in zip(back.degree_dists, model.degree_dists):
                assert joints_equal(a, b, tol=0.0)
            off = ~np.eye(model.n_systems, dtype=bool)
            assert np.array_equal(back.infection[off], model.infection[off])
            for pa, pb in zip(back.vulnerability, model.vulnerability):
                assert pa == pb


class TestLoadErrors:
    def test_mass_sum_violation(self, tmp_path):
        doc = serialize_model(load_fixture("example1_p1"))
        doc["degree_dists"][0]["entries"][0][1] = 0.3  # was 0.4
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelValidationError) as err:
            load_model(path)
        assert "mass-sum" in err.value.report.codes()

    def test_missing_infection_entry(self, tmp_path):
        doc = serialize_model(load_fixture("example1_p1"))
        doc["infection"][0][1] = None
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert any("infection[0][1]" in issue for issue in err.value.issues)

    def test_json_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n_systems": 2,,}')
        with pytest.raises(json.JSONDecodeError) as err:
            load_model(path)
        assert err.value.lineno == 1

    def test_every_structural_issue_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "n_systems": 2,
                    "mode": "nonsense",
                    "degree_dists": [{"entries": [[[0], 1.0]]}, {"entries": []}],
                    "infection": [[None, 1.0]],
                    "vulnerability": [{"kind": "mystery"}],
                }
            )
        )
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        text = " ".join(err.value.issues)
        assert "mode" in text and "degree_dists[0]" in text and "infection" in text


class TestCli:
    def test_validate_ok(self, capsys):
        assert main(["validate", str(fixture_path("example1_p1"))]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_reports_violations(self, tmp_path, capsys):
        doc = serialize_model(load_fixture("example1_p1"))
        doc["degree_dists"][0]["entries"][0][1] = 0.3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        assert "mass-sum" in capsys.readouterr().out

    def test_solve_example1_json(self, capsys):
        assert main(["solve", str(fixture_path("example1_p1")), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["poe"] == pytest.approx([0.9646, 0.9646, 0.9761, 0.9761], abs=5e-4)
        assert report["pocf_per_cs"] == pytest.approx([0.0354, 0.0354], abs=5e-4)
        assert report["spectral_radius"] == pytest.approx(1.021, abs=1e-3)
        assert report["positively_regular"] is True

    def test_solve_example2_p3(self, capsys):
        assert main(["solve", str(fixture_path("example2_p3")), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pocf_per_cs"][0] == pytest.approx(0.0396, abs=5e-4)

    def test_solve_subcritical_banner(self, tmp_path, capsys):
        doc = serialize_model(load_fixture("example1_p1"))
        doc["infection"] = [[None, 0.4], [0.4, None]]
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert "subcritical" in out

    def test_compare_confirms_variability_direction(self, capsys):
        assert (
            main(
                [
                    "compare",
                    str(fixture_path("example1_p1")),
                    str(fixture_path("example1_p2")),
                    "--json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        by_name = {h["hypothesis"]: h for h in report["hypotheses"]}
        ssd = next(h for name, h in by_name.items() if "increasing-concave" in name and "independent" in name)
        assert ssd["holds"] and ssd["implication_observed"]
        assert np.all(np.array(report["poe_b"]) <= np.array(report["poe_a"]) + 1e-9)

    def test_compare_example2_concordance(self, capsys):
        assert (
            main(
                [
                    "compare",
                    str(fixture_path("example1_p2")),
                    str(fixture_path("example2_p3")),
                    "--json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        sm = next(h for h in report["hypotheses"] if "supermodular" in h["hypothesis"])
        assert sm["holds"] and sm["implication_observed"]

    def test_compare_model_with_itself(self, capsys):
        path = str(fixture_path("example2_p3"))
        assert main(["compare", path, path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["poe_a"] == report["poe_b"]
        for h in report["hypotheses"]:
            if "independent" in h["hypothesis"]:
                continue  # p3 is deliberately dependent
            assert h["holds"], h["hypothesis"]
            assert h["implication_observed"]

    def test_orders_command(self, capsys):
        assert (
            main(
                [
                    "orders",
                    str(fixture_path("example1_p2")),
                    str(fixture_path("example2_p3")),
                    "--relation",
                    "concordance",
                    "--json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert all(r["outcome"] == "holds" for r in report["results"])

    def test_simulate_bp_deterministic_output(self, capsys):
        argv = [
            "simulate-bp",
            str(fixture_path("example1_p1")),
            "--trials",
            "300",
            "--seed",
            "7",
            "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["rng_seed"] == 7

    def test_simulate_graph_with_csv(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        argv = [
            "simulate-graph",
            str(fixture_path("example1_p1")),
            "--sizes",
            "400,400",
            "--trials",
            "12",
            "--seed",
            "3",
            "--json",
            "--output",
            str(out),
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 12
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# rng_seed,3")
        assert len(lines) == 14  # seed row + header + 12 trials
        assert main(argv) == 0
        capsys.readouterr()
        assert out.read_text().strip().splitlines() == lines

    def test_zero_trials_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "simulate-bp",
                    str(fixture_path("example1_p1")),
                    "--trials",
                    "0",
                ]
            )
        assert err.value.code == 2

    def test_missing_file_is_runtime_error(self, capsys):
        assert main(["solve", "does-not-exist.json"]) == 2

    def test_invalid_model_exit_code(self, tmp_path, capsys):
        doc = serialize_model(load_fixture("example1_p1"))
        doc["degree_dists"][0]["entries"][0][1] = 0.3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 1


def table_coverage_model():
    """Table profile covering internal degrees {2, 3} only; the model
    validates, but stub erasure in a finite graph leaves agents with realized
    internal degree 1."""
    from cascade_lab import SystemModel, VulnerabilityProfile
    from cascade_lab.pmf import MarginalPmf, product_pmf

    internal = MarginalPmf(np.array([2, 3]), np.array([0.5, 0.5]))
    external = MarginalPmf(np.array([0, 1]), np.array([0.5, 0.5]))
    table = VulnerabilityProfile(kind="table", table={2: 0.4, 3: 0.3})
    return SystemModel(
        degree_dists=(product_pmf(internal, external), product_pmf(external, internal)),
        infection=[[np.nan, 0.5], [0.5, np.nan]],
        vulnerability=(table, table),
        internal_degree_floor=True,
    )


class TestProfileCoverage:
    def test_simulate_graph_exits_2_with_message(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        save_model(table_coverage_model(), path)
        argv = ["simulate-graph", str(path), "--sizes", "2000,2000", "--trials", "5",
                "--seed", "1", "--json"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "does not cover internal degree" in err
        assert "Traceback" not in err

    def test_compare_reports_risk_shape_failure(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        save_model(table_coverage_model(), path)
        assert main(["compare", str(path), str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        dependence = report["hypotheses"][1]
        assert dependence["rows"][-1] == {"risk_shape_ok": False}
        assert dependence["holds"] is False

    def test_compare_names_uncovered_degree(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        save_model(table_coverage_model(), path)
        assert main(["compare", str(path), str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        failing = {(r["model"], r["cs"]) for r in report["risk_shape"]}
        assert failing == {("A", 0), ("A", 1), ("B", 0), ("B", 1)}
        for r in report["risk_shape"]:
            assert r["violated_at"] == 1
            assert "degree 1" in r["reason"]

    def test_compare_risk_shape_empty_on_fixtures(self, capsys):
        argv = ["compare", str(fixture_path("example1_p1")), str(fixture_path("example1_p2")),
                "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["risk_shape"] == []

    def test_scaling_check_names_uncovered_degree(self):
        from cascade_lab import check_vulnerability_scaling

        check = check_vulnerability_scaling(table_coverage_model().vulnerability[0], 20)
        assert not check.holds
        assert check.violated_at == 1
        assert "degree 1" in check.reason


class TestOrdersArguments:
    PAIR = [str(fixture_path("example1_p2")), str(fixture_path("example2_p3"))]

    @pytest.mark.parametrize("cs", ["-1", "2"])
    def test_cs_out_of_range(self, cs, capsys):
        assert main(["orders", *self.PAIR, "--relation", "idcv", "--cs", cs]) == 2
        assert "must be in [0, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["orders", "compare"])
    def test_grid_limit_must_be_positive(self, command):
        extra = ["--relation", "idcv"] if command == "orders" else []
        with pytest.raises(SystemExit) as err:
            main([command, *self.PAIR, *extra, "--grid-limit", "-5"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["orders", "compare"])
    def test_grid_limit_default(self, command):
        from cascade_lab.cli import build_parser
        from cascade_lab.orders import DEFAULT_GRID_LIMIT

        extra = ["--relation", "idcv"] if command == "orders" else []
        args = build_parser().parse_args([command, *self.PAIR, *extra])
        assert args.grid_limit == DEFAULT_GRID_LIMIT

    def test_lp_verdicts_report_bounds(self, capsys):
        assert main(["orders", *self.PAIR, "--relation", "idcv", "--json"]) == 0
        for row in json.loads(capsys.readouterr().out)["results"]:
            assert row["lower_bound"] <= row["upper_bound"]
            assert row["iterations"] > 0
            if row["outcome"] == "fails":
                assert row["upper_bound"] == row["witness"]["gap"]
        assert main(["orders", *self.PAIR, "--relation", "concordance", "--json"]) == 0
        for row in json.loads(capsys.readouterr().out)["results"]:
            assert row["lower_bound"] is None and row["iterations"] is None
