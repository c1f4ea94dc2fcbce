"""The default Laplace-transform grid spans only the coordinates the laws use."""

import json
from itertools import product

import numpy as np
import pytest

from cascade_lab import JointPmf, SystemModel, constant_profile, offspring_laws
from cascade_lab.cli import main
from cascade_lab.modelio import load_fixture, save_model
from cascade_lab.orders import FAILS, HOLDS, compare_lt, default_lt_grid

FIXTURES = ("example1_p1", "example1_p2", "example2_p3", "demo_ns3")
SAME_SIZE_PAIRS = [
    (a, b)
    for a, b in product(FIXTURES, repeat=2)
    if (a == "demo_ns3") == (b == "demo_ns3")
]


def uniform_model(n: int) -> SystemModel:
    """Degree mode, every law uniform on {1, 2}^n, infection 0.25, phi 0.5."""
    points = list(product((1, 2), repeat=n))
    law = JointPmf(np.array(points), np.full(len(points), 1.0 / len(points)))
    return SystemModel(
        degree_dists=(law,) * n,
        infection=np.full((n, n), 0.25),
        vulnerability=(constant_profile(0.5),) * n,
        name=f"uniform_n{n}",
    )


class TestLiveAxes:
    @pytest.mark.parametrize("a, b", SAME_SIZE_PAIRS)
    def test_default_grid_matches_full_grid(self, a, b):
        laws_a = offspring_laws(load_fixture(a))
        laws_b = offspring_laws(load_fixture(b))
        for x, y in zip(laws_a, laws_b):
            full = compare_lt(x, y, s_grid=default_lt_grid(x.support.shape[1]))
            live = compare_lt(x, y)
            assert live.outcome == full.outcome
            assert live.witness == full.witness

    def test_failing_rows_exist(self):
        laws_a = offspring_laws(load_fixture("example1_p2"))
        laws_b = offspring_laws(load_fixture("example1_p1"))
        outcomes = [compare_lt(x, y).outcome for x, y in zip(laws_a, laws_b)]
        assert FAILS in outcomes

    def test_grid_size_in_detail(self):
        law = offspring_laws(load_fixture("example1_p1"))[0]
        # A CS-0 law has children of two of the four types: 6 ** 2 points.
        assert "36-point grid" in compare_lt(law, law).detail

    def test_zero_support_laws_hold(self):
        zero = JointPmf(np.zeros((1, 3), dtype=np.int64), np.array([1.0]))
        verdict = compare_lt(zero, zero)
        assert verdict.outcome == HOLDS
        assert "1-point grid" in verdict.detail


class TestWideCompare:
    def test_n5_compare_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "m5.json"
        save_model(uniform_model(5), path)
        assert main(["compare", str(path), str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        lt_rows = report["hypotheses"][-1]["rows"]
        assert len(lt_rows) == 10
        assert all(r["outcome"] == HOLDS for r in lt_rows)

