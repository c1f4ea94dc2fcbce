"""Verdicts past ``grid_limit`` name the necessary-condition method: nothing
was certified, exactly or by LP."""

import json

import numpy as np
import pytest

from cascade_lab.cli import main
from cascade_lab.modelio import fixture_path, load_fixture
from cascade_lab.orders import (
    EXACT,
    INCONCLUSIVE,
    LP_CERTIFIED,
    NECESSARY_CONDITIONS,
    certify_idcv,
    certify_supermodular,
)

from conftest import random_joint


@pytest.mark.parametrize("certify", [certify_supermodular, certify_idcv])
@pytest.mark.parametrize("dimension", [3, 4])
def test_library_verdict_past_grid_limit(certify, dimension):
    rng = np.random.default_rng(40 + dimension)
    x = random_joint(rng, dimension, dependent=True, max_degree=3)
    y = random_joint(rng, dimension, dependent=True, max_degree=3)
    verdict = certify(x, y, grid_limit=8)
    assert verdict.outcome == INCONCLUSIVE
    assert verdict.method == NECESSARY_CONDITIONS
    assert "exceeds limit 8" in verdict.detail
    assert verdict.to_dict()["method"] == "necessary-conditions"


@pytest.mark.parametrize("certify", [certify_supermodular, certify_idcv])
def test_library_verdict_within_grid_limit_is_lp_certified(certify):
    x = load_fixture("demo_ns3").degree_dists[0]
    assert certify(x, x).method == LP_CERTIFIED


@pytest.mark.parametrize("relation", ["supermodular", "idcv"])
def test_cli_verdict_past_grid_limit(relation, capsys):
    path = str(fixture_path("demo_ns3"))
    argv = ["orders", path, path, "--relation", relation, "--cs", "0", "--grid-limit", "8",
            "--json"]
    assert main(argv) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results and all(r["outcome"] == INCONCLUSIVE for r in results)
    assert all(r["method"] == NECESSARY_CONDITIONS for r in results)
    assert all(r["method"] != EXACT for r in results)
