"""The finite-graph generator against the reference bookkeeping it replaced,
and the erasure diagnostics that ``simulate-graph --json`` reports."""

import json

import numpy as np
import pytest

from cascade_lab import JointPmf, SystemModel, constant_profile
from cascade_lab.cli import main
from cascade_lab.modelio import fixture_path, load_fixture
from cascade_lab.simulate import _trial_seed, estimate_epidemic_probability, generate_system_graph

import reference_graph

ARRAYS = (
    "offsets", "cs_of", "degree_vectors", "internal_indptr", "internal_indices",
    "external_indptr", "external_indices", "infection", "security", "vulnerable",
)


def crowded_model(external: dict) -> SystemModel:
    """CS-0 agents with the given external-degree law into a small CS 1,
    whose agents depend on nobody."""
    return SystemModel(
        degree_dists=(
            JointPmf.from_dict({(1, d): m for d, m in external.items()}),
            JointPmf.from_dict({(1, 0): 1.0}),
        ),
        infection=[[np.nan, 0.5], [0.5, np.nan]],
        vulnerability=(constant_profile(0.5),) * 2,
    )


def assert_same_system(model, sizes, seed):
    """The library's graph equals the reference's; returns the reference's
    path statistics."""
    ours = generate_system_graph(model, sizes, seed)
    theirs, stats = reference_graph.generate_system_graph(model, sizes, seed)
    for name in ARRAYS:
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert ours.erasure == theirs.erasure
    assert ours.sizes == theirs.sizes and ours.rng_seed == theirs.rng_seed
    return stats


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("sizes", [(300, 300), (2000, 1500)])
def test_analog_matches_reference(analog_model, sizes, seed):
    assert_same_system(analog_model, sizes, seed)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("sizes", [(200, 150, 100), (1000, 1000, 1000)])
def test_demo_ns3_matches_reference(sizes, seed):
    assert_same_system(load_fixture("demo_ns3"), sizes, seed)


def test_several_redraw_rounds_match_reference():
    """External degrees of 4 and 6 into 12 agents: repeats are common, and
    sources keep redrawing after others are done."""
    model = crowded_model({4: 0.5, 6: 0.5})
    rounds = [assert_same_system(model, (40, 12), seed)["max_rounds"] for seed in range(8)]
    assert max(rounds) >= 3


def test_exact_fallback_matches_reference():
    """Every CS-0 agent wants all 12 CS-1 agents: redrawing rarely finishes
    in 16 rounds, so the exact per-agent fallback runs."""
    model = crowded_model({12: 1.0})
    redone = [assert_same_system(model, (6, 12), seed)["fallback_agents"] for seed in range(4)]
    assert min(redone) >= 1


class TestDiagnostics:
    ARGV = ["simulate-graph", str(fixture_path("example1_p1")), "--sizes", "400,400",
            "--trials", "4", "--seed", "3", "--json"]

    def test_seeded_output_unchanged_apart_from_diagnostics(self, capsys):
        """The payload printed before diagnostics existed, for the same
        command, with the new key removed."""
        assert main(self.ARGV) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload.pop("diagnostics")) == {
            "self_loops", "multi_edges", "odd_stub_cs", "target_redraws"
        }
        assert payload == {
            "cap_hit_rate": 0.0,
            "ci95": [0.15003898915214947, 0.8499610108478506],
            "count": 2,
            "estimate": 0.5,
            "gamma": 0.005,
            "quantity": "epidemic",
            "rng_seed": 3,
            "seed_cs": 0,
            "sizes": [400, 400],
            "trials": 4,
        }

    def test_diagnostics_sum_each_trials_graph(self, analog_model):
        estimate, _ = estimate_epidemic_probability(analog_model, (300, 300), trials=5, rng_seed=2)
        expected = dict.fromkeys(estimate.diagnostics, 0)
        for trial in range(5):
            graph_seed = _trial_seed(2, trial).spawn(3)[0]
            system, _ = reference_graph.generate_system_graph(analog_model, (300, 300), graph_seed)
            for key, value in system.erasure.items():
                expected[key] += len(value) if key == "odd_stub_cs" else value
        assert estimate.diagnostics == expected
        assert expected["target_redraws"] > 0 and expected["self_loops"] > 0

    def test_branching_estimate_has_no_diagnostics_key(self, capsys):
        argv = ["simulate-bp", str(fixture_path("example1_p1")), "--trials", "20", "--json"]
        assert main(argv) == 0
        assert "diagnostics" not in json.loads(capsys.readouterr().out)
