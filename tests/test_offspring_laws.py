"""Closed-form offspring laws, the analytic path built on them, and the
solver regressions they fixed (periodic mean matrix, checks under -O)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cascade_lab
import cascade_lab.children as children_mod
from cascade_lab import (
    JointPmf,
    SystemModel,
    VulnerabilityProfile,
    extinction_probabilities,
    fixture_path,
    load_fixture,
    offspring_laws,
    save_model,
)
from cascade_lab.branching import _gf_map, solve_extinction
from cascade_lab.children import OffspringLaw, build_children
from cascade_lab.cli import main

from conftest import random_joint, random_model

SRC = str(Path(cascade_lab.__file__).resolve().parent.parent)


def children_mode_model(rng: np.random.Generator) -> SystemModel:
    """Random model with the internal-degree floor lifted."""
    base = random_model(rng)
    n = base.n_systems
    return SystemModel(
        degree_dists=tuple(
            random_joint(rng, n, max_degree=3, dependent=bool(rng.integers(0, 2)))
            for _ in range(n)
        ),
        infection=base.infection,
        vulnerability=base.vulnerability,
        internal_degree_floor=False,
    )


class TestClosedFormMatchesEnumeration:
    def test_gf_values_and_means(self):
        rng = np.random.default_rng(101)
        for trial in range(60):
            if trial % 2:
                model = children_mode_model(rng)
            else:
                model = random_model(rng, max_degree=3, dependent=bool(rng.integers(0, 2)))
            assert model.mode == ("children" if trial % 2 else "degree")
            laws = offspring_laws(model)
            enumerated = build_children(model)
            points = rng.uniform(0.0, 1.0, size=(5, laws[0].n_types))
            for law, h in zip(laws, enumerated):
                assert law.origin_type == h.origin_type
                np.testing.assert_allclose(law.mean(), h.mean(), rtol=0, atol=1e-12)
                for s in points:
                    assert abs(law.gf(s) - h.gf(s)) <= 1e-12
            for s in points:
                np.testing.assert_allclose(
                    _gf_map(laws)[0](s), _gf_map(enumerated)[0](s), rtol=0, atol=1e-12
                )

    def test_batch_evaluation_matches_pointwise(self, model_p1):
        rng = np.random.default_rng(7)
        points = rng.uniform(0.0, 1.0, size=(9, 4))
        for law in offspring_laws(model_p1):
            batch = law.gf(points[:, None, :])
            assert batch.shape == (9,)
            np.testing.assert_allclose(batch, [law.gf(s) for s in points], rtol=0, atol=1e-15)

    def test_infected_laws_keep_joint_row_order_and_repeats(self):
        model = load_fixture("example1_p1")
        laws = offspring_laws(model)
        for cs in range(2):
            joint = model.degree_dists[cs]
            expected = np.zeros((joint.n_points, 4), dtype=np.int64)
            expected[:, 1 - cs] = joint.support[:, 1 - cs]
            expected[:, 2 + cs] = np.maximum(joint.support[:, cs] - 1, 0)
            law = laws[2 + cs]
            np.testing.assert_array_equal(law.support, expected)
            np.testing.assert_array_equal(law.mass, joint.mass)
            assert (law.support.shape[0], len(law.as_dict())) == (16, 12)

    def test_laws_need_no_enumeration(self, model_p1):
        for law in offspring_laws(model_p1):
            assert isinstance(law, OffspringLaw)
            assert law.support.shape[0] == model_p1.degree_dists[law.origin_type % 2].n_points


class TestAnalyticPathNeverEnumerates:
    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the analytic path enumerated an offspring law")

        monkeypatch.setattr(children_mod, "build_children", refuse)
        monkeypatch.setattr(OffspringLaw, "children", refuse)

    def test_library_entry_points(self, no_enumeration, model_p1):
        poe = extinction_probabilities(model_p1)
        assert poe.converged
        assert 1.0 - poe.values[0] == pytest.approx(0.0354, abs=5e-4)

    def test_cli_solve_and_compare(self, no_enumeration, capsys):
        p1 = str(fixture_path("example1_p1"))
        p2 = str(fixture_path("example1_p2"))
        assert main(["solve", p1, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["converged"]
        assert main(["compare", p1, p2, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["hypotheses"][-1]["rows"]) == 4


def periodic_model() -> SystemModel:
    """CS-0 degree (1, 3), CS-1 degree (1, 1), q01 = 0.9, q10 = 0.5, phi = 0:
    the mean matrix is periodic (eigenvalues +-sqrt(1.35))."""
    return SystemModel(
        degree_dists=(JointPmf.from_dict({(1, 3): 1.0}), JointPmf.from_dict({(1, 1): 1.0})),
        infection=[[np.nan, 0.9], [0.5, np.nan]],
        vulnerability=(VulnerabilityProfile(kind="power-law", scale=0.0, exponent=0.0),) * 2,
        internal_degree_floor=True,
    )


class TestPeriodicMeanMatrix:
    def test_solve_cli(self, tmp_path, capsys):
        path = tmp_path / "periodic.json"
        save_model(periodic_model(), path)
        assert main(["solve", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert report["positively_regular"] is False
        assert abs(report["spectral_radius"] - math.sqrt(1.35)) <= 1e-12
        poe = np.array(report["poe"])
        assert np.all(poe < 1.0)
        laws = offspring_laws(periodic_model())
        # Newton stops at rounding level here: the printed die-outs are a
        # fixed point to 1e-12, and the reported residual is that distance.
        assert np.max(np.abs(_gf_map(laws)[0](poe) - poe)) <= 2 * report["residual"]
        np.testing.assert_allclose(_gf_map(laws)[0](poe), poe, rtol=0, atol=1e-12)


# Subcritical laws whose masses sum to 1 + 5e-11, inside the constructor
# tolerance: no children w.p. 0.5 + 5e-11, one same-CS infected child w.p. 0.5.
OVER_MASSED = """
import numpy as np
from cascade_lab.children import OffspringLaw
laws = [
    OffspringLaw(t, 2, np.array([[0, 0, 0, 0], [0, 0, 1 - t % 2, t % 2]]),
                 np.array([0.5 + 5e-11, 0.5]), np.ones(4))
    for t in range(4)
]
"""
# Stand-ins with the attributes solve_extinction reads and potential-children
# mass 1.5, which the OffspringLaw constructor rejects: the generating
# function leaves [0, 1].
ESCAPING = """
import numpy as np
from types import SimpleNamespace
laws = [SimpleNamespace(origin_type=t, n_types=4, support=np.zeros((1, 4), dtype=np.int64),
                        mass=np.array([1.5]), thinning=np.ones(4), mean=lambda: np.zeros(4))
        for t in range(4)]
"""
SOLVE = """
from cascade_lab.branching import solve_extinction
try:
    print(solve_extinction(laws).values.tolist())
except RuntimeError as exc:
    print("RuntimeError:", exc)
"""


def solve_in_process(setup: str) -> str:
    scope = {}
    exec(setup, scope)
    try:
        return str(solve_extinction(scope["laws"]).values.tolist())
    except RuntimeError as exc:
        return f"RuntimeError: {exc}"


def solve_under_O(setup: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", setup + SOLVE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestIterationChecks:
    """The range and monotonicity checks hold with and without -O."""

    @pytest.mark.parametrize("solve", [solve_in_process, solve_under_O])
    def test_mass_within_tolerance_solves_to_one(self, solve):
        assert solve(OVER_MASSED) == "[1.0, 1.0, 1.0, 1.0]"

    @pytest.mark.parametrize("solve", [solve_in_process, solve_under_O])
    def test_escaping_iterate_raises(self, solve):
        assert solve(ESCAPING) == "RuntimeError: fixed-point iterate escaped [0, 1]"

