"""The Newton fixed-point solve: accuracy near criticality, the fixed-point
residual it reports, and types whose cascades can never die out."""

import json

import numpy as np
import pytest

from cascade_lab import JointPmf, SystemModel, VulnerabilityProfile, save_model
from cascade_lab.branching import (
    _gf_map,
    extinction_probabilities,
    mean_matrix,
    solve_extinction,
)
from cascade_lab.children import OffspringLaw, build_children, offspring_laws
from cascade_lab.cli import main

from conftest import random_model, symmetric_children_model


def near_critical_model(p: float) -> SystemModel:
    """One internal child, two external children with probability p: the
    infected type dies out with the smallest root b of b = 1 - p + p b^4."""
    return symmetric_children_model({(1, 2): p, (1, 0): 1.0 - p})


def near_critical_closed_form(p: float) -> np.ndarray:
    """Die-outs (fresh, fresh, infected, infected) of ``near_critical_model``
    without cancellation: x = 1 - b is the smallest positive root of
    p x^3 - 4p x^2 + 6p x + (1 - 4p) = 0, whose coefficients are exact."""
    x = (4.0 * p - 1.0) / (6.0 * p)
    for _ in range(50):
        x -= (p * x**3 - 4 * p * x**2 + 6 * p * x + (1.0 - 4.0 * p)) / (
            3 * p * x**2 - 8 * p * x + 6 * p
        )
    b = 1.0 - x
    return np.array([b * b, b * b, b, b])


def periodic_model() -> SystemModel:
    """CS-0 degree (1, 3), CS-1 degree (1, 1), q01 = 0.9, q10 = 0.5, phi = 0:
    a periodic mean matrix with spectral radius sqrt(1.35)."""
    return SystemModel(
        degree_dists=(JointPmf.from_dict({(1, 3): 1.0}), JointPmf.from_dict({(1, 1): 1.0})),
        infection=[[np.nan, 0.9], [0.5, np.nan]],
        vulnerability=(VulnerabilityProfile(kind="power-law", scale=0.0, exponent=0.0),) * 2,
        internal_degree_floor=True,
    )


def one_child(origin: int) -> OffspringLaw:
    """Exactly one same-CS infected child: a lineage that never ends."""
    child = [0, 0, 0, 0]
    child[2 + origin % 2] = 1
    return OffspringLaw(origin, 2, np.array([child]), np.array([1.0]), np.ones(4))


def critical_pair(origin: int) -> OffspringLaw:
    """Two same-CS infected children or none, each with probability 1/2."""
    child = [0, 0, 0, 0]
    child[2 + origin % 2] = 2
    return OffspringLaw(
        origin, 2, np.array([[0, 0, 0, 0], child]), np.array([0.5, 0.5]), np.ones(4)
    )


def plain_iteration(laws, steps: int = 1_000_000) -> np.ndarray:
    gf = _gf_map(laws)[0]
    s = np.zeros(laws[0].n_types)
    for _ in range(steps):
        s_next = np.minimum(gf(s), 1.0)
        if np.max(np.abs(s_next - s)) < 1e-15:
            return s_next
        s = s_next
    raise AssertionError("plain iteration did not settle")


class TestJacobian:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_central_differences_and_mean_matrix(self, seed):
        rng = np.random.default_rng(700 + seed)
        model = random_model(rng, dependent=bool(seed % 2))
        for laws in (offspring_laws(model), build_children(model)):
            gf, jacobian = _gf_map(laws)
            n = laws[0].n_types
            np.testing.assert_allclose(
                jacobian(np.ones(n)), mean_matrix(laws), rtol=0, atol=1e-12
            )
            s, h = rng.uniform(0.1, 0.9, n), 1e-6
            central = np.stack(
                [(gf(s + h * e) - gf(s - h * e)) / (2 * h) for e in np.eye(n)], axis=1
            )
            np.testing.assert_allclose(jacobian(s), central, rtol=0, atol=1e-7)

    def test_zero_argument_with_unthinned_children(self):
        # At s = 0 with thinning 1, u = 0: rows without a type-j child must
        # not turn 0 ** -1 into a nan.
        jacobian = _gf_map([critical_pair(t) for t in range(4)])[1]
        assert np.all(np.isfinite(jacobian(np.zeros(4))))
        assert np.all(jacobian(np.zeros(4)) == 0.0)


class TestNearCritical:
    @pytest.mark.parametrize("p", [0.2501, 0.25005])
    def test_matches_closed_form(self, p):
        poe = extinction_probabilities(near_critical_model(p))
        assert poe.regime == "supercritical"
        assert poe.converged
        assert poe.iterations <= 50
        np.testing.assert_allclose(poe.values, near_critical_closed_form(p), rtol=0, atol=1e-12)

    def test_closed_form_solves_the_quartic(self):
        p = 0.25005
        b = near_critical_closed_form(p)[2]
        assert 0.0 < 1.0 - b < 1e-3
        assert abs(p * b**4 - b + 1.0 - p) <= 1e-15


class TestResidual:
    def test_periodic_model_at_default_tol(self):
        laws = offspring_laws(periodic_model())
        poe = solve_extinction(laws)
        assert poe.converged
        assert np.max(np.abs(_gf_map(laws)[0](poe.values) - poe.values)) <= 1e-12

    def test_cli_reports_residual_of_printed_poe(self, tmp_path, capsys):
        path = tmp_path / "periodic.json"
        save_model(periodic_model(), path)
        assert main(["solve", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        poe = np.array(report["poe"])
        residual = np.max(np.abs(_gf_map(offspring_laws(periodic_model()))[0](poe) - poe))
        assert report["residual"] == residual

    @pytest.mark.parametrize("seed", range(24))
    def test_random_models_match_plain_iteration(self, seed):
        rng = np.random.default_rng(900 + seed)
        laws = offspring_laws(random_model(rng, dependent=bool(seed % 2)))
        poe = solve_extinction(laws)
        if abs(poe.spectral_radius_value - 1.0) <= 0.02:
            pytest.skip("near-critical: the plain iteration is too slow to serve as oracle")
        assert poe.converged
        assert np.max(np.abs(_gf_map(laws)[0](poe.values) - poe.values)) <= 1e-14
        np.testing.assert_allclose(poe.values, plain_iteration(laws), rtol=0, atol=1e-9)


class TestTypesThatNeverDie:
    def test_single_child_laws_give_zeros(self):
        poe = solve_extinction([one_child(t) for t in range(4)])
        assert poe.regime == "critical"
        assert poe.converged
        assert np.all(poe.values == 0.0)

    def test_mixed_critical_laws(self):
        # CS 0 types always have exactly one child; CS 1 types are critical
        # and non-degenerate. The spectral radius is 1 and only CS 1 dies out.
        laws = [one_child(0), critical_pair(1), one_child(2), critical_pair(3)]
        poe = solve_extinction(laws)
        assert poe.regime == "critical"
        assert poe.values[0] == 0.0 and poe.values[2] == 0.0
        # Newton approaches a critical block only linearly and stalls about
        # 1e-8 below 1 in double precision.
        assert np.all(poe.values[[1, 3]] >= 1.0 - 1e-7)
