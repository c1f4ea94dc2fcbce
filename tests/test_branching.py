"""Mean matrix, criticality, and the extinction fixed point."""

import numpy as np
import pytest

from cascade_lab import (
    JointPmf,
    SystemModel,
    extinction_probabilities,
    is_positively_regular,
    mean_matrix,
    solve_extinction,
    spectral_radius,
)
from cascade_lab.branching import _gf_map
from cascade_lab.children import OffspringLaw, build_children
from cascade_lab.pmf import PmfError

from conftest import (
    MU_P1,
    MU_P2,
    MU_P3,
    charpoly_spectral_radius,
    concordance_transfer,
    mean_preserving_spread,
    random_model,
)

EXAMPLE1_M = np.array(
    [
        [0.0, 0.35, 1.0, 0.0],
        [0.35, 0.0, 0.0, 1.0],
        [0.0, 0.35, 0.5, 0.0],
        [0.35, 0.0, 0.0, 0.5],
    ]
)


def point_children(origin_type, n, vec):
    return OffspringLaw(
        origin_type=origin_type,
        n_systems=n,
        support=np.array([vec]),
        mass=np.array([1.0]),
        thinning=np.ones(2 * n),
    )


def zero_children(n):
    return [point_children(t, n, [0] * (2 * n)) for t in range(2 * n)]


class TestMeanMatrix:
    def test_example1_matrix(self, model_p1, model_p2):
        for model in (model_p1, model_p2):
            mm = mean_matrix(build_children(model))
            assert np.allclose(mm, EXAMPLE1_M, atol=1e-9)

    def test_zero_children_give_zero_matrix(self):
        mm = mean_matrix(zero_children(2))
        assert np.all(mm == 0.0)

    def test_read_only_float_array(self, model_p1):
        mm = mean_matrix(build_children(model_p1))
        assert isinstance(mm, np.ndarray) and mm.dtype == np.float64
        with pytest.raises(ValueError):
            mm[0, 0] = 1.0

    def test_structural_zero_enforcement(self):
        # Entries (0, 0) and (0, 3) of the mean matrix are structural zeros:
        # a law with such a child does not construct.
        for child in (0, 3):
            vec = [0, 1, 1, 0]
            vec[child] = 1
            with pytest.raises(PmfError, match="must vanish outside"):
                point_children(0, 2, vec)

    def test_infected_row_shares_external_entries(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            model = random_model(rng, dependent=True)
            n = model.n_systems
            mm = mean_matrix(build_children(model))
            for i in range(n):
                for j in range(n):
                    if j != i:
                        assert mm[n + i, j] == pytest.approx(mm[i, j], abs=1e-12)
                assert mm[i, n + i] >= mm[n + i, n + i] - 1e-12

    def test_forbidden_child_of_infected_type(self):
        # Type 2 is an infected CS-0 agent; a type-3 child (infected CS-1) is
        # forbidden for it exactly as for the fresh CS-0 type.
        for row in (0, 2):
            with pytest.raises(PmfError, match=r"type \d children must vanish outside"):
                point_children(row, 2, [0, 0, 0, 1])

    def test_infected_internal_mean_above_fresh_rejected(self):
        laws = zero_children(2)
        laws[1] = point_children(1, 2, [0, 0, 0, 1])
        laws[3] = point_children(3, 2, [0, 0, 0, 2])
        with pytest.raises(ValueError, match="internal children mean of type 3 exceeds"):
            mean_matrix(laws)

    def test_single_system_law_rejected(self):
        with pytest.raises(PmfError, match="n_systems >= 2"):
            point_children(0, 1, [0, 1])


class TestPositiveRegularity:
    def test_example1_regular(self, model_p1):
        assert is_positively_regular(mean_matrix(build_children(model_p1)))

    def test_block_diagonal_reducible(self):
        block = np.zeros((4, 4))
        block[0, 2] = block[2, 2] = 1.0  # CS 0 talks only to itself
        block[1, 3] = block[3, 3] = 1.0
        assert not is_positively_regular(block)

    def test_strictly_positive(self):
        assert is_positively_regular(np.full((4, 4), 0.2))

    def test_periodic_matrix_is_not_regular(self):
        perm = np.array([[0, 1], [1, 0]], dtype=float)
        assert not is_positively_regular(perm)


class TestSpectralRadius:
    def test_example1_value(self, model_p1):
        rho = spectral_radius(mean_matrix(build_children(model_p1)))
        assert rho == pytest.approx(1.021, abs=1e-3)

    def test_scaled_identity(self):
        assert spectral_radius(2.5 * np.eye(5)) == pytest.approx(2.5, abs=1e-10)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_matches_characteristic_roots(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            a = rng.uniform(0.0, 2.0, size=(4, 4))
            assert spectral_radius(a) == pytest.approx(
                charpoly_spectral_radius(a), abs=1e-8
            )


class TestGeneratingFunction:
    def test_at_ones_is_one(self, model_p1):
        for h in build_children(model_p1):
            assert h.gf(np.ones(4)) == pytest.approx(1.0)

    def test_at_zero_is_mass_at_zero(self, model_p1):
        h = build_children(model_p1)[0]
        assert h.gf(np.zeros(4)) == pytest.approx(h.as_dict().get((0, 0, 0, 0), 0.0))

    def test_fixed_point_property_example1(self, model_p1):
        h = build_children(model_p1)[0]
        s = np.array([0.9646, 0.9646, 0.9761, 0.9761])
        assert h.gf(s) == pytest.approx(0.9646, abs=5e-4)


class TestExtinctionProbabilities:
    @pytest.mark.parametrize(
        "fixture, expected",
        [("model_p1", MU_P1), ("model_p2", MU_P2), ("model_p3", MU_P3)],
    )
    def test_example_values(self, fixture, expected, request):
        model = request.getfixturevalue(fixture)
        poe = extinction_probabilities(model)
        assert poe.converged
        assert poe.values == pytest.approx(expected, abs=5e-4)

    def test_subcritical_returns_one(self, model_p1):
        sub = SystemModel(
            degree_dists=model_p1.degree_dists,
            infection=[[np.nan, 0.4], [0.4, np.nan]],
            vulnerability=model_p1.vulnerability,
            internal_degree_floor=False,
        )
        poe = extinction_probabilities(sub)
        assert poe.regime == "subcritical"
        assert poe.values == pytest.approx(np.ones(4), abs=1e-9)

    def test_supercritical_strictly_below_one(self, model_p1):
        poe = extinction_probabilities(model_p1)
        assert poe.regime == "supercritical"
        assert np.all(poe.values < 1.0)

    def test_symmetric_model_symmetry(self, model_p1, model_p3):
        for model in (model_p1, model_p3):
            poe = extinction_probabilities(model)
            assert poe.values[0] == pytest.approx(poe.values[1], abs=1e-9)
            assert poe.values[2] == pytest.approx(poe.values[3], abs=1e-9)

    def test_critical_process_dies_out(self):
        # Every type: two same-CS infected children with probability 1/2,
        # none otherwise. One offspring in expectation, genuinely random
        # counts: critical, and the die-out probability is one.
        children = []
        for origin in range(4):
            cs = origin % 2
            branch = [0] * 4
            branch[2 + cs] = 2
            children.append(
                OffspringLaw(
                    origin, 2, np.array([[0] * 4, branch]), np.array([0.5, 0.5]), np.ones(4)
                )
            )
        rho = spectral_radius(mean_matrix(children))
        assert rho == pytest.approx(1.0, abs=1e-12)
        poe = solve_extinction(children)
        assert poe.regime == "critical"
        assert poe.values == pytest.approx(np.ones(4), abs=1e-12)


class TestCascadeProbability:
    """One minus the die-out probability of the fresh CS-0 type."""

    def test_example1(self, model_p1):
        poe = extinction_probabilities(model_p1)
        assert 1.0 - poe.values[0] == pytest.approx(0.0354, abs=5e-4)

    def test_example1_p2(self, model_p2):
        poe = extinction_probabilities(model_p2)
        assert 1.0 - poe.values[0] == pytest.approx(0.0414, abs=5e-4)

    def test_example2_p3(self, model_p3):
        poe = extinction_probabilities(model_p3)
        assert 1.0 - poe.values[0] == pytest.approx(0.0396, abs=5e-4)


class TestComparisonOracle:
    def test_dominated_map_implies_dominated_fixed_point(self):
        """If the second model's generating map sits below the first model's
        fixed point, its own fixed point must too."""
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(40):
            model_a = random_model(rng, dependent=True)
            q = np.array(model_a.infection)
            scale = rng.uniform(0.7, 1.0)
            off = ~np.eye(model_a.n_systems, dtype=bool)
            q[off] = np.clip(q[off] * scale, 0.05, 1.0)
            model_b = SystemModel(
                degree_dists=model_a.degree_dists,
                infection=q,
                vulnerability=model_a.vulnerability,
                internal_degree_floor=True,
            )
            children_a = build_children(model_a)
            children_b = build_children(model_b)
            poe_a = solve_extinction(children_a)
            if not poe_a.converged:
                continue
            fb_at_mu_a = _gf_map(children_b)[0](poe_a.values)
            if np.all(fb_at_mu_a >= poe_a.values - 1e-12):
                poe_b = solve_extinction(children_b)
                assert np.all(poe_b.values >= poe_a.values - 1e-9)
                checked += 1
        assert checked >= 10


def _solve(model):
    return solve_extinction(build_children(model)).values


class TestComparisonLawsSmall:
    """Randomized couplings that realize the comparison laws' hypotheses
    must produce the predicted die-out ordering (small smoke versions; the
    full suites live in the acceptance tests)."""

    def test_concordance_transfer_raises_poe(self):
        rng = np.random.default_rng(41)
        done = 0
        while done < 12:
            model = random_model(rng, dependent=True)
            cs = int(rng.integers(0, model.n_systems))
            shifted = concordance_transfer(rng, model.degree_dists[cs])
            if shifted is None:
                continue
            dists = list(model.degree_dists)
            dists[cs] = shifted
            model_b = SystemModel(
                degree_dists=tuple(dists),
                infection=model.infection,
                vulnerability=model.vulnerability,
                internal_degree_floor=True,
            )
            assert np.all(_solve(model) <= _solve(model_b) + 1e-9)
            done += 1

    def test_mean_preserving_spread_raises_poe(self):
        rng = np.random.default_rng(43)
        done = 0
        while done < 12:
            model = random_model(rng)
            cs = int(rng.integers(0, model.n_systems))
            spread = mean_preserving_spread(
                rng, model.degree_dists[cs], keep_floor_axis=cs
            )
            if spread is None:
                continue
            dists = list(model.degree_dists)
            dists[cs] = spread
            model_spread = SystemModel(
                degree_dists=tuple(dists),
                infection=model.infection,
                vulnerability=model.vulnerability,
                internal_degree_floor=True,
            )
            assert np.all(_solve(model_spread) >= _solve(model) - 1e-9)
            done += 1

    def test_spread_children_raise_poe(self, model_p1):
        rng = np.random.default_rng(47)
        children = build_children(model_p1)
        poe_base = solve_extinction(children).values
        for _ in range(8):
            target = int(rng.integers(0, len(children)))
            h = children[target]
            joint_view = JointPmf(h.support, h.mass)
            spread = None
            for _ in range(10):
                spread = mean_preserving_spread(rng, joint_view)
                if spread is not None:
                    break
            if spread is None:
                continue
            try:
                h_spread = OffspringLaw(
                    h.origin_type, h.n_systems, spread.support, spread.mass, np.ones(h.n_types)
                )
            except Exception:
                continue
            modified = list(children)
            modified[target] = h_spread
            poe_mod = solve_extinction(modified).values
            assert np.all(poe_mod >= poe_base - 1e-9)
