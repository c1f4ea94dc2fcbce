"""Offspring-law construction against independent enumeration oracles."""

import math

import numpy as np
import pytest

from cascade_lab import (
    JointPmf,
    SystemModel,
    VulnerabilityProfile,
    constant_profile,
)
from cascade_lab.children import (
    OffspringLaw,
    ZeroInternalDegreeError,
    build_children,
    check_vulnerability_scaling,
    internal_vulnerability,
    offspring_law,
)
from cascade_lab.pmf import MarginalPmf, PmfError, marginal, mean_vector

from conftest import brute_force_children, random_model


class TestSizeBiased:
    """The size-biased internal degree law w(d) = d p(d) / E[D], read off
    ``internal_vulnerability`` with indicator profiles."""

    def test_weights_proportional_to_degree(self):
        p = MarginalPmf(np.array([0, 1, 2, 3]), np.array([0.5, 0.15, 0.2, 0.15]))
        weights = []
        for d in (1, 2, 3):
            # No table entry for degree 0: the law must not put weight there.
            table = {1: 0.0, 2: 0.0, 3: 0.0, d: 1.0}
            phi = VulnerabilityProfile(kind="table", table=table)
            weights.append(internal_vulnerability(p, phi))
        assert weights == pytest.approx([0.15, 0.4, 0.45], abs=1e-12)

    def test_zero_mean_degree(self):
        with pytest.raises(ZeroInternalDegreeError):
            internal_vulnerability(
                MarginalPmf(np.array([0]), np.array([1.0])), constant_profile(1.0)
            )


class TestInternalVulnerability:
    def test_constant_profile_gives_one(self):
        p = MarginalPmf(np.array([1, 2, 5]), np.array([0.2, 0.5, 0.3]))
        assert internal_vulnerability(p, constant_profile(1.0)) == pytest.approx(1.0)

    def test_point_mass_inverse_degree(self):
        p = MarginalPmf(np.array([2]), np.array([1.0]))
        phi = VulnerabilityProfile(kind="power-law", scale=1.0, exponent=1.0)
        assert internal_vulnerability(p, phi) == pytest.approx(0.5)

    def test_three_term_hand_sum(self):
        p = MarginalPmf(np.array([0, 1, 2, 3]), np.array([0.5, 0.15, 0.2, 0.15]))
        phi = VulnerabilityProfile(kind="power-law", scale=1.0, exponent=0.5)
        expected = 0.15 * 1.0 + 0.4 / math.sqrt(2.0) + 0.45 / math.sqrt(3.0)
        assert internal_vulnerability(p, phi) == pytest.approx(expected, abs=1e-12)


class TestChildrenFresh:
    def test_identity_thinning_point_mass(self):
        model = SystemModel(
            degree_dists=(
                JointPmf.from_dict({(2, 1): 1.0}),
                JointPmf.from_dict({(0, 1): 1.0}),
            ),
            infection=[[np.nan, 1.0], [1.0, np.nan]],
            vulnerability=(constant_profile(1.0), constant_profile(1.0)),
            internal_degree_floor=False,
        )
        h = offspring_law(model, 0).children()
        # Type order (cs0 fresh, cs1 fresh, cs0 infected, cs1 infected):
        # both internal neighbors become infected-type children.
        assert h.as_dict() == {(0, 1, 2, 0): 1.0}

    def test_example1_children_means(self, model_p1):
        h = offspring_law(model_p1, 0).children()
        means = h.mean()
        assert means[1] == pytest.approx(0.35, abs=1e-9)
        assert means[2] == pytest.approx(1.00, abs=1e-9)

    def test_two_point_model_exhaustive(self):
        model = SystemModel(
            degree_dists=(
                JointPmf.from_dict({(1, 1): 0.5, (2, 0): 0.5}),
                JointPmf.from_dict({(0, 1): 1.0}),
            ),
            infection=[[np.nan, 0.5], [0.5, np.nan]],
            vulnerability=(constant_profile(1.0), constant_profile(1.0)),
            internal_degree_floor=False,
        )
        h = offspring_law(model, 0).children()
        assert h.as_dict() == pytest.approx(
            {(0, 0, 1, 0): 0.25, (0, 1, 1, 0): 0.25, (0, 0, 2, 0): 0.5}
        )


class TestChildrenInfected:
    def test_example1_infected_means(self, model_p1):
        h = offspring_law(model_p1, 2).children()
        means = h.mean()
        assert means[2] == pytest.approx(0.50, abs=1e-9)
        assert means[1] == pytest.approx(0.35, abs=1e-9)

    def test_degree_one_no_external(self):
        model = SystemModel(
            degree_dists=(
                JointPmf.from_dict({(1, 0): 1.0}),
                JointPmf.from_dict({(0, 1): 1.0}),
            ),
            infection=[[np.nan, 1.0], [1.0, np.nan]],
            vulnerability=(constant_profile(1.0), constant_profile(1.0)),
        )
        h = offspring_law(model, 2).children()
        assert h.as_dict() == {(0, 0, 0, 0): 1.0}

    def test_internal_deficiency_maps_to_zero(self):
        # Floor lifted: internal degree 0 loses nothing when the parent slot
        # is removed.
        model = SystemModel(
            degree_dists=(
                JointPmf.from_dict({(0, 1): 0.5, (2, 0): 0.5}),
                JointPmf.from_dict({(1, 0): 1.0}),
            ),
            infection=[[np.nan, 1.0], [1.0, np.nan]],
            vulnerability=(constant_profile(1.0), constant_profile(1.0)),
            internal_degree_floor=False,
        )
        h = offspring_law(model, 2).children()
        assert h.as_dict() == pytest.approx({(0, 1, 0, 0): 0.5, (0, 0, 1, 0): 0.5})


class TestZeroPattern:
    def test_forbidden_coordinate_rejected(self):
        with pytest.raises(PmfError):
            OffspringLaw(
                origin_type=0,
                n_systems=2,
                support=np.array([[1, 0, 0, 0]]),
                mass=np.array([1.0]),
                thinning=np.ones(4),
            )

    def test_all_built_children_respect_pattern(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            model = random_model(rng, dependent=True)
            n = model.n_systems
            for h in build_children(model):
                allowed = {j for j in range(n) if j != h.origin_cs} | {n + h.origin_cs}
                forbidden = [j for j in range(2 * n) if j not in allowed]
                assert np.all(h.support[:, forbidden] == 0)


class TestConstructor:
    SUPPORT = np.array([[0, 0, 0, 0], [0, 1, 1, 0]])

    @pytest.mark.parametrize(
        "mass, thinning",
        [
            ([1.5, -0.5], np.ones(4)),  # negative mass
            ([1.0, 0.5], np.ones(4)),  # total mass 1.5
            ([0.5, 0.5], np.ones(2)),  # thinning of the wrong shape
            ([0.5, 0.5], np.ones((1, 4))),
            ([0.5, 0.5], np.array([1.0, 1.5, 1.0, 1.0])),  # thinning above 1
        ],
    )
    def test_invalid_law_rejected(self, mass, thinning):
        with pytest.raises(PmfError):
            OffspringLaw(0, 2, self.SUPPORT, np.array(mass), thinning)

    def test_rows_kept_in_given_order_with_repeats(self):
        support = np.array([[0, 1, 1, 0], [0, 0, 0, 0], [0, 1, 1, 0]])
        law = OffspringLaw(0, 2, support, np.array([0.25, 0.5, 0.25]), np.full(4, 0.5))
        np.testing.assert_array_equal(law.support, support)
        np.testing.assert_array_equal(law.mass, [0.25, 0.5, 0.25])

    def test_enumerated_law_has_thinning_one(self, model_p1):
        for h in build_children(model_p1):
            np.testing.assert_array_equal(h.thinning, np.ones(4))
            assert len(h.as_dict()) == h.support.shape[0]
            order = np.lexsort(h.support.T[::-1])
            np.testing.assert_array_equal(order, np.arange(h.support.shape[0]))


class TestOracleEquivalence:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            model = random_model(rng, max_degree=3, dependent=bool(trial % 2))
            cs = int(rng.integers(0, model.n_systems))
            for drop in (False, True):
                expected = brute_force_children(model, cs, drop_internal=drop)
                got = offspring_law(model, cs + drop * model.n_systems).children().as_dict()
                assert set(got) == set(expected)
                for key, value in expected.items():
                    assert got[key] == pytest.approx(value, abs=1e-12)

    def test_thinning_mean_identities(self):
        rng = np.random.default_rng(23)
        from cascade_lab.children import thinning_probabilities

        for _ in range(20):
            model = random_model(rng, dependent=True)
            n = model.n_systems
            for cs in range(n):
                probs = thinning_probabilities(model, cs)
                means = mean_vector(model.degree_dists[cs])
                fresh = offspring_law(model, cs).children().mean()
                for j in range(n):
                    target = n + cs if j == cs else j
                    assert fresh[target] == pytest.approx(probs[j] * means[j], abs=1e-10)
                infected = offspring_law(model, n + cs).children().mean()
                internal = marginal(model.degree_dists[cs], cs)
                drop_mean = sum(
                    m * max(int(d) - 1, 0) for d, m in zip(internal.support, internal.mass)
                )
                assert infected[n + cs] == pytest.approx(probs[cs] * drop_mean, abs=1e-10)

    def test_floor_and_unit_probabilities_shift_mean_by_one(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            base = random_model(rng, n_systems=2)
            model = SystemModel(
                degree_dists=base.degree_dists,
                infection=[[np.nan, 1.0], [1.0, np.nan]],
                vulnerability=(constant_profile(1.0), constant_profile(1.0)),
                internal_degree_floor=True,
            )
            for cs in range(2):
                internal_mean = mean_vector(model.degree_dists[cs])[cs]
                infected = offspring_law(model, 2 + cs).children().mean()
                assert infected[2 + cs] == pytest.approx(internal_mean - 1.0, abs=1e-10)


class TestSupportGuard:
    def test_support_explosion_raises(self, monkeypatch, model_p1):
        import cascade_lab.children as children_mod

        monkeypatch.setattr(children_mod, "MAX_SUPPORT_POINTS", 5)
        with pytest.raises(children_mod.SupportExplosionError):
            offspring_law(model_p1, 0).children()


class TestVulnerabilityScaling:
    def test_square_root_profile_holds(self):
        phi = VulnerabilityProfile(kind="power-law", scale=1.0, exponent=0.5)
        assert check_vulnerability_scaling(phi, 100).holds

    def test_inverse_square_violates(self):
        phi = VulnerabilityProfile(kind="power-law", scale=1.0, exponent=2.0)
        result = check_vulnerability_scaling(phi, 10)
        assert not result.holds
        assert result.violated_at == 1

    def test_constant_profile_holds(self):
        assert check_vulnerability_scaling(constant_profile(0.3), 50).holds
