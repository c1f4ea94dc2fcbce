"""Stochastic-order comparators and LP certifications."""

import numpy as np
import pytest

from cascade_lab import JointPmf
from cascade_lab.orders import (
    FAILS,
    INCONCLUSIVE,
    compare_concordance,
    compare_fsd,
    compare_icv,
    compare_lt,
    certify_idcv,
    certify_supermodular,
    default_lt_grid,
)
from cascade_lab.pmf import MarginalPmf, marginal, product_pmf

from conftest import (
    TABLE_P1,
    TABLE_P2,
    TABLE_P3,
    expectation,
    mean_preserving_spread,
    random_idcv_function,
    random_joint,
    random_marginal,
    random_supermodular_function,
)


def point(d):
    return MarginalPmf(np.array([d]), np.array([1.0]))


@pytest.fixture(scope="module")
def p1():
    return JointPmf.from_dict(TABLE_P1)


@pytest.fixture(scope="module")
def p2():
    return JointPmf.from_dict(TABLE_P2)


@pytest.fixture(scope="module")
def p3():
    return JointPmf.from_dict(TABLE_P3)


class TestFsd:
    def test_ordered_point_masses(self):
        assert compare_fsd(point(1), point(2)).holds

    def test_reflexive(self):
        m = MarginalPmf(np.array([0, 2]), np.array([0.3, 0.7]))
        assert compare_fsd(m, m).holds

    def test_equal_mean_different_spread_fails_both_ways(self, p1, p2):
        x, y = marginal(p1, 0), marginal(p2, 0)
        forward = compare_fsd(x, y)
        backward = compare_fsd(y, x)
        assert forward.outcome == FAILS and backward.outcome == FAILS
        assert forward.witness is not None


class TestIcv:
    def test_example1_internal(self, p1, p2):
        assert compare_icv(marginal(p1, 0), marginal(p2, 0)).holds

    def test_example1_external(self, p1, p2):
        assert compare_icv(marginal(p1, 1), marginal(p2, 1)).holds

    def test_fsd_implies_icv(self):
        rng = np.random.default_rng(3)
        found = 0
        while found < 15:
            x, y = random_marginal(rng), random_marginal(rng)
            if compare_fsd(x, y).holds:
                assert compare_icv(x, y).holds
                found += 1

    def test_spread_is_icv_smaller_with_witness_on_reverse(self):
        base = MarginalPmf(np.array([1, 2, 3]), np.array([0.3, 0.4, 0.3]))
        spread = MarginalPmf(np.array([0, 2, 4]), np.array([0.4, 0.2, 0.4]))
        assert compare_icv(spread, base).holds
        reverse = compare_icv(base, spread)
        assert reverse.outcome == FAILS


    def test_matches_level_by_level_walk(self):
        """The running cdf sums walked one integer level at a time, the
        definition, agree with the stretch-by-stretch walk: same outcome,
        same first violating level, sums within rounding."""
        rng = np.random.default_rng(11)
        fails = 0
        for _ in range(400):
            x, y = (random_marginal(rng, max_degree=30, max_points=4) for _ in range(2))
            sum_x = sum_y = 0.0
            expected = None
            for t in range(int(max(x.support.max(), y.support.max())) + 1):
                sum_x += x.cdf_at(t)
                sum_y += y.cdf_at(t)
                if sum_x < sum_y - 1e-9:
                    expected = (t, sum_x, sum_y)
                    break
            verdict = compare_icv(x, y)
            assert verdict.holds == (expected is None)
            if expected is not None:
                fails += 1
                w = verdict.witness
                assert w["k"] == expected[0]
                assert (w["cum_F_x"], w["cum_F_y"]) == pytest.approx(expected[1:], abs=1e-12)
        assert 50 < fails < 350

    def test_cost_follows_support_points_not_levels(self, monkeypatch):
        """A degree of 10**12 costs one cdf evaluation per merged support
        point, whichever side it is on."""
        calls = []
        cdf_at = MarginalPmf.cdf_at

        def counted(self, t):
            calls.append(t)
            if len(calls) > 100:
                raise AssertionError("compare_icv walks integer levels")
            return cdf_at(self, t)

        monkeypatch.setattr(MarginalPmf, "cdf_at", counted)
        small = MarginalPmf(np.array([0, 1, 3]), np.array([0.2, 0.5, 0.3]))
        huge = MarginalPmf(np.array([0, 2, 10**12]), np.array([0.1, 0.4, 0.5]))
        assert compare_icv(small, huge).holds
        assert compare_icv(huge, small).outcome == FAILS
        assert compare_icv(huge, huge).holds


class TestConcordance:
    def test_example2(self, p2, p3):
        assert compare_concordance(p2, p3).holds

    def test_reflexive(self, p3):
        assert compare_concordance(p3, p3).holds

    def test_anti_comonotone_below_independent(self):
        u = MarginalPmf(np.array([0, 1]), np.array([0.5, 0.5]))
        independent = product_pmf(u, u)
        anti = JointPmf.from_dict({(0, 1): 0.5, (1, 0): 0.5})
        assert compare_concordance(anti, independent).holds
        assert compare_concordance(independent, anti).outcome == FAILS

    def test_marginal_mismatch_fails_with_witness(self, p1, p2):
        verdict = compare_concordance(p1, p2)
        assert verdict.outcome == FAILS
        assert "marginal-mismatch" in verdict.witness

    def test_holds_implies_identical_marginals(self):
        rng = np.random.default_rng(7)
        from conftest import concordance_transfer
        from cascade_lab.pmf import EQ_TOL

        done = 0
        while done < 10:
            base = random_joint(rng, 2, dependent=True)
            shifted = concordance_transfer(rng, base)
            if shifted is None:
                continue
            if compare_concordance(base, shifted).holds:
                for axis in range(2):
                    a, b = marginal(base, axis), marginal(shifted, axis)
                    for d in np.union1d(a.support, b.support):
                        assert abs(a.prob(int(d)) - b.prob(int(d))) <= EQ_TOL
                done += 1


class TestSupermodular:
    def test_bivariate_delegates_to_concordance(self, p2, p3):
        verdict = certify_supermodular(p2, p3)
        assert verdict.holds and verdict.method == "exact"

    def test_self_comparison_any_dimension(self):
        rng = np.random.default_rng(11)
        joint = random_joint(rng, 3, dependent=True, max_degree=2)
        verdict = certify_supermodular(joint, joint)
        assert verdict.holds

    def test_three_dim_independent_below_comonotone(self):
        u = MarginalPmf(np.array([0, 1, 2]), np.array([1 / 3] * 3))
        independent = product_pmf(u, u, u)
        comonotone = JointPmf.from_dict({(d, d, d): 1 / 3 for d in range(3)})
        assert certify_supermodular(independent, comonotone).holds
        reverse = certify_supermodular(comonotone, independent)
        assert reverse.outcome == FAILS
        assert "xi" in reverse.witness

    def test_lp_agrees_with_sampled_test_functions(self):
        rng = np.random.default_rng(13)
        for _ in range(12):
            x = random_joint(rng, 3, dependent=True, max_degree=2)
            mass = x.mass * (0.5 + rng.random(x.n_points))
            y = JointPmf(x.support, mass / mass.sum())
            verdict = certify_supermodular(x, y)
            axes = [np.arange(0, x.support[:, j].max() + 1) for j in range(3)]
            for _ in range(60):
                fn = random_supermodular_function(rng, axes)
                gap = expectation(y, fn) - expectation(x, fn)
                if verdict.holds:
                    assert gap >= -1e-7
            if verdict.outcome == FAILS:
                # The LP witness must reproduce a genuine violation.
                xi = {tuple(point): value for point, value in verdict.witness["xi"]}
                gap = expectation(y, lambda v: xi[v]) - expectation(x, lambda v: xi[v])
                assert gap == pytest.approx(verdict.witness["gap"], abs=1e-8)
                assert gap < 0

    def test_grid_limit_gives_inconclusive(self):
        rng = np.random.default_rng(17)
        x = random_joint(rng, 3, dependent=True, max_degree=4)
        y = random_joint(rng, 3, dependent=True, max_degree=4)
        verdict = certify_supermodular(x, y, grid_limit=8)
        assert verdict.outcome == INCONCLUSIVE
        assert "cov" in verdict.detail


class TestIdcv:
    def test_example1_product_forms(self, p1, p2):
        assert certify_idcv(p1, p2).holds

    def test_reflexive(self, p3):
        assert certify_idcv(p3, p3).holds

    def test_spread_below_original(self):
        rng = np.random.default_rng(19)
        done = 0
        while done < 8:
            base = random_joint(rng, 2, dependent=True, max_degree=3)
            spread = mean_preserving_spread(rng, base)
            if spread is None:
                continue
            assert certify_idcv(spread, base).holds
            done += 1

    def test_witness_on_failure(self, p1, p2):
        verdict = certify_idcv(p2, p1)
        assert verdict.outcome == FAILS
        xi = {tuple(point): value for point, value in verdict.witness["xi"]}
        gap = expectation(p1, lambda v: xi[v]) - expectation(p2, lambda v: xi[v])
        assert gap == pytest.approx(verdict.witness["gap"], abs=1e-8)
        assert gap < 0

    def test_lp_agrees_with_sampled_idcv_functions(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            x = random_joint(rng, 2, dependent=True, max_degree=3)
            spread = mean_preserving_spread(rng, x)
            y = x if spread is None else spread
            verdict = certify_idcv(y, x)
            if verdict.holds:
                for _ in range(60):
                    fn = random_idcv_function(rng, 2)
                    assert expectation(x, fn) - expectation(y, fn) >= -1e-7


class TestLaplaceTransform:
    def test_point_masses_follow_magnitude(self):
        one, two = JointPmf.from_dict({(1,): 1.0}), JointPmf.from_dict({(2,): 1.0})
        assert compare_lt(one, two).holds
        reverse = compare_lt(two, one)
        assert reverse.outcome == FAILS
        assert reverse.witness["s"]

    def test_reflexive(self, p3):
        assert compare_lt(p3, p3).holds

    def test_idcv_implies_lt(self):
        rng = np.random.default_rng(29)
        done = 0
        while done < 8:
            base = random_joint(rng, 2, dependent=True, max_degree=3)
            spread = mean_preserving_spread(rng, base)
            if spread is None:
                continue
            if certify_idcv(spread, base).holds:
                assert compare_lt(spread, base).holds
                done += 1

    def test_custom_grid_and_validation(self, p2):
        with pytest.raises(ValueError):
            compare_lt(p2, p2, s_grid=np.array([[0.0, 1.0]]))
        grid = default_lt_grid(2, levels=(0.5, 1.0))
        assert grid.shape == (4, 2)
        assert compare_lt(p2, p2, s_grid=grid).holds


class TestRelationChains:
    def test_fsd_icv_chain_and_transitivity(self):
        rng = np.random.default_rng(31)
        done = 0
        while done < 10:
            a, b, c = (random_marginal(rng) for _ in range(3))
            if compare_fsd(a, b).holds and compare_fsd(b, c).holds:
                assert compare_fsd(a, c).holds
                assert compare_icv(a, c).holds
                done += 1

    def test_supermodular_implies_concordance(self):
        rng = np.random.default_rng(37)
        from conftest import concordance_transfer

        done = 0
        while done < 10:
            base = random_joint(rng, 2, dependent=True)
            shifted = concordance_transfer(rng, base)
            if shifted is None:
                continue
            if certify_supermodular(base, shifted).holds:
                assert compare_concordance(base, shifted).holds
                done += 1
