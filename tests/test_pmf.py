"""Degree pmf structure and summary statistics."""

import math

import numpy as np
import pytest

from cascade_lab.pmf import (
    JointPmf,
    MarginalPmf,
    PmfError,
    correlation,
    entropy_bits,
    is_independent,
    kl_divergence,
    marginal,
    mean_vector,
    product_pmf,
)

from conftest import TABLE_P1, TABLE_P2, TABLE_P3


@pytest.fixture(scope="module")
def p1():
    return JointPmf.from_dict(TABLE_P1)


@pytest.fixture(scope="module")
def p2():
    return JointPmf.from_dict(TABLE_P2)


@pytest.fixture(scope="module")
def p3():
    return JointPmf.from_dict(TABLE_P3)


class TestStructure:
    def test_rejects_negative_mass(self):
        with pytest.raises(PmfError):
            JointPmf(np.array([[0, 0], [1, 1]]), np.array([1.2, -0.2]))

    def test_rejects_duplicate_support(self):
        with pytest.raises(PmfError):
            JointPmf(np.array([[1, 2], [1, 2]]), np.array([0.5, 0.5]))

    def test_rejects_negative_degree(self):
        with pytest.raises(PmfError):
            MarginalPmf(np.array([-1, 0]), np.array([0.5, 0.5]))

    def test_unnormalized_is_constructible_but_flagged(self):
        pmf = JointPmf(np.array([[0, 0], [1, 1]]), np.array([0.5, 0.4]))
        assert not pmf.is_normalized()
        assert pmf.total_mass == pytest.approx(0.9)

    def test_support_sorted_lexicographically(self):
        pmf = JointPmf(np.array([[2, 0], [0, 1], [0, 0]]), np.array([0.2, 0.3, 0.5]))
        assert pmf.support.tolist() == [[0, 0], [0, 1], [2, 0]]


class TestMarginal:
    def test_internal_marginal_of_p1(self, p1):
        m = marginal(p1, 0)
        assert m.support.tolist() == [0, 1, 2, 3]
        assert m.mass == pytest.approx([0.5, 0.15, 0.2, 0.15], abs=1e-12)

    def test_external_marginal_of_p2(self, p2):
        m = marginal(p2, 1)
        assert m.support.tolist() == [0, 1, 2]
        assert m.mass == pytest.approx([0.8, 0.05, 0.15], abs=1e-12)

    def test_point_mass(self):
        pmf = JointPmf.from_dict({(2, 3): 1.0})
        m = marginal(pmf, 0)
        assert m.as_dict() == {2: 1.0}

    def test_axis_out_of_range(self, p1):
        with pytest.raises(IndexError):
            marginal(p1, 2)


class TestMeanVector:
    def test_p1(self, p1):
        assert mean_vector(p1) == pytest.approx([1.0, 0.35], abs=1e-12)

    def test_p2_matches_p1(self, p2):
        assert mean_vector(p2) == pytest.approx([1.0, 0.35], abs=1e-12)

    def test_point_mass(self):
        assert mean_vector(JointPmf.from_dict({(2, 3): 1.0})) == pytest.approx([2.0, 3.0])


class TestEntropy:
    def test_p1_internal(self, p1):
        # Exact value for the corrected table is 1.7854753; the commonly
        # quoted 1.786 is a misrounding of it.
        assert entropy_bits(marginal(p1, 0)) == pytest.approx(1.7855, abs=5e-4)

    def test_p1_external(self, p1):
        assert entropy_bits(marginal(p1, 1)) == pytest.approx(1.003, abs=5e-4)

    def test_p2_internal(self, p2):
        assert entropy_bits(marginal(p2, 0)) == pytest.approx(1.461, abs=5e-4)

    def test_p2_external(self, p2):
        assert entropy_bits(marginal(p2, 1)) == pytest.approx(0.884, abs=5e-4)

    def test_point_mass_zero(self):
        assert entropy_bits(MarginalPmf(np.array([3]), np.array([1.0]))) == 0.0


class TestKlDivergence:
    def test_printed_direction(self, p2, p3):
        assert kl_divergence(p3, p2) == pytest.approx(0.0094, abs=2e-4)

    def test_self_divergence_zero(self, p2):
        assert kl_divergence(p2, p2) == 0.0

    def test_reverse_direction_by_direct_sum(self, p2, p3):
        # Only four cells differ between the two tables.
        expected = sum(
            TABLE_P2[cell] * math.log(TABLE_P2[cell] / TABLE_P3[cell])
            for cell in [(1, 0), (3, 0), (1, 2), (3, 2)]
        )
        assert kl_divergence(p2, p3) == pytest.approx(expected, abs=1e-12)

    def test_absolute_continuity_violation(self):
        p = JointPmf.from_dict({(0, 0): 0.5, (1, 1): 0.5})
        q = JointPmf.from_dict({(0, 0): 1.0})
        with pytest.raises(PmfError):
            kl_divergence(p, q)


class TestIndependence:
    def test_p1_independent(self, p1):
        assert is_independent(p1, tol=1e-9)

    def test_p3_dependent(self, p3):
        assert not is_independent(p3, tol=1e-9)

    def test_random_product_forms(self):
        rng = np.random.default_rng(42)
        from conftest import random_marginal

        for _ in range(25):
            joint = product_pmf(random_marginal(rng), random_marginal(rng))
            assert is_independent(joint, tol=1e-9)


class TestCorrelation:
    def test_p3(self, p3):
        assert correlation(p3, 0, 1) == pytest.approx(0.0368, abs=5e-4)

    def test_independent_is_zero(self, p2):
        assert correlation(p2, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_comonotone_two_point(self):
        pmf = JointPmf.from_dict({(0, 0): 0.5, (1, 1): 0.5})
        assert correlation(pmf, 0, 1) == pytest.approx(1.0)

    def test_degenerate_raises(self):
        pmf = JointPmf.from_dict({(1, 0): 0.5, (1, 1): 0.5})
        with pytest.raises(PmfError):
            correlation(pmf, 0, 1)


class TestConsistencyProperties:
    def test_marginal_and_mean_consistency(self):
        rng = np.random.default_rng(7)
        from conftest import random_joint

        for _ in range(30):
            joint = random_joint(rng, int(rng.integers(2, 4)), dependent=True)
            means = mean_vector(joint)
            for axis in range(joint.dimension):
                m = marginal(joint, axis)
                assert abs(m.total_mass - 1.0) <= 1e-12
                assert m.mean() == pytest.approx(means[axis], abs=1e-12)

    def test_entropy_nonnegative_and_kl_positivity(self):
        rng = np.random.default_rng(11)
        from conftest import random_joint

        for _ in range(30):
            joint = random_joint(rng, 2, dependent=True)
            assert entropy_bits(marginal(joint, 0)) >= 0.0
            assert kl_divergence(joint, joint) == 0.0
            other_mass = joint.mass * (0.5 + rng.random(joint.n_points))
            other = JointPmf(joint.support, other_mass / other_mass.sum())
            kl = kl_divergence(joint, other)
            assert kl >= 0.0
            if np.max(np.abs(other.mass - joint.mass)) > 1e-6:
                assert kl > 0.0
