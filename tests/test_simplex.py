"""Interior-point cone-LP bounds against scipy's HiGHS on the order LPs."""

from itertools import product

import numpy as np
import pytest
from scipy.optimize import linprog

from cascade_lab import simplex
from cascade_lab.orders import (
    ORDER_ATOL,
    _idcv_stencils,
    _stencil_rows,
    _supermodular_stencils,
)
from cascade_lab.simplex import ITERATION_LIMIT, OPTIMAL, solve_lp

RELATIONS = ("supermodular", "idcv")
SHAPES = [(4, 4), (3, 6), (3, 3, 3), (4, 3, 5)]


def cone_rows(shape, relation):
    stencils = (_supermodular_stencils if relation == "supermodular" else _idcv_stencils)(
        len(shape)
    )
    return np.vstack([_stencil_rows(shape, s) for s in stencils])


def highs_optimum(c, S):
    ref = linprog(c, A_ub=S, b_ub=np.zeros(S.shape[0]), bounds=(-1, 1), method="highs")
    assert ref.status == 0
    return ref.fun


def assert_brackets(c, S):
    """L <= HiGHS + 1e-9 <= U + 2e-9, and the verdicts read off the bounds
    agree with HiGHS's optimum; returns the verdict."""
    result = solve_lp(c, S)
    optimum = highs_optimum(c, S)
    assert result.lower <= optimum + 1e-9 <= result.upper + 2e-9
    assert np.abs(result.x).max() <= 1.0
    ours = "holds" if result.lower >= -ORDER_ATOL else (
        "fails" if result.upper < -ORDER_ATOL else "inconclusive"
    )
    assert ours == ("holds" if optimum >= -ORDER_ATOL else "fails")
    return ours


def random_pmf_difference(rng, size):
    return rng.dirichlet(np.ones(size)) - rng.dirichlet(np.ones(size))


def ordered_difference(rng, S):
    """c = -S^T lam for a sparse lam >= 0: a sum of elementary transfers, so
    E_y[xi] - E_x[xi] = -lam . S xi >= 0 on the cone and the optimum is 0."""
    lam = np.where(rng.random(S.shape[0]) < 0.1, rng.random(S.shape[0]), 0.0)
    return -(S.T @ lam) * 1e-2


class TestAgainstScipy:
    def test_random_bounded_problems(self):
        """Random pmf differences: mostly "fails", optimum well below zero."""
        rng = np.random.default_rng(13)
        for relation, shape in product(RELATIONS, SHAPES):
            S = cone_rows(shape, relation)
            verdicts = [
                assert_brackets(random_pmf_difference(rng, S.shape[1]), S) for _ in range(3)
            ]
            assert "fails" in verdicts

    def test_degenerate_zero_rhs(self):
        """Near-ordered pairs: optimum exactly 0 on a face of the cone."""
        rng = np.random.default_rng(29)
        for relation, shape in product(RELATIONS, SHAPES):
            S = cone_rows(shape, relation)
            for _ in range(3):
                assert assert_brackets(ordered_difference(rng, S), S) == "holds"

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_seven_cubed_grid(self, relation):
        rng = np.random.default_rng(31)
        S = cone_rows((7, 7, 7), relation)
        assert assert_brackets(random_pmf_difference(rng, S.shape[1]), S) == "fails"


class TestEdgeCases:
    def test_trivial_optimum_at_origin(self):
        result = solve_lp(np.zeros(9), cone_rows((3, 3), "idcv"))
        assert result.status == OPTIMAL
        assert result.lower == pytest.approx(0.0, abs=1e-12)
        assert result.upper == pytest.approx(0.0, abs=1e-12)

    def test_box_only(self):
        c = np.array([0.5, -0.25, 0.0, 0.75])
        result = solve_lp(c, np.zeros((0, 4)))
        assert result.lower == pytest.approx(-1.5, abs=1e-12)
        assert result.upper == pytest.approx(-1.5, abs=1e-9)

    def test_bounds_hold_at_iteration_limit(self, monkeypatch):
        rng = np.random.default_rng(3)
        S = cone_rows((4, 4, 4), "idcv")
        c = random_pmf_difference(rng, S.shape[1])
        monkeypatch.setattr(simplex, "MAX_ITERATIONS", 3)
        result = solve_lp(c, S)
        assert result.status == ITERATION_LIMIT and result.iterations == 3
        assert result.lower <= highs_optimum(c, S) <= result.upper

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            solve_lp(np.ones(3), np.eye(2))
        with pytest.raises(ValueError, match="shape mismatch"):
            solve_lp(np.ones(3), np.ones(3))
