"""Cone LPs whose direction solve meets a singular matrix stop as stalled.

The normal matrix can pass its Cholesky test and still give the LU solve an
exact zero pivot. Ordered idcv pairs on a (5, 5, 5) grid hit this: x is a
full-support Dirichlet pmf, y = x + t (-S^T lam) with lam uniform on one to
five random idcv rows, and t is 0.9 of the largest step that keeps y >= 0,
so x <= y holds by construction.
"""

import itertools

import numpy as np
import pytest

from cascade_lab import simplex
from cascade_lab.orders import ORDER_ATOL, _cone_matrix, certify_idcv
from cascade_lab.pmf import JointPmf

SHAPE = (5, 5, 5)
POINTS = np.array(list(itertools.product(*(range(s) for s in SHAPE))))


def ordered_pairs(seed: int, count: int):
    S = _cone_matrix("idcv", SHAPE)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x = rng.dirichlet(np.ones(len(POINTS)))
        rows = rng.choice(S.shape[0], size=rng.integers(1, 6), replace=False)
        lam = np.zeros(S.shape[0])
        lam[rows] = 1.0 / rows.size
        d = -S.T @ lam
        falling = d < 0
        y = x + 0.9 * float((x[falling] / -d[falling]).min()) * d
        yield JointPmf(POINTS, x), JointPmf(POINTS, y)


# Seed 62 pair 16 and seed 78 pair 3 raised LinAlgError before the mend.
@pytest.mark.parametrize("seed, count", [(62, 17), (78, 4)])
def test_ordered_pairs_hold(seed, count):
    for x, y in ordered_pairs(seed, count):
        verdict = certify_idcv(x, y)
        assert verdict.outcome == "holds", verdict.detail
        assert verdict.lower_bound >= -ORDER_ATOL


def test_singular_direction_solve_stalls(monkeypatch):
    S = _cone_matrix("idcv", (3, 3))
    c = np.random.default_rng(0).normal(size=S.shape[1])
    full = simplex.solve_lp(c, S)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(simplex.np.linalg, "solve", singular)
    result = simplex.solve_lp(c, S)
    assert result.status == simplex.STALLED
    assert result.iterations == 0
    # Both bounds of the starting point still bracket the optimum.
    assert result.lower <= full.upper + 1e-12
    assert result.upper >= full.lower - 1e-12
