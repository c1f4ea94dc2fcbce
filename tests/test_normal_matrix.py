"""The interior-point normal matrix assembled from the nonzeros of S, and the
LP suites rerun with the explicit inverse unavailable."""

import numpy as np
import pytest

import test_idcv_d4
import test_simplex
from cascade_lab.orders import _cone_matrix
from cascade_lab.simplex import _normal_matrix, _row_pairs


def assert_matches_dense(S, rng):
    """SᵀWS + diag from the row pairs equals the dense product to 1e-14,
    relative to its largest entry, with weights spread over twelve decades
    as near an interior-point optimum."""
    m, n = S.shape
    w = 10.0 ** rng.uniform(-6, 6, size=m + 2 * n)
    dense = S.T @ (w[:m, None] * S) + np.diag(w[m : m + n] + w[m + n :])
    ours = _normal_matrix(_row_pairs(S), w)
    assert ours.shape == (n, n)
    np.testing.assert_allclose(ours, dense, rtol=1e-14, atol=1e-14 * np.abs(dense).max())


@pytest.mark.parametrize(
    "relation, shape",
    [
        ("supermodular", (5, 5, 5)),
        ("idcv", (5, 5, 5)),
        ("supermodular", (1, 5, 2)),
        ("idcv", (1, 5, 2)),
        ("idcv", (4,)),
    ],
)
def test_stencil_normal_matrix_matches_dense(relation, shape):
    assert_matches_dense(_cone_matrix(relation, shape), np.random.default_rng(len(shape)))


def test_zero_rows_and_no_rows():
    rng = np.random.default_rng(5)
    S = np.array(_cone_matrix("idcv", (3, 4)))
    S[::3] = 0.0
    assert_matches_dense(S, rng)
    assert_matches_dense(np.zeros((4, 6)), rng)
    assert_matches_dense(np.zeros((0, 6)), rng)


def test_random_dense_matrix():
    rng = np.random.default_rng(7)
    assert_matches_dense(rng.normal(size=(40, 15)), rng)


def test_cone_matrix_is_shared_and_read_only():
    S = _cone_matrix("idcv", (4, 4))
    assert _cone_matrix("idcv", (4, 4)) is S
    with pytest.raises(ValueError):
        S[0, 0] = 1.0


@pytest.fixture(autouse=True)
def no_inverse(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", refuse)


class TestAgainstScipyWithoutInverse(test_simplex.TestAgainstScipy):
    pass


class TestEdgeCasesWithoutInverse(test_simplex.TestEdgeCases):
    pass


pair = test_idcv_d4.pair


def test_d4_fails_fast_without_inverse(pair):
    test_idcv_d4.test_fails_fast_with_checked_witness(pair)


def test_d4_reverse_pair_holds_without_inverse(pair):
    test_idcv_d4.test_reverse_pair_holds(pair)
