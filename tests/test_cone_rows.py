"""Cone rows of the LP certificates against unit-cell differences computed
by explicit loops."""

from itertools import combinations, product

import numpy as np
import pytest

from cascade_lab.orders import _idcv_stencils, _stencil_rows, _supermodular_stencils

SHAPES = [(1, 1), (2, 2), (3, 1), (2, 5), (4, 3), (1, 5, 2), (2, 3, 4), (3, 3, 3), (2, 1, 3, 2), (3, 2, 2, 3)]


def cone_rows(shape, stencils):
    return np.vstack([_stencil_rows(shape, s) for s in stencils])


def unit_cell_differences(xi):
    """Supermodular, increasing and concave differences of a grid function,
    each family axis by axis (pairs in lexicographic order) and, within an
    axis, over base points v in lexicographic order."""
    shape = xi.shape
    unit = np.eye(xi.ndim, dtype=int)

    def at(v):
        return xi[tuple(v)]

    def bases(reach):
        return [np.array(v) for v in product(*(range(s - r) for s, r in zip(shape, reach)))]

    supermodular = [
        at(v + unit[a]) + at(v + unit[b]) - at(v) - at(v + unit[a] + unit[b])
        for a, b in combinations(range(xi.ndim), 2)
        for v in bases(unit[a] + unit[b])
    ]
    monotone = [at(v) - at(v + unit[a]) for a in range(xi.ndim) for v in bases(unit[a])]
    concave = [
        at(v) - 2 * at(v + unit[a]) + at(v + 2 * unit[a])
        for a in range(xi.ndim)
        for v in bases(2 * unit[a])
    ]
    return supermodular, monotone, concave


@pytest.mark.parametrize("shape", SHAPES)
def test_rows_apply_unit_cell_differences(shape):
    rng = np.random.default_rng(len(shape) * 100 + int(np.prod(shape)))
    for _ in range(3):
        xi = rng.normal(size=shape)
        supermodular, monotone, concave = unit_cell_differences(xi)
        submodular = [-d for d in supermodular]
        sm = cone_rows(shape, _supermodular_stencils(xi.ndim))
        assert sm.shape == (len(supermodular), xi.size)
        np.testing.assert_allclose(sm @ xi.ravel(), supermodular, rtol=0, atol=1e-12)
        idcv = cone_rows(shape, _idcv_stencils(xi.ndim))
        expected = submodular + monotone + concave
        assert idcv.shape == (len(expected), xi.size)
        np.testing.assert_allclose(idcv @ xi.ravel(), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(1, 5, 2), (2, 1, 3, 2), (2, 2)])
def test_concave_stencil_has_no_rows_on_short_axes(shape):
    ndim = len(shape)
    concave = _idcv_stencils(ndim)[-ndim:]
    for axis, stencil in enumerate(concave):
        rows = _stencil_rows(shape, stencil)
        others = int(np.prod(shape)) // shape[axis]
        assert rows.shape == (max(shape[axis] - 2, 0) * others, int(np.prod(shape)))
        if shape[axis] < 3:
            assert rows.shape[0] == 0
