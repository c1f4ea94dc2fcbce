"""Regression: the idcv LP between the uniform law on {0..4}^3 and one
concordance transfer of it, on which a dense-tableau simplex used to stall
for minutes before giving up."""

import time
from itertools import product

import numpy as np
import pytest

from cascade_lab import JointPmf
from cascade_lab.orders import (
    FAILS,
    HOLDS,
    _idcv_stencils,
    _stencil_rows,
    certify_idcv,
)
from cascade_lab.simplex import CONE_TOL


def uniform_cube(side: int, dim: int = 3) -> dict:
    points = list(product(range(side), repeat=dim))
    return {vec: 1.0 / len(points) for vec in points}


def concordance_transfer(rng: np.random.Generator, law: dict) -> dict:
    """Move mass from two incomparable support points onto their meet and
    join; marginals are unchanged."""
    entries = dict(sorted(law.items()))
    keys = [k for k, v in entries.items() if v > 1e-9]
    pairs = [
        (a, b)
        for a, b in product(keys, keys)
        if any(x < y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))
    ]
    a, b = pairs[int(rng.integers(0, len(pairs)))]
    delta = min(entries[a], entries[b]) * float(rng.uniform(0.2, 0.8))
    meet = tuple(min(x, y) for x, y in zip(a, b))
    join = tuple(max(x, y) for x, y in zip(a, b))
    entries[a] -= delta
    entries[b] -= delta
    entries[meet] = entries.get(meet, 0.0) + delta
    entries[join] = entries.get(join, 0.0) + delta
    return {k: v for k, v in entries.items() if v > 0}


@pytest.fixture(scope="module")
def pair():
    uniform = uniform_cube(5)
    transfer = concordance_transfer(np.random.default_rng(0), uniform)
    return uniform, transfer


def test_fails_fast_with_checked_witness(pair):
    uniform, transfer = pair
    x, y = JointPmf.from_dict(uniform), JointPmf.from_dict(transfer)
    start = time.perf_counter()
    verdict = certify_idcv(x, y)
    elapsed = time.perf_counter() - start
    assert verdict.outcome == FAILS
    assert elapsed < 1.0

    xi = {tuple(point): value for point, value in verdict.witness["xi"]}
    values = np.array([xi[v] for v in product(range(5), repeat=3)])
    assert np.abs(values).max() <= 1.0
    S = np.vstack([_stencil_rows((5, 5, 5), s) for s in _idcv_stencils(3)])
    assert (S @ values).max() <= CONE_TOL
    gap = sum(m * xi[v] for v, m in transfer.items()) - sum(m * xi[v] for v, m in uniform.items())
    assert gap < 0
    assert gap == pytest.approx(verdict.witness["gap"], abs=1e-8)
    assert verdict.upper_bound - verdict.lower_bound <= 1e-6


def test_reverse_pair_holds(pair):
    uniform, transfer = pair
    verdict = certify_idcv(JointPmf.from_dict(transfer), JointPmf.from_dict(uniform))
    assert verdict.outcome == HOLDS
