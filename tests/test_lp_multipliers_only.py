"""The cone-LP verdicts rest on the interior-point multipliers alone.

Reruns the LP cases of ``test_simplex``, the D4 stall regression and the D6
singular-solve replays with ``np.linalg.lstsq`` made to raise, so that no
least-squares re-solve of the multipliers can take part in a bound.
"""

import numpy as np
import pytest

# Imported tests and fixtures are collected again under this module.
from test_idcv_d4 import (  # noqa: F401
    pair,
    test_fails_fast_with_checked_witness,
    test_reverse_pair_holds,
)
from test_lp_singular import (  # noqa: F401
    test_ordered_pairs_hold,
    test_singular_direction_solve_stalls,
)
from test_simplex import TestAgainstScipy, TestEdgeCases  # noqa: F401


@pytest.fixture(autouse=True)
def no_lstsq(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
