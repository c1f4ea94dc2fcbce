"""Certify or falsify stochastic-order relations between degree laws.

Every function compares its first argument against its second and returns an
``OrderVerdict`` for the relation "first is smaller than second" in the named
order. Univariate and orthant-based checks are exact on the merged supports.
The supermodular and increasing-directionally-concave cones are certified by
linear programming over all functions on the integer bounding box of the two
supports: the cone conditions reduce to unit-cell difference inequalities
there. Each LP verdict rests on a weak-duality lower bound on the optimum
and on a near-optimal function that is re-checked against the cone and the
box; a function with a negative gap is the falsifying witness. The
Laplace-transform order quantifies over a continuum and is only
grid-falsified: a reported violation is sound, a pass means no violation on
the chosen grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

import numpy as np

from .pmf import JointPmf, MarginalPmf
from .simplex import CONE_TOL, solve_lp

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

EXACT = "exact"
LP_CERTIFIED = "lp-certified"
GRID_FALSIFICATION = "grid-falsification"
NECESSARY_CONDITIONS = "necessary-conditions"

# Slack of every order comparison: cdf and orthant gaps, marginal masses,
# transform values and LP optimum bounds.
ORDER_ATOL = 1e-9
DEFAULT_GRID_LIMIT = 400
LT_DEFAULT_LEVELS = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
# Transform arguments evaluated per generating-function call in compare_lt.
LT_CHUNK = 2048


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of one order comparison; failing verdicts carry a witness
    reproducing the violated defining inequality."""

    relation: str
    outcome: str
    method: str
    witness: dict | None = None
    detail: str = ""
    lower_bound: float | None = None
    upper_bound: float | None = None
    iterations: int | None = None

    def __post_init__(self):
        if self.outcome == FAILS and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")

    @property
    def holds(self) -> bool:
        return self.outcome == HOLDS

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "outcome": self.outcome,
            "method": self.method,
            "witness": self.witness,
            "detail": self.detail,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "iterations": self.iterations,
        }


def compare_fsd(x: MarginalPmf, y: MarginalPmf) -> OrderVerdict:
    """First-order stochastic dominance: x <= y iff F_x(t) >= F_y(t) for all t."""
    points = np.union1d(x.support, y.support)
    for t in points:
        fx, fy = x.cdf_at(t), y.cdf_at(t)
        if fx < fy - ORDER_ATOL:
            return OrderVerdict(
                "fsd", FAILS, EXACT, witness={"t": int(t), "F_x": fx, "F_y": fy}
            )
    return OrderVerdict("fsd", HOLDS, EXACT)


def compare_icv(x: MarginalPmf, y: MarginalPmf) -> OrderVerdict:
    """Increasing-concave (= second-order stochastic dominance) order:
    x <= y iff the running sums of F_x dominate those of F_y at every level.
    Both cdfs are constant from one merged support point to the next, so the
    sums grow linearly there and each such stretch is checked at once; a
    violation inside one is located by bisection."""
    points = np.union1d(x.support, y.support).tolist()
    sum_x = sum_y = 0.0
    for start, stop in zip(points, points[1:] + [points[-1] + 1]):
        fx, fy = x.cdf_at(start), y.cdf_at(start)

        def short(m: int) -> bool:
            """Whether the sums after m more levels violate the order."""
            return sum_x + m * fx < sum_y + m * fy - ORDER_ATOL

        width = stop - start
        if short(1) or short(width):
            # The gap is linear in m: the first violation is at m = 1 or, if
            # the gap shrinks, found by bisection. m = 0 was checked already.
            lo, hi = 0, 1 if short(1) else width
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if short(mid) else (mid, hi)
            return OrderVerdict(
                "icv",
                FAILS,
                EXACT,
                witness={
                    "k": start + hi - 1,
                    "cum_F_x": sum_x + hi * fx,
                    "cum_F_y": sum_y + hi * fy,
                },
            )
        sum_x += width * fx
        sum_y += width * fy
    return OrderVerdict("icv", HOLDS, EXACT)


def _merged_axes(x: JointPmf, y: JointPmf) -> list[np.ndarray]:
    return [
        np.union1d(x.support[:, j], y.support[:, j]) for j in range(x.dimension)
    ]


def _scatter(pmf: JointPmf, axes: list[np.ndarray]) -> np.ndarray:
    """Point masses of ``pmf`` on the grid of all combinations of the sorted
    per-axis values in ``axes``, which must cover the support."""
    cells = np.zeros(tuple(len(a) for a in axes))
    idx = tuple(np.searchsorted(axes[j], pmf.support[:, j]) for j in range(len(axes)))
    np.add.at(cells, idx, pmf.mass)
    return cells


def _orthant_tables(pmf: JointPmf, axes: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Lower-orthant F(t) = P(X <= t) and upper-orthant P(X > t) on the grid
    of all combinations of per-axis threshold values."""
    cells = _scatter(pmf, axes)
    lower = cells
    for axis in range(cells.ndim):
        lower = np.cumsum(lower, axis=axis)
    upper = cells
    for axis in range(cells.ndim):
        flipped = np.flip(np.cumsum(np.flip(upper, axis), axis), axis)
        strict = np.zeros_like(flipped)
        src = [slice(None)] * cells.ndim
        dst = [slice(None)] * cells.ndim
        src[axis] = slice(1, None)
        dst[axis] = slice(None, -1)
        strict[tuple(dst)] = flipped[tuple(src)]
        upper = strict
    return lower, upper


def _marginal_mismatch(x: JointPmf, y: JointPmf) -> dict | None:
    from .pmf import marginal

    for axis in range(x.dimension):
        mx, my = marginal(x, axis), marginal(y, axis)
        for d in np.union1d(mx.support, my.support):
            px, py = mx.prob(int(d)), my.prob(int(d))
            if abs(px - py) > ORDER_ATOL:
                return {"axis": axis, "degree": int(d), "p_x": px, "p_y": py}
    return None


def compare_concordance(x: JointPmf, y: JointPmf) -> OrderVerdict:
    """Concordance order: identical marginals plus F_x <= F_y and
    P(X > t) <= P(Y > t) at every point of the merged support grid."""
    if x.dimension != y.dimension:
        raise ValueError("dimension mismatch")
    mismatch = _marginal_mismatch(x, y)
    if mismatch is not None:
        return OrderVerdict(
            "concordance",
            FAILS,
            EXACT,
            witness={"marginal-mismatch": mismatch},
            detail="concordance requires identical marginals",
        )
    axes = _merged_axes(x, y)
    lower_x, upper_x = _orthant_tables(x, axes)
    lower_y, upper_y = _orthant_tables(y, axes)
    for name, gx, gy in (("lower", lower_x, lower_y), ("upper", upper_x, upper_y)):
        gap = gx - gy
        worst = np.unravel_index(np.argmax(gap), gap.shape)
        if gap[worst] > ORDER_ATOL:
            t = tuple(int(axes[j][worst[j]]) for j in range(len(axes)))
            return OrderVerdict(
                "concordance",
                FAILS,
                EXACT,
                witness={
                    "orthant": name,
                    "t": t,
                    "P_x": float(gx[worst]),
                    "P_y": float(gy[worst]),
                },
            )
    return OrderVerdict("concordance", HOLDS, EXACT)


def _bounding_box(x: JointPmf, y: JointPmf) -> tuple[int, ...]:
    """Shape of the integer grid 0..max per axis. Anchoring at 0 keeps the
    certificates two-sided: any cone function on nonnegative integer vectors
    restricts to the box, and any box function satisfying the cell
    inequalities extends back by clamping coordinates into the box."""
    return tuple(
        int(max(x.support[:, j].max(), y.support[:, j].max())) + 1
        for j in range(x.dimension)
    )


def _stencil_rows(shape: tuple[int, ...], stencil: list) -> np.ndarray:
    """One row sum(coeff * xi(v + offset)) <= 0 per point v of the grid of
    ``shape``, in lexicographic order, for every v that keeps all offsets on
    the grid. A stencil is a list of (offset, coeff) pairs with nonnegative
    integer offset vectors."""
    reach = np.max([offset for offset, _ in stencil], axis=0)
    dims = [max(s - r, 0) for s, r in zip(shape, reach)]
    count = int(np.prod(dims))
    starts = np.indices(dims).reshape(len(shape), count)
    rows = np.zeros((count, int(np.prod(shape))))
    for offset, coeff in stencil:
        cols = np.ravel_multi_index(starts + np.reshape(offset, (-1, 1)), shape)
        rows[np.arange(count), cols] += coeff
    return rows


def _supermodular_stencils(ndim: int) -> list[list]:
    """xi(v+ea) + xi(v+eb) - xi(v) - xi(v+ea+eb) <= 0 for every axis pair."""
    e, zero = np.eye(ndim, dtype=np.int64), np.zeros(ndim, dtype=np.int64)
    return [
        [(e[a], 1.0), (e[b], 1.0), (zero, -1.0), (e[a] + e[b], -1.0)]
        for a, b in combinations(range(ndim), 2)
    ]


def _idcv_stencils(ndim: int) -> list[list]:
    """Submodular cells (the supermodular stencils sign-flipped), then
    xi(v) - xi(v+ea) <= 0 (increasing) and xi(v) - 2 xi(v+ea) + xi(v+2ea)
    <= 0 (concave) for every axis."""
    e, zero = np.eye(ndim, dtype=np.int64), np.zeros(ndim, dtype=np.int64)
    return (
        [[(o, -w) for o, w in s] for s in _supermodular_stencils(ndim)]
        + [[(zero, 1.0), (e[a], -1.0)] for a in range(ndim)]
        + [[(zero, 1.0), (e[a], -2.0), (2 * e[a], 1.0)] for a in range(ndim)]
    )


# Bounded so that a long-lived process comparing many grid shapes does not
# keep every cone matrix it ever built.
@functools.lru_cache(maxsize=32)
def _cone_matrix(relation: str, shape: tuple[int, ...]) -> np.ndarray:
    """Stencil rows of the supermodular or idcv cone on the grid of
    ``shape``, built once per (cone, shape) and returned read-only."""
    stencils = _supermodular_stencils if relation == "supermodular" else _idcv_stencils
    S = np.vstack([_stencil_rows(shape, s) for s in stencils(len(shape))])
    S.flags.writeable = False
    return S


def _certify_on_grid(relation: str, x: JointPmf, y: JointPmf, grid_limit: int) -> OrderVerdict:
    """Bound min sum((y - x) * xi) over functions xi in [-1, 1] on the integer
    bounding box that satisfy every row of the ``relation`` cone
    ("supermodular" or "idcv"). A lower bound >= -ORDER_ATOL
    certifies the order; a function whose re-checked gap is < -ORDER_ATOL
    falsifies it; anything between is inconclusive. A box of more than
    ``grid_limit`` points gets an inconclusive necessary-condition report
    instead."""
    if x.dimension != y.dimension:
        raise ValueError("dimension mismatch")
    shape = _bounding_box(x, y)
    # Python integers: a box with a huge degree is reported, not allocated.
    size = math.prod(shape)
    if size > grid_limit:
        return OrderVerdict(
            relation,
            INCONCLUSIVE,
            NECESSARY_CONDITIONS,
            detail=(
                f"grid of {size} points exceeds limit {grid_limit}; "
                + _necessary_condition_report(x, y)
            ),
        )
    axes = [np.arange(s) for s in shape]
    c = (_scatter(y, axes) - _scatter(x, axes)).ravel()
    S = _cone_matrix(relation, shape)
    result = solve_lp(c, S)
    bounds = {
        "lower_bound": result.lower,
        "upper_bound": result.upper if math.isfinite(result.upper) else None,
        "iterations": result.iterations,
    }
    summary = (
        f"optimum in [{result.lower:.3e}, {result.upper:.3e}] over {size}-point grid "
        f"after {result.iterations} interior-point iterations ({result.status})"
    )
    if result.lower >= -ORDER_ATOL:
        return OrderVerdict(relation, HOLDS, LP_CERTIFIED, detail=summary, **bounds)
    # Re-check the witness without the solver: inside the box, on the cone,
    # and its gap recomputed from the two pmfs.
    xi = result.x
    gap = float(c @ xi)
    on_cone = float((S @ xi).max(initial=0.0)) <= CONE_TOL
    if not (gap < -ORDER_ATOL and on_cone and np.abs(xi).max() <= 1.0):
        return OrderVerdict(relation, INCONCLUSIVE, LP_CERTIFIED, detail=summary, **bounds)
    xi = xi.reshape(shape)
    table = [
        [[int(axes[j][k[j]]) for j in range(len(axes))], float(xi[k])]
        for k in product(*(range(s) for s in shape))
    ]
    return OrderVerdict(
        relation,
        FAILS,
        LP_CERTIFIED,
        witness={"xi": table, "gap": gap},
        detail=f"the witness function violates the defining expectation inequality; {summary}",
        **bounds,
    )


def _necessary_condition_report(x: JointPmf, y: JointPmf) -> str:
    lines = []
    concordance = compare_concordance(x, y)
    lines.append(f"orthant/concordance check: {concordance.outcome}")
    for i, j in combinations(range(x.dimension), 2):
        def cov(p: JointPmf) -> float:
            a = p.support[:, i].astype(float)
            b = p.support[:, j].astype(float)
            return float(p.mass @ (a * b)) - float(p.mass @ a) * float(p.mass @ b)

        cx, cy = cov(x), cov(y)
        verdict = "ok" if cx <= cy + ORDER_ATOL else "violated"
        lines.append(f"cov axis ({i},{j}): {cx:.6g} vs {cy:.6g} [{verdict}]")
    return "; ".join(lines)


def certify_supermodular(
    x: JointPmf, y: JointPmf, grid_limit: int = DEFAULT_GRID_LIMIT
) -> OrderVerdict:
    """Supermodular order. Bivariate inputs reduce exactly to concordance;
    higher dimensions are LP-certified on the integer bounding box, falling
    back to an inconclusive necessary-condition report when the box exceeds
    ``grid_limit`` points."""
    if x.dimension == 2:
        inner = compare_concordance(x, y)
        return OrderVerdict(
            "supermodular",
            inner.outcome,
            EXACT,
            witness=inner.witness,
            detail="bivariate supermodular order coincides with concordance",
        )
    return _certify_on_grid("supermodular", x, y, grid_limit)


def certify_idcv(
    x: JointPmf, y: JointPmf, grid_limit: int = DEFAULT_GRID_LIMIT
) -> OrderVerdict:
    """Increasing directionally-concave order, LP-certified over the cone of
    increasing, componentwise-concave, submodular functions on the integer
    bounding box of the two supports."""
    return _certify_on_grid("idcv", x, y, grid_limit)


def default_lt_grid(dimension: int, levels: Sequence[float] = LT_DEFAULT_LEVELS) -> np.ndarray:
    """Tensor grid of positive transform arguments, one level set per axis."""
    grids = np.meshgrid(*([np.asarray(levels, dtype=np.float64)] * dimension), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def compare_lt(x, y, s_grid: np.ndarray | None = None) -> OrderVerdict:
    """Laplace-transform order on a finite grid of arguments:
    x <= y needs E[exp(-s.x)] >= E[exp(-s.y)] at every s > 0; only the grid
    points are checked, so a pass falsifies nothing beyond the grid while a
    reported violation is a genuine counterexample. ``x`` and ``y`` are any
    laws with a generating function ``gf``; the transform is gf(exp(-s)).

    The default grid spans only the coordinates where either support is
    nonzero. The transform does not depend on the others, which are held at
    the lowest level, so a violation carries the witness the full tensor
    grid would find first."""
    if x.support.shape[1] != y.support.shape[1]:
        raise ValueError("dimension mismatch")
    dim = x.support.shape[1]
    if s_grid is None:
        live = np.flatnonzero(np.any(x.support, axis=0) | np.any(y.support, axis=0))
        s_grid = np.full((len(LT_DEFAULT_LEVELS) ** live.size, dim), LT_DEFAULT_LEVELS[0])
        if live.size:
            s_grid[:, live] = default_lt_grid(live.size)
    s_grid = np.asarray(s_grid, dtype=np.float64)
    if s_grid.ndim == 1:
        s_grid = s_grid[:, None]
    if np.any(s_grid <= 0):
        raise ValueError("transform arguments must be strictly positive")
    for start in range(0, s_grid.shape[0], LT_CHUNK):
        block = s_grid[start : start + LT_CHUNK]
        u = np.exp(-block)[:, None, :]
        lt_x = x.gf(u)
        lt_y = y.gf(u)
        bad = np.nonzero(lt_x < lt_y - ORDER_ATOL)[0]
        if bad.size:
            k = int(bad[0])
            return OrderVerdict(
                "lt",
                FAILS,
                GRID_FALSIFICATION,
                witness={
                    "s": [float(v) for v in block[k]],
                    "lt_x": float(lt_x[k]),
                    "lt_y": float(lt_y[k]),
                },
            )
    return OrderVerdict(
        "lt",
        HOLDS,
        GRID_FALSIFICATION,
        detail=f"no violation on a {s_grid.shape[0]}-point grid (sound for falsification only)",
    )
