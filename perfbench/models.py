"""Model documents the benchmark writes for the program to read.

Each builder returns a plain JSON document in the model-file format of
``cascade_lab.modelio`` (one sparse pmf per constituent system, the
inter-system transmission matrix with a null diagonal, one vulnerability
profile per system). Nothing here imports the program, so the inputs stay
the same whatever the program's own serializer does.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def _power_law(scale: float = 1.0, exponent: float = 0.0) -> dict:
    return {"kind": "power-law", "scale": scale, "exponent": exponent}


def _document(name: str, mode: str, dists: list[dict], infection, profiles) -> dict:
    n = len(dists)
    matrix = [
        [None if i == j else float(infection[i][j]) for j in range(n)] for i in range(n)
    ]
    return {
        "name": name,
        "n_systems": n,
        "mode": mode,
        "degree_dists": [
            {"entries": [[list(vec), float(m)] for vec, m in sorted(d.items())]}
            for d in dists
        ],
        "infection": matrix,
        "vulnerability": list(profiles),
    }


def _mirrored(entries: dict) -> dict:
    return {(b, a): m for (a, b), m in entries.items()}


def _product(*marginals: dict) -> dict:
    out = {}
    for combo in product(*(sorted(m.items()) for m in marginals)):
        vec = tuple(d for d, _ in combo)
        out[vec] = float(np.prod([m for _, m in combo]))
    return out


def wide(n: int, max_degree: int, q: float = 0.3, exponent: float = 0.5) -> dict:
    """Degree mode, every system's law uniform on {1..max_degree}^n."""
    points = list(product(range(1, max_degree + 1), repeat=n))
    law = {vec: 1.0 / len(points) for vec in points}
    infection = [[q] * n for _ in range(n)]
    return _document(
        f"wide_n{n}_d{max_degree}", "degree", [law] * n, infection,
        [_power_law(1.0, exponent)] * n,
    )


def near_critical(p: float) -> dict:
    """Children mode, symmetric: one internal child, two external children
    with probability ``p``. Die-out of the infected type is the smallest root
    of b = 1 - p + p b^4 in [0, 1]; the fresh type dies out with b^2."""
    law = {(1, 2): p, (1, 0): 1.0 - p}
    return _document(
        f"near_critical_{p}", "children", [law, _mirrored(law)],
        [[None, 1.0], [1.0, None]], [_power_law()] * 2,
    )


def near_critical_reference(p: float) -> np.ndarray:
    """Closed-form die-out probabilities (fresh, fresh, infected, infected)
    of ``near_critical(p)``, from the roots of p b^4 - b + 1 - p."""
    roots = np.roots([p, 0.0, 0.0, -1.0, 1.0 - p])
    real = roots[np.abs(roots.imag) < 1e-9].real
    b = float(min(r for r in real if -1e-12 <= r <= 1.0 + 1e-12))
    # Newton steps polish the companion-matrix root to double precision.
    for _ in range(3):
        f = p * b**4 - b + 1.0 - p
        df = 4.0 * p * b**3 - 1.0
        b -= f / df
    return np.array([b * b, b * b, b, b])


def periodic_d1() -> dict:
    """Defect D1: a periodic mean matrix on which power iteration stalls."""
    return _document(
        "periodic_d1", "degree", [{(1, 3): 1.0}, {(1, 1): 1.0}],
        [[None, 0.9], [0.5, None]], [_power_law(0.0, 0.0)] * 2,
    )


def example1_analog() -> dict:
    """Degree-mode symmetric model whose graph cascades match the branching
    analytics exactly (vulnerability 1/d cancels the size bias); cascade
    probability from one seed is about 0.0895."""
    internal = {1: 0.85, 3: 0.15}
    external = {0: 0.94, 12: 0.06}
    return _document(
        "example1_analog", "degree",
        [_product(internal, external), _product(external, internal)],
        [[None, 1.0], [1.0, None]], [_power_law(1.0, 1.0)] * 2,
    )


def table_coverage_d3() -> dict:
    """Defect D3: a table profile covering internal degrees {2, 3} only.
    The model validates, but stub erasure in a finite graph leaves agents
    with realized degree 1, outside the table."""
    internal = {2: 0.5, 3: 0.5}
    external = {0: 0.5, 1: 0.5}
    table = {"kind": "table", "table": {"2": 0.4, "3": 0.3}}
    return _document(
        "table_coverage_d3", "degree",
        [_product(internal, external), _product(external, internal)],
        [[None, 0.5], [0.5, None]], [table] * 2,
    )


def uniform_cube(side: int, dim: int = 3) -> dict:
    """Uniform law on {0..side-1}^dim."""
    points = list(product(range(side), repeat=dim))
    return {vec: 1.0 / len(points) for vec in points}


def concordance_transfer(rng: np.random.Generator, law: dict) -> dict:
    """Move mass from two incomparable support points onto their meet and
    join. Marginals are unchanged and the result is larger in the
    supermodular order."""
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


def mean_preserving_spread(rng: np.random.Generator, law: dict) -> dict:
    """Move mass from one support point to its two neighbours along one
    axis. The mean is unchanged and the result is smaller in the increasing
    directionally-concave order."""
    entries = dict(sorted(law.items()))
    candidates = [
        (vec, axis)
        for vec, m in entries.items()
        if m > 1e-9
        for axis in range(len(vec))
        if vec[axis] >= 1
    ]
    vec, axis = candidates[int(rng.integers(0, len(candidates)))]
    delta = entries[vec] * float(rng.uniform(0.2, 0.8))
    down = tuple(v - 1 if k == axis else v for k, v in enumerate(vec))
    up = tuple(v + 1 if k == axis else v for k, v in enumerate(vec))
    entries[vec] -= delta
    entries[down] = entries.get(down, 0.0) + delta / 2
    entries[up] = entries.get(up, 0.0) + delta / 2
    return {k: v for k, v in entries.items() if v > 0}


def order_model(name: str, law: dict) -> dict:
    """Three-system children-mode model whose every system carries ``law``;
    the ``orders`` command compares the laws of one system."""
    dim = len(next(iter(law)))
    infection = [[1.0] * dim for _ in range(dim)]
    return _document(name, "children", [law] * dim, infection, [_power_law()] * dim)
