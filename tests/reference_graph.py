"""Reference finite-graph generator: the sort-heavy bookkeeping that
``cascade_lab.simulate.generate_system_graph`` replaced, kept as the oracle
it must match draw for draw.

Duplicate targets are found with a two-key ``np.lexsort`` over every edge in
every round, multi-edges with ``np.unique`` and CSR rows with ``np.add.at``.
Every random stream is consumed in the same order as by the library, so the
two must build identical arrays from the same seed. ``stats`` records the
most redraw rounds one call needed and how many agents the exact fallback
redid, so that tests can show which paths a case reached.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from cascade_lab.model import SystemModel
from cascade_lab.simulate import FiniteSystem


def csr_from_edges(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(src, kind="stable")
    src = src[order]
    dst = dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst


def distinct_targets(
    rng: np.random.Generator, src: np.ndarray, n_targets: int, offset: int, stats: dict
) -> tuple[np.ndarray, int]:
    dst = rng.integers(0, n_targets, size=src.size, dtype=np.int64)
    redraws = 0
    for rounds in range(16):
        order = np.lexsort((dst, src))
        s, d = src[order], dst[order]
        dup = np.zeros(src.size, dtype=bool)
        same = (s[1:] == s[:-1]) & (d[1:] == d[:-1])
        dup[order[1:][same]] = True
        stats["max_rounds"] = max(stats["max_rounds"], rounds)
        if not dup.any():
            return dst + offset, redraws
        dst[dup] = rng.integers(0, n_targets, size=int(dup.sum()), dtype=np.int64)
        redraws += int(dup.sum())
    for agent in np.unique(src):
        mask = src == agent
        k = int(mask.sum())
        if len(np.unique(dst[mask])) != k:
            stats["fallback_agents"] += 1
            dst[mask] = rng.choice(n_targets, size=k, replace=False)
            redraws += k
    return dst + offset, redraws


def generate_system_graph(
    model: SystemModel, sizes: Sequence[int], rng_seed: int | np.random.SeedSequence
) -> tuple[FiniteSystem, dict]:
    """The reference system for ``rng_seed`` and the paths it took."""
    stats = {"max_rounds": 0, "fallback_agents": 0}
    n = model.n_systems
    sizes = tuple(int(s) for s in sizes)
    rng = np.random.default_rng(rng_seed)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    total = int(offsets[-1])
    cs_of = np.repeat(np.arange(n), sizes).astype(np.int64)

    degree_vectors = np.zeros((total, n), dtype=np.int64)
    for i in range(n):
        pmf = model.degree_dists[i]
        idx = rng.choice(pmf.n_points, size=sizes[i], p=pmf.mass / pmf.mass.sum())
        degree_vectors[offsets[i] : offsets[i + 1]] = pmf.support[idx]

    erasure = {"self_loops": 0, "multi_edges": 0, "odd_stub_cs": [], "target_redraws": 0}
    edge_src: list[np.ndarray] = []
    edge_dst: list[np.ndarray] = []
    for i in range(n):
        agents = np.arange(offsets[i], offsets[i + 1], dtype=np.int64)
        stubs = np.repeat(agents, degree_vectors[agents, i])
        if stubs.size % 2 == 1:
            erasure["odd_stub_cs"].append(i)
            stubs = stubs[rng.permutation(stubs.size)][:-1]
        else:
            stubs = stubs[rng.permutation(stubs.size)]
        u, v = stubs[0::2], stubs[1::2]
        loops = u == v
        erasure["self_loops"] += int(loops.sum())
        u, v = u[~loops], v[~loops]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        key = lo * total + hi
        unique_key = np.unique(key)
        erasure["multi_edges"] += int(key.size - unique_key.size)
        lo, hi = unique_key // total, unique_key % total
        edge_src.append(np.concatenate([lo, hi]))
        edge_dst.append(np.concatenate([hi, lo]))
    src = np.concatenate(edge_src)
    dst = np.concatenate(edge_dst)
    internal_indptr, internal_indices = csr_from_edges(src, dst, total)

    ext_src: list[np.ndarray] = []
    ext_dst: list[np.ndarray] = []
    for i in range(n):
        agents = np.arange(offsets[i], offsets[i + 1], dtype=np.int64)
        for j in range(n):
            if j == i:
                continue
            srcs = np.repeat(agents, degree_vectors[agents, j])
            if srcs.size == 0:
                continue
            targets, redraws = distinct_targets(rng, srcs, sizes[j], int(offsets[j]), stats)
            erasure["target_redraws"] += redraws
            ext_src.append(srcs)
            ext_dst.append(targets)
    esrc = np.concatenate(ext_src) if ext_src else np.empty(0, dtype=np.int64)
    edst = np.concatenate(ext_dst) if ext_dst else np.empty(0, dtype=np.int64)
    external_indptr, external_indices = csr_from_edges(esrc, edst, total)

    security = rng.random(total)
    realized = np.diff(internal_indptr)
    vulnerable = np.zeros(total, dtype=bool)
    for i in range(n):
        block = slice(int(offsets[i]), int(offsets[i + 1]))
        degs = realized[block]
        phi_values = np.zeros(int(degs.max(initial=0)) + 1)
        for d in range(1, phi_values.size):
            phi_values[d] = model.vulnerability[i](d)
        vulnerable[block] = security[block] < phi_values[degs]

    system = FiniteSystem(
        sizes=sizes,
        offsets=offsets,
        cs_of=cs_of,
        degree_vectors=degree_vectors,
        internal_indptr=internal_indptr,
        internal_indices=internal_indices,
        external_indptr=external_indptr,
        external_indices=external_indices,
        infection=np.array(model.infection, dtype=np.float64),
        security=security,
        vulnerable=vulnerable,
        erasure=erasure,
        rng_seed=int(rng_seed) if isinstance(rng_seed, int) else None,
    )
    return system, stats
