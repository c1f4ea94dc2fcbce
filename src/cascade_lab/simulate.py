"""Monte Carlo validation at two fidelities.

``simulate_branching`` draws the multi-type offspring process directly from
the enumerated offspring laws (``OffspringLaw``s with thinning one) and
estimates the die-out probability.
``generate_system_graph`` + ``run_cascade`` build a finite random graph
realizing the degree laws (configuration-model internals, uniformly wired
directed external edges) and propagate failures by the threshold rule inside
a CS and by per-edge coin flips across CSes, which tests the tree
approximation behind the analytics rather than the analytics themselves.
``estimate_epidemic_probability`` keeps one graph at a time: each trial's
graph and cascade are freed before the next graph is generated, and
generation peaks at about 1.3 times the arrays of the graph it returns.

Every entry point takes an integer seed; trial ``t`` always draws from a
stream spawned as ``SeedSequence(seed, spawn_key=(t,))``, so results are
reproducible bit for bit and trials are independent (and parallelizable)
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .children import OffspringLaw, build_children
from .model import SystemModel

_Z95 = 1.959963984540054

EXTINCT = "extinct"
GENERATION_CAP = "generation-cap"
POPULATION_CAP = "population-cap"


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    z = _Z95
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return (low, high)


@dataclass(frozen=True)
class ExtinctionEstimate:
    """Monte Carlo proportion estimate with its Wilson 95% interval.

    ``quantity`` says what was counted: "extinction" for branching trials
    that died out, "epidemic" for graph trials whose failed fraction reached
    the epidemic threshold. ``cap_hit_rate`` reports the fraction of trials
    stopped by a cap (those count as survival, biasing extinction estimates
    downward; keep it small relative to the interval width). ``diagnostics``,
    when present, counts how the sample was built: graph trials sum their
    graphs' ``self_loops``, ``multi_edges``, ``odd_stub_cs`` (CSes that
    dropped a stub) and ``target_redraws``.
    """

    quantity: str
    trials: int
    count: int
    estimate: float
    ci_low: float
    ci_high: float
    rng_seed: int
    cap_hit_rate: float = 0.0
    diagnostics: dict | None = None

    def __post_init__(self):
        if not (0.0 <= self.ci_low <= self.estimate <= self.ci_high <= 1.0):
            raise ValueError("estimate must lie inside its confidence interval in [0, 1]")

    def to_dict(self) -> dict:
        payload = {
            "quantity": self.quantity,
            "trials": self.trials,
            "count": self.count,
            "estimate": self.estimate,
            "ci95": [self.ci_low, self.ci_high],
            "rng_seed": self.rng_seed,
            "cap_hit_rate": self.cap_hit_rate,
        }
        if self.diagnostics is not None:
            payload["diagnostics"] = dict(self.diagnostics)
        return payload


@dataclass(frozen=True)
class CascadeTrace:
    """Per-generation type counts of one branching trial."""

    counts: np.ndarray  # (generations + 1, n_types)
    termination: str

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] < 1:
            raise ValueError("trace needs at least the seed generation")
        if counts[0].sum() != 1:
            raise ValueError("generation 0 must hold exactly the seed agent")
        if np.any(counts < 0):
            raise ValueError("negative generation count")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


def _trial_seed(seed: int, trial: int) -> np.random.SeedSequence:
    """The seed of trial ``trial``: every Monte Carlo entry point draws that
    trial's randomness from this sequence or from its spawned children."""
    return np.random.SeedSequence(seed, spawn_key=(trial,))


def simulate_offspring_process(
    children: Sequence[OffspringLaw],
    seed_type: int,
    generation_cap: int = 200,
    population_cap: int = 100_000,
    trials: int = 10_000,
    rng_seed: int = 0,
    keep_traces: int = 0,
) -> tuple[ExtinctionEstimate, list[CascadeTrace]]:
    """Estimate the die-out probability by direct simulation of the
    offspring laws, which must be enumerated (thinning one): each agent
    draws one row of its law's table as its children vector. A trial ends
    when a generation is empty (extinct) or a cap is hit (counted as
    survival)."""
    if any(np.any(h.thinning != 1.0) for h in children):
        raise ValueError("offspring laws must have thinning one: enumerate with children() first")
    if generation_cap < 1 or population_cap < 1:
        raise ValueError("caps must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_types = children[0].n_types
    if not 0 <= seed_type < n_types:
        raise IndexError(f"seed_type {seed_type} out of range")
    supports = [h.support.astype(np.int64) for h in children]
    pvals = [h.mass / h.mass.sum() for h in children]

    extinct = 0
    cap_hits = 0
    traces: list[CascadeTrace] = []
    for trial in range(trials):
        rng = np.random.default_rng(_trial_seed(rng_seed, trial))
        counts = np.zeros(n_types, dtype=np.int64)
        counts[seed_type] = 1
        total = 1
        history = [counts.copy()] if trial < keep_traces else None
        termination = GENERATION_CAP
        for _ in range(generation_cap):
            new = np.zeros(n_types, dtype=np.int64)
            for t in np.nonzero(counts)[0]:
                draws = rng.multinomial(int(counts[t]), pvals[t])
                new += draws @ supports[t]
            counts = new
            if history is not None:
                history.append(counts.copy())
            if counts.sum() == 0:
                termination = EXTINCT
                break
            total += int(counts.sum())
            if total > population_cap:
                termination = POPULATION_CAP
                break
        if termination == EXTINCT:
            extinct += 1
        else:
            cap_hits += 1
        if history is not None:
            traces.append(CascadeTrace(np.array(history), termination))

    low, high = wilson_interval(extinct, trials)
    estimate = ExtinctionEstimate(
        quantity="extinction",
        trials=trials,
        count=extinct,
        estimate=extinct / trials,
        ci_low=low,
        ci_high=high,
        rng_seed=rng_seed,
        cap_hit_rate=cap_hits / trials,
    )
    return estimate, traces


def simulate_branching(
    model: SystemModel,
    seed_type: int,
    generation_cap: int = 200,
    population_cap: int = 100_000,
    trials: int = 10_000,
    rng_seed: int = 0,
    keep_traces: int = 0,
) -> tuple[ExtinctionEstimate, list[CascadeTrace]]:
    """Branching-process Monte Carlo for a system model (enumerates the
    offspring laws with ``build_children``, then samples them)."""
    return simulate_offspring_process(
        build_children(model),
        seed_type,
        generation_cap=generation_cap,
        population_cap=population_cap,
        trials=trials,
        rng_seed=rng_seed,
        keep_traces=keep_traces,
    )


@dataclass(frozen=True, eq=False)
class FiniteSystem:
    """A sampled finite realization of a system model.

    Agents carry global ids: CS ``i`` owns ids ``offsets[i] .. offsets[i+1]-1``.
    Internal adjacency is an undirected simple graph in CSR form; external
    edges are directed supporter -> dependent, also CSR by supporter.
    ``security`` holds one uniform draw per agent; ``vulnerable`` is the
    once-per-agent evaluation of the threshold rule (the uniform lies below
    the vulnerability profile at the agent's realized internal degree).
    ``erasure`` records the repairs made while wiring: ``self_loops`` and
    ``multi_edges`` erased from the internal graphs, ``odd_stub_cs`` (the CSes
    that dropped one stub) and ``target_redraws`` (external targets redrawn
    to keep each agent's dependents distinct).
    """

    sizes: tuple[int, ...]
    offsets: np.ndarray
    cs_of: np.ndarray
    degree_vectors: np.ndarray
    internal_indptr: np.ndarray
    internal_indices: np.ndarray
    external_indptr: np.ndarray
    external_indices: np.ndarray
    infection: np.ndarray
    security: np.ndarray
    vulnerable: np.ndarray
    erasure: dict
    rng_seed: int | None

    @property
    def n_agents(self) -> int:
        return int(self.offsets[-1])

    def internal_degree(self, agent: int) -> int:
        return int(self.internal_indptr[agent + 1] - self.internal_indptr[agent])

    def internal_neighbors(self, agent: int) -> np.ndarray:
        return self.internal_indices[
            self.internal_indptr[agent] : self.internal_indptr[agent + 1]
        ]

    def external_dependents(self, agent: int) -> np.ndarray:
        return self.external_indices[
            self.external_indptr[agent] : self.external_indptr[agent + 1]
        ]


def _csr_from_edges(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    # Stable: run_cascade hands out its transmission coins in this order.
    order = np.argsort(src, kind="stable")
    return indptr, dst[order]


def _csr_gather(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The entries of CSR rows ``rows``, concatenated in the order given."""
    counts = indptr[rows + 1] - indptr[rows]
    positions = np.repeat(indptr[rows] - np.cumsum(counts) + counts, counts)
    positions += np.arange(positions.size)
    return indices[positions]


def _distinct_targets(
    rng: np.random.Generator, src: np.ndarray, n_targets: int, offset: int
) -> tuple[np.ndarray, int]:
    """Uniform targets in [offset, offset + n_targets), distinct within each
    source agent, and the number of targets redrawn to get there. Sampled
    with replacement and patched: every repeat after a source's first draw of
    that target is redrawn, in index order, for at most 16 rounds, with a
    per-agent exact fallback for stragglers."""
    dst = rng.integers(0, n_targets, size=src.size, dtype=np.int64)
    redraws = 0
    # Entries of the sources that may still hold a repeat: after the first
    # round, only a source that just redrew can have gained one.
    live = np.arange(src.size)
    for _ in range(16):
        key = src[live] * n_targets + dst[live]
        order = np.argsort(key, kind="stable")
        key = key[order]
        dup = np.sort(live[order[1:][key[1:] == key[:-1]]])
        if not dup.size:
            return dst + offset, redraws
        dst[dup] = rng.integers(0, n_targets, size=dup.size, dtype=np.int64)
        redraws += dup.size
        live = live[np.isin(src[live], src[dup])]
    # A stubborn agent must have degree comparable to the population: redo it
    # exactly without replacement.
    for agent in np.unique(src[live]):
        mask = src == agent
        k = int(mask.sum())
        if len(np.unique(dst[mask])) != k:
            dst[mask] = rng.choice(n_targets, size=k, replace=False)
            redraws += k
    return dst + offset, redraws


def _wire_internal(
    rng: np.random.Generator, stub_counts: np.ndarray, first: int, total: int, cs: int,
    erasure: dict,
) -> np.ndarray:
    """Configuration-model wiring of CS ``cs``, whose agents ``first ..``
    have ``stub_counts`` stubs: the sorted distinct keys lo·total + hi of its
    simple edges, after self-loop and multi-edge erasure (an odd stub total
    drops one stub)."""
    stubs = np.repeat(np.arange(first, first + stub_counts.size, dtype=np.int64), stub_counts)
    if stubs.size % 2 == 1:
        erasure["odd_stub_cs"].append(cs)
        stubs = stubs[rng.permutation(stubs.size)][:-1]
    else:
        stubs = stubs[rng.permutation(stubs.size)]
    u, v = stubs[0::2], stubs[1::2]
    loops = u == v
    erasure["self_loops"] += int(loops.sum())
    u, v = u[~loops], v[~loops]
    key = np.sort(np.minimum(u, v) * total + np.maximum(u, v))
    first_copy = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first_copy[1:])
    unique_key = key[first_copy]
    erasure["multi_edges"] += int(key.size - unique_key.size)
    return unique_key


def _internal_csr(
    rng: np.random.Generator, degree_vectors: np.ndarray, offsets: np.ndarray, erasure: dict
) -> tuple[np.ndarray, np.ndarray]:
    """The internal graphs of every CS as one undirected CSR. Each CS's
    edges enter as lo -> hi then hi -> lo, in key order; each CS's keys are
    freed as soon as they are copied into the edge list."""
    total = int(offsets[-1])
    keys = [
        _wire_internal(rng, degree_vectors[offsets[i] : offsets[i + 1], i], int(offsets[i]),
                       total, i, erasure)
        for i in range(offsets.size - 1)
    ]
    src = np.empty(2 * sum(key.size for key in keys), dtype=np.int64)
    dst = np.empty_like(src)
    start = 0
    while keys:
        key = keys.pop(0)
        mid, end = start + key.size, start + 2 * key.size
        np.floor_divide(key, total, out=src[start:mid])
        np.remainder(key, total, out=src[mid:end])
        dst[start:mid] = src[mid:end]
        dst[mid:end] = src[start:mid]
        start = end
    return _csr_from_edges(src, dst, total)


def _external_csr(
    rng: np.random.Generator, degree_vectors: np.ndarray, offsets: np.ndarray, erasure: dict
) -> tuple[np.ndarray, np.ndarray]:
    """The directed external edges supporter -> dependent as one CSR, wired
    CS pair by CS pair into edge lists allocated once."""
    n = offsets.size - 1
    sizes = np.diff(offsets)
    pairs = [(i, j) for i in range(n) for j in range(n) if j != i]
    n_edges = 0
    for i, j in pairs:
        douts = degree_vectors[offsets[i] : offsets[i + 1], j]
        if douts.max(initial=0) > sizes[j]:
            raise ValueError(
                f"CS {j} has {sizes[j]} agents but a CS {i} agent wants "
                f"{int(douts.max())} distinct dependents there"
            )
        n_edges += int(douts.sum())
    src = np.empty(n_edges, dtype=np.int64)
    dst = np.empty_like(src)
    start = 0
    for i, j in pairs:
        douts = degree_vectors[offsets[i] : offsets[i + 1], j]
        end = start + int(douts.sum())
        if end == start:
            continue
        src[start:end] = np.repeat(np.arange(offsets[i], offsets[i + 1], dtype=np.int64), douts)
        targets, redraws = _distinct_targets(rng, src[start:end], int(sizes[j]), int(offsets[j]))
        dst[start:end] = targets
        erasure["target_redraws"] += redraws
        start = end
    return _csr_from_edges(src, dst, int(offsets[-1]))


def generate_system_graph(
    model: SystemModel, sizes: Sequence[int], rng_seed: int | np.random.Generator = 0
) -> FiniteSystem:
    """Sample a finite system: i.i.d. degree vectors, configuration-model
    internal wiring with self-loop/multi-edge erasure (an odd stub total
    drops one stub), uniformly chosen distinct external dependents, and one
    security draw per agent.

    Wiring temporaries live only inside the helper that wires them, so
    generation peaks at about 1.3 times the arrays it returns."""
    n = model.n_systems
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) != n or any(s < 1 for s in sizes):
        raise ValueError(f"need {n} positive sizes")
    seed_value = rng_seed if isinstance(rng_seed, (int, np.integer)) else None
    rng = np.random.default_rng(rng_seed)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    total = int(offsets[-1])

    degree_vectors = np.zeros((total, n), dtype=np.int64)
    for i in range(n):
        pmf = model.degree_dists[i]
        idx = rng.choice(pmf.n_points, size=sizes[i], p=pmf.mass / pmf.mass.sum())
        degree_vectors[offsets[i] : offsets[i + 1]] = pmf.support[idx]

    erasure = {"self_loops": 0, "multi_edges": 0, "odd_stub_cs": [], "target_redraws": 0}
    internal_indptr, internal_indices = _internal_csr(rng, degree_vectors, offsets, erasure)
    external_indptr, external_indices = _external_csr(rng, degree_vectors, offsets, erasure)

    security = rng.random(total)
    vulnerable = np.zeros(total, dtype=bool)
    for i in range(n):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        degs = np.diff(internal_indptr[lo : hi + 1])
        # Degree-0 agents have no internal infection path; never vulnerable.
        phi_values = np.zeros(int(degs.max(initial=0)) + 1)
        for d in range(1, phi_values.size):
            phi_values[d] = model.vulnerability[i](d)
        vulnerable[lo:hi] = security[lo:hi] < phi_values[degs]

    return FiniteSystem(
        sizes=sizes,
        offsets=offsets,
        cs_of=np.repeat(np.arange(n), sizes).astype(np.int64),
        degree_vectors=degree_vectors,
        internal_indptr=internal_indptr,
        internal_indices=internal_indices,
        external_indptr=external_indptr,
        external_indices=external_indices,
        infection=np.array(model.infection, dtype=np.float64),
        security=security,
        vulnerable=vulnerable,
        erasure=erasure,
        rng_seed=int(seed_value) if seed_value is not None else None,
    )


@dataclass(frozen=True, eq=False)
class CascadeOutcome:
    """Result of one finite-graph cascade."""

    seed_agent: int
    failed: np.ndarray
    counts_by_cs: np.ndarray
    trace: np.ndarray  # (rounds + 1, 2 * n_systems) type counts per BFS round
    rng_seed: int | None

    @property
    def n_failed(self) -> int:
        return int(self.failed.sum())


def run_cascade(
    system: FiniteSystem, initial_agent: int, rng_seed: int | np.random.Generator = 0
) -> CascadeOutcome:
    """Breadth-first failure propagation from one seed agent.

    A newly failed agent takes down every not-yet-failed internal neighbor
    whose own threshold draw makes it vulnerable, and each external dependent
    independently with the pairwise transmission probability. An agent fails
    at most once; internally caused failures are typed as infected, external
    ones as fresh.
    """
    total = system.n_agents
    if not 0 <= initial_agent < total:
        raise IndexError("initial agent out of range")
    seed_value = rng_seed if isinstance(rng_seed, (int, np.integer)) else None
    rng = np.random.default_rng(rng_seed)
    n = len(system.sizes)
    failed = np.zeros(total, dtype=bool)
    failed[initial_agent] = True
    row = np.zeros(2 * n, dtype=np.int64)
    row[int(system.cs_of[initial_agent])] = 1
    trace = [row]
    frontier = np.array([initial_agent], dtype=np.int64)
    while frontier.size:
        row = np.zeros(2 * n, dtype=np.int64)
        internal = np.unique(
            _csr_gather(system.internal_indptr, system.internal_indices, frontier)
        )
        hits = internal[~failed[internal] & system.vulnerable[internal]]
        failed[hits] = True
        np.add.at(row, n + system.cs_of[hits], 1)
        newly = [hits]
        ext_dst = _csr_gather(system.external_indptr, system.external_indices, frontier)
        if ext_dst.size:
            ext_src = np.repeat(
                frontier,
                system.external_indptr[frontier + 1] - system.external_indptr[frontier],
            )
            q = system.infection[system.cs_of[ext_src], system.cs_of[ext_dst]]
            coins = rng.random(ext_dst.size) < q
            hits = np.unique(ext_dst[coins & ~failed[ext_dst]])
            failed[hits] = True
            newly.append(hits)
            np.add.at(row, system.cs_of[hits], 1)
        trace.append(row)
        frontier = np.concatenate(newly)
    counts_by_cs = np.array(
        [int(failed[system.offsets[i] : system.offsets[i + 1]].sum()) for i in range(n)]
    )
    return CascadeOutcome(
        seed_agent=int(initial_agent),
        failed=failed,
        counts_by_cs=counts_by_cs,
        trace=np.array(trace),
        rng_seed=int(seed_value) if seed_value is not None else None,
    )


@dataclass(frozen=True)
class EpidemicTrial:
    trial: int
    seed_agent: int
    failed_by_cs: tuple[int, ...]
    rounds: int
    epidemic: bool


def _epidemic_trial(
    model: SystemModel,
    sizes: Sequence[int],
    seed_cs: int,
    threshold: float,
    rng_seed: int,
    trial: int,
) -> tuple[EpidemicTrial, dict]:
    """Trial ``trial`` of ``estimate_epidemic_probability`` and its graph's
    erasure counts. Its graph and cascade die on return, so the next trial's
    graph is generated with nothing of this one still alive."""
    graph_ss, pick_ss, cascade_ss = _trial_seed(rng_seed, trial).spawn(3)
    system = generate_system_graph(model, sizes, np.random.default_rng(graph_ss))
    pick = np.random.default_rng(pick_ss)
    seed_agent = int(system.offsets[seed_cs] + pick.integers(0, system.sizes[seed_cs]))
    outcome = run_cascade(system, seed_agent, np.random.default_rng(cascade_ss))
    row = EpidemicTrial(
        trial=trial,
        seed_agent=seed_agent,
        failed_by_cs=tuple(int(c) for c in outcome.counts_by_cs),
        rounds=outcome.trace.shape[0] - 1,
        epidemic=outcome.n_failed >= threshold,
    )
    return row, system.erasure


def estimate_epidemic_probability(
    model: SystemModel,
    sizes: Sequence[int],
    epidemic_fraction: float = 0.005,
    trials: int = 200,
    rng_seed: int = 0,
    seed_cs: int = 0,
) -> tuple[ExtinctionEstimate, list[EpidemicTrial]]:
    """Fraction of trials whose cascade reaches ``epidemic_fraction`` of all
    agents; every trial draws a fresh graph and a uniform seed agent in
    ``seed_cs``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= seed_cs < model.n_systems:
        raise IndexError("seed_cs out of range")
    if not 0 <= epidemic_fraction <= 1:
        raise ValueError(f"epidemic_fraction must be in [0, 1], got {epidemic_fraction}")
    threshold = epidemic_fraction * int(sum(sizes))
    count = 0
    rows: list[EpidemicTrial] = []
    diagnostics = dict.fromkeys(("self_loops", "multi_edges", "odd_stub_cs", "target_redraws"), 0)
    for trial in range(trials):
        row, erasure = _epidemic_trial(model, sizes, seed_cs, threshold, rng_seed, trial)
        for key, value in erasure.items():
            diagnostics[key] += len(value) if key == "odd_stub_cs" else value
        count += int(row.epidemic)
        rows.append(row)
    low, high = wilson_interval(count, trials)
    estimate = ExtinctionEstimate(
        quantity="epidemic",
        trials=trials,
        count=count,
        estimate=count / trials,
        ci_low=low,
        ci_high=high,
        rng_seed=rng_seed,
        diagnostics=diagnostics,
    )
    return estimate, rows
