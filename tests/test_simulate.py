"""Monte Carlo machinery: determinism, trivial laws, graph construction,
cascade mechanics against a reachability oracle."""

import numpy as np
import pytest

from cascade_lab import (
    JointPmf,
    SystemModel,
    constant_profile,
    extinction_probabilities,
    load_fixture,
    offspring_laws,
)
from cascade_lab.children import OffspringLaw
from cascade_lab.simulate import (
    CascadeTrace,
    EXTINCT,
    ExtinctionEstimate,
    GENERATION_CAP,
    POPULATION_CAP,
    FiniteSystem,
    _csr_from_edges,
    estimate_epidemic_probability,
    generate_system_graph,
    run_cascade,
    simulate_branching,
    simulate_offspring_process,
    wilson_interval,
)

from conftest import symmetric_children_model


def point_children(origin_type, n, vec):
    return OffspringLaw(origin_type, n, np.array([vec]), np.array([1.0]), np.ones(2 * n))


class TestWilson:
    def test_known_value(self):
        low, high = wilson_interval(8, 10)
        assert 0.0 <= low < 0.8 < high <= 1.0
        assert low == pytest.approx(0.4901, abs=2e-3)

    def test_extremes_stay_in_unit_interval(self):
        for k, n in [(0, 25), (25, 25)]:
            low, high = wilson_interval(k, n)
            assert 0.0 <= low <= k / n <= high <= 1.0

    def test_estimate_must_sit_inside_interval(self):
        with pytest.raises(ValueError):
            ExtinctionEstimate(
                quantity="extinction",
                trials=10,
                count=9,
                estimate=0.9,
                ci_low=0.95,
                ci_high=1.0,
                rng_seed=0,
            )


class TestOffspringProcess:
    def test_certain_extinction_when_no_children(self):
        children = [point_children(t, 2, [0, 0, 0, 0]) for t in range(4)]
        est, traces = simulate_offspring_process(
            children, seed_type=0, trials=500, rng_seed=1, keep_traces=3
        )
        assert est.estimate == 1.0
        assert est.cap_hit_rate == 0.0
        assert all(t.termination == EXTINCT for t in traces)

    def test_deterministic_explosion_never_extinct(self):
        children = []
        for origin in range(4):
            cs = origin % 2
            vec = [0, 0, 0, 0]
            vec[2 + cs] = 2
            children.append(point_children(origin, 2, vec))
        est, traces = simulate_offspring_process(
            children,
            seed_type=0,
            generation_cap=50,
            population_cap=1000,
            trials=200,
            rng_seed=2,
            keep_traces=2,
        )
        assert est.estimate == 0.0
        assert est.cap_hit_rate == 1.0
        assert traces[0].termination == POPULATION_CAP

    def test_generation_cap_counts_as_survival(self):
        # One self-renewing child per generation: never extinct, never grows.
        children = []
        for origin in range(4):
            cs = origin % 2
            vec = [0, 0, 0, 0]
            vec[2 + cs] = 1
            children.append(point_children(origin, 2, vec))
        est, traces = simulate_offspring_process(
            children, seed_type=2, generation_cap=10, trials=50, rng_seed=3, keep_traces=1
        )
        assert est.estimate == 0.0
        assert traces[0].termination == GENERATION_CAP
        assert traces[0].counts.shape == (11, 4)

    def test_example1_interval_brackets_analytic_value(self, model_p1):
        poe = extinction_probabilities(model_p1)
        est, _ = simulate_branching(
            model_p1,
            seed_type=0,
            generation_cap=300,
            population_cap=100_000,
            trials=20_000,
            rng_seed=7,
        )
        assert est.ci_low <= poe.values[0] <= est.ci_high

    def test_interval_shrinks_like_root_trials(self, model_p1):
        est_small, _ = simulate_branching(model_p1, seed_type=0, trials=500, rng_seed=13)
        est_large, _ = simulate_branching(model_p1, seed_type=0, trials=8000, rng_seed=13)
        width_small = est_small.ci_high - est_small.ci_low
        width_large = est_large.ci_high - est_large.ci_low
        assert width_large < width_small
        assert width_small / width_large == pytest.approx(4.0, rel=0.35)

    def test_interval_brackets_all_regression_models(self, model_p2, model_p3):
        for model in (model_p2, model_p3):
            mu = extinction_probabilities(model).values[0]
            est, _ = simulate_branching(
                model, seed_type=0, generation_cap=300, trials=20_000, rng_seed=16
            )
            assert est.ci_low <= mu <= est.ci_high

    def test_determinism_bit_identical(self, model_p1):
        runs = [
            simulate_branching(
                model_p1, seed_type=0, trials=400, rng_seed=99, keep_traces=5
            )
            for _ in range(2)
        ]
        (est_a, traces_a), (est_b, traces_b) = runs
        assert est_a == est_b
        assert len(traces_a) == len(traces_b) == 5
        for ta, tb in zip(traces_a, traces_b):
            assert ta.termination == tb.termination
            assert np.array_equal(ta.counts, tb.counts)

    def test_thinned_laws_rejected(self):
        # Sampling the potential-children table of a closed-form law ignores
        # its thinning: on demo_ns3 that read die-out 0.010 against q* = 0.169.
        with pytest.raises(ValueError, match="thinning one"):
            simulate_offspring_process(offspring_laws(load_fixture("demo_ns3")), 0)

    @pytest.mark.parametrize("name", ["example1_p1", "demo_ns3"])
    def test_enumerated_laws_match_simulate_branching(self, name):
        model = load_fixture(name)
        laws = [law.children() for law in offspring_laws(model)]
        direct, _ = simulate_offspring_process(laws, 0, trials=300, rng_seed=5)
        via_model, _ = simulate_branching(model, 0, trials=300, rng_seed=5)
        assert direct == via_model

    def test_trace_seed_generation_is_one_hot(self):
        with pytest.raises(ValueError):
            CascadeTrace(np.array([[0, 2, 0, 0]]), EXTINCT)


class TestGraphGeneration:
    def test_sampled_degree_histogram_close_to_law(self, model_p1):
        system = generate_system_graph(model_p1, (10_000, 10_000), rng_seed=5)
        internal = system.degree_vectors[: 10_000, 0]
        law = {0: 0.5, 1: 0.15, 2: 0.2, 3: 0.15}
        tv = 0.5 * sum(
            abs(np.mean(internal == d) - p) for d, p in law.items()
        )
        assert tv <= 0.02

    def test_point_mass_single_edge(self):
        model = SystemModel(
            degree_dists=(
                JointPmf.from_dict({(1, 0): 1.0}),
                JointPmf.from_dict({(0, 2): 1.0}),
            ),
            infection=[[np.nan, 1.0], [1.0, np.nan]],
            vulnerability=(constant_profile(1.0), constant_profile(1.0)),
        )
        system = generate_system_graph(model, (2, 1), rng_seed=0)
        assert system.internal_degree(0) == 1
        assert system.internal_neighbors(0).tolist() == [1]
        assert system.internal_neighbors(1).tolist() == [0]

    def test_zero_external_degrees_no_directed_edges(self):
        model = SystemModel(
            degree_dists=(
                JointPmf.from_dict({(1, 0): 0.5, (2, 0): 0.5}),
                JointPmf.from_dict({(0, 1): 0.5, (0, 2): 0.5}),
            ),
            infection=[[np.nan, 0.5], [0.5, np.nan]],
            vulnerability=(constant_profile(1.0), constant_profile(1.0)),
        )
        system = generate_system_graph(model, (50, 50), rng_seed=1)
        assert system.external_indices.size == 0

    def test_internal_adjacency_symmetric_simple(self, analog_model):
        system = generate_system_graph(analog_model, (300, 300), rng_seed=9)
        edges = set()
        for a in range(system.n_agents):
            neighbors = system.internal_neighbors(a)
            assert a not in set(neighbors.tolist())  # no self-loops
            assert len(set(neighbors.tolist())) == neighbors.size  # simple
            for b in neighbors:
                edges.add((a, int(b)))
        assert all((b, a) in edges for a, b in edges)  # symmetric

    def test_external_targets_distinct_per_agent(self, analog_model):
        system = generate_system_graph(analog_model, (400, 400), rng_seed=11)
        for a in range(system.n_agents):
            deps = system.external_dependents(a)
            assert len(set(deps.tolist())) == deps.size

    def test_target_cs_too_small(self):
        model = SystemModel(
            degree_dists=(
                JointPmf.from_dict({(1, 3): 1.0}),
                JointPmf.from_dict({(0, 1): 1.0}),
            ),
            infection=[[np.nan, 1.0], [1.0, np.nan]],
            vulnerability=(constant_profile(1.0), constant_profile(1.0)),
        )
        with pytest.raises(ValueError):
            generate_system_graph(model, (4, 2), rng_seed=0)

    def test_table_profile_on_realized_degrees(self):
        from cascade_lab import VulnerabilityProfile

        table = VulnerabilityProfile(
            kind="table", table={1: 1.0, 2: 0.6, 3: 0.4, 4: 0.2}
        )
        model = SystemModel(
            degree_dists=(
                JointPmf.from_dict({(2, 1): 0.5, (4, 0): 0.5}),
                JointPmf.from_dict({(1, 2): 0.5, (0, 4): 0.5}),
            ),
            infection=[[np.nan, 0.7], [0.7, np.nan]],
            vulnerability=(table, table),
        )
        system = generate_system_graph(model, (400, 400), rng_seed=12)
        # Degree-0 agents (stub erasure casualties) are never vulnerable.
        realized = np.diff(system.internal_indptr)
        assert not np.any(system.vulnerable[realized == 0])

    def test_determinism(self, analog_model):
        a = generate_system_graph(analog_model, (500, 500), rng_seed=21)
        b = generate_system_graph(analog_model, (500, 500), rng_seed=21)
        assert np.array_equal(a.degree_vectors, b.degree_vectors)
        assert np.array_equal(a.internal_indices, b.internal_indices)
        assert np.array_equal(a.external_indices, b.external_indices)
        assert np.array_equal(a.security, b.security)


def _chain_system(length=5):
    """Hand-built single-CS chain 0-1-...-(length-1), everyone vulnerable."""
    src = np.array([i for i in range(length - 1) for _ in (0, 1)])
    # undirected: both directions
    u = np.arange(length - 1)
    v = u + 1
    indptr, indices = _csr_from_edges(
        np.concatenate([u, v]), np.concatenate([v, u]), length + 1
    )
    empty_ptr, empty_idx = _csr_from_edges(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), length + 1
    )
    return FiniteSystem(
        sizes=(length, 1),
        offsets=np.array([0, length, length + 1]),
        cs_of=np.array([0] * length + [1]),
        degree_vectors=np.zeros((length + 1, 2), dtype=np.int64),
        internal_indptr=indptr,
        internal_indices=indices,
        external_indptr=empty_ptr,
        external_indices=empty_idx,
        infection=np.array([[np.nan, 1.0], [1.0, np.nan]]),
        security=np.zeros(length + 1),
        vulnerable=np.ones(length + 1, dtype=bool),
        erasure={},
        rng_seed=0,
    )


class TestRunCascade:
    def test_isolated_seed_fails_alone(self):
        model = SystemModel(
            degree_dists=(
                JointPmf.from_dict({(0, 0): 1.0}),
                JointPmf.from_dict({(0, 0): 1.0}),
            ),
            infection=[[np.nan, 1.0], [1.0, np.nan]],
            vulnerability=(constant_profile(1.0), constant_profile(1.0)),
            internal_degree_floor=False,
        )
        system = generate_system_graph(model, (10, 10), rng_seed=2)
        outcome = run_cascade(system, 3, rng_seed=0)
        assert outcome.n_failed == 1
        assert outcome.failed[3]

    def test_vulnerable_chain_fully_fails(self):
        system = _chain_system(6)
        outcome = run_cascade(system, 0, rng_seed=0)
        assert outcome.counts_by_cs.tolist() == [6, 0]
        assert outcome.trace[1:, 2].sum() == 5  # all infected internally

    def test_failed_set_matches_reachability_oracle(self):
        import networkx as nx

        model = SystemModel(
            degree_dists=(
                JointPmf.from_dict({(1, 1): 0.4, (2, 0): 0.4, (3, 2): 0.2}),
                JointPmf.from_dict({(1, 1): 0.5, (0, 2): 0.3, (2, 3): 0.2}),
            ),
            infection=[[np.nan, 1.0], [1.0, np.nan]],
            vulnerability=(constant_profile(1.0), constant_profile(1.0)),
            internal_degree_floor=False,
        )
        rng = np.random.default_rng(33)
        for trial in range(10):
            system = generate_system_graph(model, (40, 40), rng_seed=100 + trial)
            graph = nx.DiGraph()
            graph.add_nodes_from(range(system.n_agents))
            for a in range(system.n_agents):
                for b in system.internal_neighbors(a):
                    graph.add_edge(a, int(b))
                for b in system.external_dependents(a):
                    graph.add_edge(a, int(b))
            seed = int(rng.integers(0, system.n_agents))
            outcome = run_cascade(system, seed, rng_seed=trial)
            expected = nx.descendants(graph, seed) | {seed}
            assert set(np.nonzero(outcome.failed)[0].tolist()) == expected

    def test_agents_fail_at_most_once_and_monotone(self, analog_model):
        system = generate_system_graph(analog_model, (800, 800), rng_seed=3)
        outcome = run_cascade(system, 5, rng_seed=4)
        assert outcome.trace.sum() == outcome.n_failed
        assert np.all(outcome.trace >= 0)


class TestEpidemicEstimate:
    def test_gamma_zero_counts_everything(self, analog_model):
        est, rows = estimate_epidemic_probability(
            analog_model, (200, 200), epidemic_fraction=0.0, trials=10, rng_seed=5
        )
        assert est.estimate == 1.0
        assert all(r.epidemic for r in rows)

    def test_subcritical_upper_bound(self, analog_model):
        # Weak transmission puts both the offspring process and (because the
        # 1/d profile makes the tree analysis exact) the graph below critical.
        sub = SystemModel(
            degree_dists=analog_model.degree_dists,
            infection=[[np.nan, 0.2], [0.2, np.nan]],
            vulnerability=analog_model.vulnerability,
            internal_degree_floor=True,
        )
        assert extinction_probabilities(sub).regime == "subcritical"
        est, _ = estimate_epidemic_probability(
            sub, (5000, 5000), epidemic_fraction=0.005, trials=450, rng_seed=6
        )
        assert est.count == 0
        assert est.ci_high < 0.01

    def test_frequency_tracks_analytic_value(self, analog_model):
        poe = extinction_probabilities(analog_model)
        target = 1.0 - poe.values[0]
        est, _ = estimate_epidemic_probability(
            analog_model, (8000, 8000), epidemic_fraction=0.005, trials=400, rng_seed=8
        )
        assert abs(est.estimate - target) <= 0.04

    def test_determinism_bit_identical(self, analog_model):
        runs = [
            estimate_epidemic_probability(
                analog_model, (2000, 2000), epidemic_fraction=0.005, trials=30, rng_seed=17
            )
            for _ in range(2)
        ]
        (est_a, rows_a), (est_b, rows_b) = runs
        assert est_a == est_b
        assert rows_a == rows_b

    def test_zero_trials_rejected(self, analog_model):
        with pytest.raises(ValueError):
            estimate_epidemic_probability(analog_model, (100, 100), trials=0)
