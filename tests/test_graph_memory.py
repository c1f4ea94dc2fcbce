"""``simulate-graph`` holds one finite graph at a time: the estimator draws
exactly what a trial-by-trial loop over the reference generator draws, and
generation and whole runs stay within a small multiple of one graph's
arrays, as ``tracemalloc`` sees them (numpy reports its buffers to it)."""

import tracemalloc

import numpy as np
import pytest

from cascade_lab.modelio import load_fixture
from cascade_lab.simulate import (
    EpidemicTrial,
    _trial_seed,
    estimate_epidemic_probability,
    generate_system_graph,
    run_cascade,
)

import reference_graph
from conftest import example1_analog

MODELS = {"analog": example1_analog, "demo_ns3": lambda: load_fixture("demo_ns3")}


def reference_trials(model, sizes, trials, seed, seed_cs=0, epidemic_fraction=0.005):
    """The estimator's trials, rebuilt one by one on the reference generator
    from the same per-trial streams."""
    threshold = epidemic_fraction * sum(sizes)
    rows = []
    for trial in range(trials):
        graph_ss, pick_ss, cascade_ss = _trial_seed(seed, trial).spawn(3)
        system, _ = reference_graph.generate_system_graph(model, sizes, graph_ss)
        pick = np.random.default_rng(pick_ss).integers(0, sizes[seed_cs])
        seed_agent = int(system.offsets[seed_cs] + pick)
        outcome = run_cascade(system, seed_agent, np.random.default_rng(cascade_ss))
        rows.append(
            EpidemicTrial(
                trial=trial,
                seed_agent=seed_agent,
                failed_by_cs=tuple(int(c) for c in outcome.counts_by_cs),
                rounds=outcome.trace.shape[0] - 1,
                epidemic=outcome.n_failed >= threshold,
            )
        )
    return rows


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize(
    "name, sizes, trials", [("analog", (2000, 2000), 6), ("demo_ns3", (1000, 1000, 1000), 4)]
)
def test_estimator_trials_match_reference_loop(name, sizes, trials, seed):
    model = MODELS[name]()
    estimate, rows = estimate_epidemic_probability(model, sizes, trials=trials, rng_seed=seed)
    expected = reference_trials(model, sizes, trials, seed)
    assert rows == expected
    assert estimate.count == sum(row.epidemic for row in expected)
    # Cascades spread past their seed agent, so propagation is compared too;
    # demo_ns3's transmission probabilities below one also compare the coins.
    assert max(row.rounds for row in rows) >= 2


def graph_bytes(system) -> int:
    return sum(v.nbytes for v in vars(system).values() if isinstance(v, np.ndarray))


def peak_bytes(call) -> int:
    """Peak traced bytes allocated while ``call()`` runs."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("name, sizes", [("analog", (20000, 20000)), ("demo_ns3", (5000,) * 3)])
class TestPeakMemory:
    BOUND = 1.5

    def test_generation_peaks_near_its_graph(self, name, sizes):
        model = MODELS[name]()
        one = graph_bytes(generate_system_graph(model, sizes, 0))
        peak = peak_bytes(lambda: generate_system_graph(model, sizes, 1))
        assert peak <= self.BOUND * one, f"peak {peak / one:.2f} graphs"

    def test_run_holds_one_graph_at_a_time(self, name, sizes):
        model = MODELS[name]()
        one = graph_bytes(generate_system_graph(model, sizes, 0))
        peak = peak_bytes(
            lambda: estimate_epidemic_probability(model, sizes, trials=3, rng_seed=4)
        )
        assert peak <= self.BOUND * one, f"peak {peak / one:.2f} graphs"
