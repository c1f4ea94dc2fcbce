"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from cascade_lab import (
    SystemModel,
    correlation,
    entropy_bits,
    extinction_probabilities,
    is_positively_regular,
    kl_divergence,
    marginal,
    mean_matrix,
    simulate_branching,
    spectral_radius,
)
from cascade_lab.children import (
    build_children,
    check_vulnerability_scaling,
    offspring_law,
    offspring_laws,
)
from cascade_lab.branching import solve_extinction
from cascade_lab.orders import compare_concordance, compare_icv, compare_lt, certify_idcv, certify_supermodular
from cascade_lab.simulate import estimate_epidemic_probability
from cascade_lab.children import OffspringLaw
from cascade_lab.pmf import JointPmf

from conftest import (
    MU_P1,
    MU_P2,
    MU_P3,
    brute_force_children,
    charpoly_spectral_radius,
    concordance_transfer,
    mean_preserving_spread,
    random_model,
)

SLACK = 1e-9
EXAMPLE1_M = np.array(
    [
        [0.0, 0.35, 1.0, 0.0],
        [0.35, 0.0, 0.0, 1.0],
        [0.0, 0.35, 0.5, 0.0],
        [0.35, 0.0, 0.0, 0.5],
    ]
)


def _report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS{(' — ' + detail) if detail else ''}")


def test_criterion_1_example1_reproduction(model_p1, model_p2):
    start = time.perf_counter()
    poe1 = extinction_probabilities(model_p1)
    poe2 = extinction_probabilities(model_p2)
    mm = mean_matrix(build_children(model_p1))
    elapsed = time.perf_counter() - start

    assert poe1.values == pytest.approx(MU_P1, abs=5e-4)
    assert poe2.values == pytest.approx(MU_P2, abs=5e-4)
    assert np.allclose(mm, EXAMPLE1_M, atol=1e-9)
    assert is_positively_regular(mm)
    assert poe1.spectral_radius_value == pytest.approx(1.021, abs=1e-3)
    assert 1.0 - poe1.values[0] == pytest.approx(0.0354, abs=5e-4)
    assert 1.0 - poe2.values[0] == pytest.approx(0.0414, abs=5e-4)
    assert elapsed < 1.0
    _report(
        "1 (Example 1 reproduction)",
        f"mu1[0]={poe1.values[0]:.4f}, mu2[0]={poe2.values[0]:.4f}, "
        f"rho={poe1.spectral_radius_value:.4f}, solved in {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_example2_reproduction(model_p1, model_p2, model_p3):
    poe3 = extinction_probabilities(model_p3)
    assert poe3.values == pytest.approx(MU_P3, abs=5e-4)
    assert 1.0 - poe3.values[0] == pytest.approx(0.0396, abs=5e-4)
    assert correlation(model_p3.degree_dists[0], 0, 1) == pytest.approx(0.0368, abs=5e-4)
    # Direction as documented: the commonly quoted 0.0094 is the divergence of
    # the correlated table FROM the independent one.
    kl = kl_divergence(model_p3.degree_dists[0], model_p2.degree_dists[0])
    assert kl == pytest.approx(0.0094, abs=2e-4)
    entropies = [
        entropy_bits(marginal(model_p1.degree_dists[0], 0)),
        entropy_bits(marginal(model_p1.degree_dists[0], 1)),
        entropy_bits(marginal(model_p2.degree_dists[0], 0)),
        entropy_bits(marginal(model_p2.degree_dists[0], 1)),
    ]
    # The first target is 1.7855, the exact entropy of the corrected table
    # (commonly quoted misrounded as 1.786); the others match their quoted
    # values directly.
    assert entropies == pytest.approx([1.7855, 1.003, 1.461, 0.884], abs=5e-4)
    _report(
        "2 (Example 2 reproduction)",
        f"mu3[0]={poe3.values[0]:.4f}, corr={correlation(model_p3.degree_dists[0], 0, 1):.4f}, "
        f"kl={kl:.4f}, entropies={[round(h, 4) for h in entropies]}",
    )


def test_criterion_3_order_hypotheses(model_p1, model_p2, model_p3):
    for axis in range(2):
        verdict = compare_icv(
            marginal(model_p1.degree_dists[0], axis),
            marginal(model_p2.degree_dists[0], axis),
        )
        assert verdict.holds, f"axis {axis}: {verdict}"
    concordance = compare_concordance(
        model_p2.degree_dists[0], model_p3.degree_dists[0]
    )
    assert concordance.holds
    mu1 = extinction_probabilities(model_p1).values
    mu2 = extinction_probabilities(model_p2).values
    mu3 = extinction_probabilities(model_p3).values
    assert np.all(mu2 <= mu1 + SLACK)  # lower variability -> more cascades
    assert np.all(mu2 <= mu3 + SLACK)  # positive dependence -> fewer cascades
    _report(
        "3 (order hypotheses + implied conclusions)",
        "SSD per coordinate holds, concordance holds, poe inequalities confirmed",
    )


def _usable_model(rng) -> SystemModel:
    """Random small model kept away from the critical boundary so the
    fixed-point solves stay fast."""
    while True:
        model = random_model(rng, dependent=bool(rng.integers(0, 2)))
        try:
            rho = spectral_radius(mean_matrix(build_children(model)))
        except Exception:
            continue
        if abs(rho - 1.0) > 0.02:
            return model


def _with_dist(model: SystemModel, cs: int, dist: JointPmf) -> SystemModel:
    dists = list(model.degree_dists)
    dists[cs] = dist
    return SystemModel(
        degree_dists=tuple(dists),
        infection=model.infection,
        vulnerability=model.vulnerability,
        internal_degree_floor=model.internal_degree_floor,
    )


def _solve(model_or_children):
    if isinstance(model_or_children, SystemModel):
        return extinction_probabilities(model_or_children).values
    return solve_extinction(model_or_children).values


def test_criterion_4_comparison_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    per_suite = 72
    certified = {"sm": 0, "idcv": 0, "lt": 0}

    # Positive dependence: a concordance-increasing transfer on one
    # CS cannot lower any die-out probability.
    done = 0
    while done < per_suite:
        model = _usable_model(rng)
        cs = int(rng.integers(0, model.n_systems))
        shifted = concordance_transfer(rng, model.degree_dists[cs])
        if shifted is None:
            continue
        assert all(
            check_vulnerability_scaling(p, 12).holds for p in model.vulnerability
        )
        model_b = _with_dist(model, cs, shifted)
        assert np.all(_solve(model) <= _solve(model_b) + SLACK)
        if done < 10:
            verdict = certify_supermodular(model.degree_dists[cs], shifted)
            assert verdict.holds
            certified["sm"] += 1
        done += 1

    # Variability: a mean-preserving spread on one CS cannot lower
    # any die-out probability.
    done = 0
    while done < per_suite:
        model = _usable_model(rng)
        cs = int(rng.integers(0, model.n_systems))
        spread = mean_preserving_spread(rng, model.degree_dists[cs], keep_floor_axis=cs)
        if spread is None:
            continue
        model_spread = _with_dist(model, cs, spread)
        assert np.all(_solve(model_spread) >= _solve(model) - SLACK)
        if done < 10 and model.n_systems == 2:
            verdict = certify_idcv(spread, model.degree_dists[cs])
            assert verdict.holds
            certified["idcv"] += 1
        done += 1

    # Transform-ordered children: spreading one offspring law
    # (transform-dominated by the original) cannot lower die-out.
    done = 0
    while done < per_suite:
        model = _usable_model(rng)
        children = build_children(model)
        target = int(rng.integers(0, len(children)))
        h = children[target]
        spread = mean_preserving_spread(rng, JointPmf(h.support, h.mass))
        if spread is None:
            continue
        try:
            h_spread = OffspringLaw(
                h.origin_type, h.n_systems, spread.support, spread.mass, np.ones(h.n_types)
            )
        except ValueError:
            continue
        modified = list(children)
        modified[target] = h_spread
        assert np.all(_solve(children) <= _solve(modified) + SLACK)
        if done < 10:
            assert compare_lt(h_spread, h).holds
            certified["lt"] += 1
        done += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(
        "4 (comparison-law property suites)",
        f"3 x {per_suite} randomized ordered pairs confirmed "
        f"(certified hypotheses: {certified}) in {elapsed:.0f} s",
    )


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(77)
    for _ in range(100):
        model = random_model(rng, max_degree=3, dependent=bool(rng.integers(0, 2)))
        cs = int(rng.integers(0, model.n_systems))
        for drop in (False, True):
            expected = brute_force_children(model, cs, drop_internal=drop)
            got = offspring_law(model, cs + drop * model.n_systems).children().as_dict()
            assert set(got) == set(expected)
            for key, value in expected.items():
                assert abs(got[key] - value) <= 1e-12
    for _ in range(50):
        a = rng.uniform(0.0, 2.0, size=(4, 4))
        assert spectral_radius(a) == pytest.approx(charpoly_spectral_radius(a), abs=1e-8)
    _report(
        "5 (oracle equivalence)",
        "100 offspring laws match per-edge enumeration at 1e-12; "
        "50 spectral radii match characteristic roots at 1e-8",
    )


def test_criterion_6_monte_carlo_consistency(model_p1, analog_model):
    start = time.perf_counter()
    analytic_mu = extinction_probabilities(model_p1).values[0]
    # A trial stopped at the generation cap counts as surviving, so the
    # estimate's expectation is P(extinct by generation cap) = f^cap(0),
    # iterated on the closed-form generating map; it sits below q*.
    cap = 200
    laws = offspring_laws(model_p1)
    extinct_by_cap = np.zeros(len(laws))
    for _ in range(cap):
        extinct_by_cap = np.array([law.gf(extinct_by_cap) for law in laws])
    assert analytic_mu == pytest.approx(0.9646, abs=5e-5)
    assert 0.0 < analytic_mu - extinct_by_cap[0] < 1e-3
    estimate, _ = simulate_branching(
        model_p1,
        seed_type=0,
        generation_cap=cap,
        population_cap=100_000,
        trials=100_000,
        rng_seed=7,
    )
    assert estimate.ci_low <= extinct_by_cap[0] <= estimate.ci_high

    target = 1.0 - extinction_probabilities(analog_model).values[0]
    frequency, _ = estimate_epidemic_probability(
        analog_model,
        sizes=(50_000, 50_000),
        epidemic_fraction=0.005,
        trials=2400,
        rng_seed=21,
        seed_cs=0,
    )
    gap = abs(frequency.estimate - target)
    assert gap <= 0.01, f"graph frequency {frequency.estimate} vs analytic {target}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(
        "6 (Monte Carlo consistency)",
        f"branching CI ({estimate.ci_low:.5f}, {estimate.ci_high:.5f}) covers "
        f"f^{cap}(0) = {extinct_by_cap[0]:.5f} (q* = {analytic_mu:.5f}); graph frequency {frequency.estimate:.4f} vs analytic "
        f"{target:.4f} (|gap| = {gap:.4f}, tree approximation); {elapsed:.0f} s",
    )


def test_criterion_7_determinism(model_p1, analog_model):
    runs = [
        simulate_branching(model_p1, seed_type=0, trials=2_000, rng_seed=3, keep_traces=4)
        for _ in range(2)
    ]
    assert runs[0][0] == runs[1][0]
    for ta, tb in zip(runs[0][1], runs[1][1]):
        assert ta.termination == tb.termination
        assert np.array_equal(ta.counts, tb.counts)

    graph_runs = [
        estimate_epidemic_probability(
            analog_model, sizes=(3_000, 3_000), epidemic_fraction=0.005, trials=40, rng_seed=9
        )
        for _ in range(2)
    ]
    assert graph_runs[0][0] == graph_runs[1][0]
    assert graph_runs[0][1] == graph_runs[1][1]

    from cascade_lab.cli import main
    from cascade_lab.modelio import fixture_path
    import io
    from contextlib import redirect_stdout

    outputs = []
    for _ in range(2):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert (
                main(
                    [
                        "simulate-bp",
                        str(fixture_path("example1_p1")),
                        "--trials",
                        "500",
                        "--seed",
                        "42",
                        "--json",
                    ]
                )
                == 0
            )
        outputs.append(buffer.getvalue())
    assert outputs[0] == outputs[1]
    _report("7 (determinism)", "reruns are bit-identical across library and CLI")
