"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public function of ``cascade_lab``
with a timing wrapper in every module namespace that binds it (so
``cli.build_children``, ``branching.build_children`` and
``simulate.build_children`` are all caught), and ``uninstall`` puts the
originals back. Spans nest: a layer's self time is its span minus the spans
of traced calls made inside it. Counts are read off the returned objects;
counts named ``*_computed`` are derived from array sizes, not measured.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (defining module, function) -> layer name used in the metrics.
TRACED = {
    ("cascade_lab.cli", "main"): "cli",
    ("cascade_lab.modelio", "load_model"): "modelio.load",
    ("cascade_lab.children", "build_children"): "children.build",
    ("cascade_lab.branching", "mean_matrix"): "branching.mean_matrix",
    ("cascade_lab.branching", "spectral_radius"): "branching.spectral_radius",
    ("cascade_lab.branching", "is_positively_regular"): "branching.regularity",
    ("cascade_lab.branching", "solve_extinction"): "branching.fixed_point",
    ("cascade_lab.orders", "compare_fsd"): "orders.exact",
    ("cascade_lab.orders", "compare_icv"): "orders.exact",
    ("cascade_lab.orders", "compare_concordance"): "orders.exact",
    ("cascade_lab.orders", "compare_lt"): "orders.lt",
    ("cascade_lab.orders", "certify_supermodular"): "orders.supermodular",
    ("cascade_lab.orders", "certify_idcv"): "orders.idcv",
    ("cascade_lab.simplex", "solve_lp"): "simplex.lp",
    ("cascade_lab.simulate", "simulate_branching"): "simulate.driver",
    ("cascade_lab.simulate", "estimate_epidemic_probability"): "simulate.driver",
    ("cascade_lab.simulate", "simulate_offspring_process"): "simulate.offspring",
    ("cascade_lab.simulate", "generate_system_graph"): "simulate.graph_gen",
    ("cascade_lab.simulate", "run_cascade"): "simulate.cascade",
}

# Layers whose per-call self times are reported as distributions.
DISTRIBUTIONS = {
    "cli": "cli.self",
    "children.build": "children.build",
    "branching.fixed_point": "branching.fixed_point",
    "simplex.lp": "simplex.lp",
    "simulate.graph_gen": "simulate.graph_gen",
    "simulate.cascade": "simulate.cascade",
}

PERCENTILES = (50.0, 90.0, 99.0, 99.9)



def _terms(model) -> int:
    """Enumeration terms of ``build_children``: one per (support point,
    thinned outcome) pair, over the fresh and the infected law of each CS."""
    total = 0
    for cs, pmf in enumerate(model.degree_dists):
        widths = pmf.support.astype(np.int64) + 1
        total += int(np.prod(widths, axis=1).sum())
        dropped = widths.copy()
        dropped[:, cs] = np.maximum(dropped[:, cs] - 1, 1)
        total += int(np.prod(dropped, axis=1).sum())
    return total


def _count(counts: dict, layer: str, args: tuple, result) -> None:
    """Read the work counts of one traced call off its arguments/result."""
    if layer == "children.build":
        counts["children.support_points"] += sum(h.support.shape[0] for h in result)
        counts["children.terms_computed"] += _terms(args[0])
    elif layer == "branching.fixed_point":
        children = args[0]
        counts["branching.fixed_point_iters"] += result.iterations
        counts["branching.gf_evals_computed"] += result.iterations * sum(
            h.support.size for h in children
        )
    elif layer in ("orders.supermodular", "orders.idcv"):
        counts["orders.verdicts"] += 1
        counts["orders.definite"] += int(result.outcome in ("holds", "fails"))
    elif layer == "simplex.lp":
        m, n = np.shape(args[1])
        counts["simplex.lp_calls"] += 1
        counts["simplex.pivots"] += result.iterations
        counts["simplex.limit_hits"] += int(result.status == "iteration-limit")
        # Each pivot rewrites the whole (m + 1) x (n + m + 1) tableau.
        counts["simplex.flops_computed"] += 2 * result.iterations * (m + 1) * (n + m + 1)
    elif layer == "simulate.offspring":
        estimate = result[0]
        counts["simulate.bp_trials"] += estimate.trials
        counts["simulate.bp_cap_hits"] += round(estimate.cap_hit_rate * estimate.trials)
    elif layer == "simulate.graph_gen":
        counts["simulate.graphs"] += 1
        counts["simulate.agents_generated"] += result.n_agents
        counts["simulate.edges_generated"] += (
            result.internal_indices.size // 2 + result.external_indices.size
        )
        counts["simulate.self_loops"] += result.erasure["self_loops"]
        counts["simulate.multi_edges"] += result.erasure["multi_edges"]
        counts["simulate.odd_stub_cs"] += len(result.erasure["odd_stub_cs"])
    elif layer == "simulate.cascade":
        counts["simulate.agents_failed"] += result.n_failed
        counts["simulate.cascade_rounds"] += result.trace.shape[0] - 1


class Tracer:
    """Collects self time per layer and per job group, work counts, and
    per-call self-time samples for the layers in ``DISTRIBUTIONS``. Times
    are booked in reference seconds when the job ends."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.self_s = defaultdict(float)
        self.group_self_s = defaultdict(lambda: defaultdict(float))
        self.group_wall_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self._stack: list[list[float]] = []
        self._job_self: list[tuple[str, float]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "cascade_lab" or name.startswith("cascade_lab.")
        }
        for (home, attr), layer in TRACED.items():
            original = getattr(modules[home], attr)
            wrapper = self._wrap(original, layer)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def _wrap(self, fn, layer: str):
        stack = self._stack
        clock = self._clock

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{layer}.interrupted"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                self._job_self.append((layer, own))
            if layer == "simplex.lp":
                # Pivot rates use only the LPs that finished and so report
                # their pivot count.
                self._job_self.append(("simplex.lp_finished", own))
            _count(self.counts, layer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- jobs ---------------------------------------------------------------

    def begin_job(self) -> None:
        self._stack.clear()
        self._job_self.clear()

    def end_job(self, group: str, wall_s: float, factor: float) -> None:
        """Book the finished job's spans, scaled to reference seconds by
        ``factor`` (see speed.py)."""
        self.group_wall_s[group] += wall_s * factor
        for layer, own in self._job_self:
            own *= factor
            self.self_s[layer] += own
            self.group_self_s[group][layer] += own
            if layer in DISTRIBUTIONS:
                self.samples[layer].append(own)
        self._job_self.clear()

    # -- reporting ----------------------------------------------------------

    def share(self, groups: tuple[str, ...], layers: tuple[str, ...]) -> float:
        """Self time of ``layers`` inside jobs of ``groups`` over those
        jobs' wall time (0 when no such job ran)."""
        wall = sum(self.group_wall_s[g] for g in groups)
        if wall <= 0.0:
            return 0.0
        return sum(self.group_self_s[g][layer] for g in groups for layer in layers) / wall

    def distribution(self, layer: str) -> dict:
        """Per-call self times of ``layer`` in milliseconds (see summarize)."""
        summary = summarize(self.samples.get(layer, []))
        return {"p50_ms": summary["p50"] * 1e3, "tail_ms": summary["tail"] * 1e3,
                "tail_pct": summary["tail_pct"], "calls": summary["calls"]}


def summarize(values) -> dict:
    """p50, the highest percentile with at least ten samples beyond it (p50
    itself below 20 samples) and the sample count; zeros when empty."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 50.0, "calls": 0}
    tail_pct = max([50.0] + [q for q in PERCENTILES if values.size * (1 - q / 100) >= 10])
    return {
        "p50": float(np.percentile(values, 50.0)),
        "tail": float(np.percentile(values, tail_pct)),
        "tail_pct": tail_pct,
        "calls": int(values.size),
    }


def safe_ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
