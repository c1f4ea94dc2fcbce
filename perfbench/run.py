"""cascade-lab benchmark: one client, closed loop, one job at a time.

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Set-up writes every model file into
``.perfbench_work/`` and warms up; the loop then runs passes of the
workload's job list through ``cascade_lab.cli.main`` in this process, with
stdout captured and the ``--json`` output checked, until the next pass would
overrun ``--seconds``. Every job has the same fixed ``--deadline``; a job
that misses it is stopped and counts as failed. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs every pass twice, untraced then
traced, and reports the per-layer metrics. The last line of stdout is the
result object; the line before it is a report with the environment, the
job-list hash and every failed job by name.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool before numpy is imported, here and in the
# set-up processes, which inherit the environment.
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_ok_frac": "frac",
    "peak_rss_mb": "MB",
    "solve_s": "s",
    "verdict_s": "s",
    "poe_max_err": "1",
    "bp_trials_per_s": "1/s",
    "graph_trials_per_s": "1/s",
}

_LAYER_TIMES = {
    "modelio.load_s": "modelio.load",
    "children.build_s": "children.build",
    "branching.fixed_point_s": "branching.fixed_point",
    "branching.spectral_radius_s": "branching.spectral_radius",
    "branching.mean_matrix_s": "branching.mean_matrix",
    "branching.regularity_s": "branching.regularity",
    "orders.exact_s": "orders.exact",
    "orders.lt_s": "orders.lt",
    "orders.supermodular_s": "orders.supermodular",
    "orders.idcv_s": "orders.idcv",
    "simplex.lp_s": "simplex.lp",
    "simulate.driver_s": "simulate.driver",
    "simulate.offspring_s": "simulate.offspring",
    "simulate.graph_gen_s": "simulate.graph_gen",
    "simulate.cascade_s": "simulate.cascade",
    "cli.self_s": "cli",
}
_LAYER_COUNTS = (
    "children.support_points",
    "children.terms_computed",
    "branching.fixed_point_iters",
    "branching.gf_evals_computed",
    "simplex.lp_calls",
    "simplex.pivots",
    "simplex.limit_hits",
    "simplex.flops_computed",
    "simulate.bp_trials",
    "simulate.agents_generated",
    "simulate.edges_generated",
    "simulate.self_loops",
    "simulate.multi_edges",
    "simulate.odd_stub_cs",
    "simulate.agents_failed",
    "simulate.cascade_rounds",
)
_DISTRIBUTION_UNITS = {"p50_ms": "ms", "tail_ms": "ms", "tail_pct": "pct", "calls": "count"}
# (metric, job groups, layers): the share of those jobs' wall time spent in
# those layers' self time, for the claims the per-layer table makes.
_SHARES = (
    ("share.wide_solve.children", ("solve-wide",), ("children.build",)),
    ("share.near_critical.fixed_point", ("solve-near-critical",), ("branching.fixed_point",)),
    ("share.d1.spectral_radius", ("solve-d1",), ("branching.spectral_radius",)),
    ("share.verdict.simplex", ("orders-supermodular", "orders-idcv", "orders-d4"),
     ("simplex.lp",)),
    ("share.bp.offspring", ("bp",), ("simulate.offspring",)),
    ("share.graph.gen", ("graph",), ("simulate.graph_gen",)),
    ("share.graph.cascade", ("graph",), ("simulate.cascade",)),
)
# (claim, share metric, workload where it should hold). A claim holds when
# the share exceeds one half; "cli.self" must stay below 5%.
_CLAIMS = (
    ("children.build_s dominates the n=5 solve", "share.wide_solve.children", "analysis"),
    ("branching.fixed_point_s dominates the near-critical solves",
     "share.near_critical.fixed_point", "analysis"),
    ("branching.spectral_radius_s dominates the D1 solve", "share.d1.spectral_radius",
     "analysis"),
    ("simplex.lp_s dominates the orders jobs", "share.verdict.simplex", "analysis"),
    ("simulate.offspring_s dominates branching trials", "share.bp.offspring", "mc-sparse"),
    ("simulate.offspring_s dominates branching trials", "share.bp.offspring", "mc-dense"),
    ("simulate.graph_gen_s dominates a mc-sparse graph trial", "share.graph.gen", "mc-sparse"),
    ("simulate.cascade_s dominates a mc-dense graph trial", "share.graph.cascade", "mc-dense"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "s" for name in _LAYER_TIMES}
    units.update({name: "count" for name in _LAYER_COUNTS})
    units.update({
        "orders.definite_frac": "frac",
        "simplex.pivot_us": "us",
        "simplex.lp_interrupted": "count",
        "simulate.bp_cap_hit_frac": "frac",
        "simulate.stub_erasures": "count",
        "simulate.touched_frac": "frac",
    })
    for prefix in tracer.DISTRIBUTIONS.values():
        for key, unit in _DISTRIBUTION_UNITS.items():
            units[f"{prefix}.{key}"] = unit
    units.update({name: "frac" for name, _, _ in _SHARES})
    units["cli.self_frac"] = "frac"
    units["trace.passes"] = "count"
    units["trace.overhead_frac"] = "frac"
    return units


def _setup(args, work: Path):
    """Imports, input generation and warm-up; returns (cli, job lists)."""
    sys.path.insert(0, str(SRC))
    from cascade_lab import cli

    inputs = workloads.Inputs(args.workload, args.seed, args.scale, work)
    passes = inputs.write(SRC / "cascade_lab" / "fixtures")
    warm = [
        ["solve", f"{work}/example1_p1.json", "--json"],
        ["compare", f"{work}/example1_p1.json", f"{work}/example1_p2.json", "--json"],
        ["simulate-bp", f"{work}/example1_p1.json", "--trials", "5", "--json"],
        ["simulate-graph", f"{work}/example1_analog.json", "--sizes", "200,200",
         "--trials", "1", "--json"],
    ]
    for argv in warm:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
    return cli, passes


def _time_setups(args) -> list[tuple[float, float]]:
    """Raw and reference seconds of complete set-ups in fresh interpreters,
    timed from start to exit. Each set-up samples the speed gauge while it
    runs and reports the scale factor and the time the gauge itself took."""
    samples = []
    for i in range(SETUP_SAMPLES):
        work = WORK_ROOT / f"setup-{os.getpid()}-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", args.scale, "--work", str(work)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        raw = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr[-2000:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((raw, (raw - child["gauge_s"]) * child["scale"]))
    return samples


def run_job(cli, job, work: Path, deadline: float, gauge, trace=None):
    """Run one job under its deadline, given in reference seconds, and check
    its output. The speed gauge samples around and inside the job."""
    argv = [a.replace("{work}", str(work)) for a in job.argv]
    out, err = io.StringIO(), io.StringIO()
    rc, reason = None, ""
    if trace is not None:
        trace.begin_job()
    gauge.start(job.work, deadline)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except speed.DeadlineExceeded:
        reason = f"missed the {deadline:g} s deadline (reference seconds)"
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an uncaught error is a job outcome, not a harness fault
        reason = f"uncaught {type(exc).__name__}: {exc}"
    finally:
        raw, ref = gauge.stop()
    if trace is not None:
        trace.end_job(job.group, raw, ref / raw)
    if reason:
        return workloads.Outcome(job, raw, ref, False, True, reason)
    ok, correct, reason, values = workloads.check(job, rc, out.getvalue(), work)
    if rc not in (0, None) and err.getvalue().strip():
        reason += f" ({err.getvalue().strip().splitlines()[-1][:120]})"
    return workloads.Outcome(job, raw, ref, ok, correct, reason, values)


def run_pass(cli, jobs, work, deadline, gauge, trace=None):
    """Returns (reference seconds of the pass's jobs, outcomes)."""
    outcomes = [run_job(cli, job, work, deadline, gauge, trace) for job in jobs]
    return sum(o.wall_s for o in outcomes), outcomes


def _trials(outcome) -> int:
    argv = outcome.job.argv
    return int(argv[argv.index("--trials") + 1])


def job_walls(outcomes) -> dict:
    """Per job group: sum, median, and the highest percentile with at least
    ten samples beyond it, of untraced job times in reference seconds."""
    groups = {}
    for o in outcomes:
        groups.setdefault(o.job.group, []).append(o.wall_s)
    return {group: {"sum": sum(walls), **tracer.summarize(walls)}
            for group, walls in sorted(groups.items())}


def end_to_end(setup_samples, passes) -> dict:
    """passes: list of (wall_s, outcomes) from untraced passes."""
    outcomes = [o for _, pass_outcomes in passes for o in pass_outcomes]

    def per_pass(commands):
        return statistics.median(
            sum(o.wall_s for o in pass_outcomes if o.job.argv[0] in commands)
            for _, pass_outcomes in passes
        )

    def rate(group):
        chosen = [o for o in outcomes if o.job.group == group]
        return sum(_trials(o) for o in chosen) / sum(o.wall_s for o in chosen)

    errors = [o.values["poe_err"] for o in outcomes if "poe_err" in o.values
              and o.job.group == "solve-near-critical"]
    return {
        "setup_s": statistics.median(ref for _, ref in setup_samples),
        "wall_s": statistics.median(wall for wall, _ in passes),
        "jobs_ok_frac": sum(o.ok for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solve_s": per_pass(("solve",)),
        "verdict_s": per_pass(("orders", "compare")),
        "poe_max_err": max(errors, default=1.0),
        "bp_trials_per_s": rate("bp"),
        "graph_trials_per_s": rate("graph"),
    }


def per_layer(trace, traced_walls, untraced_walls) -> dict:
    safe_ratio = tracer.safe_ratio
    n = len(traced_walls)
    c = trace.counts
    values = {name: trace.self_s[layer] / n for name, layer in _LAYER_TIMES.items()}
    values.update({name: c[name] / n for name in _LAYER_COUNTS})
    values["orders.definite_frac"] = safe_ratio(c["orders.definite"], c["orders.verdicts"])
    values["simplex.pivot_us"] = safe_ratio(trace.self_s["simplex.lp_finished"],
                                            c["simplex.pivots"]) * 1e6
    values["simplex.lp_interrupted"] = c["simplex.lp.interrupted"] / n
    values["simulate.bp_cap_hit_frac"] = safe_ratio(c["simulate.bp_cap_hits"],
                                                    c["simulate.bp_trials"])
    values["simulate.stub_erasures"] = (
        c["simulate.self_loops"] + c["simulate.multi_edges"] + c["simulate.odd_stub_cs"]
    ) / n
    values["simulate.touched_frac"] = safe_ratio(c["simulate.agents_failed"],
                                                 c["simulate.agents_generated"])
    for layer, prefix in tracer.DISTRIBUTIONS.items():
        for key, value in trace.distribution(layer).items():
            values[f"{prefix}.{key}"] = value
    for name, groups, layers in _SHARES:
        values[name] = trace.share(groups, layers)
    values["cli.self_frac"] = safe_ratio(trace.self_s["cli"], sum(trace.group_wall_s.values()))
    values["trace.passes"] = n
    values["trace.overhead_frac"] = statistics.median(
        t / u - 1.0 for t, u in zip(traced_walls, untraced_walls)
    )
    return values


def claims(workload: str, values: dict) -> list[dict]:
    found = [
        {"claim": text, "share": round(values[metric], 4),
         "verdict": "confirmed" if values[metric] > 0.5 else "refuted"}
        for text, metric, where in _CLAIMS
        if where == workload
    ]
    found.append({"claim": "cli self time stays small (< 5% of job time)",
                  "share": round(values["cli.self_frac"], 4),
                  "verdict": "confirmed" if values["cli.self_frac"] < 0.05 else "refuted"})
    return found


def environment(args, job_hash: str) -> dict:
    sources = sorted(p for p in (SRC / "cascade_lab").rglob("*") if p.is_file()
                     and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for path in sources:
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():  # never let git search above the checkout
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "pinned_threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "deadline_s": args.deadline,
        "job_list_sha256": job_hash,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline", type=float, default=10.0,
                        help="per-job deadline in reference seconds (see speed.py)")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cascade_lab" / "cli.py").is_file():
        print(f"error: no cascade_lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        start = time.perf_counter()
        gauge = speed.Gauge()
        gauge.start(speed.INTERP, float("inf"))
        _setup(args, Path(args.work))
        raw, ref = gauge.stop()
        print(json.dumps({"scale": ref / raw, "gauge_s": time.perf_counter() - start - raw}))
        return 0

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_samples = _time_setups(args)
        cli, passes = _setup(args, work)
        gauge = speed.Gauge()
        trace = tracer.Tracer(clock=gauge.clock) if args.trace else None
        untraced, traced = [], []
        start = time.perf_counter()
        for jobs in passes:
            untraced.append(run_pass(cli, jobs, work, args.deadline, gauge))
            if trace is not None:
                trace.install()
                try:
                    traced.append(run_pass(cli, jobs, work, args.deadline, gauge, trace))
                finally:
                    trace.uninstall()
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 1 / len(untraced)) > args.seconds:
                break
        job_hash = workloads.job_list_hash(passes)
        env = environment(args, job_hash)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it

    all_outcomes = [o for _, outs in untraced + traced for o in outs]
    failed = [o for o in all_outcomes if not o.ok]
    pooled = workloads.pooled_checks(all_outcomes)
    e2e = end_to_end(setup_samples, untraced)
    report = {
        "environment": env,
        "passes": len(untraced),
        "jobs_per_pass": len(passes[0]),
        "jobs_failed_frac": sum(not o.ok for _, outs in untraced for o in outs)
        / sum(len(outs) for _, outs in untraced),
        "failed_jobs": sorted({(o.job.name, o.job.defect or "", o.reason) for o in failed}),
        "setup_samples_s": setup_samples,
        "raw_pass_s": [sum(o.raw_s for o in outs) for _, outs in untraced],
        "end_to_end": e2e,
        "job_wall_s": job_walls([o for _, outs in untraced for o in outs]),
        "pooled_estimates": pooled,
    }
    if args.trace:
        values = per_layer(trace, [w for w, _ in traced], [w for w, _ in untraced])
        report["claims"] = claims(args.workload, values)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": all(o.correct for o in all_outcomes)
        and all(ok for _, _, ok in pooled.values()),
        "attempted": len(all_outcomes),
        "failed": sum(1 for o in failed if o.job.defect is None),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
