"""Workloads: seeded job lists, the model files they read, and the checks
run on every job's ``--json`` output.

A workload is a sequence of passes; pass ``k`` is a fixed list of CLI jobs
drawn from ``(seed, k)``. Every workload also runs a few fixed probe jobs
(a fixture solve, a near-critical solve, one ``compare``, a short
branching and a short graph simulation) so that each end-to-end metric is
defined everywhere; the probes stay the same on every seed and should stay
flat. Known defects appear as named jobs (``defect`` set); they count
against ``jobs_ok_frac`` but not as unexpected failures.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import models
from speed import INTERP, MEMORY

WORKLOADS = ("analysis", "mc-sparse", "mc-dense")
FIXTURES = ("example1_p1", "example1_p2", "example2_p3", "demo_ns3")

# Die-out probabilities of the bundled fixtures (fresh types first), and the
# cascade probability of the Example-1 analog, solved once at the commit
# that introduced this benchmark. They are references for the Monte Carlo
# checks, which only need a few digits.
REFERENCE_POE = {
    "example1_p1": (0.9645853751642787, 0.9645853751642787, 0.976106636013842, 0.976106636013842),
    "example1_p2": (0.9585783096369341, 0.9585783096369341, 0.9719956397906582, 0.9719956397906582),
    "example2_p3": (0.9603617246807795, 0.9603617246807795, 0.9732180494278243, 0.9732180494278243),
    "demo_ns3": (0.16863421000165343, 0.18643922174843727, 0.13829507860179718,
                 0.3153070079483887, 0.342397342118293, 0.3106168246263545),
}
ANALOG_CASCADE = 0.0895127705437464

# Wilson z for Monte Carlo checks: wide enough that a correct program fails
# a check with probability about 6e-7 per interval.
CHECK_Z = 5.0
# Errors of the near-critical solve are measured against a double-precision
# closed form; smaller differences are not resolvable and read as this.
POE_ERR_FLOOR = 1e-15
SOLVE_ATOL = 1e-12
# The probe simulations run as this many short jobs spread through a pass.
PROBE_CHUNKS = 4

SCALES = {
    "full": {
        "wide": (5, 3),
        "near_critical": (0.3, 0.26, 0.2501, 0.25005),
        "sm_pairs": 6, "sm_side": 5,
        "idcv_pairs": 6, "idcv_side": 4,
        "d4_side": 5,
        "probe_bp_trials": 3000,
        "probe_graph": ("10000,10000", 16),
        "sparse_bp_trials": 3000,
        "sparse_graph": ("50000,50000", 30),
        "d3_graph": ("2000,2000", 5),
        "dense_bp_trials": 1500,
        "dense_graph": ("20000,20000,20000", 12),
        "passes": {"analysis": 2, "mc-sparse": 40, "mc-dense": 40},
    },
    "tiny": {
        "wide": (5, 2),
        "near_critical": (0.3, 0.26),
        "sm_pairs": 1, "sm_side": 3,
        "idcv_pairs": 1, "idcv_side": 3,
        "d4_side": 3,
        "probe_bp_trials": 20,
        "probe_graph": ("500,500", 1),
        "sparse_bp_trials": 30,
        "sparse_graph": ("2000,2000", 2),
        "d3_graph": ("2000,2000", 5),
        "dense_bp_trials": 20,
        "dense_graph": ("500,500,500", 2),
        "passes": {"analysis": 2, "mc-sparse": 2, "mc-dense": 2},
    },
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation. ``argv`` names model files relative to the work
    directory as ``{work}/<file>``; ``group`` is the job's kind for the
    timing sums and the trace; ``expect`` parameterizes the output check;
    ``work`` picks the speed kernel its time is scaled by (speed.py)."""

    name: str
    group: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    defect: str | None = None
    work: str = INTERP


@dataclass
class Outcome:
    """A finished job: ``raw_s`` as measured, ``wall_s`` in reference
    seconds (see speed.py)."""

    job: Job
    raw_s: float
    wall_s: float
    ok: bool
    correct: bool
    reason: str = ""
    values: dict = field(default_factory=dict)


def _sub_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


class Inputs:
    """Writes the model files of one workload into ``work`` and hands out
    the job list of each pass."""

    def __init__(self, workload: str, seed: int, scale: str, work: Path):
        self.workload = workload
        self.seed = seed
        self.cfg = SCALES[scale]
        self.work = work
        self.passes = self.cfg["passes"][workload]

    def _save(self, name: str, document: dict) -> str:
        (self.work / f"{name}.json").write_text(json.dumps(document))
        return "{work}/" + f"{name}.json"

    def write(self, fixtures_dir: Path) -> list[list[Job]]:
        self.work.mkdir(parents=True, exist_ok=True)
        files = {}
        for name in FIXTURES:
            shutil.copyfile(fixtures_dir / f"{name}.json", self.work / f"{name}.json")
            files[name] = "{work}/" + f"{name}.json"
        files["analog"] = self._save("example1_analog", models.example1_analog())
        for p in self.cfg["near_critical"]:
            files[f"nc{p}"] = self._save(f"near_critical_{p}", models.near_critical(p))
        builder = getattr(self, "_" + self.workload.replace("-", "_"))
        return [_spread(self._probes(files), builder(files, k)) for k in range(self.passes)]

    # -- job lists ----------------------------------------------------------

    def _solve(self, name, group, path, reference=None, defect=None) -> Job:
        expect = {"reference": reference} if reference is not None else {}
        return Job(name, group, ("solve", path, "--json"), expect, defect)

    def _probes(self, files) -> list[Job]:
        graph_sizes, graph_trials = self.cfg["probe_graph"]
        p = self.cfg["near_critical"][1]
        return [
            self._solve("probe:solve:example1_p1", "solve-fixture", files["example1_p1"],
                        REFERENCE_POE["example1_p1"]),
            self._solve(f"probe:solve:near-critical:{p}", "solve-near-critical",
                        files[f"nc{p}"], list(models.near_critical_reference(p))),
            Job("probe:compare:example1_p1:example1_p2", "compare",
                ("compare", files["example1_p1"], files["example1_p2"], "--json")),
            Job("probe:compare:example1_p2:example2_p3", "compare",
                ("compare", files["example1_p2"], files["example2_p3"], "--json")),
        ] + [
            job
            for chunk in range(PROBE_CHUNKS)
            for job in (
                Job(f"probe:simulate-bp:example1_p1:{chunk}", "bp",
                    ("simulate-bp", files["example1_p1"], "--trials",
                     str(self.cfg["probe_bp_trials"] // PROBE_CHUNKS), "--seed", str(chunk),
                     "--json"),
                    {"reference": REFERENCE_POE["example1_p1"][0]}),
                Job(f"probe:simulate-graph:analog:{chunk}", "graph",
                    ("simulate-graph", files["analog"], "--sizes", graph_sizes, "--trials",
                     str(graph_trials // PROBE_CHUNKS), "--seed", str(chunk), "--json"),
                    {"reference": ANALOG_CASCADE, "sizes": graph_sizes}, work=MEMORY),
            )
        ]

    def _analysis(self, files, k) -> list[Job]:
        cfg = self.cfg
        jobs = [
            self._solve(f"solve:{name}", "solve-fixture", files[name], REFERENCE_POE[name])
            for name in FIXTURES
        ]
        n, d = cfg["wide"]
        if k == 0:
            files["wide"] = self._save(f"wide_n{n}_d{d}", models.wide(n, d))
            files["d1"] = self._save("periodic_d1", models.periodic_d1())
        jobs.append(self._solve(f"solve:wide:n{n}:d{d}", "solve-wide", files["wide"]))
        for p in cfg["near_critical"]:
            jobs.append(self._solve(
                f"solve:near-critical:{p}", "solve-near-critical", files[f"nc{p}"],
                list(models.near_critical_reference(p))))
        jobs.append(self._solve("solve:d1-periodic", "solve-d1", files["d1"], defect="D1"))
        rng = np.random.default_rng(_sub_seed(self.seed, k, 1))
        base = models.uniform_cube(cfg["sm_side"])
        base_file = self._save(f"uniform{cfg['sm_side']}", models.order_model("uniform", base))
        for i in range(cfg["sm_pairs"]):
            moved = models.concordance_transfer(rng, base)
            path = self._save(f"p{k}_transfer{i}", models.order_model("transfer", moved))
            jobs.append(Job(f"orders:supermodular:p{k}:{i}", "orders-supermodular",
                            ("orders", base_file, path, "--relation", "supermodular",
                             "--cs", "0", "--json"), {"ordered": True}, work=MEMORY))
        small = models.uniform_cube(cfg["idcv_side"])
        small_file = self._save(f"uniform{cfg['idcv_side']}",
                                models.order_model("uniform", small))
        for i in range(cfg["idcv_pairs"]):
            spread = models.mean_preserving_spread(rng, small)
            path = self._save(f"p{k}_spread{i}", models.order_model("spread", spread))
            jobs.append(Job(f"orders:idcv:p{k}:{i}", "orders-idcv",
                            ("orders", path, small_file, "--relation", "idcv",
                             "--cs", "0", "--json"), {"ordered": True}, work=MEMORY))
        # Defect D4: the concordance transfer drawn with default_rng(0), as in
        # the test-suite construction; the dense simplex stalls on it.
        side = cfg["d4_side"]
        if k == 0:
            cube = models.uniform_cube(side)
            files["d4a"] = self._save(f"d4_uniform{side}", models.order_model("uniform", cube))
            files["d4b"] = self._save(
                f"d4_transfer{side}",
                models.order_model(
                    "transfer", models.concordance_transfer(np.random.default_rng(0), cube)))
        jobs.append(Job("orders:idcv:d4-stall", "orders-d4",
                        ("orders", files["d4a"], files["d4b"], "--relation", "idcv",
                         "--cs", "0", "--json"), {"ordered": False}, defect="D4",
                        work=MEMORY))
        return jobs

    def _mc_sparse(self, files, k) -> list[Job]:
        cfg = self.cfg
        sizes, trials = cfg["sparse_graph"]
        d3_sizes, d3_trials = cfg["d3_graph"]
        if k == 0:
            files["d3"] = self._save("table_coverage_d3", models.table_coverage_d3())
        return [
            Job(f"simulate-bp:example1_p1:p{k}", "bp",
                ("simulate-bp", files["example1_p1"], "--trials",
                 str(cfg["sparse_bp_trials"]), "--seed", str(_sub_seed(self.seed, k, 2)),
                 "--json"),
                {"reference": REFERENCE_POE["example1_p1"][0]}),
            Job(f"simulate-graph:analog:p{k}", "graph",
                ("simulate-graph", files["analog"], "--sizes", sizes, "--trials", str(trials),
                 "--seed", str(_sub_seed(self.seed, k, 3)), "--json"),
                {"reference": ANALOG_CASCADE, "sizes": sizes}, work=MEMORY),
            Job(f"simulate-graph:d3-table-coverage:p{k}", "graph-d3",
                ("simulate-graph", files["d3"], "--sizes", d3_sizes, "--trials",
                 str(d3_trials), "--seed", str(_sub_seed(self.seed, k, 4)), "--json"),
                {"sizes": d3_sizes}, defect="D3", work=MEMORY),
        ]

    def _mc_dense(self, files, k) -> list[Job]:
        cfg = self.cfg
        sizes, trials = cfg["dense_graph"]
        return [
            Job(f"simulate-bp:demo_ns3:p{k}", "bp",
                ("simulate-bp", files["demo_ns3"], "--trials", str(cfg["dense_bp_trials"]),
                 "--seed", str(_sub_seed(self.seed, k, 2)), "--json"),
                {"reference": REFERENCE_POE["demo_ns3"][0]}),
            Job(f"simulate-graph:demo_ns3:p{k}", "graph",
                ("simulate-graph", files["demo_ns3"], "--sizes", sizes, "--trials",
                 str(trials), "--seed", str(_sub_seed(self.seed, k, 3)), "--json"),
                {"sizes": sizes}, work=MEMORY),
        ]


def _spread(probes: list[Job], jobs: list[Job]) -> list[Job]:
    """Insert the probe jobs evenly among the workload's own jobs, so that a
    drift in machine speed during a long pass does not land on all of them."""
    out = list(jobs)
    for i, probe in enumerate(reversed(probes)):
        out.insert(round(len(jobs) * (len(probes) - 1 - i) / len(probes)), probe)
    return out


def job_list_hash(passes: list[list[Job]]) -> str:
    text = json.dumps([[asdict(j) for j in jobs] for jobs in passes], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# -- output checks --------------------------------------------------------


def wilson(successes: int, trials: int, z: float = CHECK_Z) -> tuple[float, float]:
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


def _in_unit(values) -> bool:
    return all(-1e-15 <= v <= 1.0 + 1e-15 for v in values)


def _check_solve(job: Job, out: dict) -> tuple[bool, bool, str, dict]:
    """Returns (definite, correct, reason, values)."""
    poe, pocf = out["poe"], out["pocf_per_cs"]
    n = out["n_systems"]
    if not _in_unit(poe):
        return True, False, "die-out value outside [0, 1]", {}
    if any(abs(pocf[i] - (1.0 - poe[i])) > SOLVE_ATOL for i in range(n)):
        return True, False, "pocf != 1 - poe", {}
    values = {}
    reference = job.expect.get("reference")
    if reference is not None:
        err = max(abs(a - b) for a, b in zip(poe, reference))
        values["poe_err"] = max(err, POE_ERR_FLOOR)
        if job.group == "solve-fixture" and err > 1e-6:
            return True, False, f"die-out differs from reference by {err:.3g}", values
    if not out["converged"]:
        return False, True, "fixed point did not converge", values
    return True, True, "", values


def _xi_gap(witness: dict, a: dict, b: dict) -> float:
    """E_b[xi] - E_a[xi] for a witness table, computed without the solver."""
    xi = {tuple(point): value for point, value in witness["xi"]}
    return sum(m * xi[v] for v, m in b.items()) - sum(m * xi[v] for v, m in a.items())


def _check_orders(job: Job, out: dict, laws) -> tuple[bool, bool, str, dict]:
    definite, reasons = True, []
    for row in out["results"]:
        outcome = row["outcome"]
        if outcome == "fails":
            if not row.get("witness"):
                return True, False, "'fails' without a witness", {}
            if job.expect.get("ordered"):
                return True, False, "pair ordered by construction got 'fails'", {}
            if laws is not None and "xi" in row["witness"]:
                gap = _xi_gap(row["witness"], *laws)
                if not (gap < 0 and abs(gap - row["witness"]["gap"]) <= 1e-8):
                    return True, False, "witness does not reproduce its gap", {}
        elif outcome != "holds":
            definite = False
            reasons.append(f"{outcome}: {row.get('detail', '')[:80]}")
    return definite, True, "; ".join(reasons), {}


def _check_compare(job: Job, out: dict) -> tuple[bool, bool, str, dict]:
    if not (_in_unit(out["poe_a"]) and _in_unit(out["poe_b"])):
        return True, False, "die-out value outside [0, 1]", {}
    for hyp in out["hypotheses"]:
        if hyp["holds"] and not hyp["implication_observed"]:
            return True, False, f"implication violated: {hyp['hypothesis']}", {}
        for row in hyp["rows"]:
            if row.get("outcome") == "fails" and not row.get("witness"):
                return True, False, "'fails' without a witness", {}
    return True, True, "", {}


def _check_estimate(job: Job, out: dict) -> tuple[bool, bool, str, dict]:
    trials, count = out["trials"], out["count"]
    low, high = out["ci95"]
    if not (0 <= count <= trials and abs(out["estimate"] - count / trials) < 1e-12
            and 0.0 <= low <= out["estimate"] <= high <= 1.0):
        return True, False, "inconsistent estimate", {}
    values = {"trials": trials, "count": count}
    if job.group == "bp":
        values["cap_hit_rate"] = out["cap_hit_rate"]
    reference = job.expect.get("reference")
    if reference is not None:
        lo, hi = wilson(count, trials)
        if not lo <= reference <= hi:
            return True, False, (
                f"reference {reference:.4f} outside widened interval [{lo:.4f}, {hi:.4f}]"
            ), values
    return True, True, "", values


def check(job: Job, rc, stdout: str, work: Path) -> tuple[bool, bool, str, dict]:
    """Check one finished job. Returns (ok, correct, reason, values)."""
    if rc != 0:
        return False, True, f"exit code {rc}", {}
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return False, False, "output is not JSON", {}
    command = job.argv[0]
    if command == "solve":
        definite, correct, reason, values = _check_solve(job, out)
    elif command == "orders":
        laws = [_law(work, path) for path in job.argv[1:3]]
        definite, correct, reason, values = _check_orders(job, out, laws)
    elif command == "compare":
        definite, correct, reason, values = _check_compare(job, out)
    else:
        definite, correct, reason, values = _check_estimate(job, out)
    if not correct:
        return False, False, "check failed: " + reason, values
    if not definite:
        return False, True, "non-definite: " + reason, values
    return True, True, "", values


def pooled_checks(outcomes) -> dict:
    """Pool the Monte Carlo jobs that estimate the same reference value (same
    model and sizes) over the run; each pool must contain its reference in
    the widened interval as well. Returns {pool: (count, trials, ok)}."""
    pools = {}
    for o in outcomes:
        reference = o.job.expect.get("reference")
        if "trials" in o.values and isinstance(reference, float):
            key = " ".join((o.job.argv[0], Path(o.job.argv[1]).stem,
                            o.job.expect.get("sizes", "")))
            count, trials, _ = pools.get(key, (0, 0, reference))
            pools[key] = (count + o.values["count"], trials + o.values["trials"], reference)
    result = {}
    for key, (count, trials, reference) in pools.items():
        lo, hi = wilson(count, trials)
        result[key] = (count, trials, lo <= reference <= hi)
    return result


def _law(work: Path, path: str) -> dict:
    document = json.loads(Path(path.replace("{work}", str(work))).read_text())
    return {tuple(v): m for v, m in document["degree_dists"][0]["entries"]}
