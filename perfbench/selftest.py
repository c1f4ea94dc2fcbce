"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the tiny scale, untraced and
traced, and checks that each run prints every named metric with its unit,
that one seed always yields the same job list and model files, and that the
benchmark refuses to run, without printing a result, in a directory that
holds only the benchmark.
"""

from __future__ import annotations

import contextlib
import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "selftest"
SEED = 7


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_metrics(result: dict, expected: list[dict], where: str) -> list[str]:
    errors = []
    got = result.get("metrics", {})
    names = [m["name"] for m in expected]
    if sorted(got) != sorted(names):
        errors.append(f"{where}: metrics {sorted(set(got) ^ set(names))} differ from BENCHMARK.json")
    for metric in expected:
        entry = got.get(metric["name"])
        if entry is not None and entry.get("unit") != metric["unit"]:
            errors.append(f"{where}: {metric['name']} has unit {entry.get('unit')!r}")
        if entry is not None and not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{where}: {metric['name']} has no numeric value")
    if not (isinstance(result.get("correct"), bool) and result.get("attempted", 0) >= 1
            and isinstance(result.get("failed"), int)):
        errors.append(f"{where}: bad correct/attempted/failed fields")
    return errors


def _job_lists_repeat(workload: str) -> list[str]:
    """Generate one seed's inputs twice; job lists and files must match."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads

    dirs = [WORK / f"{workload}-{i}" for i in range(2)]
    hashes = [
        workloads.job_list_hash(
            workloads.Inputs(workload, SEED, "tiny", d).write(ROOT / "src/cascade_lab/fixtures"))
        for d in dirs
    ]
    errors = [] if hashes[0] == hashes[1] else [f"{workload}: job list differs between builds"]
    compared = filecmp.dircmp(dirs[0], dirs[1])
    if compared.diff_files or compared.left_only or compared.right_only:
        errors.append(f"{workload}: generated model files differ between builds")
    return errors


def _refuses_without_program(workload: str) -> list[str]:
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run(bare, workload, 0)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return ["benchmark ran without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    errors = []
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            hashes = set()
            for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                proc = _run(ROOT, workload, trace)
                where = f"{workload} --trace {trace}"
                if proc.returncode != 0:
                    errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                    continue
                lines = proc.stdout.strip().splitlines()
                errors += _check_metrics(json.loads(lines[-1]), expected, where)
                hashes.add(json.loads(lines[-2])["report"]["environment"]["job_list_sha256"])
            if len(hashes) > 1:
                errors.append(f"{workload}: the same seed gave different job lists")
            errors += _job_lists_repeat(workload)
            print(f"{workload}: checked", flush=True)
        errors += _refuses_without_program(spec["workloads"][0]["name"])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()  # only when no benchmark run is using it
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
