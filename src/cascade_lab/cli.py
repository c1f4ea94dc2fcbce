"""Command-line interface.

``cascade-lab {validate|solve|compare|orders|simulate-bp|simulate-graph}``

All commands read JSON model files, print a human table by default or JSON
with ``--json``, and are byte-for-byte reproducible given the same inputs and
seed. CS and type indices are 0-based throughout. Exit codes: 0 success,
1 validation failure, 2 runtime/usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import branching, orders
from .children import check_vulnerability_scaling, offspring_laws
from .model import SystemModel, validate_model
from .modelio import ModelFormatError, ModelValidationError, load_model
from .pmf import is_independent, marginal, mean_vector
from .simulate import estimate_epidemic_probability, simulate_branching

POE_SLACK = 1e-9


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _pmf_table(model: SystemModel, cs: int) -> list[str]:
    pmf = model.degree_dists[cs]
    lines = [f"CS {cs} degree pmf ({pmf.n_points} support points):"]
    if pmf.dimension == 2:
        d1 = np.unique(pmf.support[:, 0])
        d2 = np.unique(pmf.support[:, 1])
        header = "  d2\\d1 " + " ".join(f"{int(v):>9d}" for v in d1)
        lines.append(header)
        for b in d2:
            row = [f"  {int(b):>5d} "]
            for a in d1:
                row.append(f"{pmf.prob((int(a), int(b))):>9.5f}")
            lines.append(" ".join(row))
    else:
        for vec, m in zip(pmf.support, pmf.mass):
            lines.append(f"  {tuple(int(x) for x in vec)}: {m:.6g}")
    return lines


def cmd_validate(args) -> int:
    status = 0
    payload = {}
    for path in args.model:
        try:
            model = load_model(path, validate=False)
        except (ModelFormatError, json.JSONDecodeError) as exc:
            payload[path] = {"ok": False, "errors": getattr(exc, "issues", [str(exc)])}
            status = 1
            continue
        report = validate_model(model)
        payload[path] = {
            "ok": report.ok,
            "violations": [
                {"code": v.code, "where": v.where, "detail": v.detail}
                for v in report.violations
            ],
        }
        if not report.ok:
            status = 1
        elif not args.json:
            for cs in range(model.n_systems):
                payload.setdefault("_tables", []).extend(_pmf_table(model, cs))
    if args.json:
        payload.pop("_tables", None)
        _print_json(payload)
    else:
        tables = payload.pop("_tables", [])
        for path, entry in payload.items():
            print(f"{path}: {'valid' if entry['ok'] else 'INVALID'}")
            for v in entry.get("violations", []):
                print(f"  [{v['code']}] {v['where']}: {v['detail']}")
            for e in entry.get("errors", []):
                print(f"  [format] {e}")
        for line in tables:
            print(line)
    return status


def build_solve_report(model: SystemModel, tol: float) -> dict:
    laws = offspring_laws(model)
    mm = branching.mean_matrix(laws)
    poe = branching.solve_extinction(laws, tol=tol)
    return {
        "model": model.name,
        "n_systems": model.n_systems,
        "mean_matrix": [[float(v) for v in row] for row in mm.values],
        "positively_regular": branching.is_positively_regular(mm),
        "pocf_per_cs": [float(1.0 - poe.values[i]) for i in range(model.n_systems)],
        **poe.to_dict(),
    }


def cmd_solve(args) -> int:
    model = load_model(args.model)
    report = build_solve_report(model, args.tol)
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.json:
        _print_json(report)
    else:
        print(f"model: {report['model'] or args.model}")
        print(f"regime: {report['regime']} (spectral radius {_fmt(report['spectral_radius'])})")
        print(f"positively regular: {report['positively_regular']}")
        print("mean matrix:")
        for row in report["mean_matrix"]:
            print("  " + " ".join(f"{v:>8.4f}" for v in row))
        print("die-out probability by type: " + " ".join(_fmt(v) for v in report["poe"]))
        print(
            "cascade probability by seed CS: "
            + " ".join(_fmt(v) for v in report["pocf_per_cs"])
        )
        if report["regime"] == "subcritical":
            print("subcritical: cascades die out with probability one")
    return 0


def build_compare_report(a: SystemModel, b: SystemModel, grid_limit: int) -> dict:
    if a.n_systems != b.n_systems:
        raise ValueError("models must have the same number of constituent systems")
    n = a.n_systems
    laws_a, laws_b = offspring_laws(a), offspring_laws(b)
    poe_a, poe_b = branching.solve_extinction(laws_a), branching.solve_extinction(laws_b)

    def hypothesis(text: str, holds: bool, rows: list, smaller: str) -> dict:
        """One hypothesis entry; if it holds, model ``smaller`` ("A" or "B")
        should have the lower die-out probabilities."""
        larger = "B" if smaller == "A" else "A"
        lo, hi = (poe_a, poe_b) if smaller == "A" else (poe_b, poe_a)
        return {
            "hypothesis": text,
            "holds": holds,
            "rows": rows,
            "implies": f"poe({smaller}) <= poe({larger})",
            "implication_observed": (
                bool(np.all(lo.values <= hi.values + POE_SLACK)) if holds else None
            ),
        }

    ssd_rows = []
    independent = all(is_independent(p) for p in a.degree_dists) and all(
        is_independent(p) for p in b.degree_dists
    )
    for cs in range(n):
        for axis in range(n):
            verdict = orders.compare_icv(
                marginal(a.degree_dists[cs], axis), marginal(b.degree_dists[cs], axis)
            )
            ssd_rows.append({"cs": cs, "axis": axis, "outcome": verdict.outcome})
    ssd_holds = independent and all(r["outcome"] == "holds" for r in ssd_rows)

    sm_rows = [
        orders.certify_supermodular(
            a.degree_dists[cs], b.degree_dists[cs], grid_limit=grid_limit
        ).to_dict()
        for cs in range(n)
    ]
    shape_checks = [
        (name, cs, check_vulnerability_scaling(profile, 20))
        for name, model in (("A", a), ("B", b))
        for cs, profile in enumerate(model.vulnerability)
    ]
    risk_shape = [
        {"model": name, "cs": cs, "violated_at": check.violated_at, "reason": check.reason}
        for name, cs, check in shape_checks
        if not check.holds
    ]
    shape_ok = not risk_shape
    sm_holds = shape_ok and all(r["outcome"] == "holds" for r in sm_rows)

    idcv_rows = []
    means_equal = all(
        np.allclose(mean_vector(a.degree_dists[cs]), mean_vector(b.degree_dists[cs]), atol=1e-9)
        for cs in range(n)
    )
    for cs in range(n):
        idcv_rows.append(
            orders.certify_idcv(
                a.degree_dists[cs], b.degree_dists[cs], grid_limit=grid_limit
            ).to_dict()
        )
    idcv_holds = (
        shape_ok and means_equal and all(r["outcome"] == "holds" for r in idcv_rows)
    )

    lt_rows = [orders.compare_lt(ha, hb).to_dict() for ha, hb in zip(laws_a, laws_b)]
    lt_holds = all(r["outcome"] == "holds" for r in lt_rows)

    return {
        "model_a": a.name,
        "model_b": b.name,
        "poe_a": [float(v) for v in poe_a.values],
        "poe_b": [float(v) for v in poe_b.values],
        "risk_shape": risk_shape,
        "hypotheses": [
            hypothesis(
                "variability: coordinatewise increasing-concave order, independent coordinates",
                ssd_holds,
                ssd_rows + [{"independent": independent}],
                "B",
            ),
            hypothesis(
                "dependence: supermodular order per CS (aggregate risk nondecreasing concave)",
                sm_holds,
                sm_rows + [{"risk_shape_ok": shape_ok}],
                "A",
            ),
            hypothesis(
                "variability: joint increasing directionally-concave order, equal means",
                idcv_holds,
                idcv_rows + [{"means_equal": means_equal, "risk_shape_ok": shape_ok}],
                "B",
            ),
            hypothesis(
                "children: Laplace-transform order per type (grid check)",
                lt_holds,
                lt_rows,
                "B",
            ),
        ],
    }


def cmd_compare(args) -> int:
    a = load_model(args.model_a)
    b = load_model(args.model_b)
    report = build_compare_report(a, b, args.grid_limit)
    if args.json:
        _print_json(report)
    else:
        print(f"A = {report['model_a'] or args.model_a}")
        print(f"B = {report['model_b'] or args.model_b}")
        print("poe(A): " + " ".join(_fmt(v) for v in report["poe_a"]))
        print("poe(B): " + " ".join(_fmt(v) for v in report["poe_b"]))
        for r in report["risk_shape"]:
            print(f"risk shape fails for model {r['model']} CS {r['cs']}: {r['reason']}")
        for h in report["hypotheses"]:
            mark = "holds" if h["holds"] else "not established"
            print(f"- {h['hypothesis']}: {mark}")
            if h["holds"]:
                status = "confirmed" if h["implication_observed"] else "VIOLATED"
                print(f"    implies {h['implies']}: {status}")
    return 0


_RELATIONS = ("concordance", "fsd", "icv", "idcv", "lt", "supermodular")


def cmd_orders(args) -> int:
    a = load_model(args.model_a)
    b = load_model(args.model_b)
    if a.n_systems != b.n_systems:
        raise ValueError("models must have the same number of constituent systems")
    if args.cs is not None and not 0 <= args.cs < a.n_systems:
        raise IndexError(f"--cs {args.cs} out of range: must be in [0, {a.n_systems})")
    cs_list = [args.cs] if args.cs is not None else list(range(a.n_systems))
    results = []
    for cs in cs_list:
        pa, pb = a.degree_dists[cs], b.degree_dists[cs]
        if args.relation in ("fsd", "icv"):
            axes = [args.axis] if args.axis is not None else list(range(a.n_systems))
            for axis in axes:
                fn = orders.compare_fsd if args.relation == "fsd" else orders.compare_icv
                verdict = fn(marginal(pa, axis), marginal(pb, axis))
                results.append({"cs": cs, "axis": axis, **verdict.to_dict()})
        elif args.relation == "concordance":
            results.append({"cs": cs, **orders.compare_concordance(pa, pb).to_dict()})
        elif args.relation == "supermodular":
            results.append(
                {"cs": cs, **orders.certify_supermodular(pa, pb, grid_limit=args.grid_limit).to_dict()}
            )
        elif args.relation == "idcv":
            results.append(
                {"cs": cs, **orders.certify_idcv(pa, pb, grid_limit=args.grid_limit).to_dict()}
            )
        elif args.relation == "lt":
            results.append({"cs": cs, **orders.compare_lt(pa, pb).to_dict()})
    payload = {"relation": args.relation, "direction": "first <= second", "results": results}
    if args.json:
        _print_json(payload)
    else:
        print(f"relation {args.relation} (first <= second):")
        for r in results:
            loc = f"cs {r['cs']}" + (f" axis {r['axis']}" if "axis" in r else "")
            print(f"  {loc}: {r['outcome']} ({r['method']})")
            if r.get("witness"):
                print(f"    witness: {json.dumps(r['witness'], sort_keys=True)}")
    return 0


def cmd_simulate_bp(args) -> int:
    model = load_model(args.model)
    estimate, _ = simulate_branching(
        model,
        seed_type=args.seed_type,
        generation_cap=args.generation_cap,
        population_cap=args.population_cap,
        trials=args.trials,
        rng_seed=args.seed,
    )
    payload = estimate.to_dict()
    payload["generation_cap"] = args.generation_cap
    payload["population_cap"] = args.population_cap
    payload["seed_type"] = args.seed_type
    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.json:
        _print_json(payload)
    else:
        print(
            f"extinction estimate {estimate.estimate:.6f} "
            f"[{estimate.ci_low:.6f}, {estimate.ci_high:.6f}] "
            f"({estimate.count}/{estimate.trials} trials, seed {estimate.rng_seed}, "
            f"cap-hit rate {estimate.cap_hit_rate:.4f})"
        )
    return 0


def cmd_simulate_graph(args) -> int:
    model = load_model(args.model)
    sizes = [int(s) for s in args.sizes.split(",")]
    estimate, rows = estimate_epidemic_probability(
        model,
        sizes=sizes,
        epidemic_fraction=args.gamma,
        trials=args.trials,
        rng_seed=args.seed,
        seed_cs=args.seed_cs,
    )
    payload = estimate.to_dict()
    payload["sizes"] = sizes
    payload["gamma"] = args.gamma
    payload["seed_cs"] = args.seed_cs
    if args.output:
        with open(args.output, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["# rng_seed", estimate.rng_seed])
            writer.writerow(
                ["trial", "seed_agent"]
                + [f"failed_cs{i}" for i in range(model.n_systems)]
                + ["rounds", "epidemic"]
            )
            for row in rows:
                writer.writerow(
                    [row.trial, row.seed_agent, *row.failed_by_cs, row.rounds, int(row.epidemic)]
                )
    if args.json:
        _print_json(payload)
    else:
        print(
            f"epidemic frequency {estimate.estimate:.6f} "
            f"[{estimate.ci_low:.6f}, {estimate.ci_high:.6f}] "
            f"({estimate.count}/{estimate.trials} trials, seed {estimate.rng_seed})"
        )
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascade-lab",
        description="Cascading-failure analysis of interdependent systems (0-based CS indices)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate model files")
    p.add_argument("model", nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("solve", help="mean matrix, criticality, die-out probabilities")
    p.add_argument("model")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("compare", help="order hypotheses between two models and implied conclusions")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--grid-limit", type=_positive_int, default=orders.DEFAULT_GRID_LIMIT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("orders", help="run one order relation between two models")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--relation", choices=_RELATIONS, required=True)
    p.add_argument("--cs", type=int, default=None)
    p.add_argument("--axis", type=int, default=None)
    p.add_argument("--grid-limit", type=_positive_int, default=orders.DEFAULT_GRID_LIMIT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_orders)

    p = sub.add_parser("simulate-bp", help="branching-process Monte Carlo")
    p.add_argument("model")
    p.add_argument("--trials", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seed-type", type=int, default=0)
    p.add_argument("--generation-cap", type=_positive_int, default=200)
    p.add_argument("--population-cap", type=_positive_int, default=100000)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_simulate_bp)

    p = sub.add_parser("simulate-graph", help="finite-graph cascade Monte Carlo")
    p.add_argument("model")
    p.add_argument("--sizes", required=True, help="comma-separated agents per CS")
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", type=float, default=0.005)
    p.add_argument("--seed-cs", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", help="write per-trial rows as CSV")
    p.set_defaults(fn=cmd_simulate_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ModelValidationError as exc:
        print(f"validation failed:\n{exc.report}", file=sys.stderr)
        return 1
    except (ModelFormatError, json.JSONDecodeError) as exc:
        print(f"model file error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
