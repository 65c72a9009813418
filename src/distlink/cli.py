"""Command-line front end.

Commands:
  distmat    pairwise great-circle distances of a point table
  attack     run the linkage attack on two table/matrix pairs
  calibrate  sample deviation distributions for a sigma grid
  simulate   run the seeded precision/recall simulation grid
  gendata    write one synthetic target/identification fixture pair

Every command honours --seed (env DISTLINK_SEED supplies the default)
and drops a run manifest next to its outputs: command, effective
configuration, master seed, SHA-256 of every input file, tool version
and timestamps.  Sequential runs with identical inputs and seed write
byte-identical result files; the manifest differs only in timestamps.

Exit codes: 0 success, 2 input or usage error, 3 node budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .attack import run_attack
from .clique import DEFAULT_NODE_BUDGET
from .core import distance_matrix, file_digest, load_matrix, load_table, save_matrix, save_table
from .datasets import census_qi_distributions
from .errors import DistlinkError, ResourceBudgetError
from .evaluation import (
    SimulationConfig,
    generate_synthetic_pair,
    ru_map_data,
    run_simulation,
    write_aggregate_csv,
    write_results_csv,
    write_ru_csv,
)
from .graph import Absolute, QuantileBand
from .masking import (
    GERMANY,
    Region,
    band_from_table,
    calibrate,
    load_calibration,
    save_calibration,
    summary_row,
)
from .seeding import STREAM_CALIBRATION, STREAM_GENDATA, derive_rng

SEED_ENV_VAR = "DISTLINK_SEED"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise DistlinkError(f"{SEED_ENV_VAR} must be an integer, got '{raw}'") from None


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_manifest(path: Path, command: str, config: dict, seed: int,
                    inputs: list, started_at: str) -> None:
    manifest = {
        "command": command,
        "config": config,
        "master_seed": seed,
        "inputs": {str(p): file_digest(p) for p in inputs},
        "version": __version__,
        "started_at": started_at,
        "finished_at": _utcnow(),
    }
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def _fmt_sigma(sigma: float) -> str:
    return f"{sigma:g}"


def _relation_from_args(args) -> object:
    chosen = [name for name, present in [
        ("--abs-eps", args.abs_eps is not None),
        ("--band", args.band is not None),
        ("--calibration", args.calibration is not None),
    ] if present]
    if len(chosen) != 1:
        raise DistlinkError(
            "exactly one of --abs-eps, --band, --calibration is required"
            + (f", got {', '.join(chosen)}" if chosen else ""))
    if args.abs_eps is not None:
        return Absolute(args.abs_eps)
    if args.band is not None:
        lo, hi = args.band
        return QuantileBand(lo, hi)
    if args.alpha is None:
        raise DistlinkError("--calibration requires --alpha")
    table = load_calibration(args.calibration)
    return band_from_table(table, args.alpha).as_relation()


def cmd_distmat(args) -> int:
    started = _utcnow()
    table = load_table(args.input)
    if table.points is None:
        raise DistlinkError(f"{args.input}: no lon/lat columns")
    matrix = distance_matrix(table.points)
    out = Path(args.output)
    save_matrix(matrix, out)
    _write_manifest(out.with_name(out.name + ".manifest.json"), "distmat",
                    {"input": str(args.input), "output": str(out)},
                    args.seed, [args.input], started)
    print(f"wrote {matrix.n}x{matrix.n} matrix to {out}")
    return EXIT_OK


def cmd_attack(args) -> int:
    started = _utcnow()
    qi = tuple(q.strip() for q in args.qi.split(",") if q.strip())
    if not qi:
        raise DistlinkError("--qi must name at least one attribute")
    rel = _relation_from_args(args)
    target_table = load_table(args.target_table, qi_attributes=qi)
    ident_table = load_table(args.ident_table, qi_attributes=qi)
    target_matrix = load_matrix(args.target_matrix)
    ident_matrix = load_matrix(args.ident_matrix)
    report = run_attack(target_table, target_matrix, ident_table, ident_matrix,
                        rel, node_budget=args.node_budget,
                        enumerate_ties=args.enumerate_ties)
    out = Path(args.output)
    with out.open("w", encoding="utf-8") as fh:
        fh.write("target_row,ident_row\n")
        for t, i in report.match_list.one_based():
            fh.write(f"{t},{i}\n")
    inputs = [args.target_table, args.target_matrix, args.ident_table, args.ident_matrix]
    if args.calibration is not None:
        inputs.append(args.calibration)
    _write_manifest(out.with_name(out.name + ".manifest.json"), "attack",
                    {"qi": list(qi), "relation": repr(rel),
                     "node_budget": args.node_budget,
                     "enumerate_ties": args.enumerate_ties,
                     "output": str(out)},
                    args.seed, inputs, started)
    print(f"product vertices: {report.product_vertex_count}")
    print(f"maximum clique size: {report.clique.size}")
    if not report.match_list.distance_supported and len(report.match_list):
        print("note: matches rest on label coincidence alone, no distance evidence")
    print("matches (1-based rows):")
    for t, i in report.match_list.one_based():
        print(f"  target {t} <-> ident {i}")
    if report.stable_core is not None:
        core = ", ".join(f"({t},{i})" for t, i in report.stable_core.one_based())
        print(f"maximum cliques: {report.maximum_clique_count}; stable core: [{core}]")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    started = _utcnow()
    region = Region(*args.region) if args.region else GERMANY
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for si, sigma in enumerate(args.sigma):
        rng = derive_rng(args.seed, STREAM_CALIBRATION, si)
        table = calibrate(region, sigma, args.n_pairs, args.seed, rng=rng)
        save_calibration(table, out_dir / f"calibration_sigma{_fmt_sigma(sigma)}.json")
        rows.append(summary_row(table))
    summary_path = out_dir / "calibration_summary.csv"
    with summary_path.open("w", encoding="utf-8") as fh:
        header = list(rows[0].keys())
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[h]) if isinstance(row[h], float) else str(row[h])
                              for h in header) + "\n")
    _write_manifest(out_dir / "manifest.json", "calibrate",
                    {"sigma": args.sigma, "n_pairs": args.n_pairs,
                     "region": region.as_dict(), "out_dir": str(out_dir)},
                    args.seed, [], started)
    print(f"wrote {len(rows)} calibration(s) and summary to {out_dir}")
    return EXIT_OK


def _config_from_file(path, seed_override, need_single_sigma: bool = False) -> SimulationConfig:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DistlinkError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DistlinkError(f"{path}: config must be a JSON object")
    qi = payload.get("qi_distributions", "census")
    if qi == "census":
        qi = census_qi_distributions()
    if "sigma" in payload and "sigma_grid" in payload:
        raise DistlinkError(f"{path}: give either sigma or sigma_grid, not both")
    sigma_grid = payload.get("sigma_grid", [payload["sigma"]] if "sigma" in payload else None)
    if sigma_grid is None:
        raise DistlinkError(f"{path}: sigma_grid (or sigma) is required")
    seed = seed_override if seed_override is not None else payload.get("seed", _default_seed())
    try:
        if need_single_sigma and len(sigma_grid) != 1:
            raise DistlinkError(f"{path}: this command needs exactly one sigma value")
        return SimulationConfig(
            n_target=payload["n_target"],
            n_ident=payload["n_ident"],
            n_common=payload["n_common"],
            sigma_grid=tuple(sigma_grid),
            alpha_grid=tuple(payload.get("alpha_grid", (0.5,))),
            repetitions=payload.get("repetitions", 1),
            qi_distributions=qi,
            region=Region(**payload["region"]) if "region" in payload else GERMANY,
            seed=seed,
            n_calibration_pairs=payload.get("n_calibration_pairs", 1000),
            calibration_per_repetition=payload.get("calibration_per_repetition", False),
            node_budget=payload.get("node_budget", DEFAULT_NODE_BUDGET),
        )
    except KeyError as exc:
        raise DistlinkError(f"{path}: missing config key {exc}") from None
    except TypeError as exc:
        raise DistlinkError(f"{path}: malformed config field: {exc}") from None


def cmd_simulate(args) -> int:
    started = _utcnow()
    config = _config_from_file(args.config, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_simulation(config, threads=args.threads)
    write_results_csv(result, out_dir / "results.csv")
    write_aggregate_csv(result, out_dir / "aggregate.csv")
    for table in result.calibrations:
        save_calibration(table, out_dir / f"calibration_sigma{_fmt_sigma(table.sigma)}.json")
    for alpha in config.alpha_grid:
        points = ru_map_data(result, alpha)
        write_ru_csv(points, out_dir / f"ru_alpha{alpha:g}.csv")
    _write_manifest(out_dir / "manifest.json", "simulate", config.as_dict(),
                    config.seed, [args.config], started)
    exhausted = sum(c.budget_exhausted for c in result.cells)
    print(f"simulated {len(result.rows)} repetitions over "
          f"{len(config.sigma_grid)}x{len(config.alpha_grid)} cells -> {out_dir}")
    if exhausted:
        print(f"warning: {exhausted} repetition(s) hit the node budget")
    for cell in result.cells:
        print(f"  sigma={_fmt_sigma(cell.sigma)} alpha={cell.alpha:g} "
              f"precision={cell.mean_precision:.4f} recall={cell.mean_recall:.4f}")
    return EXIT_OK


def cmd_gendata(args) -> int:
    started = _utcnow()
    config = _config_from_file(args.config, args.seed, need_single_sigma=True)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = derive_rng(config.seed, STREAM_GENDATA)
    target, ident, truth = generate_synthetic_pair(config, config.sigma_grid[0], rng)
    save_table(target[0], out_dir / "target_table.csv")
    save_matrix(target[1], out_dir / "target_matrix.csv")
    save_table(ident[0], out_dir / "ident_table.csv")
    save_matrix(ident[1], out_dir / "ident_matrix.csv")
    with (out_dir / "truth.csv").open("w", encoding="utf-8") as fh:
        fh.write("target_row,ident_row\n")
        for t, i in sorted(truth.overlap_pairs):
            fh.write(f"{t + 1},{i + 1}\n")
    _write_manifest(out_dir / "manifest.json", "gendata", config.as_dict(),
                    config.seed, [args.config], started)
    print(f"wrote synthetic pair ({config.n_target}/{config.n_ident} records, "
          f"{config.n_common} common) to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distlink",
        description="Quantify the re-identification risk of publishing "
                    "inter-record distances with anonymised microdata.")
    parser.add_argument("--version", action="version", version=f"distlink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distmat", help="compute a great-circle distance matrix")
    p.add_argument("input", help="CSV with lon/lat columns")
    p.add_argument("output", help="matrix CSV to write")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_distmat)

    p = sub.add_parser("attack", help="run the linkage attack")
    p.add_argument("--target-table", required=True)
    p.add_argument("--target-matrix", required=True)
    p.add_argument("--ident-table", required=True)
    p.add_argument("--ident-matrix", required=True)
    p.add_argument("--qi", required=True,
                   help="comma-separated quasi-identifier attribute names")
    p.add_argument("--abs-eps", type=float, default=None,
                   help="absolute tolerance in km")
    p.add_argument("--band", type=float, nargs=2, metavar=("LO", "HI"), default=None,
                   help="explicit deviation band in km")
    p.add_argument("--calibration", default=None,
                   help="calibration JSON; needs --alpha")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--enumerate-ties", action="store_true",
                   help="also enumerate all maximum cliques and their intersection")
    p.add_argument("--out", dest="output", required=True, help="matches CSV to write")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("calibrate", help="calibrate deviation bands for sigmas")
    p.add_argument("--sigma", type=float, action="append", required=True,
                   help="noise level in degrees; repeatable")
    p.add_argument("--n-pairs", type=int, default=1000)
    p.add_argument("--region", type=float, nargs=4, default=None,
                   metavar=("LAT_MIN", "LAT_MAX", "LON_MIN", "LON_MAX"))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="run the simulation grid from a config file")
    p.add_argument("--config", required=True, help="JSON simulation config")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes; 1 is fully sequential")
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gendata", help="write one synthetic dataset pair")
    p.add_argument("--config", required=True, help="JSON config with a single sigma")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.set_defaults(func=cmd_gendata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None and args.command not in ("simulate", "gendata"):
            args.seed = _default_seed()
        return args.func(args)
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DistlinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
