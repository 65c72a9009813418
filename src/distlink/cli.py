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

Exit codes: 0 success, 2 input or usage error (an input too large for
physical memory included), 3 node budget exceeded.
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
from .core import (_json_object, distance_matrix, file_digest, load_matrix, load_table,
                   save_matrix, save_table)
from .errors import DistlinkError, InputFormatError, ResourceBudgetError
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
    raw = os.environ.get(SEED_ENV_VAR, "0")
    if not raw.strip().isdecimal():
        raise DistlinkError(f"{SEED_ENV_VAR} must be an integer >= 0, got '{raw}'")
    return int(raw)


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


def _file_tags(name: str, values) -> list:
    """The %g form of each value, which names its output file; two values
    that print alike would share one file, so they are refused."""
    seen = {}
    for value in values:
        tag = f"{value:g}"
        if tag in seen:
            raise DistlinkError(f"{name} values {seen[tag]!r} and {value!r} would both "
                                f"write the files tagged '{tag}'")
        seen[tag] = value
    return list(seen)


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
    if args.alpha is not None and args.calibration is None:
        raise DistlinkError("--alpha requires --calibration")
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
    if args.node_budget < 1:
        raise DistlinkError(f"--node-budget must be an integer >= 1, got {args.node_budget}")
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
    tags = _file_tags("--sigma", args.sigma)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for si, (sigma, tag) in enumerate(zip(args.sigma, tags)):
        rng = derive_rng(args.seed, STREAM_CALIBRATION, si)
        table = calibrate(region, sigma, args.n_pairs, args.seed, rng=rng)
        save_calibration(table, out_dir / f"calibration_sigma{tag}.json")
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
    """The config in a JSON file, seeded by seed_override, else the file, else the environment."""
    payload = _json_object(path, "config")
    if seed_override is not None:
        payload["seed"] = seed_override
    elif "seed" not in payload:
        payload["seed"] = _default_seed()
    try:
        config = SimulationConfig.from_dict(payload)
    except InputFormatError as exc:
        raise DistlinkError(f"{path}: {exc}") from None
    if need_single_sigma and len(config.sigma_grid) != 1:
        raise DistlinkError(f"{path}: this command needs exactly one sigma value")
    return config


def cmd_simulate(args) -> int:
    started = _utcnow()
    config = _config_from_file(args.config, args.seed)
    sigma_tags = _file_tags(f"{args.config}: sigma_grid", config.sigma_grid)
    alpha_tags = _file_tags(f"{args.config}: alpha_grid", config.alpha_grid)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_simulation(config, threads=args.threads)
    write_results_csv(result, out_dir / "results.csv")
    write_aggregate_csv(result, out_dir / "aggregate.csv")
    for table, tag in zip(result.calibrations, sigma_tags):
        save_calibration(table, out_dir / f"calibration_sigma{tag}.json")
    for alpha, tag in zip(config.alpha_grid, alpha_tags):
        points = ru_map_data(result, alpha)
        write_ru_csv(points, out_dir / f"ru_alpha{tag}.csv")
    _write_manifest(out_dir / "manifest.json", "simulate", config.as_dict(),
                    config.seed, [args.config], started)
    exhausted = sum(c.budget_exhausted for c in result.cells)
    print(f"simulated {len(result.rows)} repetitions over "
          f"{len(config.sigma_grid)}x{len(config.alpha_grid)} cells -> {out_dir}")
    if exhausted:
        print(f"warning: {exhausted} repetition(s) hit the node budget")
    for cell in result.cells:
        print(f"  sigma={cell.sigma:g} alpha={cell.alpha:g} "
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
    p.add_argument("--alpha", type=float, default=None,
                   help="band level in (0, 1); only with --calibration")
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
                   help="forked worker processes, at most one per job and per CPU the process may run on "
                        "(one in a child process or beside other threads); 1 is fully sequential")
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
        if args.seed is not None and args.seed < 0:
            raise DistlinkError(f"--seed must be an integer >= 0, got {args.seed}")
        return args.func(args)
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DistlinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
