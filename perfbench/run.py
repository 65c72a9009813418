#!/usr/bin/env python3
"""Benchmark of the distlink linkage attack and simulation grid.

    python3 perfbench/run.py --workload attack-census --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload runs in its own process.  A run prints every metric by
name with its unit, then, as its last line, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  It exits 1 when the
correctness gate fails and 2 when the program under src/ cannot be
imported.  --tiny shrinks every workload to a few seconds, for the
self-tests.  The full record of each run (environment, instance
statistics, output digests, problems, spans) goes to perfbench/out/.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("attack-census", "ties-small", "sim-grid")
RUN_TIMEOUT_S = 900
IMPORT_REPEATS = 5


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=_nonnegative, required=True)
    p.add_argument("--seconds", type=_positive, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="few-second sizes for the self-tests")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Every workload, each in its own process; exits non-zero if any did."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def import_seconds(src: Path, first: float) -> float:
    """Median seconds to import distlink.cli: `first` is this process's
    import, the others are timed in fresh interpreters, because a single
    import (about 0.2 s) moves with the host's speed from second to second."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import distlink.cli; print(time.perf_counter() - t)")
    times = [first]
    for _ in range(IMPORT_REPEATS - 1):
        proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = perf_counter()
    try:
        import distlink.cli  # noqa: F401  (timed: import is part of set-up)
    except ImportError as exc:
        print(f"error: cannot import distlink from {src}: {exc}", file=sys.stderr)
        return 2
    first_import_s = perf_counter() - start
    if not Path(distlink.cli.__file__).resolve().is_relative_to(src):
        print(f"error: distlink was imported from {distlink.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import_s = import_seconds(src, first_import_s)

    import bench

    runner = bench.Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.tiny, import_s)
    result, record = runner.run()
    path = bench.write_record(record)
    bench.report(result, record, path)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
