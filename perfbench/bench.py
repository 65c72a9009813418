"""One benchmark run: set-up, measured operations, gate and metrics.

An operation is one in-process `distlink.cli.main` call: an `attack` on
the workload's CSV inputs, or (sim-grid) a `simulate` of the desk grid.
Operations repeat until the next one would end past --seconds; a run
always completes at least MIN_OPS.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import distlink
from distlink import cli

import gate
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: set-ups per run; setup_s takes their median, because one 600x600
#: set-up (about 1 s) moves with the host's speed from second to second
SETUP_REPEATS = 5
#: operations a run always completes, so that attack-census (about 20 s
#: per attack) reports a median of two attacks rather than one sample
MIN_OPS = 2
#: the roadmap's n=600 row, re-checked on every full-size attack-census run
ROADMAP_N600 = {"vertices": 21762, "edges": 1488105}


def declared_units(kind: str) -> dict:
    """Name to unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json declares; every run reports exactly these."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared[kind]}


_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
if _MALLOC_TRIM is not None:
    _MALLOC_TRIM.argtypes = [ctypes.c_size_t]
    _MALLOC_TRIM.restype = ctypes.c_int


def release_free_heap() -> None:
    """Return the allocator's free pages to the OS, so that the next
    operation's peak RSS starts from what is live, as in a fresh CLI
    process.  Without it a repeat of the same 600x600 attack peaked at
    368 to 397 MB, depending on how the row order left the heap."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _quantile(values, q: float) -> float:
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def tail_percentile(values) -> tuple:
    """The highest of p99, p95, p90 with at least ten samples beyond it,
    as (label, value); None when there are fewer than 100 samples."""
    for q in (0.99, 0.95, 0.90):
        if len(values) * (1 - q) >= 10 - 1e-9:
            return f"p{round(q * 100)}", _quantile(values, q)
    return None


def source_digest() -> str:
    """SHA-256 over the program's source tree, the commit's stand-in
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "git_commit": commit,
            "src_sha256": source_digest(), "distlink": distlink.__version__}


def load_reference(name: str, tiny: bool) -> dict:
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    return ref[name]["tiny" if tiny else "full"]


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool, import_s: float) -> None:
        self.name, self.seed, self.seconds = name, seed, seconds
        self.trace, self.tiny = trace, tiny
        self.import_s = import_s
        self.workload = workloads.workload(name, tiny)
        self.reference = load_reference(name, tiny)
        self.work = OUT / "work" / (name + ("-tiny" if tiny else ""))
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.digests: dict = {}
        self.instance: dict = {}
        self.quality = {"attack": [], "sim": []}  # (precision, recall)
        self.checkers: list = []  # gate.AttackGate per shuffle, once inputs exist
        self.inputs_digest = ""

    # ---- operations -------------------------------------------------

    def _cli(self, argv: list, tracer: spans.Tracer, span: str) -> tuple:
        """(exit code, wall seconds, stderr) of one cli.main call; its
        stdout is discarded."""
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err), tracer.span(span):
            start = perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed operation, not a crashed run
                code = None
                err.write(traceback.format_exc())
            wall = perf_counter() - start
        return code, wall, err.getvalue()

    def _fail(self, count: int, problems: list) -> None:
        self.failed += count
        self.problems.extend(problems)

    def _digest(self, name: str, path: Path) -> list:
        seen = self.digests.setdefault(name, [])
        digest = _sha256(path)
        if digest not in seen:
            seen.append(digest)
        return [f"{name} differs between runs of the same inputs"] if len(seen) > 1 else []

    def attack_op(self, inputs, checker, tracer, layers) -> float:
        """One CLI attack with `layers` wrapped for its duration."""
        out = inputs.directory / "matches.csv"
        mark = len(tracer.spans)
        with tracer.wrapping(layers):
            code, wall, stderr = self._cli(inputs.argv(out), tracer, "cli.attack")
        self.attempted += 1
        if code != 0:
            self._fail(1, [f"attack exited {code}: {stderr.strip()[-500:]}"])
            return wall
        pairs = gate.read_pairs(out)
        problems = checker.problems(pairs) + self._check_instance(tracer.spans[mark:])
        problems += self._digest(f"{inputs.directory.name}/matches.csv", out)
        if problems:
            self._fail(1, problems)
        tp = len(set(pairs) & inputs.truth)
        self.quality["attack"].append((tp / len(pairs) if pairs else 1.0, tp / len(inputs.truth)))
        return wall

    def _check_instance(self, op_spans: list) -> list:
        """Record the instance statistics the op's spans carry and list
        those that differ from the reference."""
        stats = {}
        for s in op_spans:
            stats.update(s["attrs"])
        stats["max_cliques"] = stats.pop("count", None)
        self.instance = {k: stats.get(k)
                         for k in ("vertices", "edges", "omega", "nodes", "max_cliques")}
        expected = dict(self.reference["attack"])
        if self.name == "attack-census" and not self.tiny:
            expected.update(ROADMAP_N600)
        problems = []
        for key, value in expected.items():
            if value is None:
                continue
            if stats.get(key) is None:
                problems.append(f"instance {key} was not observed: no call went through "
                                "the boundaries in spans.STATS")
            elif stats[key] != value:
                problems.append(f"instance {key} = {stats[key]}, expected {value}")
        return problems

    def sim_op(self, config_seed: int, config: Path, tracer) -> float:
        out_dir = self.work / "sim" / f"out{config_seed}"
        reps = self.workload.sim.reps_per_call
        code, wall, stderr = self._cli(workloads.simulate_argv(config, out_dir),
                                       tracer, "cli.simulate")
        self.attempted += reps
        if code != 0:
            self._fail(reps, [f"simulate exited {code}: {stderr.strip()[-500:]}"])
            return wall
        with (out_dir / "results.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        omegas = [int(x) for x in self.reference["simulate"][str(config_seed)].split()]
        failed, problems = gate.results_problems(rows, omegas)
        digest_problems = self._digest(f"{out_dir.name}/results.csv", out_dir / "results.csv")
        if digest_problems:
            failed = max(failed, 1)
        self._fail(failed, problems + digest_problems)
        self.quality["sim"] += [(float(r["precision"]), float(r["recall"]))
                                for r in rows if r["budget_exhausted"] == "0"]
        return wall

    # ---- phases -----------------------------------------------------

    def measure(self, inputs: list, configs: list, tracer, seconds: float,
                layers=(), minimum=MIN_OPS, count=None) -> list:
        """Wall seconds of each operation, run until the next one would
        end past `seconds` (at least `minimum`), or exactly `count` of
        them (to repeat an earlier measurement).  Attacks cycle through
        the shuffles in inputs, with `layers` wrapped around each;
        simulate calls cycle through the configs."""
        deadline = perf_counter() + seconds
        sims = itertools.cycle(configs)
        shuffles = itertools.cycle(zip(inputs, self.checkers))
        walls = []
        while True:
            if configs:
                walls.append(self.sim_op(*next(sims), tracer))
            else:
                walls.append(self.attack_op(*next(shuffles), tracer, layers))
            release_free_heap()
            if count is not None:
                if len(walls) >= count:
                    return walls
            elif len(walls) >= minimum and perf_counter() + statistics.median(walls) > deadline:
                return walls

    def setup(self, tracer) -> tuple:
        """Generate and write the inputs SETUP_REPEATS times; returns
        (median seconds, attack inputs per shuffle, simulate configs)."""
        times, input_digests = [], set()
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            with tracer.span("setup"):
                inputs, configs = [], []
                if self.workload.attack is not None:
                    inputs = workloads.write_attack_inputs(self.workload.attack, self.seed,
                                                           self.work / "inputs")
                if self.workload.sim is not None:
                    configs = workloads.write_sim_configs(self.workload.sim, self.seed,
                                                          self.work / "sim")
            times.append(perf_counter() - start)
            input_digests.add(tuple(_sha256(p) for i in inputs for p in i.files))
        if len(input_digests) > 1:
            self.problems.append("set-up wrote different inputs for the same seed")
        input_digests = {d + tuple(_sha256(p) for _, p in configs) for d in input_digests}
        self.inputs_digest = hashlib.sha256(repr(sorted(input_digests)).encode()).hexdigest()
        return statistics.median(times), inputs, configs

    def warmup(self) -> float:
        start = perf_counter()
        inputs = workloads.write_attack_inputs(workloads.WARMUP, self.seed, self.work / "warmup")[0]
        code, _, stderr = self._cli(inputs.argv(inputs.directory / "matches.csv"),
                                    spans.Tracer(), "cli.attack")
        if code != 0:
            self.problems.append(f"warm-up attack exited {code}: {stderr.strip()[-500:]}")
        return perf_counter() - start

    # ---- the run ----------------------------------------------------

    def run(self) -> tuple:
        """(result dict for the last output line, full record)."""
        warmup_s = self.warmup()
        full = spans.Tracer()
        if self.trace:
            with full.wrapping(spans.LAYERS):
                setup_s, inputs, configs = self.setup(full)
        else:
            setup_s, inputs, configs = self.setup(spans.Tracer())
        self.checkers = [gate.AttackGate.from_inputs(i, self.reference["attack"]["omega"])
                         for i in inputs]
        if self.trace:
            # each phase gets half the time and at least one operation, so a
            # traced run lasts about as long as an untraced one
            untraced = self.measure(inputs, configs, spans.Tracer(), self.seconds / 2,
                                    spans.STATS, minimum=1)
            with full.wrapping(spans.LAYERS):
                traced = self.measure(inputs, configs, full, self.seconds / 2,
                                      count=len(untraced))
            metrics = self.layer_metrics(full, sum(traced) - sum(untraced))
            units = declared_units("per_layer")
            extra = {"untraced_walls": untraced, "traced_walls": traced}
        else:
            walls = self.measure(inputs, configs, spans.Tracer(), self.seconds, spans.STATS)
            attack_walls = self.attack_walls(walls)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = self.end_to_end(attack_walls, peak_rss_mb,
                                      self.import_s + warmup_s + setup_s)
            units = declared_units("end_to_end")
            extra = {"walls": walls,
                     "setup": {"import_s": self.import_s, "warmup_s": warmup_s,
                               "generate_write_s_median": setup_s}}
            tail = tail_percentile(attack_walls)
            if tail:
                extra[f"attack_s.{tail[0]}"] = tail[1]
        self._check_digest_store()
        result = {"correct": not self.problems, "attempted": self.attempted,
                  "failed": self.failed,
                  "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
        record = {"workload": self.name, "seed": self.seed, "seconds": self.seconds,
                  "trace": self.trace, "tiny": self.tiny, "environment": environment(),
                  "instance": self.instance, "digests": self.digests,
                  "fail_ratio": self.failed / self.attempted if self.attempted else None,
                  "problems": self.problems[:50], "extra": extra, "result": result}
        if self.trace:
            record["spans"] = full.spans
        return result, record

    def attack_walls(self, walls: list) -> list:
        """Seconds per attack: the wall of each CLI attack or, on
        sim-grid, of each simulate call over its repetitions, since
        every repetition is one attack on a freshly generated pair."""
        if self.workload.sim is None:
            return walls
        return [wall / self.workload.sim.reps_per_call for wall in walls]

    @staticmethod
    def end_to_end(attack_walls: list, peak_rss_mb: float, setup_s: float) -> dict:
        return {"attack_s": statistics.median(attack_walls),
                "sim_reps_per_s": statistics.median(1 / a for a in attack_walls),
                "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}

    def layer_metrics(self, tracer: spans.Tracer, overhead_s: float) -> dict:
        by_name: dict = {}
        for s in tracer.spans:
            by_name.setdefault(s["name"], []).append(s)

        def seconds(name):
            return _mean(s["end"] - s["start"] for s in by_name.get(name, ()))

        def attr(name, key):
            return [s["attrs"][key] for s in by_name.get(name, ()) if key in s["attrs"]]

        cliques = by_name.get("clique.max_clique", ())
        clique_s = sum(s["end"] - s["start"] for s in cliques)
        reps = [s["end"] - s["start"] for s in by_name.get("evaluation.rep", ())]
        quality = self.quality["sim"] or self.quality["attack"]
        attack_ids = {s["id"] for s in tracer.spans if s["name"] == "cli.attack"}
        attack_wall = sum(s["end"] - s["start"] for s in tracer.spans if s["id"] in attack_ids)
        graph_clique = sum(s["end"] - s["start"] for s in tracer.spans
                           if s["name"].startswith(("graph.", "clique."))
                           and self._under(tracer, s, attack_ids))
        return {
            "core.load_table_s": seconds("core.load_table"),
            "core.load_matrix_s": seconds("core.load_matrix"),
            "core.distance_matrix_s": seconds("core.distance_matrix"),
            "core.distance_pairs": _mean(attr("core.distance_matrix", "pairs")),
            "masking.calibrate_s": seconds("masking.calibrate"),
            "graph.build_graph_s": seconds("graph.build_graph"),
            "graph.build_product_graph_s": seconds("graph.build_product_graph"),
            "graph.vertices": _mean(attr("graph.build_product_graph", "vertices")),
            "graph.edges": _mean(attr("graph.build_product_graph", "edges")),
            "graph.density": _mean(attr("graph.build_product_graph", "density")),
            "graph.max_degree": _mean(attr("graph.build_product_graph", "max_degree")),
            "graph.bitset_bytes": _mean(attr("graph.build_product_graph", "bitset_bytes")),
            "clique.max_clique_s": seconds("clique.max_clique"),
            "clique.nodes": _mean(attr("clique.max_clique", "nodes")),
            "clique.nodes_per_s": (sum(attr("clique.max_clique", "nodes")) / clique_s
                                   if clique_s else 0.0),
            "clique.omega": _mean(attr("clique.max_clique", "omega")),
            "clique.budget_headroom": min((1 - s["attrs"]["nodes"] / s["attrs"]["budget"]
                                           for s in cliques), default=1.0),
            "clique.enumerate_s": seconds("clique.enumerate"),
            "clique.max_cliques": _mean(attr("clique.enumerate", "count")),
            "evaluation.generate_pair_s": seconds("evaluation.generate_pair"),
            "evaluation.rep_s.p50": _quantile(reps, 0.5),
            "evaluation.rep_s.p90": _quantile(reps, 0.9),
            "evaluation.evaluate_s": seconds("evaluation.evaluate"),
            "evaluation.write_s": seconds("evaluation.write"),
            "evaluation.mean_precision": _mean(p for p, _ in quality),
            "evaluation.mean_recall": _mean(r for _, r in quality),
            "trace.overhead_s": overhead_s,
            "trace.graph_clique_share": graph_clique / attack_wall if attack_wall else 0.0,
        }

    @staticmethod
    def _under(tracer, span, roots: set) -> bool:
        parent = span["parent"]
        while parent is not None:
            if parent in roots:
                return True
            parent = tracer.spans[parent]["parent"]
        return False

    def _check_digest_store(self) -> None:
        """Compare this run's output digests with earlier runs of the
        same source tree on the same inputs; a difference is a failure."""
        store_path = OUT / "digests.json"
        store = json.loads(store_path.read_text(encoding="utf-8")) if store_path.exists() else {}
        key_base = f"{source_digest()}:{self.inputs_digest}"
        for name, seen in self.digests.items():
            key = f"{key_base}:{name}"
            earlier = store.setdefault(key, seen[0])
            if earlier not in seen:
                self._fail(1, [f"{name} differs from an earlier run of the same source and seed"])
        OUT.mkdir(parents=True, exist_ok=True)
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        tmp.replace(store_path)


def write_record(record: dict) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = "-tiny" if record["tiny"] else ""
    name = f"{record['workload']}{tag}-seed{record['seed']}-trace{int(record['trace'])}.json"
    path = results / name
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def report(result: dict, record: dict, path: Path) -> None:
    """Human-readable lines before the final JSON line."""
    env, inst = record["environment"], record["instance"]
    print(f"workload {record['workload']}{' (tiny)' if record['tiny'] else ''} "
          f"seed {record['seed']} trace {int(record['trace'])}")
    print(f"environment python {env['python']} numpy {env['numpy']} nproc {env['nproc']} "
          f"commit {env['git_commit'] or 'n/a'} src {env['src_sha256'][:12]}")
    print("instance " + " ".join(f"{k} {v}" for k, v in inst.items()))
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for name, value in record["extra"].items():
        if name.startswith("attack_s."):
            print(f"  {name:32s} {value:.6g} s")
    print(f"fail_ratio {result['failed']}/{result['attempted']} ops")
    for name, seen in record["digests"].items():
        print(f"sha256 {name} {' '.join(seen)}")
    for problem in record["problems"][:10]:
        print(f"problem: {problem}")
    print(f"record {path.relative_to(ROOT)}")
