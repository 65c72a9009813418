#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at --tiny size, traced and untraced, and checks that
each declared metric is printed with its unit; then checks that the
correctness gate accepts real attack output and rejects doctored output.
Scratch files go to perfbench/out/selftest.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from distlink import cli, masking  # noqa: E402

import bench  # noqa: E402
import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SCRATCH = bench.OUT / "selftest"


def run_tiny(root: Path, name: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", name,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=root)


def copy_checkout(with_program: bool) -> Path:
    """The benchmark and BENCHMARK.json, and src/ only if with_program,
    copied to a scratch directory."""
    root = SCRATCH / ("checkout" if with_program else "benchmark-only")
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(BENCH, root / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_program:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


class TinyRuns(unittest.TestCase):
    def test_every_declared_metric_is_printed_with_its_unit(self):
        for name in workloads.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = run_tiny(ROOT, name, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout[-2000:])
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    declared = bench.declared_units(kind)
                    self.assertEqual(list(result["metrics"]), list(declared))
                    if trace:
                        record = bench.OUT / "results" / f"{name}-tiny-seed7-trace1.json"
                        self.assert_layers_nest(json.loads(record.read_text(encoding="utf-8")))
                    for metric, unit in declared.items():
                        self.assertEqual(result["metrics"][metric]["unit"], unit)
                        printed = [line.split() for line in lines[:-1]]
                        self.assertIn(unit, [p[-1] for p in printed if p[:1] == [metric]], metric)

    def assert_layers_nest(self, record):
        """Every traced operation has a layer span directly beneath it."""
        spans = record["spans"]
        ops = {s["id"]: s["name"] for s in spans if s["name"].startswith("cli.")}
        child = {"cli.attack": "graph.build_product_graph", "cli.simulate": "evaluation.rep"}
        parents = {s["parent"] for s in spans
                   if s["parent"] in ops and s["name"] == child[ops[s["parent"]]]}
        self.assertTrue(ops)
        self.assertEqual(parents, set(ops))

    def test_a_gate_failure_exits_nonzero(self):
        root = copy_checkout(with_program=True)
        path = root / "perfbench" / "reference.json"
        reference = json.loads(path.read_text(encoding="utf-8"))
        reference["attack-census"]["tiny"]["attack"]["omega"] += 1
        path.write_text(json.dumps(reference), encoding="utf-8")
        proc = run_tiny(root, "attack-census", 0)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_stats_the_wrappers_never_see_fail_the_run(self):
        # the program builds its product graph through another name, as a
        # refactor might: the |V| and |E| checks must fail, not go quiet
        root = copy_checkout(with_program=True)
        path = root / "src" / "distlink" / "attack.py"
        text = path.read_text(encoding="utf-8")
        moved = text.replace("product = build_product_graph(",
                             "product = _graph_module.build_product_graph(")
        self.assertNotEqual(moved, text)
        path.write_text(moved + "\nfrom . import graph as _graph_module\n", encoding="utf-8")
        proc = run_tiny(root, "attack-census", 0)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("instance vertices was not observed", proc.stdout)
        self.assertFalse(json.loads(proc.stdout.strip().splitlines()[-1])["correct"])

    def test_without_the_program_exits_2_and_prints_no_result(self):
        proc = run_tiny(copy_checkout(with_program=False), "sim-grid", 0)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


class Gate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cases = []
        for name in workloads.WORKLOADS:
            w = workloads.workload(name, tiny=True)
            if w.attack is None:
                continue
            inputs = workloads.write_attack_inputs(w.attack, 7, SCRATCH / name)[0]
            out = inputs.directory / "matches.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(inputs.argv(out))
            if code != 0:
                raise RuntimeError(f"{name}: tiny attack exited {code}")
            checker = gate.AttackGate.from_inputs(
                inputs, bench.load_reference(name, tiny=True)["attack"]["omega"])
            cls.cases.append((name, inputs, checker, gate.read_pairs(out)))

    def test_accepts_the_attack_output(self):
        for name, _, checker, pairs in self.cases:
            self.assertEqual(checker.problems(pairs), [], name)

    def test_rejects_a_swapped_pair(self):
        for name, _, checker, pairs in self.cases:
            (t1, i1), (t2, i2) = pairs[0], pairs[-1]
            doctored = [(t1, i2)] + pairs[1:-1] + [(t2, i1)]
            self.assertNotEqual(checker.problems(doctored), [], name)

    def test_rejects_a_repeated_row_and_a_wrong_size(self):
        for name, _, checker, pairs in self.cases:
            self.assertIn("matches are not one-to-one",
                          checker.problems(pairs[:-1] + [(pairs[-1][0], pairs[0][1])]), name)
            self.assertTrue(any("reference omega" in p for p in checker.problems(pairs[:-1])), name)

    def test_band_equals_the_programs_band(self):
        name, inputs, checker, _ = self.cases[0]
        table = masking.load_calibration(inputs.directory / "calibration.json")
        band = masking.band_from_table(table, inputs.spec.alpha)
        self.assertEqual((checker.relation.lo, checker.relation.hi), (band.lo, band.hi))

    def test_a_missing_boundary_raises(self):
        with self.assertRaises(LookupError):
            with spans.Tracer().wrapping([("distlink.attack", "no_such_function", "x", None)]):
                pass

    def test_results_gate(self):
        rows = [{"sigma": "0.1", "alpha": "0.5", "rep": str(k), "tp": "2", "fp": "1",
                 "budget_exhausted": "0"} for k in range(3)]
        self.assertEqual(gate.results_problems(rows, [3, 3, 3]), (0, []))
        self.assertEqual(gate.results_problems(rows, [3, 4, 3])[0], 1)
        exhausted = [dict(rows[0], tp="nan", fp="nan", budget_exhausted="1")] + rows[1:]
        self.assertEqual(gate.results_problems(exhausted, [3, 3, 3])[0], 1)
        self.assertEqual(gate.results_problems(rows[:2], [3, 3, 3])[0], 1)


if __name__ == "__main__":
    unittest.main(verbosity=2)
