#!/usr/bin/env python3
"""Record the correctness references the gate checks against.

    python3 perfbench/record.py

Writes perfbench/reference.json: per workload and size, the clique
number omega, product |V| and |E| and (tie-enumerating attacks) the number of
maximum cliques of the attack instance, or for sim-grid the omega of
every repetition for each of the SIM_SEEDS config seeds.  The numbers
come from the program at the commit this is run on, through its library
functions rather than the CLI the benchmark times.  They are properties
of the instances, not of tie choice, so a correct program reproduces
them; re-record only when a workload changes, never to make a failing
gate pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from distlink import attack, evaluation, graph, masking  # noqa: E402
from distlink.datasets import census_qi_distributions  # noqa: E402

import workloads  # noqa: E402


def attack_reference(spec: workloads.AttackSpec) -> dict:
    (tt, tm), (it, im), _ = workloads.base_instance(spec)
    if spec.abs_eps is not None:
        rel = graph.Absolute(spec.abs_eps)
    else:
        rel = masking.band_from_table(workloads.base_calibration(spec), spec.alpha).as_relation()
    report = attack.run_attack(tt, tm, it, im, rel, enumerate_ties=spec.enumerate_ties)
    return {"omega": report.clique.size, "vertices": report.product.n,
            "edges": report.product.graph.edge_count(),
            "max_cliques": report.maximum_clique_count}


def simulate_reference(spec: workloads.SimSpec) -> dict:
    out = {}
    for seed in range(workloads.SIM_SEEDS):
        c = workloads.sim_config(spec, seed)
        config = evaluation.SimulationConfig(
            c["n_target"], c["n_ident"], c["n_common"], tuple(c["sigma_grid"]),
            tuple(c["alpha_grid"]), c["repetitions"], census_qi_distributions(), seed=c["seed"])
        rows = evaluation.run_simulation(config).rows
        if any(r.budget_exhausted for r in rows):
            raise SystemExit(f"seed {seed}: a repetition exhausted its node budget")
        out[str(seed)] = " ".join(str(r.tp + r.fp) for r in rows)
        print(f"  simulate seed {seed}: {out[str(seed)][:60]}...", flush=True)
    return out


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        reference[name] = {}
        for size, tiny in (("tiny", True), ("full", False)):
            w = workloads.workload(name, tiny)
            entry = {}
            if w.attack is not None:
                entry["attack"] = attack_reference(w.attack)
                print(f"{name} {size}: {entry['attack']}", flush=True)
            if w.sim is not None:
                entry["simulate"] = simulate_reference(w.sim)
            reference[name][size] = entry
    path = BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
