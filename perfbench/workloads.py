"""Workload definitions and input generation.

Every attack input is one fixed synthetic instance (instance seed 1, the
instance the roadmap's n=600 row was measured on); the workload seed
shuffles the rows of both files.  A shuffle changes every input byte and
the solver's tie-breaking order but not the instance's size or clique
number, so runs with different seeds measure the same problem and share
one recorded reference.  The simulation grid needs no shuffle: its
simulate calls cycle through the SIM_SEEDS config seeds that have
recorded references, starting at the workload seed, so a run averages
over many instances.

All calls into distlink go through module attributes
(evaluation.generate_synthetic_pair, not a from-import) so that the tracer can wrap them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from distlink import core, evaluation, masking
from distlink.datasets import census_qi_distributions
from distlink.seeding import STREAM_GENDATA, derive_rng

INSTANCE_SEED = 1
CALIBRATION_PAIRS = 1000
SIM_SEEDS = 16
CENSUS = ("gender", "age_band")


@dataclass(frozen=True)
class AttackSpec:
    """One CLI attack: an n x n synthetic pair and its relation."""

    n: int
    n_common: int
    qi: tuple
    sigma: float
    alpha: Optional[float] = None  # calibrated band level
    abs_eps: Optional[float] = None  # absolute tolerance in km
    enumerate_ties: bool = False
    #: distinct row orders a run cycles through; the tie-enumerating
    #: attack uses several because its search cost depends on vertex order
    shuffles: int = 1


@dataclass(frozen=True)
class SimSpec:
    n: int
    n_common: int
    sigma_grid: tuple
    alpha_grid: tuple
    repetitions: int

    @property
    def reps_per_call(self) -> int:
        return len(self.sigma_grid) * len(self.alpha_grid) * self.repetitions


@dataclass(frozen=True)
class Workload:
    """One kind of operation: CLI attacks on `attack`, or simulate
    calls of `sim`."""

    name: str
    attack: Optional[AttackSpec] = None
    sim: Optional[SimSpec] = None


_GRID = dict(sigma_grid=(0.005, 0.025, 0.05), alpha_grid=(0.3, 0.5, 0.9))

WORKLOADS = {w.name: w for w in (
    Workload("attack-census", attack=AttackSpec(600, 120, CENSUS, 0.025, alpha=0.5)),
    Workload("ties-small", attack=AttackSpec(40, 8, ("gender",), 0.1, abs_eps=25.0,
                                             enumerate_ties=True, shuffles=32)),
    Workload("sim-grid", sim=SimSpec(100, 20, repetitions=2, **_GRID)),
)}

# same shapes, a few seconds per workload; used by the self-tests
TINY_WORKLOADS = {w.name: w for w in (
    Workload("attack-census", attack=AttackSpec(60, 12, CENSUS, 0.025, alpha=0.5)),
    Workload("ties-small", attack=AttackSpec(20, 4, ("gender",), 0.1, abs_eps=25.0,
                                             enumerate_ties=True, shuffles=8)),
    Workload("sim-grid", sim=SimSpec(30, 6, repetitions=1, **_GRID)),
)}

# a few records, only to load the CLI's lazy imports before timing
WARMUP = AttackSpec(10, 2, CENSUS, 0.025, abs_eps=25.0)


def workload(name: str, tiny: bool) -> Workload:
    return (TINY_WORKLOADS if tiny else WORKLOADS)[name]


def _qi_distributions(qi: tuple) -> dict:
    census = census_qi_distributions()
    return {attr: census[attr] for attr in qi}


def base_instance(spec: AttackSpec):
    """The unshuffled pair: (target_table, target_matrix),
    (ident_table, ident_matrix), GroundTruth, as `distlink gendata`
    draws it for seed INSTANCE_SEED."""
    config = evaluation.SimulationConfig(
        spec.n, spec.n, spec.n_common, (spec.sigma,), (spec.alpha or 0.5,), 1,
        _qi_distributions(spec.qi), seed=INSTANCE_SEED)
    return evaluation.generate_synthetic_pair(
        config, spec.sigma, derive_rng(INSTANCE_SEED, STREAM_GENDATA))


def base_calibration(spec: AttackSpec):
    return masking.calibrate(masking.GERMANY, spec.sigma, CALIBRATION_PAIRS, INSTANCE_SEED)


def _shuffled(table, matrix, order):
    points = None if table.points is None else [table.points[k] for k in order]
    records = [table.records[k] for k in order]
    return (core.MicrodataTable(records, table.schema, table.qi_attributes,
                                table.id_attribute, points),
            core.DistanceMatrix(matrix.entries[np.ix_(order, order)]))


@dataclass(frozen=True)
class AttackInputs:
    spec: AttackSpec
    directory: Path
    truth: frozenset  # (target_row, ident_row), 0-based, shuffled rows

    @property
    def files(self) -> list:
        """The input files the attack reads."""
        names = ["target_table.csv", "target_matrix.csv", "ident_table.csv", "ident_matrix.csv"]
        if self.spec.alpha is not None:
            names.append("calibration.json")
        return [self.directory / name for name in names]

    def argv(self, out: Path) -> list:
        t_table, t_matrix, i_table, i_matrix, *calibration = self.files
        argv = ["attack", "--target-table", str(t_table), "--target-matrix", str(t_matrix),
                "--ident-table", str(i_table), "--ident-matrix", str(i_matrix),
                "--qi", ",".join(self.spec.qi), "--out", str(out)]
        if calibration:
            argv += ["--calibration", str(calibration[0]), "--alpha", repr(self.spec.alpha)]
        else:
            argv += ["--abs-eps", repr(self.spec.abs_eps)]
        if self.spec.enumerate_ties:
            argv.append("--enumerate-ties")
        return argv


def write_attack_inputs(spec: AttackSpec, seed: int, directory: Path) -> list:
    """Generate the instance, shuffle its rows spec.shuffles times from
    seed and write each shuffle's CSV (and calibration JSON) files, as
    the CLI attack reads them, to directory/shuffle<k>."""
    target, ident, truth = base_instance(spec)
    calibration = base_calibration(spec) if spec.alpha is not None else None
    rng = np.random.default_rng(seed)
    out = []
    for k in range(spec.shuffles):
        d = directory / f"shuffle{k}"
        d.mkdir(parents=True, exist_ok=True)
        t_order = rng.permutation(spec.n)
        i_order = rng.permutation(spec.n)
        t_table, t_matrix = _shuffled(*target, t_order)
        i_table, i_matrix = _shuffled(*ident, i_order)
        core.save_table(t_table, d / "target_table.csv")
        core.save_matrix(t_matrix, d / "target_matrix.csv")
        core.save_table(i_table, d / "ident_table.csv")
        core.save_matrix(i_matrix, d / "ident_matrix.csv")
        if calibration is not None:
            masking.save_calibration(calibration, d / "calibration.json")
        t_row, i_row = np.argsort(t_order), np.argsort(i_order)
        out.append(AttackInputs(spec, d, frozenset(
            (int(t_row[t]), int(i_row[i])) for t, i in truth.overlap_pairs)))
    return out


def sim_config(spec: SimSpec, config_seed: int) -> dict:
    return {"n_target": spec.n, "n_ident": spec.n, "n_common": spec.n_common,
            "sigma_grid": list(spec.sigma_grid), "alpha_grid": list(spec.alpha_grid),
            "repetitions": spec.repetitions, "qi_distributions": "census",
            "seed": config_seed}


def write_sim_configs(spec: SimSpec, seed: int, directory: Path) -> list:
    """One simulate config per recorded config seed, as (config seed,
    path) in the order a run's simulate calls use them."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for j in range(SIM_SEEDS):
        config_seed = (seed + j) % SIM_SEEDS
        path = directory / f"config{config_seed}.json"
        path.write_text(json.dumps(sim_config(spec, config_seed), indent=1) + "\n",
                        encoding="utf-8")
        out.append((config_seed, path))
    return out


def simulate_argv(config: Path, out_dir: Path) -> list:
    return ["simulate", "--config", str(config), "--out-dir", str(out_dir), "--threads", "1"]
