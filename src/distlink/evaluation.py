"""Ground-truth scoring, Monte Carlo simulation grid, R-U map data.

The simulation measures how dangerous publishing a distance matrix is:
synthetic target and identification files with a known record overlap
are generated, the target coordinates are masked with Gaussian noise of
strength sigma, the attack runs with a band calibrated at level alpha,
and the proposed matches are scored against the known overlap.  Sweeping
sigma and alpha yields the precision/recall grids and the risk-utility
map points.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .attack import MatchList, run_attack
from .clique import DEFAULT_NODE_BUDGET
from .core import GeoPoint, MicrodataRecord, MicrodataTable, distance_matrix
from .errors import InputFormatError, ResourceBudgetError
from .masking import (
    GERMANY,
    CalibrationTable,
    Region,
    band_from_table,
    calibrate,
    check_sigma,
    perturb_points,
    utility_score,
)
from .seeding import STREAM_CALIBRATION, STREAM_GENDATA, derive_rng

ID_ATTRIBUTE = "entity"


@dataclass(frozen=True)
class GroundTruth:
    """The (target_row, ident_row) pairs that denote the same entity."""

    overlap_pairs: frozenset

    def __post_init__(self) -> None:
        t_rows = [t for t, _ in self.overlap_pairs]
        i_rows = [i for _, i in self.overlap_pairs]
        if len(set(t_rows)) != len(t_rows) or len(set(i_rows)) != len(i_rows):
            raise InputFormatError("ground truth must be one-to-one")

    def __len__(self) -> int:
        return len(self.overlap_pairs)


@dataclass(frozen=True)
class EvaluationReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    #: False when the match list was empty and precision defaulted to 1.0
    precision_defined: bool = True


def evaluate(matches, truth: GroundTruth) -> EvaluationReport:
    """Score proposed matches against the known overlap.

    Precision of an empty match list is reported as 1.0 with the
    precision_defined flag cleared, so aggregation over repetitions never
    divides by zero.  An empty ground truth leaves recall undefined and
    is an error.
    """
    if len(truth) == 0:
        raise InputFormatError("ground truth is empty, recall undefined")
    pairs = matches.matches if isinstance(matches, MatchList) else tuple(matches)
    proposed = set(pairs)
    if len(proposed) != len(pairs):
        raise InputFormatError("duplicate pairs in match list")
    tp = len(proposed & truth.overlap_pairs)
    fp = len(proposed) - tp
    fn = len(truth) - tp
    if tp + fp > 0:
        precision = tp / (tp + fp)
        defined = True
    else:
        precision = 1.0
        defined = False
    recall = tp / (tp + fn)
    return EvaluationReport(tp, fp, fn, precision, recall, defined)


def _validate_qi_distributions(qi_distributions: dict) -> None:
    if not qi_distributions:
        raise InputFormatError("qi_distributions must not be empty")
    for attr, dist in qi_distributions.items():
        if not dist:
            raise InputFormatError(f"attribute '{attr}' has no values")
        probs = np.array(list(dist.values()), dtype=float)
        if np.any(probs < 0):
            raise InputFormatError(f"attribute '{attr}' has negative probabilities")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise InputFormatError(
                f"attribute '{attr}' probabilities sum to {probs.sum()}, expected 1")


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation study; everything an output
    needs to be regenerated bit for bit."""

    n_target: int
    n_ident: int
    n_common: int
    sigma_grid: tuple
    alpha_grid: tuple
    repetitions: int
    qi_distributions: dict
    region: Region = GERMANY
    seed: int = 0
    n_calibration_pairs: int = 1000
    calibration_per_repetition: bool = False
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        if self.n_target < 1 or self.n_ident < 1:
            raise InputFormatError("file sizes must be positive")
        if not 0 <= self.n_common <= min(self.n_target, self.n_ident):
            raise InputFormatError("n_common must be between 0 and min(file sizes)")
        if self.repetitions < 1:
            raise InputFormatError("repetitions must be at least 1")
        if not self.sigma_grid or not self.alpha_grid:
            raise InputFormatError("sigma_grid and alpha_grid must be nonempty")
        for sigma in self.sigma_grid:
            check_sigma(sigma)
        if any(not 0 < a < 1 for a in self.alpha_grid):
            raise InputFormatError("alpha values must lie strictly between 0 and 1")
        _validate_qi_distributions(self.qi_distributions)
        object.__setattr__(self, "sigma_grid", tuple(self.sigma_grid))
        object.__setattr__(self, "alpha_grid", tuple(self.alpha_grid))

    def as_dict(self) -> dict:
        return {
            "n_target": self.n_target,
            "n_ident": self.n_ident,
            "n_common": self.n_common,
            "sigma_grid": list(self.sigma_grid),
            "alpha_grid": list(self.alpha_grid),
            "repetitions": self.repetitions,
            "qi_distributions": self.qi_distributions,
            "region": self.region.as_dict(),
            "seed": self.seed,
            "n_calibration_pairs": self.n_calibration_pairs,
            "calibration_per_repetition": self.calibration_per_repetition,
            "node_budget": self.node_budget,
        }


def generate_synthetic_pair(
    config: SimulationConfig,
    sigma: float,
    rng: np.random.Generator,
):
    """Generate one target/identification dataset pair with known overlap.

    n_target + n_ident - n_common entities get uniform coordinates in the
    region and quasi-identifier values from the configured samplers.  The
    last n_common target entities are the first n_common identification
    entities; both files are row-shuffled.  The target matrix comes from
    sigma-masked coordinates, the identification matrix from true ones.
    Returns (target_table, target_matrix), (ident_table, ident_matrix),
    GroundTruth.
    """
    n_t, n_i, n_c = config.n_target, config.n_ident, config.n_common
    n_entities = n_t + n_i - n_c
    region = config.region
    # fixed draw order: coordinates, one block per qi attribute, the two
    # row permutations, then the target noise inside perturb_points
    lon = rng.uniform(region.lon_min, region.lon_max, n_entities)
    lat = rng.uniform(region.lat_min, region.lat_max, n_entities)
    qi_values = {}
    for attr, dist in config.qi_distributions.items():
        values = list(dist.keys())
        probs = np.array(list(dist.values()), dtype=float)
        probs = probs / probs.sum()
        qi_values[attr] = rng.choice(values, size=n_entities, p=probs)
    target_entities = np.arange(0, n_t)[rng.permutation(n_t)]
    ident_entities = np.arange(n_t - n_c, n_entities)[rng.permutation(n_i)]

    def build_table(entities, points):
        records = []
        for e in entities:
            values = {attr: str(qi_values[attr][e]) for attr in config.qi_distributions}
            values[ID_ATTRIBUTE] = f"e{e + 1:06d}"
            records.append(MicrodataRecord(values))
        schema = list(config.qi_distributions) + [ID_ATTRIBUTE]
        return MicrodataTable(records, schema, tuple(config.qi_distributions),
                              ID_ATTRIBUTE, points)

    true_target_points = [GeoPoint(lon[e], lat[e]) for e in target_entities]
    ident_points = [GeoPoint(lon[e], lat[e]) for e in ident_entities]
    masked_target_points = perturb_points(true_target_points, sigma, rng)
    # published target file: masked matrix, no coordinates
    target_table = build_table(target_entities, None)
    target_matrix = distance_matrix(masked_target_points)
    ident_table = build_table(ident_entities, ident_points)
    ident_matrix = distance_matrix(ident_points)
    entity_to_ident_row = {e: r for r, e in enumerate(ident_entities)}
    overlap = frozenset(
        (t_row, entity_to_ident_row[e])
        for t_row, e in enumerate(target_entities)
        if e in entity_to_ident_row)
    return (target_table, target_matrix), (ident_table, ident_matrix), GroundTruth(overlap)


@dataclass(frozen=True)
class RepetitionRow:
    """One simulation repetition; counts are None when the clique search
    ran out of node budget."""

    sigma: float
    alpha: float
    rep: int
    tp: Optional[int]
    fp: Optional[int]
    fn: Optional[int]
    precision: float
    recall: float
    precision_defined: bool
    budget_exhausted: bool


@dataclass(frozen=True)
class CellSummary:
    sigma: float
    alpha: float
    mean_precision: float
    mean_recall: float
    completed: int
    budget_exhausted: int


@dataclass(frozen=True)
class SimulationResult:
    config: SimulationConfig
    rows: tuple
    cells: tuple  # CellSummary per (sigma, alpha), sigma-major order
    calibrations: tuple  # CalibrationTable per sigma (cached mode)

    def cell(self, sigma: float, alpha: float) -> CellSummary:
        for c in self.cells:
            if c.sigma == sigma and c.alpha == alpha:
                return c
        raise KeyError((sigma, alpha))


def _run_repetition(config: SimulationConfig, si: int, ai: int, rep: int,
                    calibration: CalibrationTable) -> RepetitionRow:
    sigma = config.sigma_grid[si]
    alpha = config.alpha_grid[ai]
    rng = derive_rng(config.seed, STREAM_GENDATA, si, ai, rep)
    target, ident, truth = generate_synthetic_pair(config, sigma, rng)
    rel = band_from_table(calibration, alpha).as_relation()
    try:
        report = run_attack(target[0], target[1], ident[0], ident[1], rel,
                            node_budget=config.node_budget)
    except ResourceBudgetError:
        return RepetitionRow(sigma, alpha, rep, None, None, None,
                             math.nan, math.nan, False, True)
    scored = evaluate(report.match_list, truth)
    return RepetitionRow(sigma, alpha, rep, scored.tp, scored.fp, scored.fn,
                         scored.precision, scored.recall,
                         scored.precision_defined, False)


def _cell_calibration(config: SimulationConfig, si: int, ai: int, rep: int,
                      cached: Optional[CalibrationTable]) -> CalibrationTable:
    if not config.calibration_per_repetition:
        return cached
    rng = derive_rng(config.seed, STREAM_CALIBRATION, si, ai, rep)
    return calibrate(config.region, config.sigma_grid[si],
                     config.n_calibration_pairs, config.seed, rng=rng)


def _worker(job) -> RepetitionRow:
    config, si, ai, rep, cached = job
    calibration = _cell_calibration(config, si, ai, rep, cached)
    return _run_repetition(config, si, ai, rep, calibration)


def run_simulation(config: SimulationConfig, threads: int = 1) -> SimulationResult:
    """Run the full (sigma, alpha, repetition) grid.

    Every repetition derives its own RNG streams from (seed, sigma index,
    alpha index, repetition index), so the result is independent of the
    execution schedule; threads > 1 only changes wall-clock time.  At
    most min(threads, jobs, CPUs) worker processes start.
    Calibration is computed once per sigma and shared across the grid
    unless calibration_per_repetition is set.
    """
    if threads < 1:
        raise InputFormatError("threads must be at least 1")
    calibrations = [calibrate(config.region, sigma, config.n_calibration_pairs, config.seed,
                              rng=derive_rng(config.seed, STREAM_CALIBRATION, si))
                    for si, sigma in enumerate(config.sigma_grid)]
    jobs = []
    for si in range(len(config.sigma_grid)):
        for ai in range(len(config.alpha_grid)):
            for rep in range(config.repetitions):
                cached = None if config.calibration_per_repetition else calibrations[si]
                jobs.append((config, si, ai, rep, cached))
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        rows = [_worker(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_worker, jobs, chunksize=1))
    cells = []
    by_cell: dict = {}
    for row in rows:
        by_cell.setdefault((row.sigma, row.alpha), []).append(row)
    for sigma in config.sigma_grid:
        for alpha in config.alpha_grid:
            cell_rows = by_cell[(sigma, alpha)]
            done = [r for r in cell_rows if not r.budget_exhausted]
            if done:
                mean_p = sum(r.precision for r in done) / len(done)
                mean_r = sum(r.recall for r in done) / len(done)
            else:
                mean_p = math.nan
                mean_r = math.nan
            cells.append(CellSummary(sigma, alpha, mean_p, mean_r,
                                     len(done), len(cell_rows) - len(done)))
    return SimulationResult(config, tuple(rows), tuple(cells), tuple(calibrations))


def ru_map_data(result: SimulationResult, alpha: float) -> list:
    """Risk-utility points, one per sigma, at a fixed alpha.

    Risk is the attack's mean precision in that cell; utility is the
    reciprocal deviation variance of the sigma's calibration.  Raising
    sigma should walk the points toward the low-risk low-utility corner.
    """
    if alpha not in result.config.alpha_grid:
        raise InputFormatError(f"alpha {alpha} was not simulated")
    points = []
    for si, sigma in enumerate(result.config.sigma_grid):
        risk = result.cell(sigma, alpha).mean_precision
        utility = utility_score(result.calibrations[si])
        points.append((sigma, risk, utility))
    return points


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_results_csv(result: SimulationResult, path) -> None:
    """Raw per-repetition rows."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma", "alpha", "rep", "tp", "fp", "fn",
                         "precision", "recall", "precision_defined",
                         "budget_exhausted"])
        for r in result.rows:
            writer.writerow([_fmt(r.sigma), _fmt(r.alpha), r.rep,
                             _fmt(r.tp), _fmt(r.fp), _fmt(r.fn),
                             _fmt(r.precision), _fmt(r.recall),
                             _fmt(r.precision_defined),
                             _fmt(r.budget_exhausted)])


def write_aggregate_csv(result: SimulationResult, path) -> None:
    """Cell means in a grid layout: one row per (measure, alpha), one
    column per sigma."""
    sigmas = result.config.sigma_grid
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["measure", "alpha"] + [f"sigma={_fmt(s)}" for s in sigmas])
        for measure in ("precision", "recall"):
            for alpha in result.config.alpha_grid:
                row = [measure, _fmt(alpha)]
                for sigma in sigmas:
                    cell = result.cell(sigma, alpha)
                    value = cell.mean_precision if measure == "precision" else cell.mean_recall
                    row.append(_fmt(value))
                writer.writerow(row)


def write_ru_csv(points: Sequence[tuple], path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma", "risk", "utility"])
        for sigma, risk, utility in points:
            writer.writerow([_fmt(sigma), _fmt(risk), _fmt(utility)])
