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
import itertools
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .attack import MatchList, run_attack
from .clique import DEFAULT_NODE_BUDGET
from .core import GeoPoint, MicrodataRecord, MicrodataTable, distance_matrix
from .datasets import census_qi_distributions
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


def _validate_qi_distributions(qi_distributions) -> None:
    if not isinstance(qi_distributions, dict) or not qi_distributions:
        raise InputFormatError("qi_distributions must be a nonempty object of probability maps")
    for attr, dist in qi_distributions.items():
        where = f"qi_distributions: attribute '{attr}'"
        try:
            probs = np.array(list(dist.values()), dtype=float)
        except (AttributeError, TypeError, ValueError):
            raise InputFormatError(f"{where} is not a map of values to probabilities") from None
        if probs.size == 0 or np.any(probs < 0) or not abs(probs.sum() - 1.0) <= 1e-9:
            raise InputFormatError(
                f"{where} needs nonnegative probabilities summing to 1, got {probs.tolist()}")


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation study; everything an output
    needs to be regenerated bit for bit.  The one statement of the config
    file's keys, defaults and checks (see from_dict)."""

    n_target: int
    n_ident: int
    n_common: int
    sigma_grid: tuple
    alpha_grid: tuple = (0.5,)
    repetitions: int = 1
    qi_distributions: dict = field(default_factory=census_qi_distributions)
    region: Region = GERMANY
    seed: int = 0
    n_calibration_pairs: int = 1000
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        for name, low in (("n_target", 1), ("n_ident", 1), ("n_common", 0), ("repetitions", 1),
                          ("seed", 0), ("n_calibration_pairs", 2), ("node_budget", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise InputFormatError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.n_common > min(self.n_target, self.n_ident):
            raise InputFormatError("n_common must be between 0 and min(file sizes)")
        for name in ("sigma_grid", "alpha_grid"):
            grid = getattr(self, name)
            if (not isinstance(grid, (list, tuple, np.ndarray)) or len(grid) == 0
                    or not all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                               for x in grid)):
                raise InputFormatError(f"{name} must be a nonempty list of numbers, got {grid!r}")
            if len(set(grid)) != len(grid):
                raise InputFormatError(f"{name} repeats a value: {list(grid)}")
            object.__setattr__(self, name, tuple(grid))
        for sigma in self.sigma_grid:
            check_sigma(sigma)
        if any(not 0 < a < 1 for a in self.alpha_grid):
            raise InputFormatError("alpha values must lie strictly between 0 and 1")
        _validate_qi_distributions(self.qi_distributions)

    @classmethod
    def from_dict(cls, payload: dict) -> "SimulationConfig":
        """The config a JSON object (such as as_dict's) describes: keys are
        field names, and defaulted ones may be left out.  "sigma" stands for
        a one-value sigma_grid, qi_distributions "census" for the default."""
        payload = dict(payload)
        if "sigma" in payload:
            if "sigma_grid" in payload:
                raise InputFormatError("give either sigma or sigma_grid, not both")
            payload["sigma_grid"] = [payload.pop("sigma")]
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(payload) - set(names))
        if unknown:
            raise InputFormatError(f"malformed config field: unknown keys {unknown}; "
                                   f"the keys are {names}")
        missing = [f.name for f in fields(cls) if f.name not in payload
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise InputFormatError(f"missing config keys {missing}")
        if payload.get("qi_distributions") == "census":
            payload["qi_distributions"] = census_qi_distributions()
        try:
            if "region" in payload:
                try:
                    payload["region"] = Region(**payload["region"])
                except TypeError:
                    raise InputFormatError("region must be an object of the numbers "
                                           f"{[f.name for f in fields(Region)]}") from None
            return cls(**payload)
        except (InputFormatError, OverflowError) as exc:
            raise InputFormatError(f"malformed config field: {exc}") from None

    def as_dict(self) -> dict:
        """The JSON form; from_dict turns it back into an equal config."""
        out = asdict(self)
        out["sigma_grid"], out["alpha_grid"] = list(self.sigma_grid), list(self.alpha_grid)
        return out


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
        # record values are strings, whatever the type of the configured values
        qi_values[attr] = rng.choice(values, size=n_entities, p=probs).astype(str)
    target_entities = np.arange(0, n_t)[rng.permutation(n_t)]
    ident_entities = np.arange(n_t - n_c, n_entities)[rng.permutation(n_i)]
    schema = list(config.qi_distributions) + [ID_ATTRIBUTE]

    def build_table(entities, points):
        columns = [qi_values[attr][entities].tolist() for attr in config.qi_distributions]
        columns.append([f"e{e + 1:06d}" for e in entities.tolist()])
        records = [MicrodataRecord(dict(zip(schema, row))) for row in zip(*columns)]
        return MicrodataTable(records, schema, tuple(config.qi_distributions),
                              ID_ATTRIBUTE, points)

    def points_of(entities):
        return [GeoPoint(lo, la) for lo, la in zip(lon[entities].tolist(), lat[entities].tolist())]

    true_target_points = points_of(target_entities)
    ident_points = points_of(ident_entities)
    masked_target_points = perturb_points(true_target_points, sigma, rng)
    # published target file: masked matrix, no coordinates
    target_table = build_table(target_entities, None)
    target_matrix = distance_matrix(masked_target_points)
    ident_table = build_table(ident_entities, ident_points)
    ident_matrix = distance_matrix(ident_points)
    entity_to_ident_row = {e: r for r, e in enumerate(ident_entities.tolist())}
    overlap = frozenset(
        (t_row, entity_to_ident_row[e])
        for t_row, e in enumerate(target_entities.tolist())
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
    calibrations: tuple  # CalibrationTable per sigma

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


def _worker(job) -> RepetitionRow:
    return _run_repetition(*job)


def run_simulation(config: SimulationConfig, threads: int = 1) -> SimulationResult:
    """Run the full (sigma, alpha, repetition) grid.

    Every repetition derives its own RNG streams from (seed, sigma index,
    alpha index, repetition index), so the result is independent of the
    execution schedule; threads > 1 only changes wall-clock time.  At
    most min(threads, jobs, CPUs) worker processes start.
    Calibration is computed once per sigma and shared across the grid.
    """
    if threads < 1:
        raise InputFormatError("threads must be at least 1")
    calibrations = [calibrate(config.region, sigma, config.n_calibration_pairs, config.seed,
                              rng=derive_rng(config.seed, STREAM_CALIBRATION, si))
                    for si, sigma in enumerate(config.sigma_grid)]
    jobs = [(config, si, ai, rep, calibrations[si]) for si, ai, rep in itertools.product(
        range(len(config.sigma_grid)), range(len(config.alpha_grid)), range(config.repetitions))]
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        rows = [_worker(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_worker, jobs, chunksize=1))
    cells = []
    reps = config.repetitions
    for k, (sigma, alpha) in enumerate(itertools.product(config.sigma_grid, config.alpha_grid)):
        done = [r for r in rows[k * reps:(k + 1) * reps] if not r.budget_exhausted]
        mean_p = sum(r.precision for r in done) / len(done) if done else math.nan
        mean_r = sum(r.recall for r in done) / len(done) if done else math.nan
        cells.append(CellSummary(sigma, alpha, mean_p, mean_r, len(done), reps - len(done)))
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
