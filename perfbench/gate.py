"""Correctness gate, independent of distlink's code and of tie choice.

Every check here reads the files the CLI read or wrote and applies the
tolerance relation with its own scalar arithmetic.  None of the checks
depends on which maximum clique the solver returns: a valid answer of
the right size passes whatever its tie choice.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np


def read_matrix(path: Path) -> list:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return [[float(x) for x in row] for row in csv.reader(fh) if row]


def read_labels(path: Path, qi: tuple) -> list:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [tuple(row[a].strip() for a in qi) for row in rows]


def read_pairs(path: Path) -> list:
    """0-based (target_row, ident_row) pairs of a matches CSV."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["target_row", "ident_row"]:
        raise ValueError(f"{path}: unexpected header {rows[:1]}")
    return [(int(t) - 1, int(i) - 1) for t, i in rows[1:]]


class Band:
    """lo < w_ident - w_target < hi, the calibrated relation."""

    def __init__(self, lo: float, hi: float) -> None:
        self.lo, self.hi = lo, hi

    @classmethod
    def from_calibration(cls, path: Path, alpha: float) -> "Band":
        dev = np.asarray(json.loads(Path(path).read_text(encoding="utf-8"))["deviations"])
        lo, hi = np.quantile(dev, [(1.0 - alpha) / 2.0, (1.0 + alpha) / 2.0], method="weibull")
        return cls(float(lo), float(hi))

    def holds(self, w_target: float, w_ident: float) -> bool:
        return self.lo < w_ident - w_target < self.hi


class AbsoluteTolerance:
    """|w_target - w_ident| < eps."""

    def __init__(self, eps: float) -> None:
        self.eps = eps

    def holds(self, w_target: float, w_ident: float) -> bool:
        return abs(w_target - w_ident) < self.eps


class AttackGate:
    """Checks a match list against the inputs of one attack."""

    def __init__(self, target_labels, ident_labels, target_matrix, ident_matrix,
                 relation, omega: int) -> None:
        self.target_labels = target_labels
        self.ident_labels = ident_labels
        self.wt = target_matrix
        self.wi = ident_matrix
        self.relation = relation
        self.omega = omega

    @classmethod
    def from_inputs(cls, inputs, omega: int) -> "AttackGate":
        spec, d = inputs.spec, inputs.directory
        if spec.abs_eps is not None:
            relation = AbsoluteTolerance(spec.abs_eps)
        else:
            relation = Band.from_calibration(d / "calibration.json", spec.alpha)
        return cls(read_labels(d / "target_table.csv", spec.qi),
                   read_labels(d / "ident_table.csv", spec.qi),
                   read_matrix(d / "target_matrix.csv"),
                   read_matrix(d / "ident_matrix.csv"),
                   relation, omega)

    @staticmethod
    def _weight(matrix, a: int, b: int) -> float:
        # the upper-triangle entry, as the product graph reads it
        return matrix[a][b] if a < b else matrix[b][a]

    def problems(self, pairs: list) -> list:
        """Everything wrong with a proposed match list; empty when valid."""
        out = []
        t_rows = [t for t, _ in pairs]
        i_rows = [i for _, i in pairs]
        if len(set(t_rows)) != len(t_rows) or len(set(i_rows)) != len(i_rows):
            out.append("matches are not one-to-one")
        if len(pairs) != self.omega:
            out.append(f"clique size {len(pairs)} != reference omega {self.omega}")
        for t, i in pairs:
            if not (0 <= t < len(self.target_labels) and 0 <= i < len(self.ident_labels)):
                out.append(f"match ({t + 1},{i + 1}) out of range")
                return out
            if self.target_labels[t] != self.ident_labels[i]:
                out.append(f"match ({t + 1},{i + 1}) is not label-equal")
        for x, (t1, i1) in enumerate(pairs):
            for t2, i2 in pairs[x + 1:]:
                if t1 == t2 or i1 == i2:
                    continue
                if not self.relation.holds(self._weight(self.wt, t1, t2),
                                           self._weight(self.wi, i1, i2)):
                    out.append(f"matches ({t1 + 1},{i1 + 1}) and ({t2 + 1},{i2 + 1}) "
                               "violate the relation")
        return out


def results_problems(rows: list, omegas: list) -> tuple:
    """(failed repetitions, problems) of the rows of a simulate
    results.csv: every repetition must finish within budget and propose
    exactly omega matches; a missing row counts as failed."""
    out = []
    for row, omega in zip(rows, omegas):
        where = f"sigma={row['sigma']} alpha={row['alpha']} rep={row['rep']}"
        if row["budget_exhausted"] != "0":
            out.append(f"{where}: budget exhausted")
        elif int(row["tp"]) + int(row["fp"]) != omega:
            out.append(f"{where}: tp+fp={int(row['tp']) + int(row['fp'])} != omega {omega}")
    failed = len(out)
    if len(rows) != len(omegas):
        out.append(f"{len(rows)} repetitions, expected {len(omegas)}")
        failed += max(len(omegas) - len(rows), 0)
    return failed, out
