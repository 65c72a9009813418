"""Gaussian coordinate masking and quantile calibration of its effect.

The defender masks point coordinates with i.i.d. Gaussian noise before
distances are published.  A snooper who knows the mechanism and its sigma
(the usual worst-case assumption) calibrates the approximate-equality
relation empirically: sample point pairs in the relevant region, perturb
them the same way, collect the deviations between true and perturbed
distances, and cut a central quantile band that catches a true deviation
with probability alpha.  That band becomes a QuantileBand, the attack's
one tolerance relation (a fixed --abs-eps is its symmetric case).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import GeoPoint, great_circle_distance
from .errors import DegenerateSampleError, InputFormatError
from .graph import QuantileBand
from .seeding import STREAM_CALIBRATION, derive_rng

#: quantile probabilities reported by the calibration summary table
SUMMARY_QUANTILES = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)

#: empirical quantile estimator: linear interpolation between order
#: statistics at positions p*(n+1).  Pinned because band edges feed
#: directly into the matching relation.
QUANTILE_METHOD = "weibull"


@dataclass(frozen=True)
class Region:
    """Latitude/longitude bounding box, degrees."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self) -> None:
        if not (self.lat_min < self.lat_max and self.lon_min < self.lon_max):
            raise InputFormatError("region bounds must satisfy min < max")

    def as_dict(self) -> dict:
        return {"lat_min": self.lat_min, "lat_max": self.lat_max,
                "lon_min": self.lon_min, "lon_max": self.lon_max}


# bounding box of the Federal Republic of Germany
GERMANY = Region(lat_min=47.27, lat_max=55.06, lon_min=5.87, lon_max=15.04)


def perturb_points(
    points: Sequence[GeoPoint],
    sigma: float,
    rng: np.random.Generator,
) -> list:
    """Add N(0, sigma^2) degrees to every coordinate of every point.

    One (n, 2) normal draw: column 0 perturbs longitudes, column 1
    latitudes.  Latitudes are clamped to [-90, 90] and longitudes wrapped
    into [-180, 180] so results stay valid coordinates.
    """
    if sigma < 0:
        raise InputFormatError("sigma must be nonnegative")
    n = len(points)
    noise = rng.normal(0.0, sigma, size=(n, 2))
    out = []
    for k, p in enumerate(points):
        lon = p.lon + noise[k, 0]
        lat = min(90.0, max(-90.0, p.lat + noise[k, 1]))
        if not -180.0 <= lon <= 180.0:
            lon = (lon + 180.0) % 360.0 - 180.0
        out.append(GeoPoint(lon, lat))
    return out


class CalibrationTable:
    """Sorted sample of distance deviations d - d' for one sigma.

    d is a distance between two unmasked points, d' the distance between
    their masked copies.  Quantiles of this sample define the band that
    the matching relation accepts.
    """

    def __init__(
        self,
        sigma: float,
        deviations: Sequence[float],
        region: Region,
        seed: int,
    ) -> None:
        dev = np.asarray(deviations, dtype=float)
        if dev.ndim != 1 or dev.size < 2:
            raise InputFormatError("calibration needs at least 2 deviations")
        if not np.all(np.isfinite(dev)):
            raise InputFormatError("deviations must be finite")
        if np.any(np.diff(dev) < 0):
            raise InputFormatError("deviations must be sorted ascending")
        if sigma < 0:
            raise InputFormatError("sigma must be nonnegative")
        dev.setflags(write=False)
        self.sigma = sigma
        self.deviations = dev
        self.n_pairs = int(dev.size)
        self.region = region
        self.seed = seed

    def quantile(self, p: float) -> float:
        return float(np.quantile(self.deviations, p, method=QUANTILE_METHOD))

    def sample_variance(self) -> float:
        return float(np.var(self.deviations, ddof=1))


def calibrate(
    region: Region,
    sigma: float,
    n_pairs: int,
    seed: int,
    rng: Optional[np.random.Generator] = None,
) -> CalibrationTable:
    """Empirically sample the deviation distribution for one sigma.

    n_pairs point pairs are drawn uniformly from the region's bounding
    box; both endpoints are masked and the deviation original minus
    masked distance recorded.  Draw order is fixed (lon1, lat1, lon2,
    lat2, then one noise block per endpoint), so a seed pins the sample.
    """
    if n_pairs < 2:
        raise InputFormatError("n_pairs must be at least 2")
    if rng is None:
        rng = derive_rng(seed, STREAM_CALIBRATION)
    lon1 = rng.uniform(region.lon_min, region.lon_max, n_pairs)
    lat1 = rng.uniform(region.lat_min, region.lat_max, n_pairs)
    lon2 = rng.uniform(region.lon_min, region.lon_max, n_pairs)
    lat2 = rng.uniform(region.lat_min, region.lat_max, n_pairs)
    a = [GeoPoint(lon1[k], lat1[k]) for k in range(n_pairs)]
    b = [GeoPoint(lon2[k], lat2[k]) for k in range(n_pairs)]
    a_masked = perturb_points(a, sigma, rng)
    b_masked = perturb_points(b, sigma, rng)
    dev = np.empty(n_pairs)
    for k in range(n_pairs):
        d = great_circle_distance(a[k], b[k])
        d_prime = great_circle_distance(a_masked[k], b_masked[k])
        dev[k] = d - d_prime
    dev.sort()
    return CalibrationTable(sigma, dev, region, seed)


@dataclass(frozen=True)
class BandSpec:
    """Central quantile band at level alpha: (1-alpha)/2 and (1+alpha)/2
    empirical quantiles of the calibrated deviations."""

    alpha: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise InputFormatError("alpha must lie strictly between 0 and 1")
        if not self.lo < self.hi:
            raise DegenerateSampleError(
                f"quantile band collapsed: [{self.lo}, {self.hi}]")

    def as_relation(self) -> QuantileBand:
        return QuantileBand(self.lo, self.hi)


def band_from_table(table: CalibrationTable, alpha: float) -> BandSpec:
    """Cut the level-alpha band out of a calibration sample.

    A deviation drawn from the calibrated distribution falls inside the
    band with probability approximately alpha; as alpha approaches 1 the
    band approaches the sample range.
    """
    if not 0.0 < alpha < 1.0:
        raise InputFormatError("alpha must lie strictly between 0 and 1")
    lo = table.quantile((1.0 - alpha) / 2.0)
    hi = table.quantile((1.0 + alpha) / 2.0)
    return BandSpec(alpha, lo, hi)


def utility_score(table: CalibrationTable) -> float:
    """Reciprocal of the sample variance of the deviations (divisor n-1).

    High when masking barely disturbs distances, low when it wrecks them;
    the utility axis of the risk-utility map.
    """
    var = table.sample_variance()
    if var == 0.0:
        raise DegenerateSampleError("deviation sample has zero variance")
    return 1.0 / var


def summary_row(table: CalibrationTable) -> dict:
    """One calibration summary row: the fixed quantile grid plus the
    sample variance."""
    row = {"sigma": table.sigma}
    for p in SUMMARY_QUANTILES:
        row[f"q{p:g}"] = table.quantile(p)
    row["sample_variance"] = table.sample_variance()
    return row


def save_calibration(table: CalibrationTable, path) -> None:
    payload = {
        "sigma": table.sigma,
        "seed": table.seed,
        "region": table.region.as_dict(),
        "n_pairs": table.n_pairs,
        "deviations": [float(x) for x in table.deviations],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def load_calibration(path) -> CalibrationTable:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: malformed JSON: {exc}") from None
    try:
        region = Region(**payload["region"])
        table = CalibrationTable(payload["sigma"], payload["deviations"],
                                 region, payload["seed"])
        n_pairs = payload["n_pairs"]
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"{path}: missing calibration field: {exc}") from None
    except ValueError as exc:
        raise InputFormatError(f"{path}: malformed calibration field: {exc}") from None
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    if table.n_pairs != n_pairs:
        raise InputFormatError(f"{path}: n_pairs does not match deviation count")
    return table
