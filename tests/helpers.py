"""Shared builders and reference literals for the test suite."""

import math

import numpy as np

from distlink import (
    EARTH_RADIUS_KM,
    Absolute,
    DistanceMatrix,
    GeoPoint,
    InputFormatError,
    LabeledWeightedGraph,
    MicrodataRecord,
    MicrodataTable,
    QuantileBand,
    SimpleGraph,
)
from distlink.core import _great_circle_km
from distlink.evaluation import ID_ATTRIBUTE

# Reference 4-city distance matrix in km (London, Paris, Madrid, Berlin).
EXAMPLE_CITY_MATRIX = [
    [0.0, 343.6, 1264.0, 930.9],
    [343.6, 0.0, 1052.9, 877.5],
    [1264.0, 1052.9, 0.0, 1869.1],
    [930.9, 877.5, 1869.1, 0.0],
]

# Label-coinciding (target_row, ident_row) pairs for the poets fixtures,
# 1-based.  Eleven pairs; the true matching is the first four below.
POETS_PRODUCT_PAIRS_1BASED = {
    (1, 1), (2, 2), (2, 9), (3, 3), (3, 6),
    (4, 4), (4, 7), (6, 3), (6, 6), (7, 4), (7, 7),
}
POETS_TRUE_MATCHES_1BASED = ((1, 1), (2, 2), (3, 3), (4, 4))


def random_simple_graph(rng, n, p):
    """Erdos-Renyi G(n, p) as a SimpleGraph."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return SimpleGraph.from_edges(n, edges)


def random_labeled_graph(rng, n, n_labels, complete=True, weight_scale=10.0):
    """Random weighted graph with single-attribute labels drawn from a
    small alphabet.  With complete=False a random symmetric edge mask is
    attached so the absent-absent compatibility branch gets exercised."""
    labels = [(str(int(rng.integers(1, n_labels + 1))),) for _ in range(n)]
    w = rng.random((n, n)) * weight_scale
    w = np.triu(w, 1)
    w = w + w.T
    edge_present = None
    if not complete:
        m = rng.random((n, n)) < 0.6
        m = np.triu(m, 1)
        edge_present = m | m.T
    return LabeledWeightedGraph(tuple(labels), DistanceMatrix(w),
                                tuple(range(n)), edge_present=edge_present)


def random_relation(rng):
    if rng.random() < 0.5:
        return Absolute(float(rng.uniform(0.5, 6.0)))
    lo = float(rng.uniform(-6.0, -0.5))
    hi = float(rng.uniform(0.5, 6.0))
    return QuantileBand(lo, hi)


def random_points(rng, n):
    lon = rng.uniform(-179.0, 179.0, n)
    lat = rng.uniform(-89.0, 89.0, n)
    return [GeoPoint(float(lo), float(la)) for lo, la in zip(lon, lat)]


# ---- scalar geometry oracles ------------------------------------------
# Per-element math-module references for the array code behind
# great_circle_distance, distance_matrix, perturb_points and calibrate.
# The library must reproduce them bit for bit.


def scalar_great_circle_km(p1, p2):
    """Spherical law of cosines on the math module, one pair at a time."""
    lat1 = math.radians(p1.lat)
    lat2 = math.radians(p2.lat)
    c = (math.sin(lat1) * math.sin(lat2)
         + math.cos(lat1) * math.cos(lat2)
         * math.cos(math.radians(p1.lon) - math.radians(p2.lon)))
    c = min(1.0, max(-1.0, c))
    return EARTH_RADIUS_KM * math.acos(c)


def row_loop_distance_matrix(points):
    """distance_matrix entries with one kernel call per upper-triangle
    row, each row written to both triangles."""
    n = len(points)
    lon, lat = np.array([(p.lon, p.lat) for p in points]).T
    entries = np.zeros((n, n))
    for i in range(n - 1):
        row = _great_circle_km(lon[i], lat[i], lon[i + 1:], lat[i + 1:])
        entries[i, i + 1:] = entries[i + 1:, i] = row
    return entries


def loop_perturb_points(points, sigma, rng):
    """Gaussian masking, one point at a time: clamp the latitude, wrap an
    out-of-range longitude."""
    if sigma < 0:
        raise InputFormatError("sigma must be nonnegative")
    noise = rng.normal(0.0, sigma, size=(len(points), 2))
    out = []
    for k, p in enumerate(points):
        lon = p.lon + noise[k, 0]
        lat = min(90.0, max(-90.0, p.lat + noise[k, 1]))
        if not -180.0 <= lon <= 180.0:
            lon = (lon + 180.0) % 360.0 - 180.0
        out.append(GeoPoint(lon, lat))
    return out


def loop_calibration_deviations(region, sigma, n_pairs, rng):
    """Sorted deviations d - d' of calibrate, one pair at a time, with the
    same draw order (lon1, lat1, lon2, lat2, then one noise block per
    endpoint)."""
    lon1 = rng.uniform(region.lon_min, region.lon_max, n_pairs)
    lat1 = rng.uniform(region.lat_min, region.lat_max, n_pairs)
    lon2 = rng.uniform(region.lon_min, region.lon_max, n_pairs)
    lat2 = rng.uniform(region.lat_min, region.lat_max, n_pairs)
    a = [GeoPoint(lon1[k], lat1[k]) for k in range(n_pairs)]
    b = [GeoPoint(lon2[k], lat2[k]) for k in range(n_pairs)]
    a_masked = loop_perturb_points(a, sigma, rng)
    b_masked = loop_perturb_points(b, sigma, rng)
    dev = np.empty(n_pairs)
    for k in range(n_pairs):
        dev[k] = (scalar_great_circle_km(a[k], b[k])
                  - scalar_great_circle_km(a_masked[k], b_masked[k]))
    dev.sort()
    return dev


# ---- record-by-record synthetic tables ---------------------------------


def record_loop_synthetic_tables(config, rng):
    """The (target, ident) tables of generate_synthetic_pair, built one
    record at a time from numpy scalars, with the generator's draw order."""
    n_t, n_i, n_c = config.n_target, config.n_ident, config.n_common
    n_entities = n_t + n_i - n_c
    region = config.region
    lon = rng.uniform(region.lon_min, region.lon_max, n_entities)
    lat = rng.uniform(region.lat_min, region.lat_max, n_entities)
    qi_values = {}
    for attr, dist in config.qi_distributions.items():
        probs = np.array(list(dist.values()), dtype=float)
        qi_values[attr] = rng.choice(list(dist.keys()), size=n_entities, p=probs / probs.sum())
    target_entities = np.arange(0, n_t)[rng.permutation(n_t)]
    ident_entities = np.arange(n_t - n_c, n_entities)[rng.permutation(n_i)]
    schema = list(config.qi_distributions) + [ID_ATTRIBUTE]

    def build_table(entities, with_points):
        records, points = [], []
        for e in entities:
            values = {attr: str(qi_values[attr][e]) for attr in config.qi_distributions}
            values[ID_ATTRIBUTE] = f"e{e + 1:06d}"
            records.append(MicrodataRecord(values))
            points.append(GeoPoint(lon[e], lat[e]))
        return MicrodataTable(records, schema, tuple(config.qi_distributions), ID_ATTRIBUTE,
                              points if with_points else None)

    return build_table(target_entities, False), build_table(ident_entities, True)
