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
from distlink import build_graph
from distlink.core import _great_circle_km
from distlink.datasets import census_qi_distributions
from distlink.evaluation import ID_ATTRIBUTE, SimulationConfig, generate_synthetic_pair
from distlink.masking import GERMANY, band_from_table, calibrate
from distlink.seeding import STREAM_GENDATA, derive_rng

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


def census_graphs(n, sigma=0.025, alpha=0.5, seed=1):
    """Target and identification graphs of the n x n synthetic census
    pair with n / 5 common records, as `distlink gendata` draws it, and
    the band calibrated for it at level alpha."""
    config = SimulationConfig(n, n, n // 5, (sigma,), (alpha,), 1, census_qi_distributions(),
                              seed=seed)
    (tt, tm), (it, im), _ = generate_synthetic_pair(config, sigma,
                                                    derive_rng(seed, STREAM_GENDATA))
    qi = tuple(census_qi_distributions())
    rel = band_from_table(calibrate(GERMANY, sigma, 1000, seed), alpha).as_relation()
    return build_graph(tt.with_qi(qi), tm), build_graph(it.with_qi(qi), im), rel


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


# ---- one-shot product build and edge-array solver set-up ---------------
# The product join, CSR builder and root split as they were before they
# went blockwise: every candidate expanded at once, one sort of 2E keys,
# and the solver's set-up on relabelled edge arrays.  The library must
# reproduce them array for array.


def one_shot_product_edges_join(target, ident, rel):
    """graph._product_edges_join with every candidate expanded at once,
    in int64 and float64: the same edges, in the same order."""
    common = {lab: k for k, lab in enumerate(sorted(set(target.labels) & set(ident.labels)))}
    t_lab = np.array([common.get(lab, -1) for lab in target.labels], dtype=np.int64)
    i_lab = np.array([common.get(lab, -1) for lab in ident.labels], dtype=np.int64)
    tv, iw = np.flatnonzero(t_lab >= 0), np.flatnonzero(i_lab >= 0)
    by_label = np.argsort(i_lab, kind="stable")
    rank = np.empty(len(i_lab), np.int32)
    rank[by_label] = np.arange(len(i_lab)) - np.searchsorted(i_lab[by_label], i_lab[by_label])
    count = np.zeros(len(t_lab), np.int32)
    count[tv] = np.bincount(i_lab[iw], minlength=len(common))[t_lab[tv]]
    base = np.cumsum(count, dtype=np.int32) - count

    a, b = np.triu_indices(len(tv), 1)
    v1, v2 = tv[a], tv[b]
    t_key = t_lab[v1] * len(common) + t_lab[v2]
    t = target.weights.entries[v1, v2]
    by_key = np.argsort(t_key * (len(t) + 1) + np.argsort(np.argsort(t)))
    v1, v2, t, t_key = v1[by_key], v2[by_key], t[by_key], t_key[by_key]
    a, b = np.triu_indices(len(iw), 1)
    w1, w2 = iw[np.concatenate((a, b))], iw[np.concatenate((b, a))]
    s = ident.weights.entries[iw[a], iw[b]]
    s_order = np.argsort(s)
    s_sorted = s[s_order]
    span = len(s) + 1
    key = (i_lab[w1] * len(common) + i_lab[w2]) * span + np.tile(np.argsort(s_order), 2)
    order = np.argsort(key)
    key, s, w1, w2 = key[order], np.tile(s, 2)[order], w1[order], w2[order]

    first = np.searchsorted(key, t_key * span + np.searchsorted(s_sorted, t + rel.lo, "left"))
    stop = np.searchsorted(key, t_key * span + np.searchsorted(s_sorted, t + rel.hi, "right"))
    hits = stop - first
    q = np.repeat(np.arange(len(t)), hits)
    c = np.arange(hits.sum()) + np.repeat(first - (np.cumsum(hits) - hits), hits)
    keep = rel.deviation_mask(t[q], s[c])
    q, c = q[keep], c[keep]
    return base[v1[q]] + rank[w1[c]], base[v2[q]] + rank[w2[c]]


def key_sort_csr(n, src, dst):
    """(indptr, indices) of the directed edges src[k] -> dst[k], each row
    ascending and repeats merged, by one sort of the keys src * n + dst."""
    key = np.array(src, dtype=np.int64)
    key *= n
    key += dst
    key.sort()
    fresh = key[1:] != key[:-1]
    if not fresh.all():
        key = key[np.concatenate(([True], fresh))]
    return np.searchsorted(key, np.arange(n + 1) * n), np.remainder(key, n, out=key)


def symmetric_key_sort_csr(n, x, y):
    """csr_graph's (indptr, int32 indices) by one sort of the 2E keys
    of both directions."""
    indptr, indices = key_sort_csr(n, np.concatenate((x, y)), np.concatenate((y, x)))
    return indptr, indices.astype(np.int32)


def edge_array_first_fit_colours(n, x, y, block=256):
    """The first-fit colours of clique._root_split on the edges (x[k], y[k])
    of a graph already relabelled, through a CSR of every vertex's lower
    neighbours."""
    indptr, lower = key_sort_csr(n, np.maximum(x, y), np.minimum(x, y))
    colour = np.zeros(n, np.int64)
    top = 0
    for start in range(0, n, block):
        ends = indptr[start:start + block + 1]
        low = lower[ends[0]:ends[-1]]
        h = np.repeat(np.arange(len(ends) - 1), np.diff(ends))
        inside = low >= start
        taken = np.zeros((min(block, n - start), top + 1), bool)
        taken[:, 0] = True
        taken[h[~inside], colour[low[~inside]]] = True
        width = (top + 8) // 8
        packed = memoryview(np.packbits(taken, axis=1, bitorder="little").tobytes())
        hs, ls = h[inside].tolist(), (low[inside] - start).tolist()
        col = []
        j = 0
        for i in range(len(taken)):
            m = int.from_bytes(packed[i * width:(i + 1) * width], "little")
            while j < len(hs) and hs[j] == i:
                m |= 1 << col[ls[j]]
                j += 1
            col.append((~m & (m + 1)).bit_length() - 1)
        colour[start:start + len(col)] = col
        top = max(top, max(col))
    return colour


def edge_array_root_split(g):
    """clique._root_split on g relabelled by descending degree: the
    relabelled edge arrays, a CSR of the lower neighbours for the
    colouring and one of the later neighbours, each by a key sort."""
    x, y = g.edge_array()
    order = np.argsort(-np.diff(g.indptr), kind="stable")
    pos = np.empty(g.n, np.int32)
    pos[order] = np.arange(g.n)
    x, y = pos[x], pos[y]
    colour = edge_array_first_fit_colours(g.n, x, y)
    sweep = np.lexsort((-np.arange(g.n), -colour))
    rank = np.empty(g.n, np.int64)
    rank[sweep] = np.arange(g.n)
    first = rank[x] < rank[y]
    indptr, adj = key_sort_csr(g.n, np.where(first, x, y), np.where(first, y, x))
    return sweep.tolist(), colour[sweep].tolist(), indptr, adj
