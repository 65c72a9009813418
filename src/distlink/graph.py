"""Vertex-labelled edge-weighted graphs and the product-graph construction.

A dataset (T, D) maps to a complete graph whose vertices are the records
of T, labelled with their quasi-identifier tuples, and whose edge weights
are the entries of D.  Matching two datasets reduces to finding cliques in
the product graph built here: its vertices are label-equal record pairs
and its edges connect pairs whose distances agree up to the one
approximate-equality relation, an open band on the signed deviation
(QuantileBand; Absolute(eps) is its symmetric case).  The product comes
out of one sorted interval join as a CSR SimpleGraph, after a guard has
checked that the join's candidate edges fit in physical memory.  Where
native.kernel_for gives the compiled kernels for the product's vertex
count, as for the matrix reader and the search, they run the join on
record pairs grouped by label pair and sorted by weight, write each row's
upper neighbours straight into the CSR and order the rows by transposing
in place, so the CSR's int32 indices are the peak.  Smaller products, and
every product without a compiler, take the numpy join, the compiled
build's oracle: it expands the candidates a block at a time into the
int64 edge keys that csr_graph sorts in place, so those keys and the
CSR's indices are its peak.  Graphs with absent edges are test
references, in distlink.oracles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import native
from .clique import BLOCK, SimpleGraph, csr_graph
from .core import DistanceMatrix, MicrodataTable, _require_memory
from .errors import InputFormatError

# a vertex label is the tuple of quasi-identifier values of its record,
# compared componentwise as exact (whitespace-trimmed) strings
VertexLabel = tuple


class LabeledWeightedGraph:
    """Complete graph over table records with labels and distance weights;
    graphs with absent edges are distlink.oracles.GeneralGraph."""

    def __init__(
        self,
        labels: Sequence[VertexLabel],
        weights: DistanceMatrix,
        record_ids: Optional[Sequence[int]] = None,
    ) -> None:
        n = len(labels)
        if weights.n != n:
            raise InputFormatError(f"{n} labels but {weights.n}x{weights.n} weight matrix")
        arities = {len(lab) for lab in labels}
        if len(arities) > 1:
            raise InputFormatError("all vertex labels must have the same arity")
        if record_ids is None:
            record_ids = range(n)
        record_ids = tuple(record_ids)
        if len(record_ids) != n:
            raise InputFormatError("record_ids length must equal vertex count")
        self.n = n
        self.labels = tuple(tuple(lab) for lab in labels)
        self.weights = weights
        self.record_ids = record_ids

    @property
    def label_arity(self) -> int:
        return len(self.labels[0]) if self.labels else 0

    def has_edge(self, i: int, j: int) -> bool:
        return i != j

    def weight(self, i: int, j: int) -> float:
        # canonicalised to the upper-triangle entry so that slightly
        # asymmetric stored matrices still yield symmetric adjacency
        a, b = (i, j) if i < j else (j, i)
        return float(self.weights.entries[a, b])


def build_graph(table: MicrodataTable, matrix: DistanceMatrix) -> LabeledWeightedGraph:
    """Graph of a dataset (T, D): complete, labelled by qi tuples."""
    if not table.qi_attributes:
        raise InputFormatError("table has no quasi-identifier attributes designated")
    if matrix.n != len(table):
        raise InputFormatError(
            f"table has {len(table)} records but matrix is {matrix.n}x{matrix.n}")
    return LabeledWeightedGraph(table.qi_tuples(), matrix)


@dataclass(frozen=True)
class QuantileBand:
    """Accepts pairs whose deviation (identification weight minus target
    weight, in that order) lies strictly inside the band (lo, hi).

    The test is deliberately asymmetric in its arguments: a calibrated
    band is cut from deviations of true distances minus masked distances,
    and identification distances play the true side.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise InputFormatError(f"band requires lo < hi, got [{self.lo}, {self.hi}]")

    def holds(self, w_target: float, w_ident: float) -> bool:
        dev = w_ident - w_target
        return self.lo < dev < self.hi

    def deviation_mask(self, w_target: np.ndarray, w_ident: np.ndarray) -> np.ndarray:
        dev = w_ident - w_target
        return (self.lo < dev) & (dev < self.hi)


def Absolute(epsilon: float) -> QuantileBand:
    """The symmetric band (-epsilon, epsilon): absolute deviation strictly
    below epsilon.  Exact, because IEEE subtraction is sign-symmetric, so
    w_ident - w_target is the negation of w_target - w_ident."""
    if not epsilon > 0:
        raise InputFormatError("epsilon must be positive")
    return QuantileBand(-epsilon, epsilon)


def _pair_columns(target_labels: Sequence[VertexLabel], ident_labels: Sequence[VertexLabel]) -> tuple:
    """(pv, pw, base, rank, t_lab, i_lab, k): the label-equal (target,
    ident) pairs in lexicographic order as two int64 columns, the one
    enumeration of the product's vertices, which numbers vertex (v, w)
    base[v] + rank[w]: base[v] is v's first pair, rank[w] the offset of w
    within each of those runs, both int32; and each record's label as its
    index among the k labels both sides share, in sorted order, or -1 if
    only one side has it."""
    common = {lab: k for k, lab in enumerate(sorted(set(target_labels) & set(ident_labels)))}
    t_lab, i_lab = (np.array([common.get(lab, -1) for lab in labels], dtype=np.int64)
                    for labels in (target_labels, ident_labels))
    by_label = np.argsort(i_lab, kind="stable")
    lo, hi = (np.searchsorted(i_lab[by_label], t_lab, side) for side in ("left", "right"))
    lens = np.where(t_lab >= 0, hi - lo, 0)
    ends = np.cumsum(lens)
    pv = np.repeat(np.arange(len(t_lab)), lens)
    base = (ends - lens).astype(np.int32)
    pw = by_label[np.arange(len(pv)) + np.repeat(lo - base, lens)]
    rank = np.zeros(len(i_lab), np.int32)
    rank[pw] = np.arange(len(pv)) - base[pv]
    return pv, pw, base, rank, t_lab, i_lab, len(common)


class ProductGraph:
    """Product of a target and an identification graph.

    vertices lists the label-equal (target_vertex, ident_vertex) pairs in
    lexicographic order; graph is the adjacency over vertex indices.
    Cliques of graph are exactly the approximate common subgraphs of the
    two inputs, which is what makes the attack a maximum-clique problem.
    """

    def __init__(self, vertices: Sequence[tuple], graph: SimpleGraph) -> None:
        if graph.n != len(vertices):
            raise InputFormatError("vertex list and adjacency size differ")
        self.vertices = tuple(vertices)
        self.graph = graph

    @property
    def n(self) -> int:
        return len(self.vertices)


def _product_edges_join(
    target: LabeledWeightedGraph,
    ident: LabeledWeightedGraph,
    rel: QuantileBand,
    columns: Optional[tuple] = None,
) -> tuple:
    """The product of two complete graphs as (pv, pw, key): its vertices
    as _pair_columns gives them (or columns, its result), and its edges,
    by one sorted interval join over all label pairs at once, as the int64
    keys x * len(pv) + y, x < y, that csr_graph takes.

    A target pair v1 < v2 with weight t meets the ordered identification
    pairs w1 != w2 of the same label pair whose weight s lies in the
    closed window [fl(t + lo), fl(t + hi)].  That window needs no slack:
    rounding is monotone and leaves lo itself unchanged, so
    lo < fl(s - t) implies s - t > lo, hence s >= fl(t + lo); likewise
    s <= fl(t + hi).  rel.deviation_mask then decides every candidate, so
    the edge set is the scalar loop's.  Vertex (v, w) is number base[v] +
    rank[w], so v1 < v2 gives x < y and every edge comes out once.
    Candidates are expanded about BLOCK at a time into one key array sized
    for all of them.
    """
    pv, pw, base, rank, t_lab, i_lab, n_common = columns or _pair_columns(target.labels, ident.labels)
    # int32 ids: |V| <= n_target * n_ident, far below 2**31 at any size that fits
    tv, iw = (np.flatnonzero(lab >= 0).astype(np.int32) for lab in (t_lab, i_lab))

    w1, w2 = (iw[k] for k in np.triu_indices(len(iw), 1))
    s_order = np.argsort(ident.weights.entries[w1, w2])
    s_sorted, p = ident.weights.entries[w1[s_order], w2[s_order]], np.argsort(s_order)

    # sort the identification pairs, both ways round, by (label pair,
    # weight) as one integer key: label pair * span + the weight's
    # position p in s_sorted.  Ties take any positions, but
    # count_below(s) <= p < count_at_or_below(s), so a weight window
    # [low, high] is the key range from the count below low up to the
    # count at or below high.  Keys stay below 2**63 for any pair of
    # matrices that fits in memory.
    span = len(s_sorted) + 1
    key = np.concatenate(((i_lab[w1] * n_common + i_lab[w2]) * span + p,
                          (i_lab[w2] * n_common + i_lab[w1]) * span + p))
    order = np.argsort(key)
    key = key[order]
    rank1 = np.concatenate((rank[w1], rank[w2]))[order]
    rank2 = np.concatenate((rank[w2], rank[w1]))[order]
    del w1, w2, s_order, p, order
    s = s_sorted[key % span]

    v1, v2 = (tv[k] for k in np.triu_indices(len(tv), 1))
    t = target.weights.entries[v1, v2]
    # look the target pairs' weight windows up in weight order, so the
    # searches run on ascending queries, then visit the pairs in (label
    # pair, weight) order, where the key searches do: a stable sort by
    # label pair, done as a sort of distinct keys
    by_weight = np.argsort(t)
    t, v1, v2 = t[by_weight], v1[by_weight], v2[by_weight]
    del by_weight
    low = np.searchsorted(s_sorted, t + rel.lo, "left")
    high = np.searchsorted(s_sorted, t + rel.hi, "right")
    del s_sorted
    t_key = t_lab[v1] * n_common + t_lab[v2]
    by_key = np.argsort(t_key * len(t) + np.arange(len(t)))
    t, t_key, low, high = t[by_key], t_key[by_key], low[by_key], high[by_key]
    base1, base2 = base[v1[by_key]], base[v2[by_key]]
    del v1, v2, by_key
    t_key *= span
    first = np.searchsorted(key, low + t_key)
    hits = np.searchsorted(key, high + t_key)
    del key, t_key, low, high
    hits -= first
    ends = np.cumsum(hits)
    first -= ends - hits  # candidate j of target pair q is identification pair j + first[q]
    _check_edge_memory(len(pv), int(hits.sum()))
    edges = np.empty(hits.sum(), np.int64)
    lo = m = 0
    while lo < len(hits):
        # the next pairs whose candidates fit in one block, or one pair
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - hits[lo] + BLOCK, "right")))
        q = np.repeat(np.arange(lo, hi), hits[lo:hi])
        c = np.arange(ends[lo] - hits[lo], ends[hi - 1]) + np.repeat(first[lo:hi], hits[lo:hi])
        keep = rel.deviation_mask(t[q], s[c])
        q, c = q[keep], c[keep]
        edges[m:m + len(q)] = (base1[q] + rank1[c]).astype(np.int64) * len(pv) + base2[q] + rank2[c]
        m, lo = m + len(q), hi
    return pv, pw, edges[:m]


#: bytes per candidate edge at the attack's peak: the numpy CSR build (the
#: join's int64 edge keys, sorted in place, and the int32 indices) or the
#: solver's set-up (the CSR and one int64 key per edge); peak RSS grew by
#: 26.5 and 18.1 per candidate over the 600x600 and 1000x1000 census
#: attacks.  The compiled build needs less (8 an edge and the pairs), but a
#: product must fit the numpy build it falls back to without a compiler.
BYTES_PER_CANDIDATE = 34


def _check_edge_memory(n_vertices: int, n_candidates: int) -> None:
    """Refuse a product whose candidate edges cannot fit in RAM."""
    _require_memory(BYTES_PER_CANDIDATE * n_candidates,
                    f"product graph of {n_vertices} vertices and up to {n_candidates} edges needs")


def _label_pair_groups(kernel, lab: np.ndarray, entries: np.ndarray, offset: np.ndarray,
                       k: int) -> list:
    """[start, w, a, b]: the pairs of records a < b whose labels are among
    the k shared ones, grouped by label pair lab[a] * k + lab[b], group g
    at start[g]:start[g + 1], each in ascending weight w = entries[a, b],
    with the records as offset[a] and offset[b]; no other array of the
    pairs' size is made."""
    ids = np.flatnonzero(lab >= 0)
    size = len(ids) * (len(ids) - 1) // 2
    out = [np.zeros(k * k + 1, np.int64), np.empty(size), np.empty(size, np.int32),
           np.empty(size, np.int32)]
    entries = np.ascontiguousarray(entries, np.float64)
    kernel.group_pairs(len(ids), ids.ctypes.data, lab.ctypes.data, k, entries.ctypes.data,
                       len(entries), offset.ctypes.data, *(x.ctypes.data for x in out))
    return out


def _product_csr(kernel, target: LabeledWeightedGraph, ident: LabeledWeightedGraph,
                 rel: QuantileBand, columns: tuple) -> SimpleGraph:
    """csr_graph(_product_edges_join(...)) by the compiled kernels: the
    same CSR.  The join meets each target pair's candidates in a weight
    window of the identification pairs of its label pair, by two pointers,
    twice: to count them, for the memory guard, and each vertex's lower
    and upper neighbours, then to write each row's upper neighbours,
    unsorted, into the CSR.  csr_order then sorts the rows by transposing
    in place.  Only the CSR and the pairs, about 8 bytes an edge and 16 a
    pair, are live at the peak."""
    pv, pw, base, rank, t_lab, i_lab, k = columns
    n = len(pv)
    pairs = (_label_pair_groups(kernel, t_lab, target.weights.entries, base, k)
             + _label_pair_groups(kernel, i_lab, ident.weights.entries, rank, k))
    join = functools.partial(kernel.join, k, *(x.ctypes.data for x in pairs),
                             float(rel.lo), float(rel.hi))
    low, up = np.zeros(n, np.int64), np.zeros(n, np.int64)
    _check_edge_memory(n, join(low.ctypes.data, up.ctypes.data, None))
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(low + up, out=indptr[1:])
    indices = np.empty(indptr[-1], np.int32)
    np.add(indptr[:-1], low, out=up)  # where each row's upper neighbours start
    join(low.ctypes.data, up.ctypes.data, indices.ctypes.data)
    del pairs, join
    kernel.csr_order(n, indptr.ctypes.data, low.ctypes.data, up.ctypes.data, indices.ctypes.data)
    return SimpleGraph(n, indptr, indices, validate=False)


def build_product_graph(
    target: LabeledWeightedGraph,
    ident: LabeledWeightedGraph,
    rel,
) -> ProductGraph:
    """Construct the product graph of two complete labelled weighted graphs:
    with the compiled build where native.kernel_for its vertex count gives
    the kernels, else with _product_edges_join and csr_graph, its oracle."""
    if target.label_arity != ident.label_arity:
        raise InputFormatError("graphs were built with different qi schemas")
    columns = _pair_columns(target.labels, ident.labels)
    pv, pw = columns[:2]
    kernel = native.kernel_for(len(pv))
    # the graph first: the vertex tuples would raise the build's peak
    if kernel is not None:
        graph = _product_csr(kernel, target, ident, rel, columns)
    else:
        graph = csr_graph(len(pv), _product_edges_join(target, ident, rel, columns)[2])
    return ProductGraph(list(zip(pv.tolist(), pw.tolist())), graph)
