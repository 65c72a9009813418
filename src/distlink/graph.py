"""Vertex-labelled edge-weighted graphs and the product-graph construction.

A dataset (T, D) maps to a complete graph whose vertices are the records
of T, labelled with their quasi-identifier tuples, and whose edge weights
are the entries of D.  Matching two datasets reduces to finding cliques in
the product graph built here: its vertices are label-equal record pairs
and its edges connect pairs whose distances agree up to the one
approximate-equality relation, an open band on the signed deviation
(QuantileBand; Absolute(eps) is its symmetric case).  The product comes
out of one sorted interval join as a CSR SimpleGraph, after a guard has
checked that the join's candidate edges fit in physical memory.  The join
expands them a block at a time into the int64 edge keys that csr_graph
sorts in place, so those keys and the CSR's int32 indices are the peak.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .clique import BLOCK, SimpleGraph, csr_graph
from .core import DistanceMatrix, MicrodataTable
from .errors import InputFormatError, SizeLimitError

# a vertex label is the tuple of quasi-identifier values of its record,
# compared componentwise as exact (whitespace-trimmed) strings
VertexLabel = tuple


class LabeledWeightedGraph:
    """Complete graph over table records with labels and distance weights.

    An explicit boolean edge_present matrix turns the graph non-complete;
    datasets never produce one (their graphs are complete by definition)
    but the matching machinery below stays correct for general graphs,
    which the correspondence tests exercise.
    """

    def __init__(
        self,
        labels: Sequence[VertexLabel],
        weights: DistanceMatrix,
        record_ids: Optional[Sequence[int]] = None,
        edge_present: Optional[np.ndarray] = None,
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
        if edge_present is not None:
            edge_present = np.asarray(edge_present, dtype=bool)
            if edge_present.shape != (n, n):
                raise InputFormatError("edge_present must be n x n")
            if not np.array_equal(edge_present, edge_present.T):
                raise InputFormatError("edge_present must be symmetric")
            if np.any(np.diagonal(edge_present)):
                raise InputFormatError("edge_present diagonal must be False")
            edge_present.setflags(write=False)
        self.n = n
        self.labels = tuple(tuple(lab) for lab in labels)
        self.weights = weights
        self.record_ids = record_ids
        self.edge_present = edge_present

    @property
    def label_arity(self) -> int:
        return len(self.labels[0]) if self.labels else 0

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return self.edge_present is None or bool(self.edge_present[i, j])

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


def label_pairs(target_labels: Sequence[VertexLabel], ident_labels: Sequence[VertexLabel]) -> list:
    """Every label-equal (target, ident) index pair, in lexicographic
    order: the vertex set of the product graph."""
    by_label: dict = {}
    for w, lab in enumerate(ident_labels):
        by_label.setdefault(lab, []).append(w)
    return [(v, w) for v, lab in enumerate(target_labels) for w in by_label.get(lab, ())]


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
    pairs: Sequence[tuple],
) -> np.ndarray:
    """Edges of the product of two complete graphs on the vertices pairs
    (label_pairs order), by one sorted interval join over all label pairs
    at once: the int64 keys x * len(pairs) + y, x < y, that csr_graph takes.

    A target pair v1 < v2 with weight t meets the ordered identification
    pairs w1 != w2 of the same label pair whose weight s lies in the
    closed window [fl(t + lo), fl(t + hi)].  That window needs no slack:
    rounding is monotone and leaves lo itself unchanged, so
    lo < fl(s - t) implies s - t > lo, hence s >= fl(t + lo); likewise
    s <= fl(t + hi).  rel.deviation_mask then decides every candidate, so
    the edge set is the scalar loop's.  Vertex (v, w) is pairs[base[v] +
    rank[w]]: base[v] is v's first pair, rank[w] the offset of w within
    each of those runs, so v1 < v2 gives x < y and every edge comes out
    once.  Candidates are expanded about BLOCK at a time into one key
    array sized for all of them.
    """
    common = {lab: k for k, lab in enumerate(sorted(set(target.labels) & set(ident.labels)))}
    t_lab = np.array([common.get(lab, -1) for lab in target.labels], dtype=np.int64)
    i_lab = np.array([common.get(lab, -1) for lab in ident.labels], dtype=np.int64)
    # int32 ids: |V| <= n_target * n_ident, far below 2**31 at any size that fits
    tv, iw = (np.flatnonzero(lab >= 0).astype(np.int32) for lab in (t_lab, i_lab))
    pv, pw = np.fromiter(itertools.chain.from_iterable(pairs), np.int64, 2 * len(pairs)).reshape(-1, 2).T
    base = np.searchsorted(pv, np.arange(len(t_lab))).astype(np.int32)
    rank = np.zeros(len(i_lab), np.int32)
    rank[pw] = np.arange(len(pv)) - base[pv]

    v1, v2 = (tv[k] for k in np.triu_indices(len(tv), 1))
    t_key = t_lab[v1] * len(common) + t_lab[v2]
    t = target.weights.entries[v1, v2]
    # visit the target pairs in (label pair, weight) order: the key searches
    # below then run on ascending queries, the weight searches on one
    # ascending run per label pair
    by_key = np.argsort(t_key * (len(t) + 1) + np.argsort(np.argsort(t)))
    t, t_key = t[by_key], t_key[by_key]
    base1, base2 = base[v1[by_key]], base[v2[by_key]]
    del v1, v2, by_key
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
    key = np.concatenate(((i_lab[w1] * len(common) + i_lab[w2]) * span + p,
                          (i_lab[w2] * len(common) + i_lab[w1]) * span + p))
    order = np.argsort(key)
    key = key[order]
    rank1 = np.concatenate((rank[w1], rank[w2]))[order]
    rank2 = np.concatenate((rank[w2], rank[w1]))[order]
    del w1, w2, s_order, p, order
    s = s_sorted[key % span]

    first = np.searchsorted(key, t_key * span + np.searchsorted(s_sorted, t + rel.lo, "left"))
    hits = np.searchsorted(key, t_key * span + np.searchsorted(s_sorted, t + rel.hi, "right"))
    del key, t_key, s_sorted
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
    return edges[:m]


def _product_edges_general(
    target: LabeledWeightedGraph,
    ident: LabeledWeightedGraph,
    rel,
    pairs: Sequence[tuple],
) -> list:
    """Scalar adjacency loop honouring missing edges: the edges (x, y),
    x < y, in ascending order.

    Two product vertices are adjacent when their record pairs are disjoint
    and either (a) both graphs have the edge and the weights agree up to
    rel, or (b) neither graph has the edge.
    """
    edges = []
    for x, (v1, w1) in enumerate(pairs):
        for y in range(x + 1, len(pairs)):
            v2, w2 = pairs[y]
            if v1 == v2 or w1 == w2:
                continue
            et, ei = target.has_edge(v1, v2), ident.has_edge(w1, w2)
            agree = et and ei and rel.holds(target.weight(v1, v2), ident.weight(w1, w2))
            if agree or not (et or ei):
                edges.append((x, y))
    return edges


def _physical_memory_bytes() -> Optional[int]:
    """Installed RAM, or None where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


#: bytes per candidate edge at the attack's peak: the CSR build (the join's
#: int64 edge keys, sorted in place, and the int32 indices) or the solver's
#: set-up (the CSR and one int64 key per edge); peak RSS grew by 26.5 and
#: 18.1 per candidate over the 600x600 and 1000x1000 census attacks
BYTES_PER_CANDIDATE = 34


def _check_edge_memory(n_vertices: int, n_candidates: int) -> None:
    """Refuse a product whose candidate edges cannot fit in RAM."""
    need = BYTES_PER_CANDIDATE * n_candidates
    have = _physical_memory_bytes()
    if have is not None and need > have:
        raise SizeLimitError(
            f"product graph of {n_vertices} vertices and up to {n_candidates} edges needs "
            f"about {need} bytes, more than the {have} bytes of physical memory")


def build_product_graph(
    target: LabeledWeightedGraph,
    ident: LabeledWeightedGraph,
    rel,
) -> ProductGraph:
    """Construct the product graph of two labelled weighted graphs."""
    if target.label_arity != ident.label_arity:
        raise InputFormatError("graphs were built with different qi schemas")
    pairs = label_pairs(target.labels, ident.labels)
    if target.edge_present is None and ident.edge_present is None:
        graph = csr_graph(len(pairs), _product_edges_join(target, ident, rel, pairs))
    else:
        graph = SimpleGraph.from_edges(len(pairs), _product_edges_general(target, ident, rel, pairs))
    return ProductGraph(pairs, graph)


def product_vertex_count_check(
    target: LabeledWeightedGraph,
    ident: LabeledWeightedGraph,
) -> int:
    """Independent tally of the expected product vertex count: the sum over
    labels of (target multiplicity) times (identification multiplicity)."""
    ct = Counter(target.labels)
    ci = Counter(ident.labels)
    return sum(ct[lab] * ci[lab] for lab in ct.keys() & ci.keys())
