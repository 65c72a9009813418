"""Vertex-labelled edge-weighted graphs and the product-graph construction.

A dataset (T, D) maps to a complete graph whose vertices are the records
of T, labelled with their quasi-identifier tuples, and whose edge weights
are the entries of D.  Matching two datasets reduces to finding cliques in
the product graph built here: its vertices are label-equal record pairs
and its edges connect pairs whose distances agree up to the one
approximate-equality relation, an open band on the signed deviation
(QuantileBand; Absolute(eps) is its symmetric case).  The product comes
out of one sorted interval join as a CSR SimpleGraph, after a guard has
checked that the join's candidate edges fit in physical memory.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .clique import SimpleGraph, csr_graph
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
    labels = [table.qi_tuple(i) for i in range(len(table))]
    return LabeledWeightedGraph(labels, matrix)


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
) -> tuple:
    """Edges (x, y), x < y, of the product of two complete graphs, by one
    sorted interval join over all label pairs at once.

    A target pair v1 < v2 with weight t meets the ordered identification
    pairs w1 != w2 of the same label pair whose weight s lies in the
    closed window [fl(t + lo), fl(t + hi)].  That window needs no slack:
    rounding is monotone and leaves lo itself unchanged, so
    lo < fl(s - t) implies s - t > lo, hence s >= fl(t + lo); likewise
    s <= fl(t + hi).  rel.deviation_mask then decides every candidate, so
    the edge set is the scalar loop's.  A product vertex (v, w) has id
    base[v] + rank[w], its position in label_pairs order, so v1 < v2
    gives x < y and every edge comes out once.
    """
    common = {lab: k for k, lab in enumerate(sorted(set(target.labels) & set(ident.labels)))}
    t_lab = np.array([common.get(lab, -1) for lab in target.labels], dtype=np.int64)
    i_lab = np.array([common.get(lab, -1) for lab in ident.labels], dtype=np.int64)
    tv, iw = np.flatnonzero(t_lab >= 0), np.flatnonzero(i_lab >= 0)
    by_label = np.argsort(i_lab, kind="stable")
    # int32 ids: |V| <= n_target * n_ident, far below 2**31 at any size that fits
    rank = np.empty(len(i_lab), np.int32)
    rank[by_label] = np.arange(len(i_lab)) - np.searchsorted(i_lab[by_label], i_lab[by_label])
    count = np.zeros(len(t_lab), np.int32)
    count[tv] = np.bincount(i_lab[iw], minlength=len(common))[t_lab[tv]]
    base = np.cumsum(count, dtype=np.int32) - count

    a, b = np.triu_indices(len(tv), 1)
    v1, v2 = tv[a], tv[b]
    t_key = t_lab[v1] * len(common) + t_lab[v2]
    t = target.weights.entries[v1, v2]
    # visit the target pairs in (label pair, weight) order: the key searches
    # below then run on ascending queries, the weight searches on one
    # ascending run per label pair
    by_key = np.argsort(t_key * (len(t) + 1) + np.argsort(np.argsort(t)))
    v1, v2, t, t_key = v1[by_key], v2[by_key], t[by_key], t_key[by_key]
    a, b = np.triu_indices(len(iw), 1)
    w1, w2 = iw[np.concatenate((a, b))], iw[np.concatenate((b, a))]
    s = ident.weights.entries[iw[a], iw[b]]
    s_order = np.argsort(s)
    s_sorted = s[s_order]

    # sort the identification pairs by (label pair, weight) as one integer
    # key: label pair * span + the weight's position p in s_sorted.  Ties
    # take any positions, but count_below(s) <= p < count_at_or_below(s),
    # so a weight window [low, high] is the key range from the count
    # below low up to the count at or below high.  Keys stay below 2**63
    # for any pair of matrices that fits in memory.
    span = len(s) + 1
    key = (i_lab[w1] * len(common) + i_lab[w2]) * span + np.tile(np.argsort(s_order), 2)
    order = np.argsort(key)
    key, s, w1, w2 = key[order], np.tile(s, 2)[order], w1[order], w2[order]

    first = np.searchsorted(key, t_key * span + np.searchsorted(s_sorted, t + rel.lo, "left"))
    stop = np.searchsorted(key, t_key * span + np.searchsorted(s_sorted, t + rel.hi, "right"))
    hits = stop - first
    _check_edge_memory(int(count.sum()), int(hits.sum()))
    q = np.repeat(np.arange(len(t)), hits)
    c = np.arange(hits.sum()) + np.repeat(first - (np.cumsum(hits) - hits), hits)
    keep = rel.deviation_mask(t[q], s[c])
    q, c = q[keep], c[keep]
    return base[v1[q]] + rank[w1[c]], base[v2[q]] + rank[w2[c]]


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


#: bytes per candidate edge at the attack's peak (the join's candidate
#: arrays, the CSR, the solver's edge arrays): peak RSS grew by 63 and 49
#: per candidate over the 600x600 and 1000x1000 census attacks
BYTES_PER_CANDIDATE = 72


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
        graph = csr_graph(len(pairs), *_product_edges_join(target, ident, rel))
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
