"""Vertex-labelled edge-weighted graphs and the product-graph construction.

A dataset (T, D) maps to a complete graph whose vertices are the records
of T, labelled with their quasi-identifier tuples, and whose edge weights
are the entries of D.  Matching two datasets reduces to finding cliques in
the product graph built here: its vertices are label-equal record pairs
and its edges connect pairs whose distances agree up to the one
approximate-equality relation, an open band on the signed deviation
(QuantileBand; Absolute(eps) is its symmetric case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .clique import SimpleGraph
from .core import DistanceMatrix, MicrodataTable
from .errors import InputFormatError

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


def _product_edges_complete(
    target: LabeledWeightedGraph,
    ident: LabeledWeightedGraph,
    rel,
    tv: np.ndarray,
    iv: np.ndarray,
) -> list:
    """Vectorised adjacency for the complete-graph case.

    Works block-wise over vertex rows so memory stays bounded for large
    products.  Comparisons involve only IEEE subtraction and ordering, so
    the result is identical to the scalar loop, entry for entry.
    """
    nv = len(tv)
    wt = np.triu(target.weights.entries) + np.triu(target.weights.entries, 1).T
    wi = np.triu(ident.weights.entries) + np.triu(ident.weights.entries, 1).T
    rows = [0] * nv
    block = max(1, min(nv, 8 * 1024 * 1024 // max(nv, 1)))
    for start in range(0, nv, block):
        stop = min(start + block, nv)
        wt_blk = wt[np.ix_(tv[start:stop], tv)]
        wi_blk = wi[np.ix_(iv[start:stop], iv)]
        mask = rel.deviation_mask(wt_blk, wi_blk)
        mask &= tv[start:stop, None] != tv[None, :]
        mask &= iv[start:stop, None] != iv[None, :]
        packed = np.packbits(mask, axis=1, bitorder="little")
        for k in range(stop - start):
            rows[start + k] = int.from_bytes(packed[k].tobytes(), "little")
    return rows


def _product_edges_general(
    target: LabeledWeightedGraph,
    ident: LabeledWeightedGraph,
    rel,
    pairs: Sequence[tuple],
) -> list:
    """Scalar adjacency loop honouring missing edges.

    Two product vertices are adjacent when their record pairs are disjoint
    and either (a) both graphs have the edge and the weights agree up to
    rel, or (b) neither graph has the edge.
    """
    nv = len(pairs)
    rows = [0] * nv
    for x in range(nv):
        v1, w1 = pairs[x]
        for y in range(x + 1, nv):
            v2, w2 = pairs[y]
            if v1 == v2 or w1 == w2:
                continue
            et = target.has_edge(v1, v2)
            ei = ident.has_edge(w1, w2)
            if et and ei:
                ok = rel.holds(target.weight(v1, v2), ident.weight(w1, w2))
            else:
                ok = not et and not ei
            if ok:
                rows[x] |= 1 << y
                rows[y] |= 1 << x
    return rows


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
        tv = np.array([p[0] for p in pairs], dtype=np.intp)
        iv = np.array([p[1] for p in pairs], dtype=np.intp)
        rows = _product_edges_complete(target, ident, rel, tv, iv)
    else:
        rows = _product_edges_general(target, ident, rel, pairs)
    # adjacency is symmetric and loop-free by construction, skip revalidation
    return ProductGraph(pairs, SimpleGraph(len(pairs), rows, validate=False))


def product_vertex_count_check(
    target: LabeledWeightedGraph,
    ident: LabeledWeightedGraph,
) -> int:
    """Independent tally of the expected product vertex count: the sum over
    labels of (target multiplicity) times (identification multiplicity)."""
    from collections import Counter

    ct = Counter(target.labels)
    ci = Counter(ident.labels)
    return sum(ct[lab] * ci[lab] for lab in ct.keys() & ci.keys())
