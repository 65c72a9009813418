"""Reference implementations that the test suite checks the attack against.

Nothing here runs in `distlink attack` or `simulate`; each function is a
brute-force or independent tally, kept small and obviously correct, for
small inputs only:

- brute_force_max_clique: the reference for max_clique's exact optimum
  (no colouring, no vertex reordering).
- count_cliques_of_size: the reference for enumerate_maximum_cliques'
  tie count, and the clique side of theorem1_check.
- enumerate_common_subgraphs: the approximate common subgraphs of two
  labelled weighted graphs by backtracking, the other side of
  theorem1_check.
- theorem1_check: the reference for build_product_graph, and for the
  attack's premise (the paper's Theorem 1): per order k, the product
  graph's k-cliques correspond one to one with the order-k approximate
  common subgraphs.
- product_vertex_count_check: the reference for the product's vertex
  count, a tally of label multiplicities.
- GeneralGraph and general_product_graph: graphs with absent edges and
  their product by the scalar definition, the reference for the join.

The clique oracles read a graph through adjacency_rows, a bitset view
(one int of n bits per vertex) that the solver never builds.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clique import CliqueResult, SimpleGraph, _bits, _check_clique, bitset_rows
from .errors import InputFormatError, SizeLimitError
from .graph import LabeledWeightedGraph, ProductGraph, VertexLabel, _pair_columns, build_product_graph


def adjacency_rows(g: SimpleGraph) -> list:
    """Row v is the int whose bit w is set when v and w are adjacent."""
    return bitset_rows(g.n, *g.edge_array())


def brute_force_max_clique(g: SimpleGraph, max_n: int = 25) -> CliqueResult:
    """Exhaustive oracle: recursively extend cliques in index order.

    Independent of the branch-and-bound solver (no colouring, no vertex
    reordering), which is what makes it a trustworthy cross-check.
    """
    if g.n > max_n:
        raise SizeLimitError(f"brute force limited to {max_n} vertices, got {g.n}")
    start = time.perf_counter()
    rows = adjacency_rows(g)
    best = [0, 0]
    nodes = [0]

    def extend(mask: int, size: int, cand: int) -> None:
        nodes[0] += 1
        if size > best[0]:
            best[0] = size
            best[1] = mask
        rest = cand
        while rest:
            b = rest & -rest
            v = b.bit_length() - 1
            rest ^= b
            extend(mask | b, size + 1, cand & rows[v] & ~((b << 1) - 1))

    extend(0, 0, (1 << g.n) - 1)
    vertices = tuple(sorted(_bits(best[1])))
    _check_clique(g, vertices)
    return CliqueResult(vertices, best[0], nodes[0], time.perf_counter() - start)


def count_cliques_of_size(g: SimpleGraph, k: int) -> int:
    """Number of vertex subsets of size k that are cliques, by recursive
    subset enumeration in index order.  k = 0 counts the empty clique."""
    if k < 0:
        raise InputFormatError("k must be nonnegative")
    if k == 0:
        return 1
    rows = adjacency_rows(g)

    def rec(depth: int, cand: int) -> int:
        if depth == k:
            return 1
        total = 0
        rest = cand
        while rest:
            b = rest & -rest
            v = b.bit_length() - 1
            rest ^= b
            nxt = cand & rows[v] & ~((b << 1) - 1)
            if k - depth - 1 <= nxt.bit_count():
                total += rec(depth + 1, nxt)
        return total

    return rec(0, (1 << g.n) - 1)


class GeneralGraph:
    """A LabeledWeightedGraph with edges only where present is True.  It has
    n, labels, has_edge and weight alone, so build_product_graph fails on it."""

    def __init__(self, graph: LabeledWeightedGraph, present: np.ndarray) -> None:
        present = np.array(present, dtype=bool)  # a copy: the caller's array may change
        if (present.shape != (graph.n, graph.n) or not np.array_equal(present, present.T)
                or np.any(np.diagonal(present))):
            raise InputFormatError("edge mask must be a symmetric n x n matrix with a False diagonal")
        present.setflags(write=False)
        self.n, self.labels, self.weight = graph.n, graph.labels, graph.weight
        self._present = present

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self._present[i, j])


def label_pairs(target_labels: Sequence[VertexLabel], ident_labels: Sequence[VertexLabel]) -> list:
    """Every label-equal (target, ident) index pair, in lexicographic
    order: the vertex set of the product graph."""
    pv, pw = _pair_columns(target_labels, ident_labels)[:2]
    return list(zip(pv.tolist(), pw.tolist()))


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


def general_product_graph(target, ident, rel) -> ProductGraph:
    """The product of two complete graphs or GeneralGraphs by its definition."""
    pairs = label_pairs(target.labels, ident.labels)
    edges = _product_edges_general(target, ident, rel, pairs)
    return ProductGraph(pairs, SimpleGraph.from_edges(len(pairs), edges))


@dataclass(frozen=True)
class CommonSubgraphWitness:
    """An order-k approximate common subgraph: vertex sets S and T with
    the label-preserving bijection phi between them."""

    S: tuple
    T: tuple
    phi: tuple  # pairs (s, phi(s)), s ascending

    def __post_init__(self) -> None:
        if len(self.S) != len(self.T):
            raise InputFormatError("witness sides must have equal size")


_WITNESS_ORDER_LIMIT = 7


def _edge_compatible(
    g1: LabeledWeightedGraph,
    g2: LabeledWeightedGraph,
    rel,
    s1: int,
    t1: int,
    s2: int,
    t2: int,
) -> bool:
    e1 = g1.has_edge(s1, s2)
    e2 = g2.has_edge(t1, t2)
    if e1 and e2:
        return rel.holds(g1.weight(s1, s2), g2.weight(t1, t2))
    return not e1 and not e2


def enumerate_common_subgraphs(
    g1: LabeledWeightedGraph,
    g2: LabeledWeightedGraph,
    rel,
    k: int,
) -> list:
    """All approximate common subgraphs of order exactly k, brute force.

    Enumerates label-preserving injections by backtracking: S is chosen
    in ascending vertex order, images unrestricted, the edge condition
    checked incrementally.  Restricted to small graphs by design."""
    if g1.n > _WITNESS_ORDER_LIMIT or g2.n > _WITNESS_ORDER_LIMIT:
        raise SizeLimitError(
            f"witness enumeration limited to order {_WITNESS_ORDER_LIMIT}")
    if k < 1:
        raise InputFormatError("witness order k must be >= 1")
    witnesses = []
    s_stack: list = []
    t_stack: list = []
    used: set = set()

    def rec() -> None:
        if len(s_stack) == k:
            witnesses.append(CommonSubgraphWitness(
                tuple(s_stack), tuple(t_stack),
                tuple(zip(s_stack, t_stack))))
            return
        lo = s_stack[-1] + 1 if s_stack else 0
        # keep enough vertices after s to finish the set
        for s in range(lo, g1.n - (k - len(s_stack)) + 1):
            for t in range(g2.n):
                if t in used:
                    continue
                if g1.labels[s] != g2.labels[t]:
                    continue
                if all(_edge_compatible(g1, g2, rel, s_stack[m], t_stack[m], s, t)
                       for m in range(len(s_stack))):
                    s_stack.append(s)
                    t_stack.append(t)
                    used.add(t)
                    rec()
                    used.discard(t)
                    t_stack.pop()
                    s_stack.pop()

    rec()
    return witnesses


def theorem1_check(g1: LabeledWeightedGraph, g2: LabeledWeightedGraph, rel) -> bool:
    """Cross-check the clique correspondence on a small instance.

    True iff, for every order k, the number of approximate common
    subgraphs found by brute force equals the number of k-cliques of the
    product graph.  Both sides are computed by independent enumerations."""
    if g1.n > _WITNESS_ORDER_LIMIT or g2.n > _WITNESS_ORDER_LIMIT:
        raise SizeLimitError(
            f"correspondence check limited to order {_WITNESS_ORDER_LIMIT}")
    general = isinstance(g1, GeneralGraph) or isinstance(g2, GeneralGraph)
    product = (general_product_graph if general else build_product_graph)(g1, g2, rel)
    for k in range(1, min(g1.n, g2.n) + 1):
        if len(enumerate_common_subgraphs(g1, g2, rel, k)) != count_cliques_of_size(product.graph, k):
            return False
    return True


def product_vertex_count_check(
    target: LabeledWeightedGraph,
    ident: LabeledWeightedGraph,
) -> int:
    """Independent tally of the expected product vertex count: the sum over
    labels of (target multiplicity) times (identification multiplicity)."""
    ct = Counter(target.labels)
    ci = Counter(ident.labels)
    return sum(ct[lab] * ci[lab] for lab in ct.keys() & ci.keys())
