"""The graph-theoretic linkage attack and its correctness oracles.

The attack links an anonymised target dataset to an identification
dataset in five steps: build both labelled weighted graphs, build their
product graph under an approximate-equality relation, find a maximum
clique, and read the clique's vertices off as record matches.  The
brute-force witness enumeration at the bottom of the module provides an
independent check that cliques of the product graph and approximate
common subgraphs of the two inputs are in one-to-one correspondence,
which is the fact the attack rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .clique import (
    DEFAULT_NODE_BUDGET,
    CliqueResult,
    count_cliques_of_size,
    enumerate_maximum_cliques,
    max_clique,
)
from .core import DistanceMatrix, MicrodataTable
from .errors import InputFormatError, SizeLimitError
from .graph import (
    LabeledWeightedGraph,
    ProductGraph,
    build_graph,
    build_product_graph,
    label_pairs,
)


@dataclass(frozen=True)
class MatchList:
    """Proposed record matches: (target_row, ident_row) pairs, 0-based.

    distance_supported is False when the matches come from a clique
    without edges (size 0 or 1), meaning no distance evidence backs
    them, only label coincidence.
    """

    matches: tuple
    distance_supported: bool = True

    def __post_init__(self) -> None:
        t_rows = [t for t, _ in self.matches]
        i_rows = [i for _, i in self.matches]
        if len(set(t_rows)) != len(t_rows) or len(set(i_rows)) != len(i_rows):
            raise InputFormatError("match list must be one-to-one")

    def __len__(self) -> int:
        return len(self.matches)

    def one_based(self) -> tuple:
        return tuple((t + 1, i + 1) for t, i in self.matches)


@dataclass(frozen=True)
class AttackReport:
    """Match list plus run diagnostics of one attack execution."""

    match_list: MatchList
    product_vertex_count: int
    clique: CliqueResult
    product: ProductGraph
    #: intersection of all maximum cliques, as matches; only filled when
    #: the attack was asked to enumerate ties
    stable_core: Optional[MatchList] = None
    maximum_clique_count: Optional[int] = None

    @property
    def matches(self) -> tuple:
        return self.match_list.matches


def _matches_from_vertices(product: ProductGraph, vertex_ids: Sequence[int]) -> MatchList:
    pairs = tuple(sorted(product.vertices[v] for v in vertex_ids))
    return MatchList(pairs, distance_supported=len(pairs) > 1)


def run_attack(
    target_table: MicrodataTable,
    target_matrix: DistanceMatrix,
    ident_table: MicrodataTable,
    ident_matrix: DistanceMatrix,
    rel,
    node_budget: int = DEFAULT_NODE_BUDGET,
    enumerate_ties: bool = False,
) -> AttackReport:
    """Run the linkage attack end to end.

    Returns the matches extracted from a maximum clique of the product
    graph; with enumerate_ties the report also carries the number of
    maximum cliques and their intersection (the stable match core).
    Deterministic for fixed inputs.
    """
    if tuple(target_table.qi_attributes) != tuple(ident_table.qi_attributes):
        raise InputFormatError("target and identification tables disagree on qi attributes")
    target_graph = build_graph(target_table, target_matrix)
    ident_graph = build_graph(ident_table, ident_matrix)
    product = build_product_graph(target_graph, ident_graph, rel)
    clique = max_clique(product.graph, node_budget)
    match_list = _matches_from_vertices(product, clique.vertices)
    stable_core = None
    n_maximum = None
    if enumerate_ties:
        all_max = enumerate_maximum_cliques(product.graph, node_budget)
        n_maximum = len(all_max)
        common = set(all_max[0])
        for other in all_max[1:]:
            common &= set(other)
        core = _matches_from_vertices(product, sorted(common))
        stable_core = MatchList(core.matches, match_list.distance_supported)
    return AttackReport(match_list, product.n, clique, product, stable_core, n_maximum)


def classical_linkage(
    target_table: MicrodataTable,
    ident_table: MicrodataTable,
) -> tuple:
    """Baseline linkage on labels alone: every row pair whose
    quasi-identifier tuples coincide, in lexicographic order.  Equals the
    product graph's vertex list."""
    if tuple(target_table.qi_attributes) != tuple(ident_table.qi_attributes):
        raise InputFormatError("target and identification tables disagree on qi attributes")
    return tuple(label_pairs(
        [target_table.qi_tuple(t) for t in range(len(target_table))],
        [ident_table.qi_tuple(i) for i in range(len(ident_table))]))


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
    product = build_product_graph(g1, g2, rel)
    for k in range(1, min(g1.n, g2.n) + 1):
        if len(enumerate_common_subgraphs(g1, g2, rel, k)) != count_cliques_of_size(product.graph, k):
            return False
    return True
