"""The graph-theoretic linkage attack.

The attack links an anonymised target dataset to an identification
dataset in five steps: build both labelled weighted graphs, build their
product graph under an approximate-equality relation, find a maximum
clique, and read the clique's vertices off as record matches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .clique import DEFAULT_NODE_BUDGET, CliqueResult, enumerate_maximum_cliques, max_clique
from .core import DistanceMatrix, MicrodataTable
from .errors import InputFormatError
from .graph import ProductGraph, build_graph, build_product_graph


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
    #: max_clique's result without its search, whose forward lists would
    #: take 8 bytes a product edge for as long as the report is kept
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
    maximum cliques and their intersection (the stable match core),
    from the tie pass resumed from that clique's search, whose nodes
    count against the same node_budget.  Deterministic for fixed inputs.
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
        all_max = enumerate_maximum_cliques(product.graph, node_budget, clique)
        n_maximum = len(all_max)
        core = _matches_from_vertices(product, set(all_max[0]).intersection(*all_max[1:]))
        stable_core = MatchList(core.matches, match_list.distance_supported)
    return AttackReport(match_list, product.n, replace(clique, _search=None), product,
                        stable_core, n_maximum)
