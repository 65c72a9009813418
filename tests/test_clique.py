"""Exact maximum clique search, counting, bounds, DIMACS files."""

import collections
import hashlib
import itertools
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distlink import (
    InputFormatError,
    ResourceBudgetError,
    SimpleGraph,
    SizeLimitError,
    enumerate_maximum_cliques,
    max_clique,
    read_dimacs,
    write_dimacs,
)
from distlink import build_product_graph, clique, core, native
from distlink.clique import _Search, _colour_classes, _complements, bitset_rows
from distlink.oracles import adjacency_rows, brute_force_max_clique, count_cliques_of_size
from helpers import (
    CountingKernel,
    census_graphs,
    edge_array_root_split,
    exit_code,
    gather_branch_edges,
    gender_tie_product,
    inverted_row_colour_classes,
    on_both_paths,
    random_simple_graph,
    require_cc,
    require_compiled,
    symmetric_key_sort_csr,
    without_compiler,
)


def complete_graph(n):
    return SimpleGraph.from_edges(n, [(i, j) for i in range(n)
                                      for j in range(i + 1, n)])


def cycle_graph(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


#: SHA-256 of write_dimacs(random_simple_graph(default_rng(23), 30, 0.3))
#: as the bitset-row graph wrote it
RANDOM_DIMACS_SHA256 = "c66d81296dd101e905881856b5dcf210c398c25e854239413e6ea902d5478c2e"


class TestSimpleGraph:
    def test_from_edges_and_accessors(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 1), (1, 0)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.degree(1) == 2 and g.degree(3) == 0
        assert g.edge_count() == 2
        assert g.edges() == [(0, 1), (1, 2)]
        assert adjacency_rows(g) == [0b0010, 0b0101, 0b0010, 0]

    def test_edges_in_row_order(self):
        rng = np.random.default_rng(21)
        for n in (0, 1, 7, 8, 9, 40):
            g = random_simple_graph(rng, n, 0.3)
            assert g.edges() == [(i, j) for i in range(n) for j in range(i + 1, n)
                                 if g.has_edge(i, j)]
            assert adjacency_rows(SimpleGraph.from_edges(n, g.edges())) == adjacency_rows(g)

    def test_rejects_self_loop(self):
        with pytest.raises(InputFormatError, match="self-loop at vertex 0"):
            SimpleGraph.from_edges(2, [(0, 1), (0, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(InputFormatError, match=r"edge \(0, 5\) out of range"):
            SimpleGraph.from_edges(2, [(0, 5)])
        with pytest.raises(InputFormatError, match=r"edge \(-1, 1\) out of range"):
            SimpleGraph.from_edges(2, [(-1, 1)])
        with pytest.raises(InputFormatError, match="nonnegative"):
            SimpleGraph.from_edges(-1, [])

    def test_rejects_asymmetric_csr(self):
        with pytest.raises(InputFormatError, match="must be symmetric"):
            SimpleGraph(2, [0, 1, 1], [1])
        with pytest.raises(InputFormatError, match="must be symmetric"):
            SimpleGraph(3, [0, 1, 2, 2], [1, 2])

    def test_rejects_indptr_of_wrong_length(self):
        with pytest.raises(InputFormatError, match="indptr must be 4"):
            SimpleGraph(3, [0, 0, 0], [])
        with pytest.raises(InputFormatError, match="indptr must be 3"):
            SimpleGraph(2, [0, 1, 1], [1, 0])  # does not end at len(indices)
        with pytest.raises(InputFormatError, match="indptr must be 3"):
            SimpleGraph(2, [0, 2, 1], [1])  # decreasing
        with pytest.raises(InputFormatError, match="nonnegative"):
            SimpleGraph(-1, [0], [])

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(InputFormatError, match=r"edge \(0, 2\) out of range"):
            SimpleGraph(2, [0, 1, 2], [2, 0])
        with pytest.raises(InputFormatError, match=r"edge \(0, -1\) out of range"):
            SimpleGraph(2, [0, 1, 1], [-1])
        # ids are int32; checked before anything of size n is allocated
        with pytest.raises(InputFormatError, match=r"below 2\*\*31"):
            SimpleGraph.from_edges(2**31, [])

    def test_rejects_csr_self_loop(self):
        with pytest.raises(InputFormatError, match="self-loop at vertex 1"):
            SimpleGraph(2, [0, 1, 3], [1, 0, 1])

    def test_rejects_unsorted_or_repeated_neighbours(self):
        with pytest.raises(InputFormatError, match="each row strictly ascending"):
            SimpleGraph(3, [0, 2, 3, 4], [2, 1, 0, 0])
        with pytest.raises(InputFormatError, match="each row strictly ascending"):
            SimpleGraph(2, [0, 2, 3], [1, 1, 0])
        with pytest.raises(InputFormatError, match="each row strictly ascending"):
            SimpleGraph(2, [0, 2, 4], [1, 1, 0, 0])  # a repeated symmetric edge

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                       st.integers(0, max(n - 1, 0))), max_size=40))))
    def test_agrees_with_dense_adjacency(self, case):
        # random edge lists with repeated and reversed pairs (and, for
        # n <= 1, none at all) against a dense numpy adjacency matrix
        n, pairs = case
        pairs = [(i, j) for i, j in pairs if i != j]
        dense = np.zeros((n, n), bool)
        for i, j in pairs:
            dense[i, j] = dense[j, i] = True
        g = SimpleGraph.from_edges(n, pairs)
        assert g.n == n
        assert [[g.has_edge(i, j) for j in range(n)] for i in range(n)] == dense.tolist()
        assert [g.degree(i) for i in range(n)] == dense.sum(axis=1).tolist()
        assert g.edge_count() == int(np.triu(dense).sum())
        assert g.edges() == [tuple(e) for e in np.argwhere(np.triu(dense)).tolist()]
        assert SimpleGraph(n, g.indptr, g.indices).edges() == g.edges()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                       st.integers(0, max(n - 1, 0))), max_size=40))),
        st.sampled_from([1, 3, clique.BLOCK]))
    def test_csr_bytes_equal_key_sort_oracle(self, case, block):
        # the from_edges contract: repeated and reversed pairs merge
        n, pairs = case
        x, y = np.array([(i, j) for i, j in pairs if i != j], dtype=np.int64).reshape(-1, 2).T
        _assert_csr_equals_oracle(n, x, y, block)

    def test_large_csr_bytes_equal_key_sort_oracle(self):
        rng = np.random.default_rng(28)
        n = 300
        x, y = rng.integers(0, n, (2, 4000), dtype=np.int32)
        x, y = x[x != y], y[x != y]
        x, y = np.concatenate((x, y[:500])), np.concatenate((y, x[:500]))  # reversed repeats
        for block in (1, 7, 64, clique.BLOCK):
            _assert_csr_equals_oracle(n, x, y, block)

    def test_trusted_int32_indices_are_kept(self):
        g = clique.csr_graph(3, np.array([0 * 3 + 2, 1 * 3 + 2], np.int64))  # edges (0, 2), (1, 2)
        assert g.edges() == [(0, 2), (1, 2)]
        assert SimpleGraph(3, g.indptr, g.indices, validate=False).indices is g.indices

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.lists(st.integers(-1, n), max_size=4), min_size=n, max_size=n))))
    def test_constructor_accepts_exactly_valid_csr(self, case):
        # rows of arbitrary ids: accepted iff every id is in range, no row
        # holds its own vertex, rows strictly ascend and the rows are symmetric
        n, rows = case
        valid = all(0 <= j < n and j != i for i, row in enumerate(rows) for j in row) \
            and all(row == sorted(set(row)) for row in rows) \
            and all(i in rows[j] for i, row in enumerate(rows) for j in row)
        indptr = np.cumsum([0] + [len(row) for row in rows])
        indices = [j for row in rows for j in row]
        if valid:
            g = SimpleGraph(n, indptr, indices)
            assert [[j for j in range(n) if g.has_edge(i, j)] for i in range(n)] == rows
        else:
            with pytest.raises(InputFormatError):
                SimpleGraph(n, indptr, indices)

    def test_write_dimacs_output_unchanged(self, tmp_path):
        # the file the bitset-row graph wrote for this graph, byte for byte
        g = SimpleGraph.from_edges(6, [(4, 1), (0, 5), (1, 4), (2, 3), (0, 1), (5, 3)])
        write_dimacs(g, tmp_path / "g.dimacs", comment="two\nlines")
        assert (tmp_path / "g.dimacs").read_bytes() == (
            b"c two\nc lines\np edge 6 5\ne 1 2\ne 1 6\ne 2 5\ne 3 4\ne 4 6\n")
        rng = np.random.default_rng(23)
        g = random_simple_graph(rng, 30, 0.3)
        write_dimacs(g, tmp_path / "r.dimacs")
        digest = hashlib.sha256((tmp_path / "r.dimacs").read_bytes()).hexdigest()
        assert digest == RANDOM_DIMACS_SHA256

    def test_huge_sparse_graph_needs_no_square_buffer(self, tmp_path):
        # n * ceil(n / 8) bytes would be about 312 MB here
        n = 50_000
        tracemalloc.start()
        try:
            g = SimpleGraph.from_edges(n, [(0, n - 1), (7, 3), (n - 1, 7)])
            assert (g.edge_count(), g.degree(n - 1), g.degree(1)) == (3, 2, 0)
            assert g.edges() == [(0, n - 1), (3, 7), (7, n - 1)]
            write_dimacs(g, tmp_path / "g.dimacs")
            h = read_dimacs(tmp_path / "g.dimacs")
            assert h.n == n and h.edges() == g.edges()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


def _assert_csr_equals_oracle(n, x, y, block):
    """csr_graph at the given block size, on the edges' keys in reverse
    order and through from_edges, gives the one-sort CSR's bytes."""
    indptr, indices = symmetric_key_sort_csr(n, x, y)
    key = np.minimum(x, y).astype(np.int64) * n + np.maximum(x, y)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clique, "BLOCK", block)
        graphs = [clique.csr_graph(n, key[::-1].copy()),
                  SimpleGraph.from_edges(n, np.stack((x, y), axis=1))]
    for g in graphs:
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
        assert g.indptr.tobytes() == indptr.tobytes() and g.indices.tobytes() == indices.tobytes()


class TestMaxClique:
    def test_complete_graph(self):
        r = max_clique(complete_graph(5))
        assert r.size == 5 and r.vertices == (0, 1, 2, 3, 4)

    def test_edgeless_graph(self):
        r = max_clique(SimpleGraph.from_edges(4, []))
        assert r.size == 1

    def test_empty_graph(self):
        r = max_clique(SimpleGraph.from_edges(0, []))
        assert r.size == 0 and r.vertices == ()

    def test_cycle_of_five(self):
        assert max_clique(cycle_graph(5)).size == 2

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            g = random_simple_graph(rng, 14, float(rng.uniform(0.2, 0.8)))
            assert max_clique(g).size == brute_force_max_clique(g).size

    def test_result_is_pairwise_adjacent(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            g = random_simple_graph(rng, 16, 0.5)
            r = max_clique(g)
            for a, b in itertools.combinations(r.vertices, 2):
                assert g.has_edge(a, b)

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        g = random_simple_graph(rng, 18, 0.6)
        assert max_clique(g).vertices == max_clique(g).vertices

    def test_node_budget_exhaustion_raises(self):
        rng = np.random.default_rng(16)
        g = random_simple_graph(rng, 30, 0.7)
        with pytest.raises(ResourceBudgetError):
            max_clique(g, node_budget=3)

    def test_reports_search_effort(self):
        g = complete_graph(6)
        r = max_clique(g)
        assert r.nodes_explored >= 1
        assert r.elapsed_seconds >= 0.0


class TestCheckClique:
    """The one-gather clique check raises exactly when a pair of members
    is not adjacent, and the message names such a pair."""

    @pytest.mark.parametrize("vertices", [(), (3,), (1, 2)])
    def test_cliques_of_size_zero_to_two_pass(self, vertices):
        clique._check_clique(SimpleGraph.from_edges(5, [(1, 2)]), vertices)

    def test_non_clique_names_a_missing_pair(self):
        g = SimpleGraph.from_edges(5, [e for e in itertools.combinations(range(5), 2)
                                       if e != (1, 3)])
        with pytest.raises(AssertionError, match=r"not pairwise adjacent: 1, 3$"):
            clique._check_clique(g, (0, 1, 3, 4))
        with pytest.raises(AssertionError, match=r"not pairwise adjacent: 0, 1$"):
            clique._check_clique(SimpleGraph.from_edges(3, [(1, 2)]), (0, 1))

    @pytest.mark.parametrize("search", [max_clique, enumerate_maximum_cliques])
    def test_searches_check_what_they_report(self, monkeypatch, search):
        g = SimpleGraph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        monkeypatch.setattr(clique._Search, "vertices", lambda self, mask: (0, 1, 3))
        with pytest.raises(AssertionError, match=r"not pairwise adjacent: 0, 3$"):
            search(g)

    def test_agrees_with_the_pairwise_loop(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            g = random_simple_graph(rng, 12, float(rng.uniform(0.5, 0.95)))
            members = tuple(sorted(rng.choice(12, int(rng.integers(0, 7)), replace=False).tolist()))
            adjacent = all(g.has_edge(a, b) for a, b in itertools.combinations(members, 2))
            if adjacent:
                clique._check_clique(g, members)
            else:
                with pytest.raises(AssertionError):
                    clique._check_clique(g, members)


def _relabel_by_shifts(g):
    """The solver's set-up as a per-edge loop: order vertices by
    descending degree, ties by index, and move every edge to the new
    labels with one |V|-bit shift per endpoint."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    pos = {v: k for k, v in enumerate(order)}
    adj = adjacency_rows(g)
    rows = [0] * g.n
    for v in range(g.n):
        for w in range(g.n):
            if adj[v] >> w & 1:
                rows[pos[v]] |= 1 << pos[w]
    return order, rows


#: (seed, n, p) of helpers.random_simple_graph, then max_clique's vertices
#: and nodes_explored, the number of maximum cliques and the first one
#: enumerated, as the solver gave them with the per-edge shift set-up
SEARCH_RESULTS = [
    (1, 40, 0.5, (7, 11, 18, 26, 27, 28, 35), 14, 10, (0, 3, 5, 6, 15, 17, 18)),
    (2, 60, 0.3, (4, 9, 24, 25, 29, 34), 33, 5, (3, 13, 17, 36, 39, 48)),
    (3, 80, 0.6, (6, 8, 16, 20, 24, 35, 38, 55, 70, 71, 73), 254, 1,
     (6, 8, 16, 20, 24, 35, 38, 55, 70, 71, 73)),
    (4, 25, 0.9, (1, 3, 7, 8, 9, 11, 14, 15, 16, 19, 20, 22), 12, 7,
     (1, 3, 7, 8, 9, 11, 14, 15, 16, 19, 20, 22)),
    (5, 120, 0.15, (1, 12, 62, 83, 118), 41, 3, (1, 12, 62, 83, 118)),
    (6, 70, 0.75, (5, 8, 16, 17, 18, 23, 29, 39, 42, 49, 50, 59, 64, 65, 66), 307, 4,
     (5, 8, 16, 17, 18, 23, 29, 39, 42, 49, 50, 59, 64, 65, 66)),
]


class TestColourClasses:
    """The complement-mask colouring against the class-by-class oracle."""

    def test_complements_are_nonnegative_and_exclude_the_vertex(self):
        rng = np.random.default_rng(30)
        for n in (0, 1, 9, 70):
            rows = adjacency_rows(random_simple_graph(rng, n, 0.4))
            outs = _complements(rows)
            full = (1 << n) - 1
            for v, (row, out) in enumerate(zip(rows, outs)):
                assert out >= 0 and not out >> v & 1 and not out & row
                assert out | row | 1 << v == full

    def test_lists_the_oracle_colours_above_kmin(self):
        rng = np.random.default_rng(31)
        graphs = [SimpleGraph.from_edges(0, []), SimpleGraph.from_edges(6, []), complete_graph(9)]
        for _ in range(80):
            graphs.append(random_simple_graph(rng, int(rng.integers(0, 71)),
                                              float(rng.uniform(0.02, 0.95))))
        for g in graphs:
            rows = adjacency_rows(g)
            outs = _complements(rows)
            some = sum(1 << int(v) for v in np.flatnonzero(rng.random(g.n) < 0.5))
            for cand in ((1 << g.n) - 1, some):
                want = inverted_row_colour_classes(rows, cand)
                top = max((colour for _, colour in want), default=0)
                for kmin in range(-1, top + 2):
                    assert _colour_classes(outs, cand, kmin) == [
                        (v, colour) for v, colour in want if colour > kmin]


class TestSearchSetup:
    def test_relabel_equals_shift_loop(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            g = random_simple_graph(rng, int(rng.integers(0, 70)),
                                    float(rng.uniform(0.02, 0.9)))
            search = _Search(g, node_budget=10**6)
            assert (search.order, search.rows) == _relabel_by_shifts(g)

    @pytest.mark.parametrize("seed, n, p, vertices, nodes, n_maximum, first", SEARCH_RESULTS)
    def test_results_unchanged(self, seed, n, p, vertices, nodes, n_maximum, first):
        g = random_simple_graph(np.random.default_rng(seed), n, p)
        r = max_clique(g)
        assert (r.vertices, r.nodes_explored) == (vertices, nodes)
        found = enumerate_maximum_cliques(g)
        assert (len(found), found[0]) == (n_maximum, first)


def _solve(g):
    r = max_clique(g)
    return r.vertices, r.nodes_explored, enumerate_maximum_cliques(g, clique=r)


def _nodes(g, keep_ties):
    """The nodes max_clique spends on g, or, keeping ties, those it and
    the tie pass resumed from it spend together."""
    search = _Search(g, 10**8)
    return search.resumed(10**8).nodes if keep_ties else search.nodes


#: shuffle seed of helpers.gender_tie_product, then |V|, |E|, omega,
#: max_clique's vertices and nodes_explored, the number of maximum cliques,
#: the first one and the nodes of the keep-ties search from the empty
#: clique (the tie pass's oracle), as the negative-mask colouring gave them
TIE_PRODUCT_RESULTS = [
    (1, 810, 19164, 8, (18, 150, 163, 308, 385, 454, 557, 809), 396, 3,
     (18, 150, 163, 308, 385, 454, 557, 809), 679),
    (3, 810, 19164, 8, (222, 261, 319, 377, 451, 476, 579, 655), 389, 3,
     (84, 201, 414, 428, 491, 524, 530, 600), 558),
    (4, 810, 19164, 8, (0, 118, 176, 341, 361, 424, 593, 763), 410, 3,
     (0, 118, 176, 341, 361, 424, 593, 737), 684),
]


@pytest.mark.parametrize("seed, n, edges, omega, vertices, nodes, n_maximum, first, tie_nodes",
                         TIE_PRODUCT_RESULTS)
def test_tie_product_results_unchanged_on_both_paths(seed, n, edges, omega, vertices, nodes,
                                                     n_maximum, first, tie_nodes):
    g = gender_tie_product(seed)
    assert (g.n, g.edge_count(), len(vertices)) == (n, edges, omega)
    for found_vertices, found_nodes, found in on_both_paths(_solve, g):
        assert (found_vertices, found_nodes) == (vertices, nodes)
        assert (len(found), found[0]) == (n_maximum, first)
    assert on_both_paths(lambda g: _Search(g, 10**8, keep_ties=True).nodes, g) == [tie_nodes] * 2


def _planted_clique_graph():
    """A sparse random graph on 6,000 vertices, above SPLIT_MIN_VERTICES,
    with a 12-clique planted in it, and the planted vertices."""
    rng = np.random.default_rng(26)
    n, k = 6000, 12
    x, y = rng.integers(0, n, (2, 60000))
    planted = np.sort(rng.choice(n, k, replace=False))
    a, b = np.triu_indices(k, 1)
    edges = np.concatenate([np.stack([x, y], 1)[x != y],
                            np.stack([planted[a], planted[b]], 1)])
    return SimpleGraph.from_edges(n, edges), tuple(planted.tolist())


#: the nodes max_clique and the tie pass resumed from it spend together,
#: and the stable core (the vertices every maximum clique shares), on
#: _tie_pass_graphs, as the tie pass with one branch call per root gave them
TIE_PASS_RESULTS = [
    (470, ()), (459, ()), (474, ()), (67, ()), (65, ()),
    (460, (6, 8, 16, 20, 24, 35, 38, 55, 70, 71, 73)), (53, (9, 11, 14, 15, 16, 19, 20)),
    (79, ()), (419, (29, 50, 66)),
]


def _tie_pass_graphs():
    """The three tie products, then SEARCH_RESULTS' graphs."""
    return ([gender_tie_product(seed) for seed, *_ in TIE_PRODUCT_RESULTS]
            + [random_simple_graph(np.random.default_rng(seed), n, p) for seed, n, p, *_ in SEARCH_RESULTS])


def _recorded_searches():
    """(vertices, nodes, number of maximum cliques, first one) recorded
    for each of _tie_pass_graphs."""
    return ([(vertices, nodes, n_maximum, first)
             for _, _, _, _, vertices, nodes, n_maximum, first, _ in TIE_PRODUCT_RESULTS]
            + [(vertices, nodes, n_maximum, first)
               for _, _, _, vertices, nodes, n_maximum, first in SEARCH_RESULTS])


class TestResumedTiePass:
    """The tie pass resumed from max_clique's search against the keep-ties
    search from the empty clique, which stays as its oracle."""

    @staticmethod
    def _against_oracle(g):
        oracle = _Search(g, 10**8, keep_ties=True)
        want = sorted(oracle.vertices(m) for m in oracle.best_masks)
        r = max_clique(g)
        assert enumerate_maximum_cliques(g, clique=r) == want
        total = r._search.resumed(10**8).nodes  # r is left as it was
        assert r.nodes_explored <= total <= oracle.nodes
        return want, total

    def test_random_graphs(self):
        rng = np.random.default_rng(36)
        graphs = [SimpleGraph.from_edges(0, []), SimpleGraph.from_edges(9, []), complete_graph(12)]
        # the oracle takes seconds on 90 vertices or more at density 0.95
        for sizes, densities in (((1, 2, 5, 12, 30, 60), (0.05, 0.35, 0.65, 0.95)),
                                 ((90, 120), (0.05, 0.35, 0.65, 0.8))):
            for n, p in itertools.product(sizes, densities):
                graphs.append(random_simple_graph(rng, n, p))
        several = 0
        for g in graphs:
            split, unsplit = on_both_paths(self._against_oracle, g)
            assert split == unsplit
            several += len(split[0]) > 1
        assert several >= len(graphs) // 2

    def test_planted_clique_above_split_threshold(self):
        g = _planted_clique_graph()[0]
        assert g.n > clique.SPLIT_MIN_VERTICES
        split, unsplit = on_both_paths(self._against_oracle, g)
        assert split == unsplit

    @pytest.mark.parametrize("seed", [seed for seed, *_ in TIE_PRODUCT_RESULTS])
    def test_tie_products(self, seed):
        split, unsplit = on_both_paths(self._against_oracle, gender_tie_product(seed))
        assert split == unsplit and len(split[0]) == 3

    def test_clique_of_another_graph_refused(self):
        g, h = complete_graph(4), complete_graph(4)
        with pytest.raises(InputFormatError, match="not max_clique's result on this graph"):
            enumerate_maximum_cliques(g, clique=max_clique(h))
        with pytest.raises(InputFormatError):
            enumerate_maximum_cliques(g, clique=brute_force_max_clique(g))

    def test_budget_counts_on_from_max_clique(self):
        g = random_simple_graph(np.random.default_rng(37), 60, 0.5)
        r = max_clique(g)
        total = r._search.resumed(10**8).nodes
        assert total > r.nodes_explored
        assert enumerate_maximum_cliques(g, total, r) == enumerate_maximum_cliques(g)
        for budget in (total - 1, r.nodes_explored - 1):
            with pytest.raises(ResourceBudgetError):
                enumerate_maximum_cliques(g, budget, r)

    @pytest.mark.parametrize("chunk", [3, 128])
    def test_batched_tie_pass_on_both_paths(self, monkeypatch, chunk):
        # the split tie pass takes its roots chunk at a time: the same
        # cliques, stable core and node counts as the unsplit numpy search
        monkeypatch.setattr(clique, "CHUNK", chunk)

        def outcome(g):
            r = max_clique(g)
            found = enumerate_maximum_cliques(g, clique=r)
            core = tuple(sorted(set.intersection(*map(set, found))))
            return r.vertices, r.nodes_explored, found, core, r._search.resumed(10**8).nodes

        for g, (vertices, nodes, n_maximum, first), (total, core) in zip(
                _tie_pass_graphs(), _recorded_searches(), TIE_PASS_RESULTS):
            split, unsplit = on_both_paths(outcome, g)
            assert split == unsplit
            assert split[:2] == (vertices, nodes) and (len(split[2]), split[2][0]) == (n_maximum, first)
            assert split[3:] == (core, total)

    def test_tie_pass_resumes_twice_on_both_paths(self):
        # resumed() reads max_clique's tie record without consuming it or
        # handing it to its copy: a second pass on the same result finds
        # the same cliques and spends the same nodes
        def twice(g):
            r = max_clique(g)
            passes = [(enumerate_maximum_cliques(g, clique=r), r._search.resumed(10**8).nodes)
                      for _ in range(2)]
            assert passes[0] == passes[1]
            return passes[0]

        for g, (total, _) in zip(_tie_pass_graphs(), TIE_PASS_RESULTS):
            split, unsplit = on_both_paths(twice, g)
            assert split == unsplit and split[1] == total

    def test_budget_below_the_tie_pass_total_on_both_paths(self, monkeypatch):
        # chunks of 3 roots, so that a budget runs out inside a chunk
        # whose bounds and edges are already computed
        monkeypatch.setattr(clique, "CHUNK", 3)
        for g, (total, _) in zip(_tie_pass_graphs(), TIE_PASS_RESULTS):
            nodes = max_clique(g).nodes_explored
            for budget in sorted({total, total - 1, total - 2, total - 5, (nodes + total) // 2,
                                  nodes + 1, nodes}):
                outcomes = on_both_paths(lambda g: enumerate_maximum_cliques(g, budget), g)
                assert outcomes == [outcomes[0]] * 2
                assert (outcomes[0] is ResourceBudgetError) == (budget < total)

    def test_tie_pass_calls_branches_once_per_chunk(self, monkeypatch):
        require_compiled()
        kernel = native.kernel()
        monkeypatch.setattr(native, "KERNEL_MIN_SIZE", -1)
        for g in _tie_pass_graphs()[:3]:
            search = _Search(g, 10**8)
            assert search.level is not None  # split
            roots = len(search.ties)
            for chunk in (7, 128):
                monkeypatch.setattr(clique, "CHUNK", chunk)
                # the sweep's root level and kernel, which the tie pass reuses
                search.level.kernel = counting = CountingKernel(kernel, "branches")
                search.resumed(10**8)
                assert counting.calls == -(-roots // chunk) < roots

    def test_split_search_builds_one_root_level(self, monkeypatch):
        # the tie pass streams its roots from the sweep's own root level,
        # on the compiled kernels and on the numpy split alike
        built = []
        real = clique._RootLevel
        monkeypatch.setattr(clique, "_RootLevel", lambda *args: built.append(args) or real(*args))
        monkeypatch.setattr(native, "KERNEL_MIN_SIZE", -1)
        monkeypatch.setattr(clique, "SPLIT_MIN_VERTICES", -1)
        for g, (_, _, n_maximum, _) in zip(_tie_pass_graphs()[:3], _recorded_searches()):
            for search in (enumerate_maximum_cliques, lambda g: _numpy(enumerate_maximum_cliques, g)):
                built.clear()
                assert len(search(g)) == n_maximum
                assert len(built) == 1


def _special_graphs():
    yield SimpleGraph.from_edges(0, [])
    yield SimpleGraph.from_edges(5, [])
    yield complete_graph(7)
    yield SimpleGraph.from_edges(7, [(0, 1), (0, 2), (1, 2), (4, 5)])  # 3 and 6 isolated
    yield cycle_graph(5)
    for seed, n, p, *_ in SEARCH_RESULTS:
        yield random_simple_graph(np.random.default_rng(seed), n, p)


@st.composite
def small_graphs(draw, max_n=14):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


class TestRootSplit:
    """The root split against the unsplit search it must reproduce."""

    def test_same_results_as_unsplit(self):
        rng = np.random.default_rng(25)
        graphs = list(_special_graphs())
        for _ in range(300):
            graphs.append(random_simple_graph(rng, int(rng.integers(0, 50)),
                                              float(rng.uniform(0.02, 0.95))))
        for g in graphs:
            split, unsplit = on_both_paths(_solve, g)
            assert split == unsplit

    def test_recorded_results_on_split_path(self, monkeypatch):
        monkeypatch.setattr(native, "KERNEL_MIN_SIZE", -1)
        monkeypatch.setattr(clique, "SPLIT_MIN_VERTICES", -1)
        for seed, n, p, vertices, nodes, n_maximum, first in SEARCH_RESULTS:
            g = random_simple_graph(np.random.default_rng(seed), n, p)
            r = max_clique(g)
            assert (r.vertices, r.nodes_explored) == (vertices, nodes)
            found = enumerate_maximum_cliques(g)
            assert (len(found), found[0]) == (n_maximum, first)

    def test_split_follows_the_kernel_floor(self, monkeypatch, tmp_path):
        # with the kernels, split above native.KERNEL_MIN_SIZE, the floor
        # the product build shares; without them, above SPLIT_MIN_VERTICES only
        require_compiled()
        g = gender_tie_product(1)
        assert native.KERNEL_MIN_SIZE < g.n <= clique.SPLIT_MIN_VERTICES
        assert _Search(g, 10**8).level is not None
        for floor, split in ((g.n, False), (g.n - 1, True)):
            monkeypatch.setattr(native, "KERNEL_MIN_SIZE", floor)
            assert (_Search(g, 10**8).level is not None) == split
        monkeypatch.undo()
        with without_compiler(tmp_path):
            assert _Search(g, 10**8).level is None
            monkeypatch.setattr(clique, "SPLIT_MIN_VERTICES", g.n - 1)
            assert _Search(g, 10**8).level is not None

    def test_wide_sparse_graph_with_planted_clique(self):
        g, planted = _planted_clique_graph()
        assert g.n > clique.SPLIT_MIN_VERTICES
        split, unsplit = on_both_paths(_solve, g)
        assert split == unsplit
        assert split[0] == planted and split[2] == [split[0]]

    def test_node_budget(self):
        for g in _special_graphs():
            for keep_ties in (False, True):
                search = enumerate_maximum_cliques if keep_ties else max_clique
                nodes = _nodes(g, keep_ties)
                if nodes:  # the empty graph spends none
                    exhausted = on_both_paths(lambda g: search(g, node_budget=nodes - 1), g)
                    assert exhausted == [ResourceBudgetError] * 2
                split, unsplit = on_both_paths(lambda g: search(g, node_budget=nodes), g)
                if not keep_ties:
                    assert split.nodes_explored == unsplit.nodes_explored == nodes
                    split, unsplit = split.vertices, unsplit.vertices
                assert split == unsplit

    def test_root_split_colours_equal_colour_classes(self):
        rng = np.random.default_rng(27)
        for _ in range(60):
            g = random_simple_graph(rng, int(rng.integers(0, 80)),
                                    float(rng.uniform(0.02, 0.95)))
            identity = np.arange(g.n)
            colours = dict(inverted_row_colour_classes(adjacency_rows(g), (1 << g.n) - 1))
            for block in (1, 5, 256):
                level = clique._RootLevel(g, identity, identity, native.kernel(), block)
                assert dict(zip(level.sweep, level.colours)) == colours

    def test_root_split_equals_edge_array_set_up(self):
        rng = np.random.default_rng(29)
        graphs = [random_simple_graph(rng, int(rng.integers(0, 80)), float(rng.uniform(0.02, 0.95)))
                  for _ in range(30)]
        graphs += [_with_isolated_tail(g) for g in graphs[:5]]
        graphs.append(build_product_graph(*census_graphs(300)).graph)
        assert graphs[-1].n > clique.SPLIT_MIN_VERTICES
        for g in graphs:
            order = np.argsort(-np.diff(g.indptr), kind="stable")
            pos = np.empty(g.n, np.int32)
            pos[order] = np.arange(g.n)
            want = edge_array_root_split(g)
            for block in (1, 5, 256):
                # the compiled kernel where it builds, then the numpy code
                for kernel in (native.kernel(), None):
                    level = clique._RootLevel(g, order, pos, kernel, block)
                    assert (level.sweep, level.colours) == want[:2]
                    assert level.indptr.tobytes() == want[2].tobytes()
                    assert level.adj.tobytes() == want[3].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_agrees_with_brute_force_and_networkx(self, g):
        nx = pytest.importorskip("networkx")
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(native, "KERNEL_MIN_SIZE", -1)
            mp.setattr(clique, "SPLIT_MIN_VERTICES", -1)
            r = max_clique(g)
            found = enumerate_maximum_cliques(g)
        assert r.size == brute_force_max_clique(g).size == nx.max_weight_clique(h, weight=None)[1]
        assert len(found) == count_cliques_of_size(g, r.size) and r.vertices in found


def _with_workers(search, g, cpus, chunk=4, lazy=0, forks=None):
    """search(g) split at the root, its branches' bounds and edges from
    forked workers when cpus > 1 (chunks of chunk branches, after the
    first lazy chunks), computed in this process when cpus == 1; an
    exhausted budget counts as an outcome.  Unless the search exhausts its
    budget, workers must have started exactly when forks says, by default
    when cpus > 1 and the sweep has two chunks."""
    started = []
    real = clique.forked
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "KERNEL_MIN_SIZE", -1)
        mp.setattr(clique, "SPLIT_MIN_VERTICES", -1)
        mp.setattr(clique, "CHUNK", chunk)
        mp.setattr(clique, "LAZY_CHUNKS", lazy)
        mp.setattr(clique, "worker_cpus", lambda: cpus)
        mp.setattr(clique, "forked", lambda *args: started.append(args) or real(*args))
        try:
            out = search(g)
        except ResourceBudgetError:
            out = ResourceBudgetError
    if out is not ResourceBudgetError:  # without lazy chunks, workers start with the first branch
        assert bool(started) == (cpus > 1 and g.n > chunk if forks is None else forks)
    assert multiprocessing.active_children() == []
    return out


def _killed_after(calls):
    """A _RootLevel.chunk, the call sweep workers make, that kills the
    worker process calling it on that process's calls-th call."""
    real = clique._RootLevel.chunk
    counts = collections.Counter()

    def chunk(self, vs):
        counts[os.getpid()] += 1
        if multiprocessing.parent_process() is not None and counts[os.getpid()] == calls:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(self, vs)

    return chunk


def _search_in_child(g, outbox):
    """max_clique(g) in a forked child, with forking itself refused: sends
    (worker_cpus(), the clique) or the error."""
    def refuse(*args, **kwargs):
        raise AssertionError("a worker started inside a child process")

    clique.multiprocessing.get_context = refuse
    try:
        outbox.send((clique.worker_cpus(), max_clique(g).vertices))
    except Exception as exc:
        outbox.send(repr(exc))


class TestParallelSweep:
    """The sweep fed by forked workers against the sweep that computes
    every branch itself, which stays as the oracle."""

    def test_bounds_and_edges_equal_gather_oracle(self):
        rng = np.random.default_rng(31)
        graphs = [random_simple_graph(rng, int(rng.integers(0, 80)), float(rng.uniform(0.02, 0.95)))
                  for _ in range(30)]
        graphs.append(build_product_graph(*census_graphs(300)).graph)
        for g in graphs:
            order = np.argsort(-np.diff(g.indptr), kind="stable")
            pos = np.empty(g.n, np.int64)
            pos[order] = np.arange(g.n)
            level = clique._RootLevel(g, order, pos, native.kernel())
            for v in level.sweep[:600]:
                (bound,), _, a, b = level.chunk([v])
                want = gather_branch_edges(level.indptr, level.adj, v)
                assert bound == want[0]
                assert a.tolist() == want[1].tolist() and b.tolist() == want[2].tolist()

    def test_same_results_with_and_without_workers(self):
        rng = np.random.default_rng(32)
        graphs = list(_special_graphs())
        for _ in range(12):
            graphs.append(random_simple_graph(rng, int(rng.integers(20, 70)),
                                              float(rng.uniform(0.05, 0.9))))
        for g in graphs:
            assert _with_workers(_solve, g, 2) == _with_workers(_solve, g, 1)
        g = graphs[-1]
        assert _with_workers(_solve, g, 3, chunk=1) == _with_workers(_solve, g, 1)

    def test_census_product(self):
        g = build_product_graph(*census_graphs(300)).graph
        assert g.n > 4096
        for chunk in (128, 7):
            assert _with_workers(_solve, g, 2, chunk) == _with_workers(_solve, g, 1)

    def test_node_budget(self):
        g = random_simple_graph(np.random.default_rng(33), 60, 0.5)
        for search in (max_clique, enumerate_maximum_cliques):
            nodes = _with_workers(lambda g: _nodes(g, search is not max_clique), g, 1)
            for cpus in (1, 2):
                assert _with_workers(lambda g: search(g, node_budget=nodes - 1), g, cpus) \
                    is ResourceBudgetError

    def test_killed_worker_changes_nothing(self, monkeypatch):
        g = random_simple_graph(np.random.default_rng(34), 70, 0.4)
        want = _with_workers(_solve, g, 1)
        for calls in (1, 2):
            monkeypatch.setattr(clique._RootLevel, "chunk", _killed_after(calls))
            assert _with_workers(_solve, g, 2) == want

    def test_no_worker_inside_a_child_process(self, monkeypatch):
        monkeypatch.setattr(native, "KERNEL_MIN_SIZE", -1)
        monkeypatch.setattr(clique, "SPLIT_MIN_VERTICES", -1)
        monkeypatch.setattr(clique, "CHUNK", 4)
        g = random_simple_graph(np.random.default_rng(35), 50, 0.5)
        fork = multiprocessing.get_context("fork")
        inbox, outbox = fork.Pipe(duplex=False)
        child = fork.Process(target=_search_in_child, args=(g, outbox))
        child.start()
        assert inbox.poll(60)
        got = inbox.recv()
        child.join(timeout=60)
        assert not child.is_alive()
        assert got == (1, max_clique(g).vertices)

    def test_sweep_shorter_than_lazy_chunks_starts_no_worker(self):
        rng = np.random.default_rng(39)
        for g in [random_simple_graph(rng, n, p) for n, p in ((40, 0.1), (70, 0.4), (90, 0.8))]:
            lazy = -(-g.n // 4)  # the whole sweep fits in the parent's chunks
            assert _with_workers(_solve, g, 2, lazy=lazy, forks=False) == _with_workers(_solve, g, 1)
        g = build_product_graph(*census_graphs(300)).graph
        assert g.n < clique.LAZY_CHUNKS * clique.CHUNK
        assert _with_workers(_solve, g, 2, clique.CHUNK, clique.LAZY_CHUNKS, forks=False) \
            == _with_workers(_solve, g, 1)

    def test_longer_sweep_forks_for_the_rest(self):
        rng = np.random.default_rng(40)
        # their sweeps take 17, 34 and 57 root branches, past 2 chunks of 4
        for g in [random_simple_graph(rng, n, p) for n, p in ((60, 0.1), (80, 0.3), (150, 0.1))]:
            for lazy in (1, 2):
                assert _with_workers(_solve, g, 2, lazy=lazy, forks=True) == _with_workers(_solve, g, 1)

    def test_tie_pass_forks_like_the_sweep(self, monkeypatch):
        # past its lazy chunks the tie pass takes its roots from forked
        # workers, as the sweep does: the same cliques, tie lists and node
        # counts as in this process, and a budget that runs out among
        # them leaves no worker behind (_with_workers checks)
        started = []
        real = clique.forked
        monkeypatch.setattr(clique, "forked", lambda *args: started.append(args) or real(*args))
        for g, (total, _) in zip(_tie_pass_graphs()[:3], TIE_PASS_RESULTS):
            r = _with_workers(max_clique, g, 1)
            search = r._search
            assert len(search.ties) > 2 * 4  # 2 chunks of 4

            def tie_pass(g):
                tie = search.resumed(10**8)
                return enumerate_maximum_cliques(g, clique=r), [tie.vertices(m) for m in tie.best_masks], \
                    tie.nodes

            want = _with_workers(tie_pass, g, 1, lazy=2)
            assert want[2] == total
            assert _with_workers(tie_pass, g, 2, lazy=2, forks=True) == want
            started.clear()
            assert _with_workers(lambda g: enumerate_maximum_cliques(g, total - 1, r), g, 2, lazy=2) \
                is ResourceBudgetError
            assert started  # the budget ran out with workers forked

    def test_no_worker_beside_other_threads(self):
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert clique.worker_cpus() == 1
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


def _numpy(fn, *args):
    """fn(*args) with the compiled kernels refused: the numpy code."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "kernel", lambda: None)
        return fn(*args)


def _with_isolated_tail(g, k=3):
    """g with k isolated vertices added: the last k in degree order."""
    return SimpleGraph.from_edges(g.n + k, np.stack(g.edge_array(), 1))


def _kernel_graphs(rng):
    """Graphs for the clique kernels' differential tests, with their
    maximum clique sizes: empty, edgeless, complete and random graphs, the
    tie products, census products at n = 100 to 600, and graphs whose last
    vertices in degree order are isolated."""
    graphs = [SimpleGraph.from_edges(0, []), SimpleGraph.from_edges(6, []), complete_graph(9)]
    graphs += [random_simple_graph(rng, int(rng.integers(1, 90)), float(rng.uniform(0.02, 0.95)))
               for _ in range(40)]
    graphs += [gender_tie_product(seed) for seed, *_ in TIE_PRODUCT_RESULTS]
    graphs += [_with_isolated_tail(g) for g in graphs[2:8]]
    products = [build_product_graph(*census_graphs(n)).graph for n in (100, 200, 300, 600)]
    graphs += products + [_with_isolated_tail(products[0])]
    return [(g, max_clique(g).size) for g in graphs]


def _root_level(g, kernel):
    """clique._RootLevel of g in the search's degree order."""
    order = np.argsort(-np.diff(g.indptr), kind="stable")
    pos = np.empty(g.n, np.int64)
    pos[order] = np.arange(g.n)
    return clique._RootLevel(g, order, pos, kernel)


class TestCompiledKernel:
    """The compiled clique kernels against the numpy code, which stays as
    their oracle and as the path without a compiler."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return _kernel_graphs(np.random.default_rng(41))

    def test_branches_equal_numpy_on_every_branch(self, graphs, monkeypatch):
        require_compiled()
        # the least edge buffers, so that chunks of dense branches take
        # several kernel calls
        monkeypatch.setattr(clique, "BLOCK", 1)
        chunks = calls = empty = 0
        for g, _ in graphs:
            compiled, oracle = _root_level(g, native.kernel()), _root_level(g, None)
            assert compiled.kernel is not None and oracle.kernel is None
            sweep, indptr = compiled.sweep, compiled.indptr
            want = [(bounds[0], a, b) for bounds, _, a, b in (oracle.chunk([v]) for v in sweep)]
            for v, (bound, a, b) in zip(sweep, want):
                (got,), _, got_a, got_b = compiled.chunk([v])
                assert got == bound and np.array_equal(got_a, a) and np.array_equal(got_b, b)
                empty += indptr[v] == indptr[v + 1]
            compiled.kernel = counting = CountingKernel(compiled.kernel, "branches")
            for size in (7, 128):
                for start in range(0, len(sweep), size):
                    part = want[start:start + size]
                    bounds, ends, a, b = compiled.chunk(sweep[start:start + size])
                    assert bounds == [bound for bound, _, _ in part]
                    assert ends == np.cumsum([len(a) for _, a, _ in part]).tolist()
                    assert a.dtype == b.dtype == np.int32
                    assert np.array_equal(a, np.concatenate([a for _, a, _ in part]))
                    assert np.array_equal(b, np.concatenate([b for _, _, b in part]))
                    chunks += 1
            calls += counting.calls
        assert empty > len(graphs)  # branches without candidates included
        assert calls > chunks  # and chunks split over several calls

    def test_local_colour_equals_colour_classes(self, graphs):
        require_compiled()
        for g, omega in graphs:
            compiled = _root_level(g, native.kernel())
            for v in compiled.sweep:
                s = int(compiled.fdeg[v])
                if not s:
                    continue
                _, _, a, b = compiled.chunk([v])
                outs = _complements(bitset_rows(s, a, b))
                for kmin in {-1, 0, omega - 2, s}:
                    assert compiled.colour(s, a, b, kmin) == _colour_classes(outs, (1 << s) - 1, kmin)

    def test_root_colour_equals_first_fit(self, graphs):
        require_compiled()
        for g, _ in graphs:
            compiled, oracle = _root_level(g, native.kernel()), _root_level(g, None)
            assert (compiled.sweep, compiled.colours) == (oracle.sweep, oracle.colours)
            assert np.array_equal(compiled.indptr, oracle.indptr)
            assert np.array_equal(compiled.adj, oracle.adj)


def _works(kernel):
    """Whether the search with kernel finds what the numpy code finds."""
    g = random_simple_graph(np.random.default_rng(43), 60, 0.4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "kernel", lambda: kernel)
        return kernel is not None and on_both_paths(_solve, g) == _numpy(on_both_paths, _solve, g)


class TestKernelBuild:
    """Building, caching and loading the compiled kernels, and the numpy
    fallback when that fails."""

    def test_failed_build_changes_no_result(self, tmp_path):
        # the compiled product build and search against the numpy ones they
        # fall back to; a 600 x 600 CLI attack, its matrix files read by
        # the compiled reader, is test_cli's test_attack_byte_identical_without_a_compiler
        require_compiled()
        census = census_graphs(300)
        graphs = [build_product_graph(*census).graph, gender_tie_product(1),
                  random_simple_graph(np.random.default_rng(44), 70, 0.5)]
        want = [on_both_paths(_solve, g) for g in graphs]
        forked_want = _with_workers(_solve, graphs[-1], 1)
        with without_compiler(tmp_path):
            fallback = build_product_graph(*census).graph
            assert np.array_equal(fallback.indptr, graphs[0].indptr)
            assert np.array_equal(fallback.indices, graphs[0].indices)
            assert [on_both_paths(_solve, g) for g in graphs] == want
            assert _with_workers(_solve, graphs[-1], 2) == forked_want
        assert not any((tmp_path / "kernel-cache").iterdir())  # the failed build left no file

    def test_racing_builds_leave_one_library(self, tmp_path):
        require_cc()
        fork = multiprocessing.get_context("fork")
        barrier = fork.Barrier(2)

        def build():
            barrier.wait(60)
            return native.load_kernel(tmp_path) is not None

        children = [fork.Process(target=lambda: os._exit(0 if build() else 1)) for _ in range(2)]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=120)
        assert [child.exitcode for child in children] == [0, 0]
        libs = list(tmp_path.iterdir())
        assert len(libs) == 1 and libs[0].suffix == ".so" and native.intact(libs[0])
        assert _works(native.load_kernel(tmp_path))

    @pytest.mark.parametrize("keep", [0, 64, 0.5, -1])
    def test_damaged_library_is_rebuilt(self, tmp_path, keep):
        require_cc()
        # built and damaged where this process never maps it: a damaged
        # library mapped by the loader can crash the process
        assert exit_code(native.load_kernel, tmp_path) == 0
        lib, = tmp_path.iterdir()
        data = lib.read_bytes()
        lib.write_bytes(data[:int(len(data) * keep) if isinstance(keep, float) else keep])
        assert exit_code(lambda: _works(native.load_kernel(tmp_path))) == 0
        assert lib.read_bytes() == data

    def test_damaged_library_without_compiler_falls_back(self, tmp_path):
        require_cc()
        cache = tmp_path / "kernel-cache"
        assert exit_code(native.load_kernel, cache) == 0
        lib, = cache.iterdir()
        lib.write_bytes(lib.read_bytes()[:5000])
        g = random_simple_graph(np.random.default_rng(45), 60, 0.4)
        want = on_both_paths(_solve, g)

        def fall_back():
            with without_compiler(tmp_path):  # finds the damaged library, cannot rebuild it
                return on_both_paths(_solve, g) == want

        assert exit_code(fall_back) == 0


    def test_compile_command_is_part_of_the_library_name(self, tmp_path, monkeypatch):
        # a change to the flags alone must not load a library built without them
        require_cc()
        assert exit_code(native.load_kernel, tmp_path) == 0
        first, = tmp_path.iterdir()
        monkeypatch.setattr(native, "COMPILE", native.COMPILE + ("-DNDEBUG",))
        assert exit_code(native.load_kernel, tmp_path) == 0
        assert len(list(tmp_path.iterdir())) == 2 and first.exists()

    def test_source_compiles_without_warnings(self, tmp_path):
        # a warning can hide a wrong result: an implicitly declared function
        # compiles with one under GCC 12 and returns garbage
        require_cc()
        run = subprocess.run([*native.COMPILE, "-Wall", "-Wextra", "-Werror", "-o",
                              str(tmp_path / "kernel.so"), str(native.KERNEL_SOURCE)],
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

    def test_clique_kernels_under_address_sanitizer(self, tmp_path):
        """branches, local_colour and root_colour built with
        AddressSanitizer run, in a fresh interpreter with its runtime
        preloaded, on graphs whose last vertices in degree order are
        isolated among others and on one whose scratch arrays are all
        handed back to malloc when freed: an access out of a buffer's
        bounds, or to a freed one, fails this test."""
        require_cc()
        runtime = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                                 text=True).stdout.strip()
        if not os.path.isabs(runtime):
            pytest.skip("no AddressSanitizer runtime")
        paths = [str(Path(clique.__file__).parents[1]), str(Path(__file__).parent)]
        env = dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0",
                   PYTHONPATH=os.pathsep.join(paths))
        run = subprocess.run([sys.executable, "-c", ASAN_SCRIPT, str(tmp_path)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0 and "checked 15" in run.stdout, run.stderr[-4000:]


#: test_clique_kernels_under_address_sanitizer's script: the clique kernels
#: built with AddressSanitizer into the cache argv[1], through the search's
#: own calls, on the least buffers
ASAN_SCRIPT = """
import sys
from pathlib import Path

import numpy as np

from distlink import SimpleGraph, build_product_graph, clique, native
from helpers import census_graphs, gender_tie_product, random_simple_graph

native.COMPILE += ("-fsanitize=address", "-fno-omit-frame-pointer")
kernel = native.load_kernel(Path(sys.argv[1]))
native.kernel = lambda: kernel
clique.BLOCK = 1  # the least edge buffers
rng = np.random.default_rng(46)
graphs = [SimpleGraph.from_edges(0, []), SimpleGraph.from_edges(4, []),
          SimpleGraph.from_edges(7, [(0, 1), (0, 2), (1, 2), (4, 5)]), gender_tie_product(1),
          build_product_graph(*census_graphs(100)).graph]
graphs += [random_simple_graph(rng, n, p) for n, p in ((1, 0.5), (40, 0.3), (130, 0.6))]
for g in list(graphs[2:]):
    graphs.append(SimpleGraph.from_edges(g.n + 3, np.stack(g.edge_array(), 1)))
# last, a graph whose scratch arrays all pass the 1 KiB below which numpy
# keeps a freed block for reuse, out of the sanitizer's sight
graphs.append(random_simple_graph(rng, 400, 0.4))
for g in graphs:
    order = np.argsort(-np.diff(g.indptr), kind="stable")
    pos = np.empty(g.n, np.int64)
    pos[order] = np.arange(g.n)
    level = clique._RootLevel(g, order, pos, kernel)
    for start in range(0, len(level.sweep), 16):
        bounds, ends, a, b = level.chunk(level.sweep[start:start + 16])
        for v, lo, hi in zip(level.sweep[start:], [0] + ends, ends):
            s = int(level.fdeg[v])
            for kmin in (-1, s):
                level.colour(s, a[lo:hi].copy(), b[lo:hi].copy(), kmin)
assert min(x.nbytes for x in (level.lower, level.pairs, level.rows, level.mark)) > 1024
native.KERNEL_MIN_SIZE = -1
for g in graphs:
    clique.enumerate_maximum_cliques(g)
print("checked", len(graphs))
"""


class TestBruteForce:
    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            brute_force_max_clique(SimpleGraph.from_edges(26, []))

    def test_small_cases(self):
        assert brute_force_max_clique(cycle_graph(5)).size == 2
        assert brute_force_max_clique(complete_graph(4)).size == 4


class TestEnumerateMaximumCliques:
    def test_two_disjoint_triangles(self):
        g = SimpleGraph.from_edges(6, [(0, 1), (0, 2), (1, 2),
                                       (3, 4), (3, 5), (4, 5)])
        found = enumerate_maximum_cliques(g)
        assert found == [(0, 1, 2), (3, 4, 5)]

    def test_edgeless_gives_singletons(self):
        g = SimpleGraph.from_edges(3, [])
        assert enumerate_maximum_cliques(g) == [(0,), (1,), (2,)]

    def test_empty_graph(self):
        assert enumerate_maximum_cliques(SimpleGraph.from_edges(0, [])) == [(),]

    def test_every_enumerated_clique_is_maximum(self):
        rng = np.random.default_rng(18)
        for _ in range(8):
            g = random_simple_graph(rng, 12, 0.5)
            w = max_clique(g).size
            for c in enumerate_maximum_cliques(g):
                assert len(c) == w
                for a, b in itertools.combinations(c, 2):
                    assert g.has_edge(a, b)

    def test_finds_every_maximum_clique(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            g = random_simple_graph(rng, int(rng.integers(1, 16)),
                                    float(rng.uniform(0.1, 0.9)))
            found = enumerate_maximum_cliques(g)
            assert len(found) == count_cliques_of_size(g, max_clique(g).size)
            assert found == sorted(set(found))

    def test_node_budget_enforced(self):
        g = SimpleGraph.from_edges(6, [(0, 1), (0, 2), (1, 2),
                                       (3, 4), (3, 5), (4, 5)])
        with pytest.raises(ResourceBudgetError):
            enumerate_maximum_cliques(g, node_budget=2)


class TestCountCliques:
    def _naive_count(self, g, k):
        return sum(1 for sub in itertools.combinations(range(g.n), k)
                   if all(g.has_edge(a, b)
                          for a, b in itertools.combinations(sub, 2)))

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            g = random_simple_graph(rng, 9, float(rng.uniform(0.3, 0.8)))
            for k in range(0, g.n + 2):
                assert count_cliques_of_size(g, k) == self._naive_count(g, k)

    def test_degenerate_orders(self):
        g = cycle_graph(4)
        assert count_cliques_of_size(g, 0) == 1
        assert count_cliques_of_size(g, 1) == 4
        assert count_cliques_of_size(g, 2) == 4
        assert count_cliques_of_size(g, 3) == 0
        assert count_cliques_of_size(g, 99) == 0
        with pytest.raises(InputFormatError):
            count_cliques_of_size(g, -1)


class TestDimacs:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        g = random_simple_graph(rng, 15, 0.4)
        path = tmp_path / "g.dimacs"
        write_dimacs(g, path, comment="round trip fixture")
        h = read_dimacs(path)
        assert h.n == g.n and adjacency_rows(h) == adjacency_rows(g)

    def test_non_ascii_comment_rejected_before_writing(self, tmp_path):
        path = tmp_path / "g.dimacs"
        path.write_bytes(b"p edge 2 0\n")
        with pytest.raises(InputFormatError, match="comment must be ASCII"):
            write_dimacs(SimpleGraph.from_edges(2, [(0, 1)]), path, comment="caf\u00e9")
        assert path.read_bytes() == b"p edge 2 0\n"

    def test_file_is_one_based(self, tmp_path):
        g = SimpleGraph.from_edges(3, [(0, 1)])
        path = tmp_path / "g.dimacs"
        write_dimacs(g, path)
        text = path.read_text()
        assert "p edge 3 1" in text
        assert "e 1 2" in text

    def test_rejects_missing_problem_line(self, tmp_path):
        path = tmp_path / "g.dimacs"
        path.write_text("e 1 2\n")
        with pytest.raises(InputFormatError):
            read_dimacs(path)

    def test_rejects_duplicate_problem_line(self, tmp_path):
        path = tmp_path / "g.dimacs"
        path.write_text("p edge 2 0\np edge 2 0\n")
        with pytest.raises(InputFormatError):
            read_dimacs(path)

    def test_rejects_loop_edge(self, tmp_path):
        path = tmp_path / "g.dimacs"
        path.write_text("p edge 2 1\ne 1 1\n")
        with pytest.raises(InputFormatError):
            read_dimacs(path)

    def test_rejects_vertex_out_of_range(self, tmp_path):
        path = tmp_path / "g.dimacs"
        path.write_text("p edge 2 1\ne 1 5\n")
        with pytest.raises(InputFormatError):
            read_dimacs(path)

    def test_rejects_non_ascii_bytes(self, tmp_path):
        path = tmp_path / "g.dimacs"
        path.write_bytes(b"p edge 2 1\nc caf\xc3\xa9\ne 1 2\n")
        with pytest.raises(InputFormatError, match=r"g\.dimacs:2: non-ASCII"):
            read_dimacs(path)

    def test_rejects_non_integer_fields(self, tmp_path):
        path = tmp_path / "g.dimacs"
        path.write_text("p edge 2 1\ne 1 two\n")
        with pytest.raises(InputFormatError, match=r"g\.dimacs:2: malformed edge line: 'two'"):
            read_dimacs(path)
        path.write_text("c x\np edge two 1\n")
        with pytest.raises(InputFormatError, match=r"g\.dimacs:2: malformed problem line"):
            read_dimacs(path)
        path.write_text("p edge -2 0\n")
        with pytest.raises(InputFormatError, match=r"g\.dimacs:1: negative vertex count"):
            read_dimacs(path)
        path.write_text("p edge 3 abc\n")
        with pytest.raises(InputFormatError, match=r"g\.dimacs:1: malformed problem line: 'abc'"):
            read_dimacs(path)
        path.write_text("c x\np edge 3 -5\n")
        with pytest.raises(InputFormatError, match=r"g\.dimacs:2: negative edge count"):
            read_dimacs(path)
        path.write_text("p edge 3 7\ne 1 2\n")  # the count need not match the e lines
        assert read_dimacs(path).edges() == [(0, 1)]

    def test_vertex_count_beyond_physical_memory_refused(self, tmp_path, monkeypatch):
        # refused at the problem line, before the edge lines and before any
        # array of the count's size; the memory figure is the test's own
        path = tmp_path / "g.dimacs"
        monkeypatch.setattr(core, "_physical_memory_bytes", lambda: 8 * 2**30)
        path.write_text("p edge 1500000000 1\ne 1 two\n")
        with pytest.raises(SizeLimitError, match=r"g\.dimacs:1: 1500000000 vertices need about "
                                                  r"36000000024 bytes, more than the 8589934592"):
            read_dimacs(path)
        monkeypatch.setattr(core, "_physical_memory_bytes", lambda: 24 * 1001)
        path.write_text("p edge 1000 1\ne 1 2\n")
        assert read_dimacs(path).n == 1000
        path.write_text("c x\np edge 1001 1\ne 1 2\n")
        with pytest.raises(SizeLimitError, match=r"g\.dimacs:2: 1001 vertices"):
            read_dimacs(path)

    def test_ignores_comment_lines(self, tmp_path):
        path = tmp_path / "g.dimacs"
        path.write_text("c hello\np edge 2 1\nc mid\ne 1 2\n")
        g = read_dimacs(path)
        assert g.n == 2 and g.has_edge(0, 1)
