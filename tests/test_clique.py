"""Exact maximum clique search, counting, bounds, DIMACS files."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distlink import (
    InputFormatError,
    ResourceBudgetError,
    SimpleGraph,
    SizeLimitError,
    brute_force_max_clique,
    count_cliques_of_size,
    enumerate_maximum_cliques,
    greedy_coloring_bound,
    max_clique,
    read_dimacs,
    write_dimacs,
)
from distlink import build_product_graph, clique
from distlink.clique import _Search, _colour_classes
from helpers import (
    census_graphs,
    edge_array_root_split,
    random_simple_graph,
    symmetric_key_sort_csr,
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
        assert g.rows == [0b0010, 0b0101, 0b0010, 0]

    def test_edges_in_row_order(self):
        rng = np.random.default_rng(21)
        for n in (0, 1, 7, 8, 9, 40):
            g = random_simple_graph(rng, n, 0.3)
            assert g.edges() == [(i, j) for i in range(n) for j in range(i + 1, n)
                                 if g.has_edge(i, j)]
            assert SimpleGraph.from_edges(n, g.edges()).rows == g.rows

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
    rows = [0] * g.n
    for v in range(g.n):
        for w in range(g.n):
            if g.rows[v] >> w & 1:
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


def _on_both_paths(search, g):
    """search(g) with the root split forced on, then off; an exhausted
    node budget counts as an outcome."""
    out = []
    for threshold in (-1, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clique, "SPLIT_MIN_VERTICES", threshold)
            try:
                out.append(search(g))
            except ResourceBudgetError:
                out.append(ResourceBudgetError)
    return out


def _solve(g):
    r = max_clique(g)
    return r.vertices, r.nodes_explored, enumerate_maximum_cliques(g)


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
            split, unsplit = _on_both_paths(_solve, g)
            assert split == unsplit

    def test_recorded_results_on_split_path(self, monkeypatch):
        monkeypatch.setattr(clique, "SPLIT_MIN_VERTICES", -1)
        for seed, n, p, vertices, nodes, n_maximum, first in SEARCH_RESULTS:
            g = random_simple_graph(np.random.default_rng(seed), n, p)
            r = max_clique(g)
            assert (r.vertices, r.nodes_explored) == (vertices, nodes)
            found = enumerate_maximum_cliques(g)
            assert (len(found), found[0]) == (n_maximum, first)

    def test_wide_sparse_graph_with_planted_clique(self):
        rng = np.random.default_rng(26)
        n, k = 6000, 12
        x, y = rng.integers(0, n, (2, 60000))
        planted = np.sort(rng.choice(n, k, replace=False))
        a, b = np.triu_indices(k, 1)
        edges = np.concatenate([np.stack([x, y], 1)[x != y],
                                np.stack([planted[a], planted[b]], 1)])
        g = SimpleGraph.from_edges(n, edges)
        assert g.n > clique.SPLIT_MIN_VERTICES
        split, unsplit = _on_both_paths(_solve, g)
        assert split == unsplit
        assert split[0] == tuple(planted.tolist()) and split[2] == [split[0]]

    def test_node_budget(self):
        for g in _special_graphs():
            for keep_ties in (False, True):
                search = enumerate_maximum_cliques if keep_ties else max_clique
                nodes = _Search(g, 10**8, keep_ties).nodes
                if nodes:  # the empty graph spends none
                    exhausted = _on_both_paths(lambda g: search(g, node_budget=nodes - 1), g)
                    assert exhausted == [ResourceBudgetError] * 2
                split, unsplit = _on_both_paths(lambda g: search(g, node_budget=nodes), g)
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
            colours = dict(_colour_classes(g.rows, (1 << g.n) - 1))
            for block in (1, 5, 256):
                sweep, swept_colours = clique._root_split(g, identity, identity, block)[:2]
                assert dict(zip(sweep, swept_colours)) == colours

    def test_root_split_equals_edge_array_set_up(self):
        rng = np.random.default_rng(29)
        graphs = [random_simple_graph(rng, int(rng.integers(0, 80)), float(rng.uniform(0.02, 0.95)))
                  for _ in range(30)]
        graphs.append(build_product_graph(*census_graphs(300)).graph)
        assert graphs[-1].n > clique.SPLIT_MIN_VERTICES
        for g in graphs:
            order = np.argsort(-np.diff(g.indptr), kind="stable")
            pos = np.empty(g.n, np.int32)
            pos[order] = np.arange(g.n)
            want = edge_array_root_split(g)
            for block in (1, 5, 256):
                sweep, colours, indptr, adj = clique._root_split(g, order, pos, block)
                assert (sweep, colours) == want[:2]
                assert indptr.tobytes() == want[2].tobytes() and adj.tobytes() == want[3].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_agrees_with_brute_force_and_networkx(self, g):
        nx = pytest.importorskip("networkx")
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clique, "SPLIT_MIN_VERTICES", -1)
            r = max_clique(g)
            found = enumerate_maximum_cliques(g)
        assert r.size == brute_force_max_clique(g).size == nx.max_weight_clique(h, weight=None)[1]
        assert len(found) == count_cliques_of_size(g, r.size) and r.vertices in found


class TestBruteForce:
    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            brute_force_max_clique(SimpleGraph.from_edges(26, []))

    def test_small_cases(self):
        assert brute_force_max_clique(cycle_graph(5)).size == 2
        assert brute_force_max_clique(complete_graph(4)).size == 4


class TestColoringBound:
    def test_exact_on_complete_and_edgeless(self):
        assert greedy_coloring_bound(complete_graph(5)) == 5
        assert greedy_coloring_bound(SimpleGraph.from_edges(4, [])) == 1

    def test_admissible_upper_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            g = random_simple_graph(rng, 12, float(rng.uniform(0.2, 0.9)))
            assert greedy_coloring_bound(g) >= brute_force_max_clique(g).size

    def test_candidate_subset(self):
        g = complete_graph(6)
        assert greedy_coloring_bound(g, candidate_set=[0, 1, 2]) == 3


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
        assert h.n == g.n and h.rows == g.rows

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

    def test_ignores_comment_lines(self, tmp_path):
        path = tmp_path / "g.dimacs"
        path.write_text("c hello\np edge 2 1\nc mid\ne 1 2\n")
        g = read_dimacs(path)
        assert g.n == 2 and g.has_edge(0, 1)
