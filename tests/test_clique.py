"""Exact maximum clique search, counting, bounds, DIMACS files."""

import itertools

import numpy as np
import pytest

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
from helpers import random_simple_graph


def complete_graph(n):
    return SimpleGraph.from_edges(n, [(i, j) for i in range(n)
                                      for j in range(i + 1, n)])


def cycle_graph(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestSimpleGraph:
    def test_from_edges_and_accessors(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (1, 2)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.degree(1) == 2 and g.degree(3) == 0
        assert g.edge_count() == 2
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_rejects_self_loop(self):
        with pytest.raises(InputFormatError):
            SimpleGraph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(InputFormatError):
            SimpleGraph.from_edges(2, [(0, 5)])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(InputFormatError):
            SimpleGraph(2, [0b10, 0b00])

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(InputFormatError):
            SimpleGraph(3, [0, 0])

    def test_rejects_bits_beyond_n(self):
        with pytest.raises(InputFormatError):
            SimpleGraph(2, [0b100, 0b000])


class TestMaxClique:
    def test_complete_graph(self):
        r = max_clique(complete_graph(5))
        assert r.size == 5 and r.vertices == (0, 1, 2, 3, 4)

    def test_edgeless_graph(self):
        r = max_clique(SimpleGraph.from_edges(4, []))
        assert r.size == 1

    def test_empty_graph(self):
        r = max_clique(SimpleGraph(0, []))
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
        assert enumerate_maximum_cliques(SimpleGraph(0, [])) == [(),]

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

    def test_ignores_comment_lines(self, tmp_path):
        path = tmp_path / "g.dimacs"
        path.write_text("c hello\np edge 2 1\nc mid\ne 1 2\n")
        g = read_dimacs(path)
        assert g.n == 2 and g.has_edge(0, 1)
