"""Record graphs, the approximate-equality relations, product graph."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from distlink import (
    Absolute,
    DistanceMatrix,
    InputFormatError,
    LabeledWeightedGraph,
    QuantileBand,
    build_graph,
    build_product_graph,
    max_clique,
    product_vertex_count_check,
)
from distlink.datasets import (
    example1_table,
    poets_ident_matrix,
    poets_ident_table,
    poets_target_matrix,
    poets_target_table,
)
from distlink.graph import _product_edges_complete, _product_edges_general, label_pairs
from helpers import POETS_PRODUCT_PAIRS_1BASED, random_labeled_graph, random_relation
from distlink import distance_matrix


def poets_graphs():
    gt = build_graph(poets_target_table(), poets_target_matrix())
    gi = build_graph(poets_ident_table(), poets_ident_matrix())
    return gt, gi


class TestBuildGraph:
    def test_city_table_labels_and_weights(self):
        t = example1_table()
        g = build_graph(t, distance_matrix(t.points))
        assert g.labels == (("f", "1978"), ("m", "1965"),
                            ("f", "1943"), ("m", "1931"))
        expected = sorted([343.6, 1264.0, 930.9, 1052.9, 877.5, 1869.1])
        got = sorted(g.weight(i, j) for i in range(4) for j in range(i + 1, 4))
        assert np.allclose(got, expected, atol=0.1, rtol=0.0)

    def test_single_record_graph(self):
        t = poets_target_table()
        one = t.__class__(t.records[:1], t.schema, t.qi_attributes)
        g = build_graph(one, _matrix1())
        assert g.n == 1
        assert g.has_edge(0, 0) is False

    def test_size_mismatch_rejected(self):
        with pytest.raises(InputFormatError):
            build_graph(poets_target_table(), _matrix1())

    def test_weight_is_symmetric_lookup(self):
        gt, _ = poets_graphs()
        assert gt.weight(2, 5) == gt.weight(5, 2) == 137.0


def _matrix1():
    from distlink import DistanceMatrix
    return DistanceMatrix(np.zeros((1, 1)))


@st.composite
def _weights_and_eps(draw):
    """Target weights, identification weights that often sit exactly
    eps away or at a signed zero, and a positive eps."""
    eps = draw(st.floats(min_value=0.0, exclude_min=True))
    wt = draw(st.lists(st.floats(), min_size=1, max_size=16))
    step = st.one_of(st.sampled_from([eps, -eps, 0.0, -0.0]), st.floats())
    wi = [w + draw(step) for w in wt]
    return np.array(wt), np.array(wi), eps


class TestAbsoluteRelation:
    def test_strict_boundary(self):
        rel = Absolute(5.0)
        assert rel.holds(1261.0, 1260.0)
        assert rel.holds(100.0, 104.9999)
        assert not rel.holds(100.0, 105.0)  # |dev| == eps excluded
        assert not rel.holds(100.0, 95.0)

    def test_symmetric_in_arguments(self):
        rel = Absolute(2.0)
        assert rel.holds(10.0, 11.5) == rel.holds(11.5, 10.0)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(InputFormatError):
            Absolute(0.0)
        with pytest.raises(InputFormatError):
            Absolute(-1.0)
        with pytest.raises(InputFormatError):
            Absolute(float("nan"))

    def test_is_the_symmetric_band(self):
        assert Absolute(25.0) == QuantileBand(-25.0, 25.0)
        assert repr(Absolute(25.0)) == "QuantileBand(lo=-25.0, hi=25.0)"

    def test_boundaries_and_signed_zeros(self):
        wt = np.array([100.0, 100.0, 100.0, 0.0, -0.0, 1.0])
        wi = np.array([105.0, 95.0, 104.5, -0.0, 0.0, -4.0])
        assert Absolute(5.0).deviation_mask(wt, wi).tolist() == [
            False, False, True, True, True, False]

    @given(_weights_and_eps())
    def test_mask_equals_absolute_deviation_oracle(self, case):
        wt, wi, eps = case
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.abs(wt - wi) < eps
            got = Absolute(eps).deviation_mask(wt, wi)
            held = [Absolute(eps).holds(a, b) for a, b in zip(wt, wi)]
        assert np.array_equal(got, expected)
        assert held == expected.tolist()


class TestQuantileBandRelation:
    def test_signed_deviation_direction(self):
        # deviation is ident weight minus target weight
        rel = QuantileBand(-2.3909, 2.2642)
        assert rel.holds(10.0, 10.0)
        assert rel.holds(10.0, 12.0)       # dev +2.0 inside
        assert not rel.holds(10.0, 13.0)   # dev +3.0 outside
        assert rel.holds(10.0, 8.0)        # dev -2.0 inside
        assert not rel.holds(10.0, 7.0)    # dev -3.0 outside

    def test_asymmetric_band_is_order_sensitive(self):
        rel = QuantileBand(-0.5, 3.0)
        assert rel.holds(10.0, 12.0)        # dev +2.0
        assert not rel.holds(12.0, 10.0)    # dev -2.0, below lo

    def test_strict_boundaries(self):
        rel = QuantileBand(-1.0, 2.0)
        assert not rel.holds(10.0, 12.0)   # dev == hi
        assert not rel.holds(10.0, 9.0)    # dev == lo
        assert rel.holds(10.0, 11.9999)

    def test_rejects_empty_band(self):
        with pytest.raises(InputFormatError):
            QuantileBand(1.0, 1.0)
        with pytest.raises(InputFormatError):
            QuantileBand(2.0, -2.0)


class TestProductGraph:
    def test_poets_vertices(self):
        gt, gi = poets_graphs()
        p = build_product_graph(gt, gi, Absolute(5.0))
        got = {(v + 1, w + 1) for v, w in p.vertices}
        assert got == POETS_PRODUCT_PAIRS_1BASED
        assert p.n == 11
        assert product_vertex_count_check(gt, gi) == 11

    def test_label_pairs_in_lexicographic_order(self):
        target = [("a",), ("b",), ("a",)]
        ident = [("a",), ("c",), ("a",)]
        assert label_pairs(target, ident) == [(0, 0), (0, 2), (2, 0), (2, 2)]
        assert label_pairs(target, [("z",)]) == []

    def test_vertices_sorted_lexicographically(self):
        gt, gi = poets_graphs()
        p = build_product_graph(gt, gi, Absolute(5.0))
        assert list(p.vertices) == sorted(p.vertices)

    def test_poets_spot_edges(self):
        gt, gi = poets_graphs()
        p = build_product_graph(gt, gi, Absolute(5.0))
        idx = {vw: i for i, vw in enumerate(p.vertices)}
        # |1261 - 1260| = 1 < 5
        assert p.graph.has_edge(idx[(0, 0)], idx[(1, 1)])
        # |1261 - 1290| = 29 >= 5
        assert not p.graph.has_edge(idx[(0, 0)], idx[(1, 8)])

    def test_no_edge_when_sharing_a_side(self):
        gt, gi = poets_graphs()
        p = build_product_graph(gt, gi, Absolute(1e9))
        for i in range(p.n):
            for j in range(i + 1, p.n):
                if p.graph.has_edge(i, j):
                    v1, w1 = p.vertices[i]
                    v2, w2 = p.vertices[j]
                    assert v1 != v2 and w1 != w2

    def test_disjoint_labels_give_empty_product(self):
        rng = np.random.default_rng(0)
        g1 = random_labeled_graph(rng, 4, 2)
        g2 = LabeledWeightedGraph((("zzz",),) * 3,
                                  DistanceMatrix(np.zeros((3, 3))), (0, 1, 2))
        p = build_product_graph(g1, g2, Absolute(1.0))
        assert p.n == 0
        assert product_vertex_count_check(g1, g2) == 0

    def test_self_product_contains_identity_clique(self):
        rng = np.random.default_rng(1)
        n = 6
        labels = tuple((f"u{i}",) for i in range(n))  # all distinct
        w = rng.random((n, n)) * 100
        w = np.triu(w, 1)
        w = w + w.T
        g = LabeledWeightedGraph(labels, DistanceMatrix(w), tuple(range(n)))
        p = build_product_graph(g, g, Absolute(0.001))
        assert p.vertices == tuple((i, i) for i in range(n))
        r = max_clique(p.graph)
        assert r.size == n  # identity mapping, zero deviations everywhere

    def test_uniform_labels_wide_band_clique_is_min_order(self):
        rng = np.random.default_rng(2)
        g1 = random_labeled_graph(rng, 5, 1)
        g2 = random_labeled_graph(rng, 7, 1)
        p = build_product_graph(g1, g2, Absolute(1e9))
        assert p.n == 35
        assert max_clique(p.graph).size == 5

    def test_vertex_count_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g1 = random_labeled_graph(rng, int(rng.integers(1, 8)), 3)
            g2 = random_labeled_graph(rng, int(rng.integers(1, 8)), 3)
            p = build_product_graph(g1, g2, random_relation(rng))
            assert p.n == product_vertex_count_check(g1, g2)

    def test_deterministic_rebuild(self):
        gt, gi = poets_graphs()
        a = build_product_graph(gt, gi, Absolute(5.0))
        b = build_product_graph(gt, gi, Absolute(5.0))
        assert a.vertices == b.vertices
        assert a.graph.rows == b.graph.rows

    def test_vectorized_matches_scalar_construction(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            g1 = random_labeled_graph(rng, int(rng.integers(2, 9)), 2)
            g2 = random_labeled_graph(rng, int(rng.integers(2, 9)), 2)
            rel = random_relation(rng)
            p = build_product_graph(g1, g2, rel)
            rows = _product_edges_general(g1, g2, rel, p.vertices)
            assert rows == list(p.graph.rows)

    def test_absent_absent_edges_count_as_compatible(self):
        # two-vertex graphs with no edge at all: the pair of cross
        # mappings is adjacent because both sides lack the edge
        labels = (("a",), ("b",))
        w = DistanceMatrix(np.zeros((2, 2)))
        mask = np.zeros((2, 2), dtype=bool)
        g1 = LabeledWeightedGraph(labels, w, (0, 1), edge_present=mask)
        g2 = LabeledWeightedGraph(labels, w, (0, 1), edge_present=mask)
        p = build_product_graph(g1, g2, Absolute(1.0))
        assert p.vertices == ((0, 0), (1, 1))
        assert p.graph.has_edge(0, 1)
        assert max_clique(p.graph).size == 2

    def test_present_absent_mix_is_incompatible(self):
        labels = (("a",), ("b",))
        raw = np.full((2, 2), 1.0)
        np.fill_diagonal(raw, 0.0)
        w = DistanceMatrix(raw)
        present = np.array([[False, True], [True, False]])
        absent = np.zeros((2, 2), dtype=bool)
        g1 = LabeledWeightedGraph(labels, w, (0, 1), edge_present=present)
        g2 = LabeledWeightedGraph(labels, w, (0, 1), edge_present=absent)
        p = build_product_graph(g1, g2, Absolute(10.0))
        assert p.n == 2
        assert not p.graph.has_edge(0, 1)

    def test_label_arity_mismatch_rejected(self):
        g1 = LabeledWeightedGraph((("a", "x"),), DistanceMatrix(np.zeros((1, 1))), (0,))
        g2 = LabeledWeightedGraph((("a",),), DistanceMatrix(np.zeros((1, 1))), (0,))
        with pytest.raises(InputFormatError):
            build_product_graph(g1, g2, Absolute(1.0))


class TestLabeledWeightedGraph:
    def test_rejects_asymmetric_weights(self):
        w = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InputFormatError):
            LabeledWeightedGraph((("a",), ("b",)), DistanceMatrix(w), (0, 1))

    def test_rejects_bad_edge_mask(self):
        w = DistanceMatrix(np.zeros((2, 2)))
        loop = np.array([[True, False], [False, False]])
        with pytest.raises(InputFormatError):
            LabeledWeightedGraph((("a",), ("b",)), w, (0, 1),
                                 edge_present=loop)

    def test_complete_by_default(self):
        g = random_labeled_graph(np.random.default_rng(5), 4, 2)
        assert all(g.has_edge(i, j) for i in range(4)
                   for j in range(4) if i != j)
        assert not g.has_edge(1, 1)
