"""Record graphs, the approximate-equality relations, product graph."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distlink import (
    Absolute,
    DistanceMatrix,
    InputFormatError,
    LabeledWeightedGraph,
    QuantileBand,
    ResourceBudgetError,
    SizeLimitError,
    build_graph,
    build_product_graph,
    max_clique,
)
from distlink import clique as clique_module
from distlink import core as core_module
from distlink import native
from distlink.clique import csr_graph
from distlink.datasets import (
    example1_table,
    poets_ident_matrix,
    poets_ident_table,
    poets_target_matrix,
    poets_target_table,
)
from distlink import graph as graph_module
from distlink.graph import _product_edges_join
from distlink.oracles import (
    GeneralGraph,
    _product_edges_general,
    adjacency_rows,
    general_product_graph,
    label_pairs,
    product_vertex_count_check,
)
from helpers import (
    POETS_PRODUCT_PAIRS_1BASED,
    census_graphs,
    dict_label_pairs,
    gender_tie_pair,
    one_shot_product_edges_join,
    random_labeled_graph,
    random_relation,
    require_compiled,
)
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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from("abcd"), max_size=12), st.lists(st.sampled_from("bcde"), max_size=12))
    def test_label_pairs_equal_dict_oracle(self, target, ident):
        target, ident = [(c,) for c in target], [(c,) for c in ident]
        assert label_pairs(target, ident) == dict_label_pairs(target, ident)

    def test_census_vertices_equal_dict_oracle(self):
        gt, gi, rel = census_graphs(120)
        assert build_product_graph(gt, gi, rel).vertices == tuple(dict_label_pairs(gt.labels, gi.labels))

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
        assert a.graph.edges() == b.graph.edges()

    def test_vectorized_matches_scalar_construction(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            g1 = random_labeled_graph(rng, int(rng.integers(2, 9)), 2)
            g2 = random_labeled_graph(rng, int(rng.integers(2, 9)), 2)
            rel = random_relation(rng)
            p = build_product_graph(g1, g2, rel)
            assert p.graph.edges() == _product_edges_general(g1, g2, rel, p.vertices)

    def test_absent_absent_edges_count_as_compatible(self):
        # two-vertex graphs with no edge at all: the pair of cross
        # mappings is adjacent because both sides lack the edge
        labels = (("a",), ("b",))
        w = DistanceMatrix(np.zeros((2, 2)))
        mask = np.zeros((2, 2), dtype=bool)
        g1 = GeneralGraph(LabeledWeightedGraph(labels, w, (0, 1)), mask)
        g2 = GeneralGraph(LabeledWeightedGraph(labels, w, (0, 1)), mask)
        p = general_product_graph(g1, g2, Absolute(1.0))
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
        g1 = GeneralGraph(LabeledWeightedGraph(labels, w, (0, 1)), present)
        g2 = GeneralGraph(LabeledWeightedGraph(labels, w, (0, 1)), absent)
        p = general_product_graph(g1, g2, Absolute(10.0))
        assert p.n == 2
        assert not p.graph.has_edge(0, 1)

    def test_label_arity_mismatch_rejected(self):
        g1 = LabeledWeightedGraph((("a", "x"),), DistanceMatrix(np.zeros((1, 1))), (0,))
        g2 = LabeledWeightedGraph((("a",),), DistanceMatrix(np.zeros((1, 1))), (0,))
        with pytest.raises(InputFormatError):
            build_product_graph(g1, g2, Absolute(1.0))


@st.composite
def _join_instances(draw):
    """Two complete labelled graphs and a band, drawn where the sorted
    interval join can go wrong: integer weights and bands whose edges the
    deviations hit exactly, bands one ulp around an actual deviation,
    repeated weights, magnitudes from 1e-300 to 1e15, labels present on
    one side only, and empty products."""
    kind = draw(st.sampled_from(["integer", "pool", "float"]))
    scale = 1.0 if kind == "integer" else 10.0 ** draw(st.integers(-300, 15))
    if kind == "integer":
        weight = st.integers(0, 6).map(float)
    elif kind == "pool":
        weight = st.sampled_from([scale * k for k in (0.5, 1.25, 3.0, 3.0000000000000004)])
    else:
        weight = st.floats(0.0, 10.0).map(lambda f: f * scale)

    def graph(alphabet):
        n = draw(st.integers(1, 6))
        labels = tuple((draw(st.sampled_from(alphabet)),) for _ in range(n))
        w = np.zeros((n, n))
        w[np.triu_indices(n, 1)] = draw(st.lists(weight, min_size=n * (n - 1) // 2,
                                                 max_size=n * (n - 1) // 2))
        return LabeledWeightedGraph(labels, DistanceMatrix(w + w.T))

    g1, g2 = graph("abc"), graph("abd")
    if kind == "integer":
        lo = float(draw(st.integers(-5, 4)))
        hi = float(draw(st.integers(int(lo) + 1, 5)))
    else:
        weights = [g.weights.entries[np.triu_indices(g.n, 1)] for g in (g1, g2)]
        if all(len(ws) for ws in weights) and draw(st.booleans()):
            dev = draw(st.sampled_from(list(weights[1]))) - draw(st.sampled_from(list(weights[0])))
            lo = draw(st.sampled_from([dev, np.nextafter(dev, -np.inf)]))
            hi = draw(st.sampled_from([np.nextafter(dev, np.inf), dev + scale]))
        else:
            lo = -draw(st.floats(0.0, 10.0)) * scale
            hi = draw(st.floats(0.0, 10.0)) * scale
    return g1, g2, QuantileBand(float(lo), float(hi if lo < hi else np.nextafter(lo, np.inf)))


def _complete(labels: str, upper: list) -> LabeledWeightedGraph:
    """Complete graph, one label per character, upper-triangle weights row by row."""
    w = np.zeros((len(labels), len(labels)))
    w[np.triu_indices(len(labels), 1)] = upper
    return LabeledWeightedGraph(tuple((lab,) for lab in labels), DistanceMatrix(w + w.T))


# target weight 2.0 in label pairs aa, ab and bb, against weights 1-3
_REPEATED = (_complete("aabb", [2.0] * 6), _complete("abab", [1.0, 2.0, 3.0, 2.0, 1.0, 2.0]))


class TestSparseJoin:
    """The sorted interval join that builds products of complete graphs,
    against the scalar loop kept as its oracle."""

    @settings(max_examples=300, deadline=None)
    @given(_join_instances())
    @example((*_REPEATED, QuantileBand(-1.5, 0.5)))
    @example((*_REPEATED, QuantileBand(-100.0, -50.0)))  # every window below every weight
    @example((*_REPEATED, QuantileBand(50.0, 100.0)))  # every window above every weight
    @example((_complete("aaa", [1.0, 2.5, 4.0]), _complete("aaaa", [1.5, 2.0, 3.0, 2.5, 4.5, 0.5]),
              QuantileBand(-1.0, 1.0)))  # a single label pair
    def test_rows_equal_scalar_oracle(self, case):
        g1, g2, rel = case
        p = build_product_graph(g1, g2, rel)
        assert p.vertices == tuple(label_pairs(g1.labels, g2.labels))
        assert p.graph.edges() == _product_edges_general(g1, g2, rel, p.vertices)
        general = general_product_graph(g1, g2, rel)
        assert general.vertices == p.vertices and general.graph.edges() == p.graph.edges()

    def test_band_below_weight_resolution(self):
        # 1 - 5e-324 and 1 + 5e-324 both round to 1.0, so the join's
        # window is the single weight 1.0, and the zero deviation of two
        # equal weights lies inside the band
        labels = (("a",), ("b",))
        w = DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        g = LabeledWeightedGraph(labels, w)
        tiny = np.nextafter(0.0, 1.0)
        p = build_product_graph(g, g, QuantileBand(-tiny, tiny))
        assert p.vertices == ((0, 0), (1, 1))
        assert p.graph.has_edge(0, 1)
        assert p.graph.edges() == _product_edges_general(g, g, QuantileBand(-tiny, tiny), p.vertices)

    def test_census_graph_does_not_depend_on_join_order(self):
        # the join may emit its edges in any order; the CSR may not change
        gt, gi, rel = census_graphs(120)
        p = build_product_graph(gt, gi, rel)
        key = _product_edges_join(gt, gi, rel)[2]
        x, y = np.divmod(key, p.n)
        assert np.all(x < y) and len(np.unique(key)) == len(key) > 0
        g = csr_graph(p.n, np.sort(key)[::-1].copy())
        assert np.array_equal(p.graph.indptr, g.indptr)
        assert np.array_equal(p.graph.indices, g.indices)

    @settings(max_examples=100, deadline=None)
    @given(_join_instances(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_widening_the_band_adds_edges(self, case, down, up):
        g1, g2, rel = case
        width = rel.hi - rel.lo
        wide = QuantileBand(rel.lo - down * width, rel.hi + up * width)
        narrow = build_product_graph(g1, g2, rel).graph
        wider = build_product_graph(g1, g2, wide).graph
        assert all(a & ~b == 0 for a, b in zip(adjacency_rows(narrow), adjacency_rows(wider)))
        assert max_clique(wider).size >= max_clique(narrow).size


def _spy_candidates(mp):
    """The list the join's candidate counts go to, through its memory guard."""
    seen = []
    check = graph_module._check_edge_memory
    mp.setattr(graph_module, "_check_edge_memory",
               lambda n_vertices, n_candidates: seen.append(n_candidates) or check(
                   n_vertices, n_candidates))
    return seen


def _assert_blocks_equal_one_shot(g1, g2, rel, blocks):
    """The join at each block size gives the one-shot expansion's edges,
    in the same order, as int64 keys x * |V| + y."""
    want = one_shot_product_edges_join(g1, g2, rel)
    for block in blocks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "BLOCK", block)
            pv, _, got = _product_edges_join(g1, g2, rel)
        assert got.dtype == np.int64
        for a, b in zip(np.divmod(got, len(pv)), want):
            assert np.array_equal(a, b)


class TestBlockedJoin:
    """The join expands its candidates a block at a time; the one-shot
    expansion it replaced stays as the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(_join_instances())
    @example((*_REPEATED, QuantileBand(-1.5, 0.5)))
    @example((*_REPEATED, QuantileBand(-100.0, -50.0)))
    @example((*_REPEATED, QuantileBand(50.0, 100.0)))
    @example((_complete("aaa", [1.0, 2.5, 4.0]), _complete("aaaa", [1.5, 2.0, 3.0, 2.5, 4.5, 0.5]),
              QuantileBand(-1.0, 1.0)))
    def test_equals_one_shot_expansion(self, case):
        # 1 << 30 is one block larger than any drawn candidate count
        _assert_blocks_equal_one_shot(*case, (1, 2, 7, 1 << 30))

    def test_census_blocks_equal_one_shot_expansion(self):
        gt, gi, rel = census_graphs(120)
        _assert_blocks_equal_one_shot(gt, gi, rel, (1, 2, 7, 1000, graph_module.BLOCK))

    def test_pairs_with_more_candidates_than_a_block(self):
        # one label, a band wider than every weight: each target pair meets
        # all 2 * 45 ordered identification pairs, more than a block of 7
        rng = np.random.default_rng(7)
        g1, g2 = random_labeled_graph(rng, 8, 1), random_labeled_graph(rng, 10, 1)
        _assert_blocks_equal_one_shot(g1, g2, Absolute(1e9), (1, 7, 89, 90, 91))

    def test_desk_grid_join_is_one_block(self):
        # the simulation grid's widest band on 100 records: every candidate
        # of a repetition's product fits in a single block
        with pytest.MonkeyPatch.context() as mp:
            seen = _spy_candidates(mp)
            build_product_graph(*census_graphs(100, sigma=0.05, alpha=0.9))
        assert 0 < seen[0] <= graph_module.BLOCK


def _builds(g1, g2, rel):
    """build_product_graph forced onto the compiled build, then onto numpy,
    each as its vertices, CSR and the candidate count its memory guard saw."""
    out = []
    for compiled in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            seen = _spy_candidates(mp)
            mp.setattr(native, "KERNEL_MIN_SIZE", -1 if compiled else 10**9)
            p = build_product_graph(g1, g2, rel)
        assert p.graph.indices.dtype == np.int32
        out.append((p.vertices, p.graph.indptr.tolist(), p.graph.indices.tolist(), seen))
    return out


def _assert_builds_agree(g1, g2, rel):
    compiled, numpy = _builds(g1, g2, rel)
    assert compiled == numpy
    return compiled


class TestCompiledBuild:
    """The compiled product build against _product_edges_join + csr_graph,
    its oracle and the path without a compiler: the same vertices and CSR,
    array for array, and the same candidate count for the memory guard."""

    @settings(max_examples=300, deadline=None)
    @given(_join_instances())
    @example((*_REPEATED, QuantileBand(-1.5, 0.5)))
    @example((*_REPEATED, QuantileBand(-100.0, -50.0)))
    @example((_complete("aaa", [1.0, 2.5, 4.0]), _complete("aaaa", [1.5, 2.0, 3.0, 2.5, 4.5, 0.5]),
              QuantileBand(-1.0, 1.0)))
    def test_equals_numpy_on_drawn_instances(self, case):
        require_compiled()
        _assert_builds_agree(*case)

    @pytest.mark.parametrize("n", [100, 200, 300, 450, 600])
    def test_census_products(self, n):
        require_compiled()
        vertices, indptr, _, _ = _assert_builds_agree(*census_graphs(n))
        assert len(vertices) > 0 and indptr[-1] > 0

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_tie_products(self, seed):
        require_compiled()
        (tt, tm), (it, im) = gender_tie_pair(seed)
        _assert_builds_agree(build_graph(tt, tm), build_graph(it, im), Absolute(25.0))

    def test_random_labels_and_bands(self):
        # symmetric and lopsided bands on one to five labels; integer
        # weights and bands, whose deviations hit the band's edges, make
        # candidates the open band then rejects
        require_compiled()
        rng = np.random.default_rng(9)
        rejected = 0
        for _ in range(30):
            n_labels = int(rng.integers(1, 6))
            g1, g2 = (random_labeled_graph(rng, int(rng.integers(2, 40)), n_labels)
                      for _ in range(2))
            for rel in (random_relation(rng), Absolute(float(rng.integers(1, 4))),
                        QuantileBand(float(rng.integers(-4, 0)), float(rng.integers(1, 3)))):
                _assert_builds_agree(g1, g2, rel)
            w1, w2 = (LabeledWeightedGraph(g.labels, DistanceMatrix(np.round(g.weights.entries)))
                      for g in (g1, g2))
            _, indptr, _, seen = _assert_builds_agree(w1, w2, QuantileBand(-2.0, 1.0))
            rejected += seen[0] > indptr[-1] // 2
        assert rejected > 0

    def test_one_shared_label_and_none(self):
        require_compiled()
        rng = np.random.default_rng(10)
        g1 = random_labeled_graph(rng, 30, 1)
        g2 = random_labeled_graph(rng, 25, 1)
        assert len(_assert_builds_agree(g1, g2, Absolute(3.0))[0]) == 30 * 25
        other = LabeledWeightedGraph([("x",)] * 25, g2.weights)
        assert _assert_builds_agree(g1, other, Absolute(3.0))[0] == ()

    def test_only_large_products_take_the_compiled_build(self, monkeypatch):
        # poets: 11 vertices, so numpy builds it and the compiler never starts
        monkeypatch.setattr(native, "kernel", lambda: pytest.fail("the kernels were loaded"))
        graphs = poets_graphs()  # loaded once: its 10 x 10 matrices are above the lower floors
        assert build_product_graph(*graphs, Absolute(5.0)).n == 11
        # at a floor of 11 still numpy; below it, the compiled build
        monkeypatch.setattr(native, "KERNEL_MIN_SIZE", 11)
        assert build_product_graph(*graphs, Absolute(5.0)).n == 11
        monkeypatch.setattr(native, "KERNEL_MIN_SIZE", 10)
        with pytest.raises(pytest.fail.Exception, match="the kernels were loaded"):
            build_product_graph(*graphs, Absolute(5.0))


class TestMemoryGuard:
    """build_product_graph refuses a product whose candidate edges, at
    BYTES_PER_CANDIDATE bytes each, exceed physical memory; the poets
    product has 11 vertices and 9 candidates."""

    def test_refuses_before_building(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("the product was built")

        gt, gi = poets_graphs()
        need = graph_module.BYTES_PER_CANDIDATE * 9
        monkeypatch.setattr(core_module, "_physical_memory_bytes", lambda: need - 1)
        monkeypatch.setattr(graph_module, "csr_graph", no_build)
        with pytest.raises(SizeLimitError,
                           match=f"11 vertices and up to 9 edges needs about {need} bytes"):
            build_product_graph(gt, gi, Absolute(5.0))

    def test_refuses_before_expanding_candidates(self, monkeypatch):
        # one label and a band wider than every weight: each of the 780
        # target pairs meets all 1560 ordered identification pairs
        rng = np.random.default_rng(6)
        g1, g2 = random_labeled_graph(rng, 40, 1), random_labeled_graph(rng, 40, 1)
        candidates = 780 * 1560
        need = graph_module.BYTES_PER_CANDIDATE * candidates
        monkeypatch.setattr(core_module, "_physical_memory_bytes", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError,
                               match=f"1600 vertices and up to {candidates} edges needs about {need} bytes"):
                build_product_graph(g1, g2, Absolute(1e9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < candidates  # under one byte per candidate

    def test_estimate_within_memory_passes(self, monkeypatch):
        gt, gi = poets_graphs()
        monkeypatch.setattr(core_module, "_physical_memory_bytes",
                            lambda: graph_module.BYTES_PER_CANDIDATE * 9)
        assert build_product_graph(gt, gi, Absolute(5.0)).n == 11

    def test_estimate_covers_build_and_solver_set_up(self, monkeypatch):
        # one label on 70 records a side: 4,900 product vertices, above the
        # root split's threshold, and about 580,000 candidates, so the
        # candidate arrays dwarf everything of size |V| or of the pairs;
        # on the compiled build and on the numpy one it falls back to
        rng = np.random.default_rng(8)
        g1, g2 = random_labeled_graph(rng, 70, 1), random_labeled_graph(rng, 70, 1)
        for kernel in (native.kernel(), None):
            seen = _spy_candidates(monkeypatch)
            monkeypatch.setattr(native, "kernel", lambda: kernel)
            tracemalloc.start()
            try:
                p = build_product_graph(g1, g2, Absolute(0.25))
                # split at the root on either path
                floor = native.KERNEL_MIN_SIZE if kernel else clique_module.SPLIT_MIN_VERTICES
                assert p.n > floor
                with pytest.raises(ResourceBudgetError):
                    max_clique(p.graph, node_budget=2)  # the split set-up, then two nodes
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert seen[0] > 500_000
            assert peak <= graph_module.BYTES_PER_CANDIDATE * seen[0]

    def test_build_peaks_at_the_key_sort(self, monkeypatch):
        # the instance above on the numpy build: the join hands csr_graph
        # its int64 keys and keeps no edge arrays of its own, so the build's
        # traced peak is the keys (8 bytes a candidate), the int32 indices
        # (8 an edge) and the CSR builder's block-sized temporaries
        rng = np.random.default_rng(8)
        g1, g2 = random_labeled_graph(rng, 70, 1), random_labeled_graph(rng, 70, 1)
        seen = _spy_candidates(monkeypatch)
        monkeypatch.setattr(native, "kernel", lambda: None)
        tracemalloc.start()
        try:
            build_product_graph(g1, g2, Absolute(0.25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seen[0] > 500_000
        assert peak <= 24 * seen[0]

    def test_compiled_build_peaks_at_the_csr(self, monkeypatch):
        # the instance above on the compiled build, where every candidate
        # is an edge: its traced peak is the int32 indices (8 bytes an
        # edge), the label-pair groups (16 bytes a pair) and arrays of |V|
        require_compiled()
        rng = np.random.default_rng(8)
        g1, g2 = random_labeled_graph(rng, 70, 1), random_labeled_graph(rng, 70, 1)
        seen = _spy_candidates(monkeypatch)
        tracemalloc.start()
        try:
            p = build_product_graph(g1, g2, Absolute(0.25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seen[0] == p.graph.edge_count() > 500_000
        assert peak <= 8 * seen[0] + 16 * 2 * 70 * 69 // 2 + 128 * p.n

    def test_unknown_memory_size_is_not_checked(self, monkeypatch):
        gt, gi = poets_graphs()
        monkeypatch.setattr(core_module, "_physical_memory_bytes", lambda: None)
        assert build_product_graph(gt, gi, Absolute(5.0)).n == 11

    def test_probe_reports_physical_memory(self):
        assert core_module._physical_memory_bytes() > 0


class TestLabeledWeightedGraph:
    def test_rejects_asymmetric_weights(self):
        w = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InputFormatError):
            LabeledWeightedGraph((("a",), ("b",)), DistanceMatrix(w), (0, 1))

    def test_rejects_bad_edge_mask(self):
        w = DistanceMatrix(np.zeros((2, 2)))
        loop = np.array([[True, False], [False, False]])
        with pytest.raises(InputFormatError):
            GeneralGraph(LabeledWeightedGraph((("a",), ("b",)), w, (0, 1)), loop)

    def test_edge_mask_is_a_frozen_copy(self):
        w = DistanceMatrix(np.zeros((2, 2)))
        mask = np.zeros((2, 2), dtype=bool)
        g = GeneralGraph(LabeledWeightedGraph((("a",), ("b",)), w, (0, 1)), mask)
        mask[0, 1] = True
        assert not g.has_edge(0, 1)
        with pytest.raises(ValueError):
            g._present[0, 1] = True

    def test_complete_by_default(self):
        g = random_labeled_graph(np.random.default_rng(5), 4, 2)
        assert all(g.has_edge(i, j) for i in range(4)
                   for j in range(4) if i != j)
        assert not g.has_edge(1, 1)
