"""Matching attack pipeline, witness enumeration, clique correspondence."""

import weakref

import numpy as np
import pytest

from distlink import (
    Absolute,
    DistanceMatrix,
    InputFormatError,
    LabeledWeightedGraph,
    MatchList,
    MicrodataRecord,
    MicrodataTable,
    SizeLimitError,
    build_graph,
    build_product_graph,
    clique,
    distance_matrix,
    enumerate_maximum_cliques,
    max_clique,
    run_attack,
)
from distlink.datasets import (
    example1_table,
    poets_ident_matrix,
    poets_ident_table,
    poets_target_matrix,
    poets_target_table,
)
from distlink.clique import _Search
from distlink.oracles import count_cliques_of_size, enumerate_common_subgraphs, label_pairs, theorem1_check
from helpers import (
    POETS_PRODUCT_PAIRS_1BASED,
    POETS_TRUE_MATCHES_1BASED,
    gender_tie_pair,
    on_both_paths,
    random_labeled_graph,
    random_relation,
)


def poets_attack(**kw):
    return run_attack(poets_target_table(), poets_target_matrix(),
                      poets_ident_table(), poets_ident_matrix(),
                      Absolute(5.0), **kw)


class TestRunAttack:
    def test_poets_matching(self):
        report = poets_attack()
        assert report.product_vertex_count == 11
        assert report.clique.size == 4
        assert report.match_list.one_based() == POETS_TRUE_MATCHES_1BASED
        assert report.match_list.distance_supported

    def test_poets_tie_enumeration(self):
        report = poets_attack(enumerate_ties=True)
        assert report.maximum_clique_count == 1
        assert report.stable_core.one_based() == POETS_TRUE_MATCHES_1BASED

    def test_gender_tie_enumeration(self):
        (tt, tm), (it, im) = gender_tie_pair(1)
        reports = on_both_paths(
            lambda rel: run_attack(tt, tm, it, im, rel, enumerate_ties=True), Absolute(25.0))
        for report in reports:
            g = report.product.graph
            oracle = _Search(g, 10**8, keep_ties=True)
            common = set.intersection(*(set(oracle.vertices(m)) for m in oracle.best_masks))
            assert report.maximum_clique_count == count_cliques_of_size(g, report.clique.size) == 3
            assert report.stable_core.matches == tuple(sorted(report.product.vertices[v]
                                                              for v in common))
        assert reports[0].stable_core == reports[1].stable_core

    def test_kept_report_holds_no_forward_lists(self, monkeypatch):
        # the split search's forward lists (8 bytes a product edge) die
        # with the attack; max_clique's own result keeps them for the tie pass
        lists = []
        real = clique._RootLevel

        def root_level(*args):
            level = real(*args)
            lists.append(weakref.ref(level.adj))
            return level

        monkeypatch.setattr(clique, "_RootLevel", root_level)
        monkeypatch.setattr(clique, "SPLIT_MIN_VERTICES", -1)
        (tt, tm), (it, im) = gender_tie_pair(1)
        for enumerate_ties in (False, True):
            report = run_attack(tt, tm, it, im, Absolute(25.0), enumerate_ties=enumerate_ties)
            assert len(lists) == 1 + enumerate_ties and lists[-1]() is None
            assert report.clique._search is None and report.clique.size > 1
        g = report.product.graph
        kept = max_clique(g)
        assert lists[-1]() is not None
        assert len(enumerate_maximum_cliques(g, clique=kept)) == report.maximum_clique_count == 3

    def test_matches_subset_of_classical_linkage(self):
        report = poets_attack()
        classical = set(label_pairs(poets_target_table().qi_tuples(),
                                    poets_ident_table().qi_tuples()))
        assert set(report.matches) <= classical

    def test_self_linkage_recovers_identity(self):
        t = example1_table()
        m = distance_matrix(t.points)
        report = run_attack(t, m, t, m, Absolute(0.5))
        assert report.match_list.one_based() == ((1, 1), (2, 2), (3, 3), (4, 4))

    def test_qi_schema_mismatch_rejected(self):
        t = poets_target_table()
        other = example1_table()
        with pytest.raises(InputFormatError):
            run_attack(t, poets_target_matrix(), other,
                       distance_matrix(other.points), Absolute(5.0))

    def test_single_vertex_match_flagged_unsupported(self):
        # one target record against two candidates half an epsilon apart:
        # two product vertices, no edges, so the clique has one vertex and
        # the match carries no distance evidence
        eps = 1.0
        target = MicrodataTable([MicrodataRecord({"g": "a"})], ("g",), ("g",))
        tm = DistanceMatrix(np.zeros((1, 1)))
        ident = MicrodataTable([MicrodataRecord({"g": "a"}),
                                MicrodataRecord({"g": "a"})], ("g",), ("g",))
        im = DistanceMatrix(np.array([[0.0, eps / 2], [eps / 2, 0.0]]))
        report = run_attack(target, tm, ident, im, Absolute(eps))
        assert report.product_vertex_count == 2
        assert report.product.graph.edge_count() == 0
        assert report.clique.size == 1
        assert len(report.matches) == 1
        assert not report.match_list.distance_supported

    def test_disjoint_labels_give_empty_match_list(self):
        t1 = MicrodataTable([MicrodataRecord({"g": "a"})], ("g",), ("g",))
        t2 = MicrodataTable([MicrodataRecord({"g": "b"})], ("g",), ("g",))
        zero = DistanceMatrix(np.zeros((1, 1)))
        report = run_attack(t1, zero, t2, zero, Absolute(1.0))
        assert report.product_vertex_count == 0
        assert report.matches == ()


class TestMatchList:
    def test_one_based_conversion(self):
        ml = MatchList(((0, 3), (2, 1)))
        assert ml.one_based() == ((1, 4), (3, 2))

    def test_rejects_duplicate_target_rows(self):
        with pytest.raises(InputFormatError):
            MatchList(((0, 1), (0, 2)))

    def test_rejects_duplicate_ident_rows(self):
        with pytest.raises(InputFormatError):
            MatchList(((1, 0), (2, 0)))


class TestClassicalLinkage:
    def test_poets_pairs(self):
        pairs = label_pairs(poets_target_table().qi_tuples(), poets_ident_table().qi_tuples())
        assert {(t + 1, i + 1) for t, i in pairs} == POETS_PRODUCT_PAIRS_1BASED
        assert list(pairs) == sorted(pairs)

    def test_equals_product_vertices_for_any_relation(self):
        gt = build_graph(poets_target_table(), poets_target_matrix())
        gi = build_graph(poets_ident_table(), poets_ident_matrix())
        p = build_product_graph(gt, gi, Absolute(0.001))
        assert tuple(label_pairs(poets_target_table().qi_tuples(),
                                 poets_ident_table().qi_tuples())) == p.vertices

    def test_whitespace_in_values_ignored(self):
        a = MicrodataTable([MicrodataRecord({"g": " x "})], ("g",), ("g",))
        b = MicrodataTable([MicrodataRecord({"g": "x"})], ("g",), ("g",))
        assert label_pairs(a.qi_tuples(), b.qi_tuples()) == [(0, 0)]


def identical_triangle_pair():
    labels = (("a",), ("b",), ("c",))
    w = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    g = LabeledWeightedGraph(labels, DistanceMatrix(w), (0, 1, 2))
    return g, g


class TestWitnessEnumeration:
    def test_identical_triangles_have_unique_full_witness(self):
        g1, g2 = identical_triangle_pair()
        found = enumerate_common_subgraphs(g1, g2, Absolute(0.01), 3)
        assert len(found) == 1
        w = found[0]
        assert w.phi == ((0, 0), (1, 1), (2, 2))

    def test_counts_match_product_clique_counts(self):
        gt = build_graph(poets_target_table(), poets_target_matrix())
        gi = build_graph(poets_ident_table(), poets_ident_matrix())
        g1 = LabeledWeightedGraph(gt.labels[:5],
                                  DistanceMatrix(gt.weights.entries[:5, :5]),
                                  gt.record_ids[:5])
        g2 = LabeledWeightedGraph(gi.labels[:5],
                                  DistanceMatrix(gi.weights.entries[:5, :5]),
                                  gi.record_ids[:5])
        rel = Absolute(5.0)
        p = build_product_graph(g1, g2, rel)
        for k in range(1, 6):
            witnesses = enumerate_common_subgraphs(g1, g2, rel, k)
            assert len(witnesses) == count_cliques_of_size(p.graph, k)

    def test_disjoint_labels_no_witness(self):
        g1 = random_labeled_graph(np.random.default_rng(0), 3, 1)
        labels = (("other",),) * 3
        g2 = LabeledWeightedGraph(labels, g1.weights, g1.record_ids)
        assert enumerate_common_subgraphs(g1, g2, Absolute(1.0), 1) == []

    def test_graph_order_limit(self):
        rng = np.random.default_rng(23)
        big = random_labeled_graph(rng, 8, 2)
        small = random_labeled_graph(rng, 3, 2)
        with pytest.raises(SizeLimitError):
            enumerate_common_subgraphs(big, small, Absolute(1.0), 2)

    def test_order_beyond_graph_size_yields_nothing(self):
        g1, g2 = identical_triangle_pair()
        assert enumerate_common_subgraphs(g1, g2, Absolute(1.0), 4) == []

    def test_rejects_nonpositive_order(self):
        g1, g2 = identical_triangle_pair()
        with pytest.raises(InputFormatError):
            enumerate_common_subgraphs(g1, g2, Absolute(1.0), 0)

    def test_witness_edges_respect_relation(self):
        rng = np.random.default_rng(21)
        g1 = random_labeled_graph(rng, 5, 2)
        g2 = random_labeled_graph(rng, 5, 2)
        rel = Absolute(3.0)
        for w in enumerate_common_subgraphs(g1, g2, rel, 2):
            (s1, t1), (s2, t2) = w.phi
            assert g1.labels[s1] == g2.labels[t1]
            assert g1.labels[s2] == g2.labels[t2]
            assert rel.holds(g1.weight(s1, s2), g2.weight(t1, t2))


class TestCliqueSubgraphCorrespondence:
    def test_single_vertex_graphs(self):
        g1 = random_labeled_graph(np.random.default_rng(1), 1, 1)
        g2 = random_labeled_graph(np.random.default_rng(2), 1, 1)
        assert theorem1_check(g1, g2, Absolute(1.0))

    def test_degenerate_two_candidate_configuration(self):
        # single target record versus two nearby candidates: the two
        # candidate mappings conflict in the target component, so no
        # order-2 witness exists and the maximum clique stays at 1
        eps = 1.0
        g1 = LabeledWeightedGraph((("a",),), DistanceMatrix(np.zeros((1, 1))), (0,))
        w2 = np.array([[0.0, eps / 2], [eps / 2, 0.0]])
        g2 = LabeledWeightedGraph((("a",), ("a",)), DistanceMatrix(w2), (0, 1))
        rel = Absolute(eps)
        p = build_product_graph(g1, g2, rel)
        assert p.n == 2
        assert p.graph.edge_count() == 0
        assert enumerate_common_subgraphs(g1, g2, rel, 2) == []
        assert theorem1_check(g1, g2, rel)

    def test_random_instances(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            n1 = int(rng.integers(1, 6))
            n2 = int(rng.integers(1, 6))
            g1 = random_labeled_graph(rng, n1, 3,
                                      complete=bool(rng.random() < 0.5))
            g2 = random_labeled_graph(rng, n2, 3,
                                      complete=bool(rng.random() < 0.5))
            assert theorem1_check(g1, g2, random_relation(rng))
