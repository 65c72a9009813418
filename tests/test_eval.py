"""Match scoring, synthetic data generation, the simulation grid runner."""

import csv
import math
import os

import numpy as np
import pytest

from distlink import (
    GERMANY,
    GroundTruth,
    InputFormatError,
    MatchList,
    SimulationConfig,
    classical_linkage,
    build_graph,
    build_product_graph,
    Absolute,
    evaluate,
    generate_synthetic_pair,
    product_vertex_count_check,
    ru_map_data,
    run_simulation,
    save_table,
)
from distlink import evaluation
from distlink.datasets import census_qi_distributions
from distlink.evaluation import (
    ID_ATTRIBUTE,
    write_aggregate_csv,
    write_results_csv,
    write_ru_csv,
)
from distlink.seeding import STREAM_GENDATA, derive_rng
from helpers import record_loop_synthetic_tables


def tiny_config(**kw):
    args = dict(n_target=20, n_ident=20, n_common=6,
                sigma_grid=(0.01,), alpha_grid=(0.5,),
                repetitions=2, qi_distributions=census_qi_distributions(),
                seed=5, n_calibration_pairs=200)
    args.update(kw)
    return SimulationConfig(**args)


class TestEvaluate:
    def test_hand_worked_counts(self):
        truth = GroundTruth(frozenset({(1, 1), (2, 2), (5, 5)}))
        r = evaluate([(1, 1), (2, 3)], truth)
        assert (r.tp, r.fp, r.fn) == (1, 1, 2)
        assert r.precision == pytest.approx(0.5)
        assert r.recall == pytest.approx(1 / 3)
        assert r.precision_defined

    def test_perfect_matching(self):
        truth = GroundTruth(frozenset({(0, 3), (1, 2)}))
        r = evaluate(MatchList(((0, 3), (1, 2))), truth)
        assert r.precision == 1.0 and r.recall == 1.0

    def test_empty_match_list_precision_flagged(self):
        truth = GroundTruth(frozenset({(0, 0)}))
        r = evaluate([], truth)
        assert r.precision == 1.0
        assert not r.precision_defined
        assert r.recall == 0.0

    def test_empty_truth_rejected(self):
        with pytest.raises(InputFormatError):
            evaluate([(0, 0)], GroundTruth(frozenset()))

    def test_duplicate_pairs_rejected(self):
        truth = GroundTruth(frozenset({(0, 0)}))
        with pytest.raises(InputFormatError):
            evaluate([(0, 0), (0, 0)], truth)

    def test_count_conservation(self):
        truth = GroundTruth(frozenset((t, 100 + t) for t in range(12)))
        matches = [(t, 100 + t) for t in range(6)] + \
                  [(90 + j, j) for j in range(4)]
        r = evaluate(matches, truth)
        assert r.tp + r.fp == len(matches)
        assert r.tp + r.fn == len(truth)


class TestGroundTruth:
    def test_rejects_conflicting_assignments(self):
        with pytest.raises(InputFormatError):
            GroundTruth(frozenset({(0, 1), (0, 2)}))
        with pytest.raises(InputFormatError):
            GroundTruth(frozenset({(1, 0), (2, 0)}))

    def test_len(self):
        assert len(GroundTruth(frozenset({(0, 0), (1, 1)}))) == 2


class TestSimulationConfig:
    def test_valid_roundtrip_dict(self):
        c = tiny_config()
        d = c.as_dict()
        assert d["n_target"] == 20 and d["sigma_grid"] == [0.01]
        assert SimulationConfig.from_dict(d) == c

    def test_defaults(self):
        c = SimulationConfig(20, 20, 6, (0.01,))
        assert (c.alpha_grid, c.repetitions, c.region, c.seed) == ((0.5,), 1, GERMANY, 0)
        assert c.qi_distributions == census_qi_distributions()
        assert SimulationConfig.from_dict({"n_target": 20, "n_ident": 20, "n_common": 6,
                                           "sigma": 0.01}) == c

    @pytest.mark.parametrize("kw", [
        dict(n_target=0),
        dict(n_common=25),
        dict(repetitions=0),
        dict(sigma_grid=()),
        dict(alpha_grid=(1.5,)),
        dict(alpha_grid=(0.0,)),
        dict(sigma_grid=(-0.1,)),
        dict(sigma_grid=(0.01, math.nan)),
        dict(sigma_grid=(math.inf,)),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(InputFormatError):
            tiny_config(**kw)

    def test_rejects_bad_distributions(self):
        with pytest.raises(InputFormatError):
            tiny_config(qi_distributions={"g": {"a": 0.4, "b": 0.4}})
        with pytest.raises(InputFormatError):
            tiny_config(qi_distributions={})
        with pytest.raises(InputFormatError):
            tiny_config(qi_distributions={"g": {"a": 1.2, "b": -0.2}})


class TestGenerateSyntheticPair:
    def _generate(self, sigma=0.01, seed=5):
        config = tiny_config()
        rng = derive_rng(seed, STREAM_GENDATA)
        return generate_synthetic_pair(config, sigma, rng)

    def test_shapes(self):
        (tt, tm), (it_, im), truth = self._generate()
        assert len(tt) == 20 and len(it_) == 20
        assert tm.entries.shape == (20, 20)
        assert im.entries.shape == (20, 20)
        assert len(truth) == 6

    def test_truth_agrees_with_entity_ids(self):
        (tt, _), (it_, _), truth = self._generate()
        for t_row, i_row in truth.overlap_pairs:
            assert (tt.records[t_row].get(ID_ATTRIBUTE)
                    == it_.records[i_row].get(ID_ATTRIBUTE))
        t_ids = {r.get(ID_ATTRIBUTE) for r in tt.records}
        i_ids = {r.get(ID_ATTRIBUTE) for r in it_.records}
        assert len(t_ids & i_ids) == 6

    def test_zero_sigma_matrix_oracle(self):
        # without noise the published matrix must agree exactly with the
        # identification-side distances on every true pair of pairs
        (tt, tm), (it_, im), truth = self._generate(sigma=0.0)
        pairs = sorted(truth.overlap_pairs)
        for (t1, i1) in pairs:
            for (t2, i2) in pairs:
                assert tm[t1, t2] == pytest.approx(im[i1, i2], abs=1e-9)

    def test_noise_changes_target_matrix(self):
        (_, tm0), _, _ = self._generate(sigma=0.0)
        (_, tm1), _, _ = self._generate(sigma=0.05)
        assert not np.allclose(tm0.entries, tm1.entries)

    def test_deterministic_for_same_stream(self):
        (_, a), _, truth_a = self._generate()
        (_, b), _, truth_b = self._generate()
        assert np.array_equal(a.entries, b.entries)
        assert truth_a.overlap_pairs == truth_b.overlap_pairs

    def test_product_vertex_tally_matches_classical_linkage(self):
        (tt, tm), (it_, im), _ = self._generate()
        gt = build_graph(tt.with_qi(tuple(census_qi_distributions())), tm)
        gi = build_graph(it_.with_qi(tuple(census_qi_distributions())), im)
        expected = product_vertex_count_check(gt, gi)
        pairs = classical_linkage(tt.with_qi(tuple(census_qi_distributions())),
                                  it_.with_qi(tuple(census_qi_distributions())))
        assert len(pairs) == expected
        p = build_product_graph(gt, gi, Absolute(1.0))
        assert p.n == expected


class TestSyntheticTablesAgainstRecordLoop:
    """The column-built tables save to the same bytes as tables built one
    record at a time from numpy scalars."""

    @pytest.mark.parametrize("seed", range(5))
    def test_saved_bytes_match(self, tmp_path, seed):
        config = tiny_config(n_target=30, n_ident=25, n_common=8)
        (tt, _), (it_, _), _ = generate_synthetic_pair(config, 0.01, derive_rng(seed, STREAM_GENDATA))
        oracle_tt, oracle_it = record_loop_synthetic_tables(config, derive_rng(seed, STREAM_GENDATA))
        for name, table, oracle in (("target", tt, oracle_tt), ("ident", it_, oracle_it)):
            save_table(table, tmp_path / f"{name}.csv")
            save_table(oracle, tmp_path / f"{name}_oracle.csv")
            assert ((tmp_path / f"{name}.csv").read_bytes()
                    == (tmp_path / f"{name}_oracle.csv").read_bytes())
            assert all(type(v) is str for r in table.records for v in r.values.values())

    def test_non_string_values_become_their_str(self, tmp_path):
        config = tiny_config(qi_distributions={"k": {1: 0.25, 2: 0.75}, "f": {0.5: 1.0}})
        (_, _), (it_, _), _ = generate_synthetic_pair(config, 0.01, derive_rng(1, STREAM_GENDATA))
        _, oracle = record_loop_synthetic_tables(config, derive_rng(1, STREAM_GENDATA))
        assert [r.values for r in it_.records] == [r.values for r in oracle.records]
        assert {r.get("k") for r in it_.records} == {"1", "2"}
        assert {r.get("f") for r in it_.records} == {"0.5"}


class TestRunSimulation:
    def test_row_grid_complete_and_deterministic(self):
        config = tiny_config(sigma_grid=(0.005, 0.02), alpha_grid=(0.5, 0.9),
                             repetitions=2)
        a = run_simulation(config)
        b = run_simulation(config)
        assert len(a.rows) == 2 * 2 * 2
        assert [(r.sigma, r.alpha, r.rep) for r in a.rows] == \
               [(r.sigma, r.alpha, r.rep) for r in b.rows]
        assert [(r.tp, r.fp, r.fn, r.precision, r.recall) for r in a.rows] == \
               [(r.tp, r.fp, r.fn, r.precision, r.recall) for r in b.rows]

    def test_cells_are_row_means(self):
        config = tiny_config(repetitions=3)
        res = run_simulation(config)
        cell = res.cell(0.01, 0.5)
        rows = [r for r in res.rows if (r.sigma, r.alpha) == (0.01, 0.5)]
        assert cell.mean_precision == pytest.approx(
            sum(r.precision for r in rows) / len(rows))
        assert cell.mean_recall == pytest.approx(
            sum(r.recall for r in rows) / len(rows))
        assert cell.completed == 3 and cell.budget_exhausted == 0

    def test_threads_do_not_change_results(self):
        config = tiny_config(sigma_grid=(0.005, 0.02), repetitions=2)
        a = run_simulation(config, threads=1)
        b = run_simulation(config, threads=2)
        assert [(r.tp, r.fp, r.fn) for r in a.rows] == \
               [(r.tp, r.fp, r.fn) for r in b.rows]

    def test_workers_capped_by_jobs_and_cpus(self, monkeypatch):
        pools = []

        class RecordingPool:
            """Records max_workers and maps in this process; starts nothing."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        config = tiny_config(sigma_grid=(0.005, 0.02), repetitions=2)  # 4 jobs
        expected = [(r.tp, r.fp, r.fn) for r in run_simulation(config, threads=1).rows]
        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", RecordingPool)
        for cpus, threads, started in ((3, 10**6, [3]), (8, 10**6, [4]), (8, 2, [2]),
                                       (1, 10**6, []), (None, 10**6, []), (8, 1, [])):
            pools.clear()
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            res = run_simulation(config, threads=threads)
            assert pools == started
            assert [(r.tp, r.fp, r.fn) for r in res.rows] == expected

    def test_budget_exhaustion_is_recorded_not_fatal(self):
        config = tiny_config(node_budget=1)
        res = run_simulation(config)
        assert all(r.budget_exhausted for r in res.rows)
        assert all(r.tp is None for r in res.rows)
        cell = res.cell(0.01, 0.5)
        assert cell.completed == 0
        assert math.isnan(cell.mean_precision)

    def test_calibrations_stored_per_sigma(self):
        config = tiny_config(sigma_grid=(0.005, 0.02))
        res = run_simulation(config)
        assert len(res.calibrations) == 2
        assert res.calibrations[0].sigma == 0.005


class TestRuMap:
    def test_points_and_utility_scale(self):
        config = tiny_config(sigma_grid=(0.005, 0.01, 0.05),
                             n_calibration_pairs=1000)
        res = run_simulation(config)
        pts = ru_map_data(res, 0.5)
        assert [s for s, _, _ in pts] == [0.005, 0.01, 0.05]
        by_sigma = {s: u for s, _, u in pts}
        assert by_sigma[0.01] == pytest.approx(1.0 / 1.9677, rel=0.30)
        for s, risk, _ in pts:
            assert 0.0 <= risk <= 1.0

    def test_alpha_must_be_simulated(self):
        res = run_simulation(tiny_config())
        with pytest.raises(InputFormatError):
            ru_map_data(res, 0.9)


class TestCsvWriters:
    def test_results_csv_layout(self, tmp_path):
        res = run_simulation(tiny_config(repetitions=2))
        path = tmp_path / "results.csv"
        write_results_csv(res, path)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sigma", "alpha", "rep", "tp", "fp", "fn",
                           "precision", "recall", "precision_defined",
                           "budget_exhausted"]
        assert len(rows) == 1 + len(res.rows)
        assert rows[1][0] == "0.01" and rows[1][2] == "0"

    def test_results_csv_nan_for_exhausted_rows(self, tmp_path):
        res = run_simulation(tiny_config(node_budget=1))
        path = tmp_path / "results.csv"
        write_results_csv(res, path)
        body = path.read_text().splitlines()[1]
        cells = body.split(",")
        assert cells[3] == "nan" and cells[9] == "1"

    def test_aggregate_csv_layout(self, tmp_path):
        res = run_simulation(tiny_config(sigma_grid=(0.005, 0.02),
                                         alpha_grid=(0.3, 0.5)))
        path = tmp_path / "agg.csv"
        write_aggregate_csv(res, path)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["measure", "alpha", "sigma=0.005", "sigma=0.02"]
        assert [r[0] for r in rows[1:]] == ["precision", "precision",
                                            "recall", "recall"]
        assert [r[1] for r in rows[1:]] == ["0.3", "0.5", "0.3", "0.5"]

    def test_ru_csv_layout(self, tmp_path):
        path = tmp_path / "ru.csv"
        write_ru_csv([(0.005, 1.0, 2.0), (0.05, 0.9, 0.02)], path)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sigma", "risk", "utility"]
        assert rows[1] == ["0.005", "1.0", "2.0"]
