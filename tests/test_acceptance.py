"""Acceptance suite: one test per capstone requirement.

Each test prints its measured values before asserting, so a failing
criterion leaves the full evidence in the captured output.  Criterion 6
is known to fail on sub-criterion (a) at alpha in {0.5, 0.9}: a band
that accepts a true edge with probability alpha yields maximum cliques
covering roughly three quarters of alpha times the overlap at this
problem size, so mean recall sits below the stated tolerance.  The test
states the requirement as written rather than papering over the gap.
"""

import csv
import json
import math
import os
import time

import numpy as np
import pytest

from distlink import (
    GERMANY,
    Absolute,
    GroundTruth,
    SimulationConfig,
    calibrate,
    distance_matrix,
    evaluate,
    max_clique,
    ru_map_data,
    run_attack,
    run_simulation,
)
from distlink.cli import main
from distlink.datasets import (
    census_qi_distributions,
    example1_table,
    poets_birthplaces_table,
    poets_ident_matrix,
    poets_ident_table,
    poets_target_matrix,
    poets_target_table,
)
from distlink.oracles import brute_force_max_clique, theorem1_check
from helpers import (
    EXAMPLE_CITY_MATRIX,
    POETS_PRODUCT_PAIRS_1BASED,
    POETS_TRUE_MATCHES_1BASED,
    random_labeled_graph,
    random_relation,
    random_simple_graph,
)

# pinned tolerances
CITY_MATRIX_TOL_KM = 0.1
POETS_MATRIX_TOL_KM = 1.0
GOLDEN_RUNTIME_LIMIT_S = 1.0
ORACLE_RUNTIME_LIMIT_S = 60.0
QUANTILE_TOL_SMALL_SIGMA_KM = 0.6   # sigma <= 0.01
QUANTILE_TOL_LARGE_SIGMA_KM = 2.5   # sigma == 0.05
VARIANCE_REL_TOL = 0.30
RECALL_ABS_TOL = 0.10
PRECISION_FLOOR = 0.85
SIMULATION_RUNTIME_LIMIT_S = 600.0

# reference quantiles and variance for n=1000 pairs over the Germany box
REFERENCE_CALIBRATION = {
    0.005: (-1.1088, 1.2192, 0.4799),
    0.010: (-2.3909, 2.2642, 1.9677),
    0.050: (-11.4906, 11.4998, 48.8299),
}

DESK_SIGMAS = (0.005, 0.025, 0.05)
DESK_ALPHAS = (0.3, 0.5, 0.9)


@pytest.fixture(scope="module")
def desk_result():
    """Shared desk-scale simulation for criteria 6 and 7."""
    config = SimulationConfig(
        n_target=100, n_ident=100, n_common=20,
        sigma_grid=DESK_SIGMAS, alpha_grid=DESK_ALPHAS,
        repetitions=10, qi_distributions=census_qi_distributions(),
        region=GERMANY, seed=2)
    threads = min(4, os.cpu_count() or 1)
    t0 = time.perf_counter()
    result = run_simulation(config, threads=threads)
    elapsed = time.perf_counter() - t0
    return result, elapsed


def test_acceptance_01_poets_end_to_end():
    t0 = time.perf_counter()
    report = run_attack(poets_target_table(), poets_target_matrix(),
                        poets_ident_table(), poets_ident_matrix(),
                        Absolute(5.0))
    elapsed = time.perf_counter() - t0
    vertices = {(v + 1, w + 1) for v, w in report.product.vertices}
    matches = report.match_list.one_based()
    truth = GroundTruth(frozenset((t - 1, i - 1)
                                  for t, i in POETS_TRUE_MATCHES_1BASED))
    scored = evaluate(report.matches, truth)
    print(f"[criterion 1] vertices={sorted(vertices)}")
    print(f"[criterion 1] clique size={report.clique.size} "
          f"matches={matches} precision={scored.precision} "
          f"recall={scored.recall} elapsed={elapsed:.3f}s")
    assert vertices == POETS_PRODUCT_PAIRS_1BASED
    assert report.product_vertex_count == 11
    assert report.clique.size == 4
    assert matches == POETS_TRUE_MATCHES_1BASED
    assert scored.precision == 1.0 and scored.recall == 1.0
    assert elapsed < GOLDEN_RUNTIME_LIMIT_S


def test_acceptance_02_reference_distance_fixtures():
    city = distance_matrix(example1_table().points).entries
    city_err = float(np.max(np.abs(city - np.array(EXAMPLE_CITY_MATRIX))))
    recomputed = distance_matrix(poets_birthplaces_table().points).entries
    published = poets_target_matrix().entries
    errs = [abs(recomputed[i, j] - published[i, j])
            for i in range(10) for j in range(i + 1, 10)]
    print(f"[criterion 2] city matrix max err {city_err:.4f} km; "
          f"poets max err {max(errs):.4f} km over {len(errs)} pairs")
    assert city_err <= CITY_MATRIX_TOL_KM
    assert len(errs) == 45
    assert max(errs) <= POETS_MATRIX_TOL_KM


def test_acceptance_03_clique_solver_matches_brute_force():
    rng = np.random.default_rng(20250817)
    t0 = time.perf_counter()
    agreements = 0
    for case in range(200):
        n = int(rng.integers(4, 21))
        density = 0.1 + 0.8 * case / 199
        g = random_simple_graph(rng, n, density)
        exact = max_clique(g)
        reference = brute_force_max_clique(g)
        assert exact.size == reference.size, \
            f"case {case}: n={n} density={density:.2f} " \
            f"got {exact.size}, brute force {reference.size}"
        for a in exact.vertices:
            for b in exact.vertices:
                if a < b:
                    assert g.has_edge(a, b)
        agreements += 1
    elapsed = time.perf_counter() - t0
    print(f"[criterion 3] {agreements}/200 agree, {elapsed:.1f}s")
    assert agreements == 200
    assert elapsed < ORACLE_RUNTIME_LIMIT_S


def test_acceptance_04_clique_subgraph_correspondence():
    rng = np.random.default_rng(404)
    failures = []
    for case in range(100):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 7))
        g1 = random_labeled_graph(rng, n1, 3,
                                  complete=bool(rng.random() < 0.6))
        g2 = random_labeled_graph(rng, n2, 3,
                                  complete=bool(rng.random() < 0.6))
        if not theorem1_check(g1, g2, random_relation(rng)):
            failures.append(case)
    # degenerate configuration: one record versus two candidates closer
    # than the tolerance; two product vertices, no edge, no order-2 match
    from distlink import DistanceMatrix, LabeledWeightedGraph
    eps = 1.0
    single = LabeledWeightedGraph((("a",),), DistanceMatrix(np.zeros((1, 1))), (0,))
    double = LabeledWeightedGraph(
        (("a",), ("a",)),
        DistanceMatrix(np.array([[0.0, eps / 2], [eps / 2, 0.0]])), (0, 1))
    degenerate_ok = theorem1_check(single, double, Absolute(eps))
    print(f"[criterion 4] random failures={failures} "
          f"degenerate_ok={degenerate_ok}")
    assert failures == []
    assert degenerate_ok


def test_acceptance_05_calibration_reproduces_quantiles():
    passing = []
    for seed in range(5):
        seed_ok = True
        for sigma, (ref_q05, ref_q95, ref_var) in REFERENCE_CALIBRATION.items():
            table = calibrate(GERMANY, sigma, 1000, seed=seed)
            tol = (QUANTILE_TOL_SMALL_SIGMA_KM if sigma <= 0.01
                   else QUANTILE_TOL_LARGE_SIGMA_KM)
            q05, q95 = table.quantile(0.05), table.quantile(0.95)
            var = table.sample_variance()
            ok = (abs(q05 - ref_q05) <= tol and abs(q95 - ref_q95) <= tol
                  and abs(var - ref_var) <= VARIANCE_REL_TOL * ref_var)
            seed_ok = seed_ok and ok
            print(f"[criterion 5] seed={seed} sigma={sigma} "
                  f"q05={q05:.4f} (ref {ref_q05}) q95={q95:.4f} "
                  f"(ref {ref_q95}) var={var:.4f} (ref {ref_var}) "
                  f"{'ok' if ok else 'MISS'}")
        passing.append(seed_ok)
    print(f"[criterion 5] seeds passing: {sum(passing)}/5")
    assert sum(passing) >= 4


def test_acceptance_06_simulation_trends(desk_result):
    result, elapsed = desk_result
    cells = {(c.sigma, c.alpha): c for c in result.cells}
    print(f"[criterion 6] elapsed {elapsed:.1f}s; per-cell means:")
    for sigma in DESK_SIGMAS:
        for alpha in DESK_ALPHAS:
            c = cells[(sigma, alpha)]
            print(f"[criterion 6]   sigma={sigma:<6} alpha={alpha:<4} "
                  f"precision={c.mean_precision:.4f} "
                  f"recall={c.mean_recall:.4f} "
                  f"|recall-alpha|={abs(c.mean_recall - alpha):.3f}")
    recall_gaps = {sa: abs(c.mean_recall - sa[1]) for sa, c in cells.items()}
    a_ok = all(gap <= RECALL_ABS_TOL for gap in recall_gaps.values())
    b_ok = all(cells[(0.005, a)].mean_precision
               > cells[(0.05, a)].mean_precision for a in DESK_ALPHAS)
    c_ok = cells[(0.005, 0.5)].mean_precision >= PRECISION_FLOOR
    print(f"[criterion 6] (a) recall within {RECALL_ABS_TOL} of alpha: {a_ok}")
    print(f"[criterion 6] (b) precision drops from sigma=0.005 to 0.05: {b_ok}")
    print(f"[criterion 6] (c) precision(0.005, 0.5) >= {PRECISION_FLOOR}: {c_ok}")
    assert elapsed < SIMULATION_RUNTIME_LIMIT_S
    assert b_ok, "precision must degrade with noise for every alpha"
    assert c_ok, "low-noise mid-alpha precision must stay high"
    assert a_ok, (
        "mean recall must stay within 0.1 of alpha in every cell; gaps: "
        + ", ".join(f"sigma={s} alpha={a}: {g:.3f}"
                    for (s, a), g in sorted(recall_gaps.items()) if g > RECALL_ABS_TOL))


def test_acceptance_07_ru_map_monotonicity(desk_result):
    result, _ = desk_result
    points = ru_map_data(result, 0.5)
    print(f"[criterion 7] (sigma, risk, utility) at alpha=0.5: "
          f"{[(s, round(r, 4), round(u, 4)) for s, r, u in points]}")
    assert [s for s, _, _ in points] == list(DESK_SIGMAS)
    risks = [r for _, r, _ in points]
    utilities = [u for _, _, u in points]
    risk_inversions = sum(1 for i in range(len(risks) - 1)
                          if risks[i] < risks[i + 1])
    assert risk_inversions <= 1
    assert all(utilities[i] >= utilities[i + 1]
               for i in range(len(utilities) - 1))


def test_acceptance_08_simulate_byte_identical(tmp_path):
    config = {"n_target": 20, "n_ident": 20, "n_common": 6,
              "sigma_grid": [0.005, 0.02], "alpha_grid": [0.5],
              "repetitions": 2, "n_calibration_pairs": 200, "seed": 11}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    digests = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        rc = main(["simulate", "--config", str(config_path),
                   "--out-dir", str(out_dir), "--threads", "1"])
        assert rc == 0
        files = {name: (out_dir / name).read_bytes()
                 for name in ("results.csv", "aggregate.csv", "ru_alpha0.5.csv",
                              "calibration_sigma0.005.json",
                              "calibration_sigma0.02.json")}
        digests.append(files)
    identical = {name: digests[0][name] == digests[1][name]
                 for name in digests[0]}
    print(f"[criterion 8] byte-identical: {identical}")
    assert all(identical.values())
