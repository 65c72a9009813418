"""End-to-end command line behaviour, exit codes, run manifests."""

import contextlib
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distlink
from distlink import (DistanceMatrix, cli, core, graph, load_calibration, load_matrix, native,
                      save_matrix, save_table)
from distlink.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, SEED_ENV_VAR, main
from distlink.datasets import (
    census_qi_distributions,
    example1_table,
    poets_birthplaces_table,
    poets_ident_matrix,
    poets_ident_table,
    poets_target_matrix,
    poets_target_table,
)
from helpers import EXAMPLE_CITY_MATRIX, POETS_TRUE_MATCHES_1BASED, without_compiler


@pytest.fixture
def poets_files(tmp_path):
    paths = {
        "tt": tmp_path / "target_table.csv",
        "tm": tmp_path / "target_matrix.csv",
        "it": tmp_path / "ident_table.csv",
        "im": tmp_path / "ident_matrix.csv",
    }
    save_table(poets_target_table(), paths["tt"])
    save_matrix(poets_target_matrix(), paths["tm"])
    save_table(poets_ident_table(), paths["it"])
    save_matrix(poets_ident_matrix(), paths["im"])
    return paths


def attack_argv(paths, out, *rel):
    return ["attack",
            "--target-table", str(paths["tt"]),
            "--target-matrix", str(paths["tm"]),
            "--ident-table", str(paths["it"]),
            "--ident-matrix", str(paths["im"]),
            "--qi", "cob,language",
            "--out", str(out), *rel]


def read_matches(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["target_row", "ident_row"]
    return tuple((int(t), int(i)) for t, i in rows[1:])


def small_sim_config(tmp_path, **overrides):
    cfg = {"n_target": 20, "n_ident": 20, "n_common": 6,
           "sigma_grid": [0.005, 0.02], "alpha_grid": [0.5],
           "repetitions": 2, "n_calibration_pairs": 200, "seed": 11}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestDistmat:
    def test_city_fixture(self, tmp_path):
        src = tmp_path / "cities.csv"
        out = tmp_path / "m.csv"
        save_table(example1_table(), src)
        assert main(["distmat", str(src), str(out)]) == EXIT_OK
        m = load_matrix(out)
        assert np.allclose(m.entries, EXAMPLE_CITY_MATRIX, atol=0.1, rtol=0.0)
        assert (tmp_path / "m.csv.manifest.json").exists()

    def test_single_point(self, tmp_path):
        src = tmp_path / "one.csv"
        src.write_text("name,lon,lat\nx,10.0,50.0\n")
        out = tmp_path / "m.csv"
        assert main(["distmat", str(src), str(out)]) == EXIT_OK
        assert out.read_text().strip() == "0"

    def test_reproduces_published_poets_matrix(self, tmp_path):
        src = tmp_path / "birthplaces.csv"
        out = tmp_path / "m.csv"
        save_table(poets_birthplaces_table(), src)
        assert main(["distmat", str(src), str(out)]) == EXIT_OK
        recomputed = load_matrix(out).entries
        published = poets_target_matrix().entries
        assert np.max(np.abs(recomputed - published)) <= 1.0

    def test_missing_coordinates_rejected(self, tmp_path):
        src = tmp_path / "plain.csv"
        src.write_text("name\nx\n")
        out = tmp_path / "m.csv"
        assert main(["distmat", str(src), str(out)]) == EXIT_INPUT

    def test_missing_file_rejected(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["distmat", str(tmp_path / "no.csv"), str(out)]) == EXIT_INPUT


class TestAttack:
    def test_poets_with_absolute_tolerance(self, poets_files, tmp_path, capsys):
        out = tmp_path / "matches.csv"
        rc = main(attack_argv(poets_files, out, "--abs-eps", "5"))
        assert rc == EXIT_OK
        assert read_matches(out) == POETS_TRUE_MATCHES_1BASED
        text = capsys.readouterr().out
        assert "product vertices: 11" in text
        assert "maximum clique size: 4" in text

    def test_poets_with_band(self, poets_files, tmp_path):
        out = tmp_path / "matches.csv"
        rc = main(attack_argv(poets_files, out, "--band", "-5", "5"))
        assert rc == EXIT_OK
        assert read_matches(out) == POETS_TRUE_MATCHES_1BASED

    def test_poets_with_calibration_band(self, poets_files, tmp_path):
        cal_dir = tmp_path / "cal"
        assert main(["calibrate", "--sigma", "0.05", "--n-pairs", "500",
                     "--out-dir", str(cal_dir), "--seed", "1"]) == EXIT_OK
        out = tmp_path / "matches.csv"
        rc = main(attack_argv(poets_files, out,
                              "--calibration", str(cal_dir / "calibration_sigma0.05.json"),
                              "--alpha", "0.9"))
        assert rc == EXIT_OK
        # the sigma=0.05 band spans roughly [-11.5, 11.5] km and keeps
        # the correct four pairs
        assert read_matches(out) == POETS_TRUE_MATCHES_1BASED

    def test_swapped_roles_give_reversed_pairs(self, poets_files, tmp_path):
        swapped = {"tt": poets_files["it"], "tm": poets_files["im"],
                   "it": poets_files["tt"], "im": poets_files["tm"]}
        out = tmp_path / "matches.csv"
        assert main(attack_argv(swapped, out, "--abs-eps", "5")) == EXIT_OK
        got = read_matches(out)
        assert got == tuple(sorted((i, t) for t, i in POETS_TRUE_MATCHES_1BASED))

    def test_near_zero_tolerance_starves_matching(self, poets_files, tmp_path):
        # both matrices round the row-3/row-4 distance to the same integer,
        # so exactly that one edge survives a vanishing tolerance
        out = tmp_path / "matches.csv"
        assert main(attack_argv(poets_files, out, "--abs-eps", "1e-6")) == EXIT_OK
        got = read_matches(out)
        assert got == ((3, 3), (4, 4))
        assert set(got) < set(POETS_TRUE_MATCHES_1BASED)

    def test_tie_enumeration_output(self, poets_files, tmp_path, capsys):
        out = tmp_path / "matches.csv"
        rc = main(attack_argv(poets_files, out, "--abs-eps", "5")
                  + ["--enumerate-ties"])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "maximum cliques: 1" in text
        assert "stable core" in text

    def test_requires_exactly_one_relation(self, poets_files, tmp_path):
        out = tmp_path / "matches.csv"
        assert main(attack_argv(poets_files, out)) == EXIT_INPUT
        assert main(attack_argv(poets_files, out, "--abs-eps", "5",
                                "--band", "-1", "1")) == EXIT_INPUT

    def test_calibration_requires_alpha(self, poets_files, tmp_path):
        cal_dir = tmp_path / "cal"
        main(["calibrate", "--sigma", "0.05", "--n-pairs", "100",
              "--out-dir", str(cal_dir), "--seed", "1"])
        out = tmp_path / "matches.csv"
        rc = main(attack_argv(poets_files, out,
                              "--calibration", str(cal_dir / "calibration_sigma0.05.json")))
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("relation", [["--abs-eps", "5"], ["--band", "-5", "5"]])
    def test_alpha_requires_calibration(self, poets_files, tmp_path, capsys, relation):
        out = tmp_path / "matches.csv"
        assert main(attack_argv(poets_files, out, *relation, "--alpha", "7")) == EXIT_INPUT
        assert "--alpha requires --calibration" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_band_rejected(self, poets_files, tmp_path):
        out = tmp_path / "matches.csv"
        assert main(attack_argv(poets_files, out, "--band", "5", "-5")) == EXIT_INPUT

    def test_node_budget_exhaustion_exit_code(self, poets_files, tmp_path):
        out = tmp_path / "matches.csv"
        rc = main(attack_argv(poets_files, out, "--abs-eps", "5")
                  + ["--node-budget", "1"])
        assert rc == EXIT_BUDGET

    def test_product_beyond_memory_exit_code(self, poets_files, tmp_path, monkeypatch, capsys):
        # the poets product has 11 vertices and 9 candidate edges
        need = graph.BYTES_PER_CANDIDATE * 9
        monkeypatch.setattr(graph, "_physical_memory_bytes", lambda: need - 1)
        out = tmp_path / "matches.csv"
        assert main(attack_argv(poets_files, out, "--abs-eps", "5")) == EXIT_INPUT
        assert f"11 vertices and up to 9 edges needs about {need} bytes" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_table_exit_code(self, poets_files, tmp_path, capsys):
        poets_files["tt"].write_bytes(poets_files["tt"].read_text().encode("utf-16"))
        out = tmp_path / "matches.csv"
        assert main(attack_argv(poets_files, out, "--abs-eps", "5")) == EXIT_INPUT
        assert f"{poets_files['tt']}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_matrix_rejected(self, poets_files, tmp_path, capsys):
        text = poets_files["im"].read_text().splitlines()
        cells = text[1].split(",")
        cells[0] = "nan"
        text[1] = ",".join(cells)
        poets_files["im"].write_text("\n".join(text) + "\n")
        out = tmp_path / "matches.csv"
        assert main(attack_argv(poets_files, out, "--abs-eps", "5")) == EXIT_INPUT
        assert "matrix entries must be finite" in capsys.readouterr().err

    def test_unknown_qi_rejected(self, poets_files, tmp_path):
        out = tmp_path / "matches.csv"
        argv = attack_argv(poets_files, out, "--abs-eps", "5")
        argv[argv.index("cob,language")] = "cob,shoe_size"
        assert main(argv) == EXIT_INPUT

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_node_budget_below_one_rejected(self, poets_files, tmp_path, capsys, budget):
        argv = attack_argv(poets_files, tmp_path / "m.csv", "--abs-eps", "5")
        assert main(argv + ["--node-budget", budget]) == EXIT_INPUT
        assert f"--node-budget must be an integer >= 1, got {budget}" in capsys.readouterr().err

    def test_attack_byte_identical_without_a_compiler(self, tmp_path, capsys):
        """A 600 x 600 census attack with its tie pass: its matrix files go
        to the compiled reader, its product of
        21,762 vertices to the compiled build and the split search.  The
        same output when the kernels cannot be built."""
        cfg = small_sim_config(tmp_path, n_target=600, n_ident=600, n_common=120,
                               sigma_grid=[0.025], qi_distributions="census", seed=1)
        data = tmp_path / "gen"
        assert main(["gendata", "--config", str(cfg), "--out-dir", str(data)]) == EXIT_OK
        assert main(["calibrate", "--sigma", "0.025", "--out-dir", str(tmp_path / "cal")]) == EXIT_OK
        capsys.readouterr()
        assert (data / "target_matrix.csv").stat().st_size > core.COMPILED_MATRIX_BYTES
        outputs = []
        for compiled in (True, False):
            out = tmp_path / f"matches_{compiled}.csv"
            argv = ["attack", "--qi", "gender,age_band", "--out", str(out), "--enumerate-ties",
                    "--calibration", str(tmp_path / "cal" / "calibration_sigma0.025.json"),
                    "--alpha", "0.5"] + [arg for role in ("target", "ident")
                                         for kind in ("table", "matrix")
                                         for arg in (f"--{role}-{kind}", str(data / f"{role}_{kind}.csv"))]
            with contextlib.nullcontext() if compiled else without_compiler(tmp_path):
                assert main(argv) == EXIT_OK
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1] and "maximum cliques:" in outputs[0][1]

    def test_small_runs_never_build_the_kernels(self, tmp_path, capsys):
        """An attack the size of the benchmark's ties-small one (40 x 40,
        gender only, --abs-eps 25, its tie pass) and a desk-grid simulate
        (100/100 records, 3 x 3 cells) stay on numpy: neither asks for the
        compiled kernels, so neither starts the compiler."""
        cache = tmp_path / "kernel-cache"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(native, "KERNEL_CACHE", cache)
            native.kernel.cache_clear()
            try:
                small, desk = tmp_path / "small", tmp_path / "desk"
                small.mkdir()
                desk.mkdir()
                cfg = small_sim_config(small, n_target=40, n_ident=40, n_common=8,
                                       sigma_grid=[0.1], qi_distributions="census", seed=1)
                assert main(["gendata", "--config", str(cfg), "--out-dir", str(small)]) == EXIT_OK
                argv = ["attack", "--qi", "gender", "--abs-eps", "25", "--enumerate-ties",
                        "--out", str(small / "matches.csv")]
                argv += [arg for role in ("target", "ident") for kind in ("table", "matrix")
                         for arg in (f"--{role}-{kind}", str(small / f"{role}_{kind}.csv"))]
                assert main(argv) == EXIT_OK
                cfg = small_sim_config(desk, n_target=100, n_ident=100, n_common=20,
                                       sigma_grid=[0.005, 0.025, 0.05], alpha_grid=[0.3, 0.5, 0.9],
                                       repetitions=1, qi_distributions="census", seed=3)
                assert main(["simulate", "--config", str(cfg), "--out-dir", str(desk / "run"),
                             "--threads", "1"]) == EXIT_OK
                assert native.kernel.cache_info().misses == 0
                assert not cache.exists()
            finally:
                native.kernel.cache_clear()


def _attack(capsys, argv):
    """(exit code, stderr, matches bytes or None) of main(argv)."""
    out = Path(argv[argv.index("--out") + 1])
    out.unlink(missing_ok=True)
    code = main(argv)
    return code, capsys.readouterr().err, out.read_bytes() if out.exists() else None


def _pinned_attack(argv, cpus):
    """Run `distlink attack` in a fresh interpreter limited to the given CPUs."""
    env = dict(os.environ, PYTHONPATH=str(Path(distlink.__file__).parents[1]))
    subprocess.run([sys.executable, "-m", "distlink.cli", *argv], env=env, check=True,
                   capture_output=True, preexec_fn=lambda: os.sched_setaffinity(0, cpus))


class TestParallelMatrixLoad:
    """The attack's two matrix loads, the target's and then the
    identification file's, in one process: the target's error comes
    first, and an OSError keeps its type."""

    def test_success(self, poets_files, tmp_path, monkeypatch, capsys):
        loaded = []
        real = cli.load_matrix
        monkeypatch.setattr(cli, "load_matrix", lambda path: loaded.append(path) or real(path))
        argv = attack_argv(poets_files, tmp_path / "m.csv", "--abs-eps", "5")
        assert _attack(capsys, argv)[0] == EXIT_OK
        assert loaded == [str(poets_files["tm"]), str(poets_files["im"])]

    @pytest.mark.parametrize("broken", [("tm",), ("im",), ("tm", "im")])
    def test_malformed_matrix(self, poets_files, tmp_path, capsys, broken):
        for key in broken:
            poets_files[key].write_text(f"0,1\n1,{key}\n")
        argv = attack_argv(poets_files, tmp_path / "m.csv", "--abs-eps", "5")
        code, err, _ = _attack(capsys, argv)
        assert code == EXIT_INPUT and f"{poets_files[broken[0]]}:2: malformed number" in err

    @pytest.mark.parametrize("key", ["tm", "im"])
    def test_missing_matrix(self, poets_files, tmp_path, capsys, key):
        poets_files[key].unlink()
        argv = attack_argv(poets_files, tmp_path / "m.csv", "--abs-eps", "5")
        code, err, _ = _attack(capsys, argv)
        assert code == EXIT_INPUT and "No such file" in err

    @pytest.mark.parametrize("failing", [("tm",), ("im",), ("tm", "im")])
    def test_read_error_keeps_its_type(self, poets_files, tmp_path, monkeypatch, capsys, failing):
        real = cli.load_matrix

        def load(path):
            if Path(path) in {poets_files[key] for key in failing}:
                raise PermissionError(13, "Permission denied", str(path))
            return real(path)

        monkeypatch.setattr(cli, "load_matrix", load)
        argv = attack_argv(poets_files, tmp_path / "m.csv", "--abs-eps", "5")
        code, err, _ = _attack(capsys, argv)
        assert code == EXIT_INPUT and err == f"error: [Errno 13] Permission denied: '{poets_files[failing[0]]}'\n"
        with pytest.raises(PermissionError, match=str(poets_files[failing[0]])):
            cli.cmd_attack(cli.build_parser().parse_args(argv))

    def test_mismatched_sizes(self, poets_files, tmp_path, capsys):
        save_matrix(DistanceMatrix(np.zeros((2, 2))), poets_files["im"])
        argv = attack_argv(poets_files, tmp_path / "m.csv", "--abs-eps", "5")
        code, err, _ = _attack(capsys, argv)
        assert code == EXIT_INPUT and "2x2" in err

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable CPUs")
    def test_matches_byte_identical_on_one_and_two_cpus(self, tmp_path):
        """A 300 x 300 census pair, its matrix files over 1 MiB for the
        compiled reader and its product over 4,096 vertices for the split
        search: the same matches on one CPU and on two."""
        cfg = small_sim_config(tmp_path, n_target=300, n_ident=300, n_common=60,
                               sigma_grid=[0.025], qi_distributions="census", seed=1)
        data = tmp_path / "gen"
        assert main(["gendata", "--config", str(cfg), "--out-dir", str(data)]) == EXIT_OK
        assert (data / "target_matrix.csv").stat().st_size > core.COMPILED_MATRIX_BYTES
        assert main(["calibrate", "--sigma", "0.025", "--out-dir", str(tmp_path / "cal")]) == EXIT_OK
        outputs = []
        usable = sorted(os.sched_getaffinity(0))
        for cpus in (set(usable[:1]), set(usable[:2])):
            out = tmp_path / f"matches{len(cpus)}.csv"
            _pinned_attack(["attack", "--qi", "gender,age_band", "--out", str(out),
                            "--calibration", str(tmp_path / "cal" / "calibration_sigma0.025.json"),
                            "--alpha", "0.5"]
                           + [arg for role in ("target", "ident") for kind in ("table", "matrix")
                              for arg in (f"--{role}-{kind}", str(data / f"{role}_{kind}.csv"))],
                           cpus)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] and outputs[0].count(b"\n") > 10


class TestCalibrate:
    def test_outputs_and_summary(self, tmp_path):
        out_dir = tmp_path / "cal"
        rc = main(["calibrate", "--sigma", "0.005", "--sigma", "0.01",
                   "--sigma", "0.05", "--n-pairs", "400",
                   "--out-dir", str(out_dir), "--seed", "1"])
        assert rc == EXIT_OK
        for s in ("0.005", "0.01", "0.05"):
            assert (out_dir / f"calibration_sigma{s}.json").exists()
        with (out_dir / "calibration_summary.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "sigma" and rows[0][-1] == "sample_variance"
        variances = [float(r[-1]) for r in rows[1:]]
        assert variances == sorted(variances)

    def test_zero_sigma_row(self, tmp_path):
        out_dir = tmp_path / "cal"
        rc = main(["calibrate", "--sigma", "0", "--n-pairs", "100",
                   "--out-dir", str(out_dir), "--seed", "0"])
        assert rc == EXIT_OK
        with (out_dir / "calibration_summary.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert all(float(v) == 0.0 for v in rows[1][1:])

    def test_custom_region_recorded(self, tmp_path):
        out_dir = tmp_path / "cal"
        rc = main(["calibrate", "--sigma", "0.01", "--n-pairs", "100",
                   "--region", "40", "42", "1", "3",
                   "--out-dir", str(out_dir), "--seed", "0"])
        assert rc == EXIT_OK
        table = load_calibration(out_dir / "calibration_sigma0.01.json")
        assert table.region.lat_min == 40.0 and table.region.lon_max == 3.0

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_rejected(self, tmp_path, capsys, sigma):
        rc = main(["calibrate", "--sigma", sigma, "--n-pairs", "100",
                   "--out-dir", str(tmp_path / "cal"), "--seed", "0"])
        assert rc == EXIT_INPUT
        assert "sigma must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("sigmas", [("0.005", "0.0050000001"), ("0.01", "0.01")])
    def test_sigmas_that_print_alike_rejected(self, tmp_path, capsys, sigmas):
        out_dir = tmp_path / "cal"
        rc = main(["calibrate", "--sigma", sigmas[0], "--sigma", "0.02", "--sigma", sigmas[1],
                   "--n-pairs", "100", "--out-dir", str(out_dir), "--seed", "0"])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"--sigma values {float(sigmas[0])!r} and {float(sigmas[1])!r}" in err
        assert not out_dir.exists()

    def test_region_off_the_globe_rejected(self, tmp_path, capsys):
        rc = main(["calibrate", "--sigma", "0.01", "--n-pairs", "100",
                   "--region", "40", "42", "170", "200",
                   "--out-dir", str(tmp_path / "cal"), "--seed", "0"])
        assert rc == EXIT_INPUT
        assert "in [-90, 90] x [-180, 180]" in capsys.readouterr().err


class TestSimulate:
    def test_outputs_written(self, tmp_path):
        cfg = small_sim_config(tmp_path)
        out_dir = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(out_dir), "--threads", "1"]) == EXIT_OK
        for name in ("results.csv", "aggregate.csv", "ru_alpha0.5.csv",
                     "calibration_sigma0.005.json", "calibration_sigma0.02.json",
                     "manifest.json"):
            assert (out_dir / name).exists(), name

    @pytest.mark.parametrize("grid, values", [
        ({"sigma_grid": [0.005, 0.0050000001]}, "sigma_grid values 0.005 and 0.0050000001"),
        ({"alpha_grid": [0.5, 0.3, 0.50000001]}, "alpha_grid values 0.5 and 0.50000001"),
    ])
    def test_grid_values_that_print_alike_rejected(self, tmp_path, capsys, grid, values):
        cfg = small_sim_config(tmp_path, **grid)
        out_dir = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(out_dir), "--threads", "1"]) == EXIT_INPUT
        assert f"{cfg}: {values} would both write the files tagged" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_sequential_reruns_byte_identical(self, tmp_path):
        cfg = small_sim_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert main(["simulate", "--config", str(cfg),
                         "--out-dir", str(d), "--threads", "1"]) == EXIT_OK
        for name in ("results.csv", "aggregate.csv", "ru_alpha0.5.csv",
                     "calibration_sigma0.005.json",
                     "calibration_sigma0.02.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = small_sim_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(d1), "--threads", "1"]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(d2), "--threads", "3"]) == EXIT_OK
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()

    def test_one_cpu_runs_threads_in_process(self, tmp_path):
        """--threads 2 in a process pinned to one CPU forks no worker and
        writes the bytes of --threads 1."""
        cfg = small_sim_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(d1), "--threads", "1"]) == EXIT_OK
        refuse_fork = ("import sys\n"
                       "from distlink import clique\n"
                       "from distlink.cli import main\n"
                       "def fork(*args, **kwargs):\n"
                       "    raise AssertionError('a worker was forked')\n"
                       "clique.forked = fork\n"
                       "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(distlink.__file__).parents[1]))
        cpu = min(os.sched_getaffinity(0))
        run = subprocess.run([sys.executable, "-c", refuse_fork, "simulate", "--config", str(cfg),
                              "--out-dir", str(d2), "--threads", "2"],
                             env=env, capture_output=True, text=True,
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        assert run.returncode == EXIT_OK, run.stderr
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = small_sim_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        main(["simulate", "--config", str(cfg), "--out-dir", str(d1)])
        main(["simulate", "--config", str(cfg), "--out-dir", str(d2),
              "--seed", "99"])
        assert (d1 / "results.csv").read_bytes() != (d2 / "results.csv").read_bytes()
        assert json.loads((d2 / "manifest.json").read_text())["master_seed"] == 99

    def test_manifest_records_input_digest(self, tmp_path):
        cfg = small_sim_config(tmp_path)
        out_dir = tmp_path / "run"
        main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        digest = hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert manifest["inputs"][str(cfg)] == digest
        assert manifest["config"]["n_target"] == 20

    def test_malformed_config_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["simulate", "--config", str(bad),
                     "--out-dir", str(tmp_path / "x")]) == EXIT_INPUT

    def test_missing_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_ident": 5, "n_common": 2,
                                   "sigma_grid": [0.01]}))
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "x")]) == EXIT_INPUT
        assert f"{cfg}: missing config keys ['n_target']" in capsys.readouterr().err

    def test_manifest_config_is_a_config(self, tmp_path):
        cfg = small_sim_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(d1)]) == EXIT_OK
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(json.loads((d1 / "manifest.json").read_text())["config"]))
        assert main(["simulate", "--config", str(replay), "--out-dir", str(d2)]) == EXIT_OK
        for name in ("results.csv", "aggregate.csv", "ru_alpha0.5.csv",
                     "calibration_sigma0.005.json", "calibration_sigma0.02.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_spelled_out_defaults_match_minimal_config(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        minimal = {"n_target": 100, "n_ident": 100, "n_common": 20, "sigma": 0.025}
        full = {"n_target": 100, "n_ident": 100, "n_common": 20, "sigma_grid": [0.025],
                "alpha_grid": [0.5], "repetitions": 1,
                "qi_distributions": census_qi_distributions(),
                "region": {"lat_min": 47.27, "lat_max": 55.06,
                           "lon_min": 5.87, "lon_max": 15.04},
                "seed": 0, "n_calibration_pairs": 1000, "node_budget": 10**8}
        runs = []
        for name, config in (("minimal", minimal), ("full", full)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            assert main(["simulate", "--config", str(path),
                         "--out-dir", str(tmp_path / name)]) == EXIT_OK
            runs.append(tmp_path / name)
        for name in ("results.csv", "aggregate.csv", "ru_alpha0.5.csv",
                     "calibration_sigma0.025.json"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
        configs = [json.loads((d / "manifest.json").read_text())["config"] for d in runs]
        assert configs[0] == configs[1]

    @pytest.mark.parametrize("field", [{"region": [1, 2]},
                                       {"sigma_grid": 0.01},
                                       {"n_target": "5"},
                                       {"qi_distributions": [1]},
                                       {"qi_distributions": {"a": {"x": "half"}}},
                                       {"repetitons": 3},
                                       {"repetitions": 1.5},
                                       {"n_target": 20.5},
                                       {"n_calibration_pairs": 2.5},
                                       {"repetitions": True},
                                       {"seed": -1},
                                       {"sigma_grid": [0.01, 0.01]},
                                       {"node_budget": 0}])
    @pytest.mark.parametrize("command", ["simulate", "gendata"])
    def test_malformed_field_type_rejected(self, tmp_path, capsys, field, command):
        cfg = small_sim_config(tmp_path, **{"sigma_grid": [0.01], **field})
        assert main([command, "--config", str(cfg),
                     "--out-dir", str(tmp_path / "x")]) == EXIT_INPUT
        assert f"{cfg}: malformed config field" in capsys.readouterr().err

    def test_non_finite_sigma_grid_rejected(self, tmp_path, capsys):
        cfg = small_sim_config(tmp_path, sigma_grid=[float("nan")])
        assert "NaN" in cfg.read_text()
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "x")]) == EXIT_INPUT
        assert "sigma must be finite and nonnegative" in capsys.readouterr().err

    def test_non_utf8_config_rejected(self, tmp_path, capsys):
        cfg = small_sim_config(tmp_path)
        cfg.write_bytes(cfg.read_text().encode("utf-16"))
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "x")]) == EXIT_INPUT
        assert f"{cfg}: not UTF-8 text" in capsys.readouterr().err

    def test_deeply_nested_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text('{"a":' * 5000)
        assert main(["gendata", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "x")]) == EXIT_INPUT
        assert f"{cfg}: malformed JSON" in capsys.readouterr().err

    def test_sigma_and_sigma_grid_conflict(self, tmp_path):
        cfg = small_sim_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["sigma"] = 0.01
        cfg.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "x")]) == EXIT_INPUT


class TestGendata:
    def test_writes_fixture_set(self, tmp_path):
        cfg = small_sim_config(tmp_path, sigma_grid=None, sigma=0.01)
        data = json.loads(cfg.read_text())
        del data["sigma_grid"]
        cfg.write_text(json.dumps(data))
        out_dir = tmp_path / "gen"
        assert main(["gendata", "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == EXIT_OK
        for name in ("target_table.csv", "target_matrix.csv",
                     "ident_table.csv", "ident_matrix.csv",
                     "truth.csv", "manifest.json"):
            assert (out_dir / name).exists(), name
        with (out_dir / "truth.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["target_row", "ident_row"]
        assert len(rows) == 1 + 6
        assert all(int(r[0]) >= 1 and int(r[1]) >= 1 for r in rows[1:])

    def test_deterministic_rerun(self, tmp_path):
        cfg = small_sim_config(tmp_path, sigma_grid=[0.01])
        d1, d2 = tmp_path / "g1", tmp_path / "g2"
        for d in (d1, d2):
            assert main(["gendata", "--config", str(cfg),
                         "--out-dir", str(d)]) == EXIT_OK
        for name in ("target_table.csv", "target_matrix.csv",
                     "ident_table.csv", "ident_matrix.csv", "truth.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_saved_tables_round_trip_through_attack(self, tmp_path):
        cfg = small_sim_config(tmp_path, sigma_grid=[0.0])
        out_dir = tmp_path / "gen"
        main(["gendata", "--config", str(cfg), "--out-dir", str(out_dir)])
        matches = tmp_path / "matches.csv"
        rc = main(["attack",
                   "--target-table", str(out_dir / "target_table.csv"),
                   "--target-matrix", str(out_dir / "target_matrix.csv"),
                   "--ident-table", str(out_dir / "ident_table.csv"),
                   "--ident-matrix", str(out_dir / "ident_matrix.csv"),
                   "--qi", "gender,age_band",
                   "--abs-eps", "0.001",
                   "--out", str(matches)])
        assert rc == EXIT_OK
        got = set(read_matches(matches))
        with (out_dir / "truth.csv").open() as fh:
            truth = {(int(t), int(i)) for t, i in list(csv.reader(fh))[1:]}
        # with zero noise every true pair is recoverable; spurious pairs
        # are possible only through exact distance coincidences
        assert truth <= got or len(got & truth) >= len(truth) - 1

    def test_requires_single_sigma(self, tmp_path):
        cfg = small_sim_config(tmp_path)  # two sigma values
        assert main(["gendata", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "x")]) == EXIT_INPUT


class TestSeedEnvironment:
    def test_env_var_supplies_default_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        out_dir = tmp_path / "cal"
        assert main(["calibrate", "--sigma", "0.01", "--n-pairs", "100",
                     "--out-dir", str(out_dir)]) == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == 123

    def test_explicit_seed_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        out_dir = tmp_path / "cal"
        main(["calibrate", "--sigma", "0.01", "--n-pairs", "100",
              "--out-dir", str(out_dir), "--seed", "7"])
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == 7

    def test_invalid_env_value_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        out_dir = tmp_path / "cal"
        assert main(["calibrate", "--sigma", "0.01", "--n-pairs", "100",
                     "--out-dir", str(out_dir)]) == EXIT_INPUT

    def test_negative_seed_flag_rejected(self, tmp_path, poets_files, capsys):
        calibrate = ["calibrate", "--sigma", "0.01", "--n-pairs", "100",
                     "--out-dir", str(tmp_path / "cal")]
        for argv in (calibrate, attack_argv(poets_files, tmp_path / "m.csv", "--abs-eps", "5"),
                     ["simulate", "--config", str(small_sim_config(tmp_path)),
                      "--out-dir", str(tmp_path / "sim")]):
            assert main(argv + ["--seed", "-1"]) == EXIT_INPUT
            assert "--seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "cal").exists() and not (tmp_path / "m.csv").exists()

    def test_negative_env_seed_rejected(self, tmp_path, poets_files, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "-3")
        unseeded = json.loads(small_sim_config(tmp_path).read_text())
        del unseeded["seed"]
        (tmp_path / "config.json").write_text(json.dumps(unseeded))
        for argv in (["calibrate", "--sigma", "0.01", "--n-pairs", "100",
                      "--out-dir", str(tmp_path / "cal")],
                     attack_argv(poets_files, tmp_path / "m.csv", "--abs-eps", "5"),
                     ["simulate", "--config", str(tmp_path / "config.json"),
                      "--out-dir", str(tmp_path / "sim")]):
            assert main(argv) == EXIT_INPUT
            assert f"{SEED_ENV_VAR} must be an integer >= 0, got '-3'" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "distlink" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
