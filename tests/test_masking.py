"""Gaussian coordinate masking, quantile calibration, tolerance bands."""

import json
import math

import numpy as np
import pytest

from distlink import (
    GERMANY,
    CalibrationTable,
    DegenerateSampleError,
    GeoPoint,
    InputFormatError,
    QuantileBand,
    Region,
    SizeLimitError,
    band_from_table,
    calibrate,
    great_circle_distance,
    load_calibration,
    perturb_points,
    save_calibration,
    utility_score,
)
from distlink import core
from distlink.masking import CALIBRATION_BYTES_PER_PAIR, QUANTILE_METHOD, SUMMARY_QUANTILES, summary_row
from distlink.seeding import STREAM_CALIBRATION, STREAM_PERTURB, derive_rng
from helpers import loop_calibration_deviations, loop_perturb_points, random_points

WORLD = Region(lat_min=-90.0, lat_max=90.0, lon_min=-180.0, lon_max=180.0)

# expected quantile grid values for the three noise levels used across
# the test suite, measured at n=1000, region GERMANY, seed 1
REF_VALUES = {
    0.005: (-1.1088, 1.2192, 0.4799),
    0.010: (-2.3909, 2.2642, 1.9677),
    0.050: (-11.4906, 11.4998, 48.8299),
}


class TestRegion:
    def test_germany_box(self):
        assert GERMANY.lon_min < GERMANY.lon_max
        assert 47.0 < GERMANY.lat_min < GERMANY.lat_max < 56.0

    def test_rejects_inverted_bounds(self):
        with pytest.raises(InputFormatError):
            Region(lat_min=0.0, lat_max=1.0, lon_min=10.0, lon_max=5.0)

    def test_as_dict_round_trip(self):
        d = GERMANY.as_dict()
        assert Region(**d) == GERMANY

    @pytest.mark.parametrize("bounds", [(40.0, 42.0, 170.0, 200.0), (-95.0, 0.0, 1.0, 2.0),
                                        (0.0, math.inf, 1.0, 2.0), (False, True, 1.0, 2.0),
                                        (40.0, 42.0, "1", 3.0), (40.0, 42.0, 1.0, None)])
    def test_rejects_bounds_off_the_globe(self, bounds):
        with pytest.raises(InputFormatError, match="in \\[-90, 90\\] x \\[-180, 180\\]"):
            Region(*bounds)


class TestPerturbation:
    def test_zero_sigma_is_identity(self):
        pts = [GeoPoint(10.0, 50.0), GeoPoint(-3.0, 40.0)]
        out = perturb_points(pts, 0.0, derive_rng(5, STREAM_PERTURB))
        assert [(p.lon, p.lat) for p in out] == [(p.lon, p.lat) for p in pts]

    def test_seeded_golden_values(self):
        pts = [GeoPoint(10.0, 50.0), GeoPoint(-3.5, 40.2)]
        out = perturb_points(pts, 0.01, derive_rng(42, STREAM_PERTURB))
        assert out[0].lon == pytest.approx(9.990721287788315, abs=1e-12)
        assert out[0].lat == pytest.approx(50.01919575741962, abs=1e-12)
        assert out[1].lon == pytest.approx(-3.4995303330924616, abs=1e-12)
        assert out[1].lat == pytest.approx(40.190770948097516, abs=1e-12)

    def test_deterministic_per_spec(self):
        pts = [GeoPoint(1.0, 2.0)] * 8
        a = perturb_points(pts, 0.1, derive_rng(9, STREAM_PERTURB))
        b = perturb_points(pts, 0.1, derive_rng(9, STREAM_PERTURB))
        assert [(p.lon, p.lat) for p in a] == [(p.lon, p.lat) for p in b]
        c = perturb_points(pts, 0.1, derive_rng(10, STREAM_PERTURB))
        assert [(p.lon, p.lat) for p in a] != [(p.lon, p.lat) for p in c]

    def test_noise_statistics(self):
        n = 20000
        sigma = 0.05
        pts = [GeoPoint(8.0, 50.0)] * n
        rng = derive_rng(77, STREAM_PERTURB)
        out = perturb_points(pts, sigma, rng)
        dlon = np.array([p.lon for p in out]) - 8.0
        dlat = np.array([p.lat for p in out]) - 50.0
        se = sigma / math.sqrt(n)
        assert abs(dlon.mean()) < 5 * se
        assert abs(dlat.mean()) < 5 * se
        assert dlon.std() == pytest.approx(sigma, rel=0.05)
        assert dlat.std() == pytest.approx(sigma, rel=0.05)

    def test_latitude_clamped_at_poles(self):
        pts = [GeoPoint(0.0, 89.9999)] * 200
        out = perturb_points(pts, 1.0, derive_rng(3, STREAM_PERTURB))
        assert all(-90.0 <= p.lat <= 90.0 for p in out)

    def test_longitude_wrapped(self):
        pts = [GeoPoint(179.9999, 0.0)] * 200
        out = perturb_points(pts, 1.0, derive_rng(4, STREAM_PERTURB))
        assert all(-180.0 <= p.lon <= 180.0 for p in out)

    def test_rejects_negative_sigma(self):
        with pytest.raises(InputFormatError):
            perturb_points([GeoPoint(1.0, 2.0)], -0.1, derive_rng(0, STREAM_PERTURB))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(InputFormatError, match="sigma must be finite and nonnegative"):
            perturb_points([GeoPoint(1.0, 2.0)], sigma, derive_rng(0, STREAM_PERTURB))


class TestVectorisedMaskingAgainstLoopOracle:
    """perturb_points and calibrate equal the per-point and per-pair loops
    in tests/helpers.py bit for bit (==, never approx)."""

    @staticmethod
    def _coords(points):
        return [(p.lon, p.lat) for p in points]

    @pytest.mark.parametrize("sigma", [0.0, 0.01, 1.0, 50.0, 400.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_perturb_points_worldwide(self, sigma, seed):
        pts = random_points(np.random.default_rng(seed), 300)
        fast = perturb_points(pts, sigma, derive_rng(seed, STREAM_PERTURB))
        slow = loop_perturb_points(pts, sigma, derive_rng(seed, STREAM_PERTURB))
        assert self._coords(fast) == self._coords(slow)

    def test_perturb_points_wraps_at_the_date_line_and_clamps_at_poles(self):
        pts = [GeoPoint(179.9999, 89.9999), GeoPoint(-180.0, -90.0),
               GeoPoint(180.0, 0.0)] * 200
        fast = perturb_points(pts, 1.0, derive_rng(8, STREAM_PERTURB))
        slow = loop_perturb_points(pts, 1.0, derive_rng(8, STREAM_PERTURB))
        assert self._coords(fast) == self._coords(slow)
        # the wrap and the clamp both fired
        assert any(p.lon < 0 for p in fast[0::3]) and any(p.lon > 0 for p in fast[1::3])
        assert any(p.lat == 90.0 for p in fast[0::3]) and any(p.lat == -90.0 for p in fast[1::3])

    def test_perturb_points_empty(self):
        assert perturb_points([], 0.5, derive_rng(0, STREAM_PERTURB)) == []

    @pytest.mark.parametrize("sigma", [0.0, 0.005, 0.05, 1.0, 20.0, 50.0])
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("region", [GERMANY, WORLD], ids=["germany", "world"])
    def test_calibrate_deviations(self, sigma, seed, region):
        table = calibrate(region, sigma, 400, seed)
        oracle = loop_calibration_deviations(region, sigma, 400,
                                             derive_rng(seed, STREAM_CALIBRATION))
        assert np.array_equal(table.deviations, oracle)


class TestCalibrationTable:
    def test_quantile_positions(self):
        # the estimator interpolates order statistics at p * (n + 1)
        t = CalibrationTable(sigma=0.1, deviations=[-2.0, -1.0, 0.0, 1.0, 2.0],
                             region=GERMANY, seed=0)
        assert t.quantile(0.25) == pytest.approx(-1.5)
        assert t.quantile(0.75) == pytest.approx(1.5)
        assert t.quantile(0.5) == pytest.approx(0.0)

    def test_quantile_method_pinned(self):
        assert QUANTILE_METHOD == "weibull"

    def test_extreme_alpha_reaches_sample_range(self):
        t = CalibrationTable(sigma=0.1, deviations=[-2.0, -1.0, 0.0, 1.0, 2.0],
                             region=GERMANY, seed=0)
        assert t.quantile(0.0) == -2.0
        assert t.quantile(1.0) == 2.0

    def test_sample_variance_uses_n_minus_one(self):
        devs = [0.0, 1.0, 2.0]
        t = CalibrationTable(sigma=0.1, deviations=devs, region=GERMANY, seed=0)
        assert t.sample_variance() == pytest.approx(np.var(devs, ddof=1))

    def test_rejects_unsorted_deviations(self):
        with pytest.raises(InputFormatError):
            CalibrationTable(sigma=0.1, deviations=[1.0, 0.0],
                             region=GERMANY, seed=0)

    def test_rejects_too_few_deviations(self):
        with pytest.raises(InputFormatError):
            CalibrationTable(sigma=0.1, deviations=[1.0],
                             region=GERMANY, seed=0)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_sigma(self, sigma):
        with pytest.raises(InputFormatError, match="sigma must be finite and nonnegative"):
            CalibrationTable(sigma=sigma, deviations=[0.0, 1.0], region=GERMANY, seed=0)


class TestCalibrate:
    def test_reference_quantiles_at_seed_one(self):
        for sigma, (q5, q95, var) in REF_VALUES.items():
            t = calibrate(GERMANY, sigma, 1000, seed=1)
            tol = 0.6 if sigma <= 0.01 else 2.5
            assert t.quantile(0.05) == pytest.approx(q5, abs=tol)
            assert t.quantile(0.95) == pytest.approx(q95, abs=tol)
            assert t.sample_variance() == pytest.approx(var, rel=0.30)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_sigma(self, sigma):
        with pytest.raises(InputFormatError, match="sigma must be finite and nonnegative"):
            calibrate(GERMANY, sigma, 10, seed=0)

    def test_zero_sigma_gives_zero_deviations(self):
        t = calibrate(GERMANY, 0.0, 100, seed=0)
        assert all(d == 0.0 for d in t.deviations)
        assert t.sample_variance() == 0.0

    def test_sample_beyond_physical_memory_refused(self, monkeypatch):
        # refused before the first draw: the memory figure is the test's
        # own, and a billion pairs would take 8 GB an array
        monkeypatch.setattr(core, "_physical_memory_bytes", lambda: 8 * 2**30)
        need = CALIBRATION_BYTES_PER_PAIR * 10**9
        with pytest.raises(SizeLimitError) as raised:
            calibrate(GERMANY, 0.01, 10**9, seed=0)
        assert str(raised.value) == (f"calibration of 1000000000 pairs needs about {need} bytes, "
                                     f"more than the 8589934592 bytes of physical memory")
        monkeypatch.setattr(core, "_physical_memory_bytes", lambda: CALIBRATION_BYTES_PER_PAIR * 100)
        assert calibrate(GERMANY, 0.01, 100, seed=0).n_pairs == 100
        with pytest.raises(SizeLimitError, match="calibration of 101 pairs"):
            calibrate(GERMANY, 0.01, 101, seed=0)

    def test_deterministic(self):
        a = calibrate(GERMANY, 0.01, 200, seed=6)
        b = calibrate(GERMANY, 0.01, 200, seed=6)
        assert np.array_equal(a.deviations, b.deviations)

    def test_deviation_sign_convention(self):
        # deviations are original distance minus perturbed distance, so
        # with both endpoints perturbed the sample must straddle zero
        t = calibrate(GERMANY, 0.02, 500, seed=2)
        arr = np.array(t.deviations)
        assert (arr < 0).any() and (arr > 0).any()

    def test_band_width_and_variance_grow_with_sigma(self):
        widths, variances = [], []
        for sigma in (0.005, 0.010, 0.050):
            t = calibrate(GERMANY, sigma, 1000, seed=3)
            b = band_from_table(t, 0.9)
            widths.append(b.hi - b.lo)
            variances.append(t.sample_variance())
        assert widths == sorted(widths)
        assert variances == sorted(variances)


class TestBand:
    def test_band_is_central_quantile_interval(self):
        t = calibrate(GERMANY, 0.010, 1000, seed=1)
        b = band_from_table(t, 0.9)
        assert b.lo == pytest.approx(t.quantile(0.05))
        assert b.hi == pytest.approx(t.quantile(0.95))
        assert b.alpha == 0.9

    def test_as_relation(self):
        t = calibrate(GERMANY, 0.010, 1000, seed=1)
        rel = band_from_table(t, 0.5).as_relation()
        assert isinstance(rel, QuantileBand)
        assert rel.lo < 0 < rel.hi

    def test_coverage_close_to_alpha(self):
        fit = calibrate(GERMANY, 0.010, 2000, seed=8)
        fresh = calibrate(GERMANY, 0.010, 2000, seed=9)
        arr = np.array(fresh.deviations)
        for alpha in (0.3, 0.5, 0.9):
            b = band_from_table(fit, alpha)
            covered = ((arr > b.lo) & (arr < b.hi)).mean()
            assert covered == pytest.approx(alpha, abs=0.05)

    def test_rejects_alpha_out_of_range(self):
        t = calibrate(GERMANY, 0.010, 100, seed=1)
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InputFormatError):
                band_from_table(t, alpha)

    def test_degenerate_sample_rejected(self):
        t = calibrate(GERMANY, 0.0, 100, seed=1)
        with pytest.raises(DegenerateSampleError):
            band_from_table(t, 0.5)


class TestUtility:
    def test_reciprocal_variance(self):
        for sigma, (_, _, var) in REF_VALUES.items():
            t = calibrate(GERMANY, sigma, 1000, seed=1)
            assert utility_score(t) == pytest.approx(1.0 / var, rel=0.30)

    def test_degenerate_sample_rejected(self):
        t = calibrate(GERMANY, 0.0, 100, seed=0)
        with pytest.raises(DegenerateSampleError):
            utility_score(t)


class TestSummaryRow:
    def test_row_layout(self):
        t = calibrate(GERMANY, 0.01, 500, seed=0)
        row = summary_row(t)
        assert row["sigma"] == 0.01
        for q in SUMMARY_QUANTILES:
            assert row[f"q{q:g}"] == pytest.approx(t.quantile(q))
        assert row["sample_variance"] == pytest.approx(t.sample_variance())

    def test_quantiles_monotone_within_row(self):
        t = calibrate(GERMANY, 0.05, 500, seed=0)
        vals = [t.quantile(q) for q in SUMMARY_QUANTILES]
        assert vals == sorted(vals)


class TestCalibrationIO:
    def test_json_round_trip(self, tmp_path):
        t = calibrate(GERMANY, 0.01, 100, seed=4)
        path = tmp_path / "cal.json"
        save_calibration(t, path)
        u = load_calibration(path)
        assert u.sigma == t.sigma
        assert u.seed == t.seed
        assert u.region == t.region
        assert np.array_equal(u.deviations, t.deviations)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("{not json")
        with pytest.raises(InputFormatError):
            load_calibration(path)

    def test_rejects_missing_field(self, tmp_path):
        t = calibrate(GERMANY, 0.01, 100, seed=4)
        path = tmp_path / "cal.json"
        save_calibration(t, path)
        data = json.loads(path.read_text())
        del data["deviations"]
        path.write_text(json.dumps(data))
        with pytest.raises(InputFormatError):
            load_calibration(path)

    def _doctored(self, tmp_path, **changes):
        path = tmp_path / "cal.json"
        save_calibration(calibrate(GERMANY, 0.01, 100, seed=4), path)
        data = json.loads(path.read_text())
        data.update(changes)
        data = {k: v for k, v in data.items() if v is not None}
        path.write_text(json.dumps(data))
        return path

    def test_rejects_missing_n_pairs(self, tmp_path):
        path = self._doctored(tmp_path, n_pairs=None)
        with pytest.raises(InputFormatError, match="n_pairs"):
            load_calibration(path)

    def test_rejects_non_numeric_deviations(self, tmp_path):
        path = self._doctored(tmp_path, deviations=["a", "b", "c"], n_pairs=3)
        with pytest.raises(InputFormatError, match="malformed calibration field"):
            load_calibration(path)

    @pytest.mark.parametrize("changes", [
        {"sigma": True}, {"sigma": "0.01"}, {"seed": "x"}, {"seed": 1.5}, {"seed": False},
        {"seed": -1}, {"deviations": [False, True, True], "n_pairs": 3},
        {"deviations": ["-1", "0", "1"], "n_pairs": 3}, {"deviations": {"a": 1}},
        {"region": "de"}, {"region": {**GERMANY.as_dict(), "alt_min": 0}},
        {"region": {**GERMANY.as_dict(), "lon_min": True}}, {"n_pairs": 100.0}, {"n_pairs": "100"},
        {"n_pairs": True}, {"n_pairs": 100.5}, {"n_pairs": [100]}])
    def test_present_field_of_the_wrong_type_is_malformed(self, tmp_path, changes):
        path = self._doctored(tmp_path, **changes)
        with pytest.raises(InputFormatError, match=r"cal\.json: malformed calibration field: "):
            load_calibration(path)

    @pytest.mark.parametrize("n_pairs, message", [
        (99, "n_pairs does not match deviation count"), (101, "n_pairs does not match deviation count"),
        (-100, "n_pairs does not match deviation count"),
        ("100", "malformed calibration field: n_pairs must be an integer, got '100'")])
    def test_n_pairs_an_integer_of_the_deviation_count(self, tmp_path, n_pairs, message):
        path = self._doctored(tmp_path, n_pairs=n_pairs)
        with pytest.raises(InputFormatError) as raised:
            load_calibration(path)
        assert str(raised.value) == f"{path}: {message}"

    def test_top_level_array_rejected(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("[1, 2]")
        with pytest.raises(InputFormatError, match=r"cal\.json: calibration must be a JSON object$"):
            load_calibration(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_deviations(self, tmp_path, bad):
        path = self._doctored(tmp_path, deviations=[-1.0, 0.0, bad], n_pairs=3)
        with pytest.raises(InputFormatError, match="deviations must be finite"):
            load_calibration(path)


class TestGeodesicSanity:
    def test_small_offsets_translate_to_km_scale(self):
        # one degree of latitude is about 111 km; the deviation samples
        # at sigma=0.05 degrees must live on that scale, not in degrees
        t = calibrate(GERMANY, 0.05, 1000, seed=1)
        spread = t.quantile(0.95) - t.quantile(0.05)
        assert 10.0 < spread < 40.0

    def test_distance_units_consistent(self):
        a = GeoPoint(10.0, 50.0)
        b = GeoPoint(10.0, 51.0)
        assert great_circle_distance(a, b) == pytest.approx(111.19, abs=0.1)
