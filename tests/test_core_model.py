"""Distance computation, table and matrix containers, file round trips."""

import csv
import decimal
import io
import json
import locale
import math
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from distlink import (
    EARTH_RADIUS_KM,
    DistanceMatrix,
    GeoPoint,
    InputFormatError,
    MicrodataRecord,
    MicrodataTable,
    distance_matrix,
    great_circle_distance,
    load_calibration,
    load_matrix,
    load_table,
    save_matrix,
    save_table,
)
from distlink.datasets import (
    example1_table,
    poets_birthplaces_table,
    poets_full_table,
    poets_ident_matrix,
    poets_target_matrix,
    poets_target_table,
)
from distlink import core, native
from distlink.cli import _config_from_file
from distlink.errors import DistlinkError
from distlink.evaluation import SimulationConfig
from helpers import (
    EXAMPLE_CITY_MATRIX,
    exit_code,
    random_points,
    require_compiled,
    row_loop_distance_matrix,
    scalar_great_circle_km,
)


class TestGreatCircle:
    def test_reference_city_pairs(self):
        pts = example1_table().points
        london, paris, madrid, berlin = pts
        assert great_circle_distance(london, paris) == pytest.approx(343.6, abs=0.1)
        assert great_circle_distance(london, madrid) == pytest.approx(1264.0, abs=0.1)
        assert great_circle_distance(london, berlin) == pytest.approx(930.9, abs=0.1)
        assert great_circle_distance(paris, madrid) == pytest.approx(1052.9, abs=0.1)
        assert great_circle_distance(paris, berlin) == pytest.approx(877.5, abs=0.1)
        assert great_circle_distance(madrid, berlin) == pytest.approx(1869.1, abs=0.1)

    def test_same_point_is_zero(self):
        p = GeoPoint(13.4, 52.5)
        assert great_circle_distance(p, p) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        pts = random_points(rng, 40)
        for a, b in zip(pts[::2], pts[1::2]):
            assert great_circle_distance(a, b) == great_circle_distance(b, a)

    def test_range_bound(self):
        rng = np.random.default_rng(8)
        pts = random_points(rng, 40)
        half_circumference = math.pi * EARTH_RADIUS_KM
        for a, b in zip(pts[::2], pts[1::2]):
            assert 0.0 <= great_circle_distance(a, b) <= half_circumference

    def test_antipodal_and_near_coincident_are_finite(self):
        # arccos argument must be clamped; these push it to the boundary
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(180.0, 0.0)
        d = great_circle_distance(a, b)
        assert math.isfinite(d)
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-9)
        c = GeoPoint(1e-13, 0.0)
        assert math.isfinite(great_circle_distance(a, c))

    def test_known_quarter_meridian(self):
        equator = GeoPoint(0.0, 0.0)
        pole = GeoPoint(0.0, 90.0)
        assert great_circle_distance(equator, pole) == pytest.approx(
            math.pi * EARTH_RADIUS_KM / 2, rel=1e-12)


class TestGeoPoint:
    def test_coerces_to_float(self):
        p = GeoPoint(np.float64(1.5), np.int64(2))
        assert type(p.lon) is float and type(p.lat) is float

    @pytest.mark.parametrize("lon,lat", [(181.0, 0.0), (-180.1, 0.0),
                                         (0.0, 90.5), (0.0, -91.0)])
    def test_rejects_out_of_range(self, lon, lat):
        with pytest.raises(InputFormatError):
            GeoPoint(lon, lat)

    def test_boundary_values_accepted(self):
        GeoPoint(180.0, 90.0)
        GeoPoint(-180.0, -90.0)


class TestDistanceMatrixComputation:
    def test_reference_city_matrix_entrywise(self):
        m = distance_matrix(example1_table().points)
        assert np.allclose(m.entries, EXAMPLE_CITY_MATRIX, atol=0.1, rtol=0.0)

    def test_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(11)
        pts = random_points(rng, 9)
        m = distance_matrix(pts)
        for i in range(9):
            for j in range(9):
                if i == j:
                    assert m.entries[i, j] == 0.0
                else:
                    assert m.entries[i, j] == great_circle_distance(pts[i], pts[j])

    def test_single_point(self):
        m = distance_matrix([GeoPoint(1.0, 2.0)])
        assert m.entries.shape == (1, 1) and m.entries[0, 0] == 0.0

    def test_coincident_points_give_zero_off_diagonal(self):
        p = GeoPoint(10.0, 50.0)
        m = distance_matrix([p, p])
        assert m.entries[0, 1] == 0.0  # pseudometric: zero between distinct rows

    def test_empty_rejected(self):
        with pytest.raises(InputFormatError):
            distance_matrix([])


def _antipode(p):
    return GeoPoint(p.lon - 180.0 if p.lon > 0 else p.lon + 180.0, -p.lat)


def _cosine(p, q):
    """The unclamped law-of-cosines term, in the kernel's operation order."""
    lat1, lat2 = math.radians(p.lat), math.radians(q.lat)
    return (math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2)
            * math.cos(math.radians(p.lon) - math.radians(q.lon)))


def _edge_points():
    """Poles, the +-180 meridian and the equator, in every combination."""
    return [GeoPoint(lon, lat)
            for lon in (-180.0, -179.9999999, 0.0, 179.9999999, 180.0)
            for lat in (-90.0, -89.9999999, 0.0, 45.0, 89.9999999, 90.0)]


def _assert_matrix_matches_oracle(pts):
    m = distance_matrix(pts).entries
    n = len(pts)
    for i in range(n):
        assert m[i, i] == 0.0
        for j in range(n):
            if i != j:
                assert m[i, j] == scalar_great_circle_km(pts[i], pts[j]), (i, j)


class TestGreatCircleKernelAgainstScalarOracle:
    """Every great-circle distance equals the per-pair math-module loop
    bit for bit (== on floats, never approx)."""

    def test_random_worldwide_pairs(self):
        rng = np.random.default_rng(2024)
        a = random_points(rng, 3000)
        b = random_points(rng, 3000)
        for p, q in zip(a, b):
            d = great_circle_distance(p, q)
            assert type(d) is float
            assert d == scalar_great_circle_km(p, q)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_worldwide_matrices(self, seed):
        rng = np.random.default_rng(seed)
        _assert_matrix_matches_oracle(random_points(rng, int(rng.integers(2, 60))))

    def test_identical_points_clamp_to_one(self):
        rng = np.random.default_rng(5)
        pts = random_points(rng, 400)
        # the cosine of a point with itself rounds above 1 for some of
        # these latitudes (so the clamp is exercised) and below 1 for
        # others (a distance of about 1e-4 km, in the oracle too)
        overshoot = [p for p in pts if _cosine(p, p) > 1.0]
        assert overshoot and any(_cosine(p, p) < 1.0 for p in pts)
        for p in pts:
            assert great_circle_distance(p, p) == scalar_great_circle_km(p, p)
        _assert_matrix_matches_oracle(overshoot[:20] + overshoot[:20])

    def test_antipodal_points_clamp_to_minus_one(self):
        rng = np.random.default_rng(6)
        pts = random_points(rng, 400)
        assert any(_cosine(p, _antipode(p)) < -1.0 for p in pts[:30])
        for p in pts:
            q = _antipode(p)
            assert great_circle_distance(p, q) == scalar_great_circle_km(p, q)
        pairs = [x for p in pts[:30] for x in (p, _antipode(p))]
        _assert_matrix_matches_oracle(pairs)

    def test_poles_and_date_line(self):
        pts = _edge_points()
        for p in pts:
            for q in pts:
                assert great_circle_distance(p, q) == scalar_great_circle_km(p, q)
        _assert_matrix_matches_oracle(pts)


def _assert_matrix_matches_row_loop(pts):
    m = distance_matrix(pts).entries
    assert m.tobytes() == row_loop_distance_matrix(pts).tobytes()


class TestDistanceMatrixAgainstRowLoop:
    """The blocked distance_matrix equals one kernel call per row bit for
    bit, whatever the block boundaries."""

    @pytest.mark.parametrize("n", [1, 2, 3, 100, 200])
    def test_sizes(self, n):
        # 200 points have 19,900 pairs: more than one default block
        _assert_matrix_matches_row_loop(random_points(np.random.default_rng(n), n))

    @pytest.mark.parametrize("block", [1, 5, 16])
    def test_rows_around_the_block_size(self, monkeypatch, block):
        # n = block + 2 starts with a row longer than a block, n = block
        # with one shorter; the larger n split blocks between rows
        monkeypatch.setattr(core, "DISTANCE_BLOCK_PAIRS", block)
        rng = np.random.default_rng(block)
        for n in (block, block + 1, block + 2, 3 * block + 7):
            _assert_matrix_matches_row_loop(random_points(rng, n))

    def test_one_kernel_call_per_block(self, monkeypatch):
        monkeypatch.setattr(core, "DISTANCE_BLOCK_PAIRS", 16)
        sizes = []
        kernel = core._great_circle_km

        def counting(lon1, lat1, lon2, lat2):
            sizes.append(np.size(lon2))
            return kernel(lon1, lat1, lon2, lat2)

        monkeypatch.setattr(core, "_great_circle_km", counting)
        distance_matrix(random_points(np.random.default_rng(3), 20))
        # rows of 19 down to 9 pairs alone (the first three longer than a
        # block), then whole rows 8 + 7, 6 + 5 + 4 and 3 + 2 + 1
        assert sizes == list(range(19, 8, -1)) + [15, 15, 6]

    def test_duplicates_poles_and_antipodes(self):
        p = GeoPoint(13.4, 52.5)
        pts = [p, p, GeoPoint(0.0, 90.0), GeoPoint(120.0, 90.0), GeoPoint(0.0, -90.0),
               _antipode(p), p, GeoPoint(-180.0, 0.0), GeoPoint(180.0, 0.0)]
        _assert_matrix_matches_row_loop(pts)
        _assert_matrix_matches_oracle(pts)


class TestDistanceMatrixContainer:
    def test_validates_square(self):
        with pytest.raises(InputFormatError):
            DistanceMatrix(np.zeros((2, 3)))

    def test_validates_zero_diagonal(self):
        e = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(InputFormatError):
            DistanceMatrix(e)

    def test_validates_nonnegative(self):
        e = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InputFormatError):
            DistanceMatrix(e)

    def test_validates_symmetry(self):
        e = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InputFormatError):
            DistanceMatrix(e)

    def test_tiny_asymmetry_tolerated_and_stored_as_read(self):
        a = 1000.0
        b = a * (1.0 + 1e-10)  # inside the relative tolerance
        e = np.array([[0.0, a], [b, 0.0]])
        m = DistanceMatrix(e)
        assert m.entries[0, 1] == a and m.entries[1, 0] == b

    def test_entries_read_only(self):
        m = distance_matrix([GeoPoint(0.0, 0.0), GeoPoint(1.0, 1.0)])
        with pytest.raises(ValueError):
            m.entries[0, 1] = 5.0

    def test_getitem(self):
        m = poets_target_matrix()
        assert m[0, 1] == 1261.0
        assert m.entries.shape == (10, 10)


class TestMicrodataTable:
    def _table(self, **kw):
        records = [MicrodataRecord({"sex": "f", "yob": "1978", "name": "A"}),
                   MicrodataRecord({"sex": "m", "yob": "1965", "name": "B"})]
        args = dict(records=records, schema=("name", "sex", "yob"),
                    qi_attributes=("sex", "yob"), id_attribute="name")
        args.update(kw)
        return MicrodataTable(**args)

    def test_qi_tuple_strips_whitespace(self):
        t = self._table(records=[MicrodataRecord({"sex": " f ", "yob": "1978", "name": "A"}),
                                 MicrodataRecord({"sex": "m", "yob": " 1965", "name": "B"})])
        assert t.qi_tuple(0) == ("f", "1978")
        assert t.qi_tuple(1) == ("m", "1965")

    def test_qi_tuples_equal_per_row_tuples(self):
        pads = ["", " ", "\t", " \n", "\u00a0"]
        records = [MicrodataRecord({"sex": pads[k % 5] + "fm"[k % 2] + pads[(k + 2) % 5],
                                    "yob": pads[(k + 1) % 5] + str(1900 + k) + pads[k % 3],
                                    "name": f"n{k}"}) for k in range(12)]
        for qi in (("sex", "yob"), ("yob", "sex"), ("yob",), ()):
            t = self._table(records=records, qi_attributes=qi)
            assert t.qi_tuples() == [t.qi_tuple(k) for k in range(len(t))]
        assert t.qi_tuples() == [()] * 12

    def test_rejects_empty(self):
        with pytest.raises(InputFormatError):
            self._table(records=[])

    def test_rejects_missing_attribute(self):
        bad = [MicrodataRecord({"sex": "f", "name": "A"})]
        with pytest.raises(InputFormatError):
            self._table(records=bad)

    def test_rejects_qi_outside_schema(self):
        with pytest.raises(InputFormatError):
            self._table(qi_attributes=("sex", "height"))

    def test_rejects_id_inside_qi(self):
        with pytest.raises(InputFormatError):
            self._table(id_attribute="sex")

    def test_rejects_duplicate_identifier_values(self):
        dup = [MicrodataRecord({"sex": "f", "yob": "1978", "name": "A"}),
               MicrodataRecord({"sex": "m", "yob": "1965", "name": "A"})]
        with pytest.raises(InputFormatError):
            self._table(records=dup)

    def test_duplicate_qi_rows_allowed(self):
        # distinct entities may share every quasi-identifier value
        dup = [MicrodataRecord({"sex": "f", "yob": "1978", "name": "A"}),
               MicrodataRecord({"sex": "f", "yob": "1978", "name": "B"})]
        t = self._table(records=dup)
        assert t.qi_tuple(0) == t.qi_tuple(1)

    def test_rejects_reserved_coordinate_columns(self):
        recs = [MicrodataRecord({"lon": "1", "sex": "f"})]
        with pytest.raises(InputFormatError):
            MicrodataTable(recs, ("lon", "sex"), ("sex",))

    def test_rejects_points_length_mismatch(self):
        with pytest.raises(InputFormatError):
            self._table(points=[GeoPoint(0.0, 0.0)])

    def test_with_qi_switches_attributes(self):
        t = self._table()
        u = t.with_qi(("yob",))
        assert u.qi_attributes == ("yob",)
        assert u.records is t.records


class TestTableIO:
    def test_round_trip_with_coordinates(self, tmp_path):
        t = example1_table()
        path = tmp_path / "cities.csv"
        save_table(t, path)
        u = load_table(path, qi_attributes=t.qi_attributes,
                       id_attribute=t.id_attribute)
        assert u.schema == t.schema
        assert [r.values for r in u.records] == [r.values for r in t.records]
        assert all(a.lon == b.lon and a.lat == b.lat
                   for a, b in zip(u.points, t.points))

    def test_round_trip_without_coordinates(self, tmp_path):
        t = poets_target_table()
        path = tmp_path / "t.csv"
        save_table(t, path)
        u = load_table(path, qi_attributes=t.qi_attributes)
        assert u.points is None
        assert [r.values for r in u.records] == [r.values for r in t.records]

    def test_rejects_lat_without_lon(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,lat\nA,50.0\n")
        with pytest.raises(InputFormatError):
            load_table(path, qi_attributes=("name",))

    def test_rejects_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(InputFormatError):
            load_table(path, qi_attributes=("a",))

    def test_rejects_unparseable_coordinate(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,lon,lat\nx,1.0,north\n")
        with pytest.raises(InputFormatError):
            load_table(path, qi_attributes=("a",))

    def test_unknown_qi_names_the_file_and_attribute(self, tmp_path):
        path = tmp_path / "people.csv"
        path.write_text("sex,yob\nf,1970\n")
        with pytest.raises(InputFormatError,
                           match=r"people\.csv: qi_attributes .* not in it: \['age'\]"):
            load_table(path, qi_attributes=("sex", "age"))

    def test_repeated_column_names_the_file_and_attribute(self, tmp_path):
        path = tmp_path / "people.csv"
        path.write_text("sex,yob,sex\nf,1970,m\n")
        with pytest.raises(InputFormatError,
                           match=r"people\.csv: duplicate attribute names in schema: \['sex'\]"):
            load_table(path, qi_attributes=("yob",))

    @pytest.mark.parametrize("header, column", [("a,lon,lat,lon", "lon"),
                                                ("a,lat,lon,lat", "lat"),
                                                ("lon,a,lon,lat", "lon")])
    def test_repeated_coordinate_column_names_the_file_and_column(self, tmp_path, header, column):
        path = tmp_path / "people.csv"
        path.write_text(f"{header}\nx,1.0,50.0,2.0\n")
        with pytest.raises(InputFormatError,
                           match=rf"people\.csv: duplicate coordinate column '{column}'"):
            load_table(path)


class TestMatrixIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        m = distance_matrix(random_points(rng, 6))
        path = tmp_path / "m.csv"
        save_matrix(m, path)
        u = load_matrix(path)
        assert np.array_equal(u.entries, m.entries)

    def test_rejects_nonsquare(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,2\n1,0,3\n")
        with pytest.raises(InputFormatError):
            load_matrix(path)

    def test_rejects_ragged(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1\n")
        with pytest.raises(InputFormatError):
            load_matrix(path)

    def test_ragged_row_names_its_line(self, tmp_path):
        # blank lines are skipped but still counted
        path = tmp_path / "m.csv"
        path.write_text("0,1,2\n\n1,0,3\n2,3\n")
        with pytest.raises(InputFormatError, match=r"m\.csv:4: expected 3 fields, got 2$"):
            load_matrix(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,x\nx,0\n")
        with pytest.raises(InputFormatError):
            load_matrix(path)

    def test_asymmetry_within_tolerance_loads_as_printed(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1000\n1000.0000001,0\n")
        assert load_matrix(path).entries.tolist() == [[0.0, 1000.0], [1000.0000001, 0.0]]

    def test_asymmetry_past_tolerance_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1000\n1000.00001,0\n")
        with pytest.raises(InputFormatError, match="matrix is not symmetric within tolerance"):
            load_matrix(path)

    def test_exactly_symmetric_file_skips_the_closeness_test(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.allclose ran")

        m = distance_matrix(random_points(np.random.default_rng(5), 8))
        path = tmp_path / "m.csv"
        save_matrix(m, path)
        monkeypatch.setattr(np, "allclose", refuse)
        assert np.array_equal(load_matrix(path).entries, m.entries)

    @pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
    def test_rejects_non_finite_entries(self, tmp_path, bad):
        path = tmp_path / "m.csv"
        path.write_text(f"0,{bad}\n{bad},0\n")
        with pytest.raises(InputFormatError, match="matrix entries must be finite"):
            load_matrix(path)


_json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                  max_size=4),
    max_leaves=12)

#: file contents: raw bytes, CSV-like and JSON-like text, and calibration
#: objects with arbitrary field values
_file_bytes = st.one_of(
    st.binary(max_size=300),
    st.text(alphabet="0123456789.,-+eEinfa\"\n\r {}[]:", max_size=300).map(str.encode),
    _json_values.map(lambda v: json.dumps(v).encode()),
    st.fixed_dictionaries({k: _json_values for k in
                           ("sigma", "seed", "n_pairs", "deviations", "region")})
    .map(lambda v: json.dumps(v).encode()),
)


class TestLoadersOnArbitraryBytes:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_file_bytes)
    @example(data=b"\xff\xfeg\x00,\x00a\x00\n\x00")
    @example(data=b'{"a":' * 5000)
    @example(data=b"1" * 5000)
    @example(data=b'{"sigma": 0, "seed": 1, "n_pairs": 2, "deviations": [1e999999, 2], '
                  b'"region": {"lat_min": 0, "lat_max": 1, "lon_min": 0, "lon_max": 1}}')
    @example(data='{"n_target": 5, "sigma": 0.1}'.encode("utf-16"))
    def test_loaders_return_or_raise_input_format_error(self, tmp_path, data):
        path = tmp_path / "input"
        path.write_bytes(data)
        for load in (load_table, load_matrix, load_calibration):
            try:
                load(path)
            except InputFormatError:
                pass
        try:
            assert isinstance(_config_from_file(path, None), SimulationConfig)
        except DistlinkError:
            pass

    @pytest.mark.parametrize("load", [load_table, load_matrix, load_calibration])
    def test_non_utf8_bytes_name_the_path(self, tmp_path, load):
        path = tmp_path / "utf16.csv"
        path.write_bytes("a,b\n1,2\n".encode("utf-16"))
        with pytest.raises(InputFormatError, match=r"utf16\.csv: not UTF-8 text"):
            load(path)

    def test_deeply_nested_calibration_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"a":' * 5000)
        with pytest.raises(InputFormatError, match=r"deep\.json: malformed JSON"):
            load_calibration(path)

    def test_csv_field_beyond_size_limit(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("\"" + "1" * 200_000 + "\"\n")
        for load in (load_table, load_matrix):
            with pytest.raises(InputFormatError, match=r"wide\.csv: malformed CSV"):
                load(path)


@st.composite
def _matrix_files(draw):
    """Matrix files in the syntax numpy's reader takes: symmetric matrices
    written by save_matrix, or by repr or %.25e with padding, any newline
    style and trailing blank lines.  Now and then one entry is replaced,
    unmirrored, or (in the last two styles) the last row is dropped."""
    n = draw(st.integers(1, 4))
    m = np.zeros((n, n))
    m[np.triu_indices(n, 1)] = draw(st.lists(st.floats(0.0, 1e300), min_size=n * (n - 1) // 2,
                                             max_size=n * (n - 1) // 2))
    m = m + m.T
    if draw(st.booleans()):
        m[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(st.floats())
    style = draw(st.sampled_from(["save_matrix", "repr", "%.25e"]))
    if style == "save_matrix":
        buf = io.BytesIO()
        save_matrix(DistanceMatrix(m, validate=False), buf)
        return buf.getvalue()
    if n > 1 and draw(st.booleans()):
        m = m[:-1]
    cell = repr if style == "repr" else "%.25e".__mod__
    pad = draw(st.sampled_from(["", " ", "\t", " \t "]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(",".join(pad + cell(float(x)) + pad for x in row) for row in m)
    return (text + newline * draw(st.integers(0, 3))).encode()


def _outcome(load, path):
    """The loaded entries' bit patterns, or the InputFormatError message."""
    try:
        return load(path).entries.view(np.int64)
    except InputFormatError as exc:
        return str(exc)


def _equal_outcomes(new, old) -> bool:
    """Whether two _outcome results are the same entries or message."""
    return type(new) is type(old) and (new == old if isinstance(old, str)
                                       else np.array_equal(new, old))


class TestMatrixLoaderAgainstCsvPath:
    """load_matrix against _load_matrix_csv, the csv.reader + float() body
    it falls back to: the same entries bit for bit, or the same message.
    The examples are syntaxes on which np.loadtxt and that body differ."""

    @pytest.mark.filterwarnings("error::UserWarning")
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.one_of(_matrix_files(), _file_bytes))
    @example(data=b'"0","1"\n"1","0"\n')
    @example(data=b"0,1_5\n1_5,0\n")
    @example(data="0,\u0661\n\u0661,0\n".encode())
    @example(data=b"\xef\xbb\xbf0,1\n1,0\n")
    @example(data=b"0,1,\n1,0,\n")
    @example(data=b"")
    @example(data=b"\n\r\n\r")
    @example(data=b"0,1\r1,0\r")
    @example(data=b"0,1#2\n1#2,0\n")
    @example(data=b"0\x1c,1\n1,0\n")  # numpy strips \x1c around a number, float() does not
    @example(data=b"0" * 131_073)  # one field past the csv field limit
    def test_same_entries_or_message(self, tmp_path, data):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        assert _equal_outcomes(_outcome(load_matrix, path), _outcome(core._load_matrix_csv, path))

    @pytest.mark.filterwarnings("error::UserWarning")
    @pytest.mark.parametrize("data", [b"", b"\n", b"\n\r\n\r\r"])
    def test_empty_and_blank_files_keep_their_message(self, tmp_path, data):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        with pytest.raises(InputFormatError, match=r"m\.csv: empty matrix file"):
            load_matrix(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_plain_files_skip_the_csv_path(self, tmp_path, monkeypatch, newline):
        def refuse(path):
            raise AssertionError("the csv path ran")

        path = tmp_path / "m.csv"
        save_matrix(poets_target_matrix(), path)
        path.write_text(path.read_text().replace("\n", newline), newline="")
        monkeypatch.setattr(core, "_load_matrix_csv", refuse)
        assert np.array_equal(load_matrix(path).entries, poets_target_matrix().entries)


_DECIMAL_STYLES = (repr, "%.17g".__mod__, "%g".__mod__, "%e".__mod__, "%.19g".__mod__,
                   "%.20g".__mod__)


@st.composite
def _decimal_files(draw):
    """Square matrices in the compiled reader's syntax: entries written by
    repr, %.17g, %g, %e, %.19g or %.20g, now and then with a '+', leading
    zeros, -0, a subnormal or 1e999, rows ending in LF or CRLF, the last
    one maybe in neither."""
    n = draw(st.integers(1, 5))
    special = st.sampled_from(["-0", "1e999", "-1e999", "5e-324", "2.2250738585072014e-308",
                               "00012.5", "+7", "+.5e-3", "1.", ".25", "1E+05"])
    number = st.floats(allow_nan=False, allow_infinity=False)
    cells = []
    for _ in range(n * n):
        if draw(st.integers(0, 5)) == 0:
            cells.append(draw(special))
            continue
        text = draw(st.sampled_from(_DECIMAL_STYLES))(draw(number))
        if draw(st.integers(0, 3)) == 0:
            sign = text[0] if text[0] == "-" else draw(st.sampled_from(["", "+"]))
            text = sign + "0" * draw(st.integers(1, 3)) + text.lstrip("-")
        cells.append(text)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    rows = [",".join(cells[r * n:(r + 1) * n]) for r in range(n)]
    return (newline.join(rows) + newline * draw(st.integers(0, 1))).encode()


def _last_digit_steps(text):
    """text, a plain decimal, one up and one down in its last digit."""
    d = decimal.Decimal(text)
    step = decimal.Decimal((0, (1,), d.as_tuple().exponent))
    return [format(d + step, "f"), format(d - step, "f")]


def _adversarial_fields():
    """Decimal fields on the edges of the compiled reader's exact
    conversion, each with the one up and the one down in its last digit:
    exact midpoints between adjacent doubles, written in full and cut to
    17, 18 and 19 significant digits up and down, and short ones that
    round to even; 19 against 20 significant digits; the decimal
    exponents around its limits; significands at 2^52, 2^53, 2^63 and
    2^64 - 1; subnormals, zeros and underflow; leading zeros and signs."""
    fields = []
    with decimal.localcontext() as ctx:
        ctx.prec = 2000
        for x in (5e-324, 1e-310, 2.2250738585072014e-308, 1e-27, 1e-5, 0.1, 1.0, 123.456,
                  116.05801260300478, 573.5033861120603, 4503599627370495.5, 2.0 ** 52,
                  2.0 ** 53, 2.0 ** 63, 2.0 ** 64, 1e22, 1e23):
            mid = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
            fields += [format(mid, "f")] + _last_digit_steps(format(mid, "f"))
            fields += [format(decimal.Context(prec=digits, rounding=rounding).plus(mid), "e")
                       for digits in (17, 18, 19)
                       for rounding in (decimal.ROUND_CEILING, decimal.ROUND_FLOOR)]
        short = ["9007199254740993", "9007199254740995", "4503599627370496.5",
                 "4503599627370497.5", "45035996273704965e-1", "9223372036854776832",
                 "9223372036854777856", "18014398509481986",
                 "1234567890123456789", "12345678901234567891", "0.1234567890123456789",
                 "0.12345678901234567891", "9999999999999999999", "99999999999999999999",
                 "1.000000000000000000", "1.0000000000000000000",
                 "4503599627370496", "9007199254740992", "9223372036854775807",
                 "9223372036854775808", "18446744073709551615", "18446744073709551616"]
        for text in short:
            fields += [text] + _last_digit_steps(text)
    for k in (0, 1, 19, 21, 22, 23, 27, 28):
        for m in ("1", "9007199254740993", "4503599627370496", "1234567890123456789",
                  "18446744073709551615"):
            fields += [f"{m}e-{k}", f"{m}e{k}", f"{m}E+{k:03d}"]
    fields += ["5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324",
               "2.4703282292062328e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
               "1e-400", "0e-400", "-0", "0", "-0.0e+999", "0.000", "1e999999999999999999999",
               "0.000000000000000000000000001", "0.0000000000000000000001234567890123456789",
               "000000000000000000000000000000123.5", "+00.5", "-.5e-3", "+5.", "-7", "+0"]
    return fields


def _field_file(fields):
    """fields as the smallest square matrix file that holds them, row by
    row and padded with zeros, and its entries by float()."""
    n = math.isqrt(len(fields) - 1) + 1
    fields = fields + ["0"] * (n * n - len(fields))
    rows = [",".join(fields[r * n:(r + 1) * n]) for r in range(n)]
    return "\n".join(rows).encode(), np.array([float(f) for f in fields]).reshape(n, n)


def _symmetric_file(fields):
    """The symmetric matrix file with the fields, above and mirrored below
    a zero diagonal, and its entries by float()."""
    n = math.isqrt(2 * len(fields)) + 2
    cells = [["0"] * n for _ in range(n)]
    for (i, j), text in zip(zip(*np.triu_indices(n, 1)), fields + ["0"] * n * n):
        cells[i][j] = cells[j][i] = text
    return ("\n".join(map(",".join, cells)) + "\n").encode(), np.array(
        [[float(f) for f in row] for row in cells])


def _adversarial_exit_code(tmp_path, monkeypatch, flags):
    """exit_code of a forked child that builds the kernels with flags
    added to the compile command and reads the adversarial fields: 0 when
    it converts them all as float() does."""
    monkeypatch.setattr(native, "COMPILE", native.COMPILE + flags)
    data, want = _field_file(_adversarial_fields())

    def convert():
        kernel = native.load_kernel(tmp_path / "cache")
        entries = np.empty(want.shape)
        return (kernel.read_matrix(data, len(data), len(want), csv.field_size_limit(),
                                   entries.ctypes.data) == 0
                and np.array_equal(entries.view(np.int64), want.view(np.int64)))

    return exit_code(convert)


def _compiled_outcome(path, monkeypatch):
    """_outcome(load_matrix, path) with every file sent to the compiled reader."""
    monkeypatch.setattr(core, "COMPILED_MATRIX_BYTES", -1)
    return _outcome(load_matrix, path)


class TestCompiledMatrixReader:
    """The compiled reader against numpy's reader and the csv path, which
    stay as its oracles and as the path without a compiler: it takes only
    plain decimal rows, with the entries they give bit for bit, and hands
    any other file on, so every message stays the same."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_decimal_files())
    def test_same_entries_as_loadtxt(self, tmp_path, monkeypatch, data):
        require_compiled()
        entries = core._read_compiled(data)
        assert entries is not None
        want = np.loadtxt(io.BytesIO(data), delimiter=",", comments=None, ndmin=2)
        assert np.array_equal(entries.view(np.int64), want.view(np.int64))
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        assert _equal_outcomes(_compiled_outcome(path, monkeypatch),
                               _outcome(core._load_matrix_csv, path))

    @pytest.mark.parametrize("data", [
        b"0,1\n\n1,0\n", b"0,1\n1,0\n\n", b"0,1,\n1,0,\n", b"0,1\n1\n", b"0,1,2\n1,0,3\n",
        b"0,1e\n1e,0\n", b"0,nan\nnan,0\n", b"0,inf\ninf,0\n", b"0,1_5\n1_5,0\n",
        b"\xef\xbb\xbf0,1\n1,0\n", b"0, 1\n1,0\n", b"0,1\r1,0\r", b"0,1\r\r\n1,0\n",
        b"0,1\n1,0\r", b"0,0x1p3\n0x1p3,0\n", b"0,.\n.,0\n", b"0,-\n-,0\n", b'"0",1\n1,0\n',
        b"0,1\n1,0\n2,0\n", b"0,\xd9\xa1\n\xd9\xa1,0\n", b"", b"0,1,2,3",
    ])
    def test_refusals_fall_back_with_todays_outcome(self, tmp_path, monkeypatch, data):
        require_compiled()
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        assert core._read_compiled(data) is None
        assert _equal_outcomes(_compiled_outcome(path, monkeypatch),
                               _outcome(core._load_matrix_csv, path))

    @pytest.mark.parametrize("extra", [0, 1])
    def test_field_at_and_past_the_csv_limit(self, tmp_path, monkeypatch, extra):
        require_compiled()
        field = "0" * (csv.field_size_limit() + extra)
        data = f"{field},1\n1,0\n".encode()
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        assert (core._read_compiled(data) is None) == bool(extra)
        old = _outcome(core._load_matrix_csv, path)
        assert _equal_outcomes(_compiled_outcome(path, monkeypatch), old)
        assert isinstance(old, str) == bool(extra)

    def test_locale_with_a_decimal_comma(self, tmp_path, monkeypatch):
        require_compiled()
        if shutil.which("localedef") is None:
            pytest.skip("localedef is not installed")
        made = subprocess.run(["localedef", "-i", "de_DE", "-f", "UTF-8", str(tmp_path / "de_DE.UTF-8")],
                              capture_output=True)
        if made.returncode != 0:
            pytest.skip("the de_DE locale cannot be compiled here")
        path = tmp_path / "m.csv"
        path.write_bytes(b"0,1.5,2\n1.5,0,25\n2,25,0\n")
        want = _compiled_outcome(path, monkeypatch)
        monkeypatch.setenv("LOCPATH", str(tmp_path))
        old = locale.setlocale(locale.LC_NUMERIC)
        try:
            locale.setlocale(locale.LC_NUMERIC, "de_DE.UTF-8")
            assert locale.localeconv()["decimal_point"] == ","
            assert core._read_compiled(b"0,2\n2,0\n") is None
            assert _equal_outcomes(_compiled_outcome(path, monkeypatch), want)
        finally:
            locale.setlocale(locale.LC_NUMERIC, old)

    def test_adversarial_fields_convert_as_float_does(self):
        require_compiled()
        data, want = _field_file(_adversarial_fields())
        entries = core._read_compiled(data)
        assert entries is not None
        assert np.array_equal(entries.view(np.int64), want.view(np.int64))

    def test_adversarial_fields_load_as_float_does(self, tmp_path, monkeypatch):
        require_compiled()
        fields = [f for f in _adversarial_fields() if 0 <= float(f) < math.inf]
        data, want = _symmetric_file(fields)
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        assert np.array_equal(_compiled_outcome(path, monkeypatch), want.view(np.int64))
        monkeypatch.undo()
        assert np.array_equal(_outcome(load_matrix, path), want.view(np.int64))

    def test_reader_has_no_undefined_behaviour(self, tmp_path, monkeypatch):
        """The kernels built with the undefined-behaviour sanitizer, which
        stops at its first finding, convert the adversarial fields as
        float() does, in a forked child, so that a finding fails this test
        and not the test run."""
        flags = ("-fsanitize=undefined", "-fno-sanitize-recover=all")
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        probe = subprocess.run([*native.COMPILE, *flags, "-o", str(tmp_path / "probe.so"), "-x", "c", "-"],
                               input="int probe(void) { return 0; }\n", capture_output=True, text=True)
        if probe.returncode != 0:
            pytest.skip("no undefined-behaviour sanitizer library")
        assert _adversarial_exit_code(tmp_path, monkeypatch, flags) == 0

    def test_reader_without_128_bit_integers(self, tmp_path, monkeypatch):
        # where the compiler has no 128-bit integers, strtod converts every field
        require_compiled()
        assert _adversarial_exit_code(tmp_path, monkeypatch, ("-U__SIZEOF_INT128__",)) == 0

    def test_large_plain_file_takes_the_compiled_reader(self, tmp_path, monkeypatch):
        require_compiled()

        def refuse(*args, **kwargs):
            raise AssertionError("a numpy or csv reader ran")

        m = distance_matrix(random_points(np.random.default_rng(4), 300))
        path = tmp_path / "m.csv"
        save_matrix(m, path)
        assert path.stat().st_size > core.COMPILED_MATRIX_BYTES
        monkeypatch.setattr(core, "_load_matrix_csv", refuse)
        monkeypatch.setattr(np, "loadtxt", refuse)
        assert np.array_equal(load_matrix(path).entries, m.entries)


class TestBundledFixtures:
    def test_poets_full_schema(self):
        t = poets_full_table()
        assert set(t.schema) == {"name", "yob", "language", "loc"}
        assert len(t.records) == 10

    def test_poets_matrices_shape_and_sample_entries(self):
        d1 = poets_target_matrix()
        d2 = poets_ident_matrix()
        assert d1.entries.shape == (10, 10)
        assert d2.entries.shape == (10, 10)
        assert d1[0, 1] == 1261.0
        assert d2[0, 1] == 1260.0
        assert d1[8, 9] == 0.0  # two entities in the same city

    def test_birthplaces_align_with_target_rows(self):
        b = poets_birthplaces_table()
        t = poets_target_table()
        assert len(b.records) == len(t.records)
        assert b.points is not None
