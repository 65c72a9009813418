"""Distance computation, table and matrix containers, file round trips."""

import io
import json
import math

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
from distlink import core
from distlink.cli import _config_from_file
from distlink.errors import DistlinkError
from distlink.evaluation import SimulationConfig
from helpers import EXAMPLE_CITY_MATRIX, random_points, scalar_great_circle_km


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
        new, old = _outcome(load_matrix, path), _outcome(core._load_matrix_csv, path)
        assert type(new) is type(old)
        assert new == old if isinstance(old, str) else np.array_equal(new, old)

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
