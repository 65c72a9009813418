"""Distance computation, table and matrix containers, file round trips."""

import math

import numpy as np
import pytest

from distlink import (
    EARTH_RADIUS_KM,
    DistanceMatrix,
    GeoPoint,
    InputFormatError,
    MicrodataRecord,
    MicrodataTable,
    distance_matrix,
    great_circle_distance,
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
from helpers import EXAMPLE_CITY_MATRIX, random_points


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
