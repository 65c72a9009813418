"""Microdata tables, distance matrices and great-circle geometry.

A dataset is a pair (T, D): a microdata table T plus a square matrix D of
pairwise distances between its records.  D only has to be a pseudometric,
so off-diagonal zeros are allowed (two records may sit at the same
location) and the triangle inequality is never checked (published
matrices may have been perturbed).

All great-circle geometry goes through one array kernel, _great_circle_km.
Its arccos stays math.acos, applied over a plain list of the clamped
cosines: numpy's sin and cos match the math module bit for bit, np.arccos
does not (it differed from math.acos on 25,959 of 180,000 cosines).
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import InputFormatError

EARTH_RADIUS_KM = 6371.0

# column names reserved for coordinates in microdata CSV files
LON_COLUMN = "lon"
LAT_COLUMN = "lat"

#: upper-triangle pairs per kernel call of distance_matrix; a longer row
#: gets a call of its own
DISTANCE_BLOCK_PAIRS = 1 << 14


@dataclass(frozen=True)
class GeoPoint:
    """WGS84 coordinates in decimal degrees."""

    lon: float
    lat: float

    def __post_init__(self) -> None:
        # normalise numpy scalars so serialised output stays plain decimal
        object.__setattr__(self, "lon", float(self.lon))
        object.__setattr__(self, "lat", float(self.lat))
        if not -180.0 <= self.lon <= 180.0:
            raise InputFormatError(f"longitude out of range: {self.lon}")
        if not -90.0 <= self.lat <= 90.0:
            raise InputFormatError(f"latitude out of range: {self.lat}")


def _great_circle_km(lon1, lat1, lon2, lat2) -> np.ndarray:
    """Spherical law of cosines, elementwise: degrees in, km out.  The cosine
    is clamped to [-1, 1], so identical or antipodal points never fail."""
    lat1 = np.radians(lat1)
    lat2 = np.radians(lat2)
    c = (np.sin(lat1) * np.sin(lat2)
         + np.cos(lat1) * np.cos(lat2) * np.cos(np.radians(lon1) - np.radians(lon2)))
    c = np.clip(c, -1.0, 1.0)
    acos = np.fromiter(map(math.acos, c.ravel().tolist()), float, c.size)
    return EARTH_RADIUS_KM * acos.reshape(c.shape)


def great_circle_distance(p1: GeoPoint, p2: GeoPoint) -> float:
    """Spherical law of cosines distance in kilometres, R = 6371 km."""
    return float(_great_circle_km(p1.lon, p1.lat, p2.lon, p2.lat))


def distance_matrix(points: Sequence[GeoPoint]) -> "DistanceMatrix":
    """Pairwise great-circle distances of a point sequence.

    The upper triangle is filled by one kernel call per block of
    consecutive rows of about DISTANCE_BLOCK_PAIRS pairs, with index
    arrays of the block's size, then mirrored (x + 0 is exact):
    entries[i][j] == great_circle_distance(points[i], points[j]) bit for bit.
    """
    if len(points) == 0:
        raise InputFormatError("distance_matrix requires at least one point")
    n = len(points)
    lon, lat = np.array([(p.lon, p.lat) for p in points]).T
    # first[r]: flat index of row r's first pair (r, r + 1) in the upper triangle
    first = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1), out=first[1:])
    upper = np.zeros((n, n))
    i = 0
    while i < n - 1:
        k = max(i + 1, int(np.searchsorted(first, first[i] + DISTANCE_BLOCK_PAIRS, "right")) - 1)
        rows = np.repeat(np.arange(i, k), np.arange(n - 1 - i, n - 1 - k, -1))
        cols = np.arange(first[i], first[k]) - (first[rows] - rows - 1)
        upper[rows, cols] = _great_circle_km(lon[rows], lat[rows], lon[cols], lat[cols])
        i = k
    return DistanceMatrix(upper + upper.T, validate=False)


@dataclass(frozen=True)
class MicrodataRecord:
    """One table row: attribute name to value, all values kept as strings."""

    values: dict

    def get(self, attribute: str) -> str:
        return self.values[attribute]


class MicrodataTable:
    """An ordered microdata table with a designated quasi-identifier set.

    qi_attributes are the columns a snooper can observe in both files;
    id_attribute optionally names a ground-truth identity column (never a
    quasi-identifier).  Coordinates, when present, ride along as points
    but are not attributes.  Immutable after construction.
    """

    def __init__(
        self,
        records: Sequence[MicrodataRecord],
        schema: Sequence[str],
        qi_attributes: Sequence[str],
        id_attribute: Optional[str] = None,
        points: Optional[Sequence[GeoPoint]] = None,
    ) -> None:
        schema = tuple(schema)
        qi_attributes = tuple(qi_attributes)
        if len(records) < 1:
            raise InputFormatError("table must contain at least one record")
        if len(set(schema)) != len(schema):
            raise InputFormatError("duplicate attribute names in schema: "
                                   f"{sorted({a for a in schema if schema.count(a) > 1})}")
        for bad in (LON_COLUMN, LAT_COLUMN):
            if bad in schema:
                raise InputFormatError(f"'{bad}' is reserved for coordinates")
        if not set(qi_attributes) <= set(schema):
            raise InputFormatError("qi_attributes must be a subset of the schema; not in it: "
                                   f"{[a for a in qi_attributes if a not in schema]}")
        if id_attribute is not None:
            if id_attribute not in schema:
                raise InputFormatError(f"unknown id_attribute '{id_attribute}'")
            if id_attribute in qi_attributes:
                raise InputFormatError("id_attribute may not be a quasi-identifier")
        for i, rec in enumerate(records):
            missing = set(schema) - set(rec.values)
            if missing:
                raise InputFormatError(f"record {i + 1} lacks attributes {sorted(missing)}")
        if id_attribute is not None:
            ids = [rec.get(id_attribute) for rec in records]
            if len(set(ids)) != len(ids):
                raise InputFormatError(f"duplicate values in id column '{id_attribute}'")
        if points is not None and len(points) != len(records):
            raise InputFormatError("points and records must have equal length")
        self.records = tuple(records)
        self.schema = schema
        self.qi_attributes = qi_attributes
        self.id_attribute = id_attribute
        self.points = tuple(points) if points is not None else None

    def __len__(self) -> int:
        return len(self.records)

    def qi_tuple(self, row: int) -> tuple:
        """Quasi-identifier value tuple of a 0-based row, whitespace-trimmed."""
        rec = self.records[row]
        return tuple(rec.get(a).strip() for a in self.qi_attributes)

    def qi_tuples(self) -> list:
        """qi_tuple of every row, in order, reading each quasi-identifier column once."""
        columns = [[rec.values[a].strip() for rec in self.records] for a in self.qi_attributes]
        return list(zip(*columns)) if columns else [()] * len(self.records)

    def with_qi(self, qi_attributes: Sequence[str]) -> "MicrodataTable":
        """Same table with a different quasi-identifier designation."""
        return MicrodataTable(self.records, self.schema, qi_attributes,
                              self.id_attribute, self.points)


class DistanceMatrix:
    """Symmetric nonnegative square matrix with zero diagonal.

    Values are stored exactly as supplied: loading never re-symmetrises,
    so a published matrix keeps its printed entries.
    """

    #: relative tolerance of the symmetry check applied to loaded matrices
    SYMMETRY_RTOL = 1e-9

    def __init__(self, entries: np.ndarray, validate: bool = True) -> None:
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InputFormatError(f"matrix must be square, got shape {entries.shape}")
        if validate:
            if not np.all(np.isfinite(entries)):
                raise InputFormatError("matrix entries must be finite")
            if np.any(np.diagonal(entries) != 0.0):
                raise InputFormatError("matrix diagonal must be zero")
            if np.any(entries < 0.0):
                raise InputFormatError("matrix entries must be nonnegative")
            if not np.allclose(entries, entries.T, rtol=self.SYMMETRY_RTOL, atol=1e-12):
                raise InputFormatError("matrix is not symmetric within tolerance")
        entries.setflags(write=False)
        self.entries = entries
        self.n = entries.shape[0]

    def __getitem__(self, ij) -> float:
        i, j = ij
        return float(self.entries[i, j])


def _csv_rows(path: Path):
    """Yield the rows of a UTF-8 CSV file; undecodable bytes and CSV
    syntax errors become InputFormatError naming the path."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            yield from csv.reader(fh)
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise InputFormatError(f"{path}: malformed CSV: {exc}") from None


def load_table(
    path,
    qi_attributes: Sequence[str] = (),
    id_attribute: Optional[str] = None,
) -> MicrodataTable:
    """Read a microdata CSV: header row, one column per attribute, optional
    lon/lat coordinate columns in decimal degrees."""
    path = Path(path)
    rows = list(_csv_rows(path))
    if not rows:
        raise InputFormatError(f"{path}: empty file")
    header, rows = rows[0], rows[1:]
    if not rows:
        raise InputFormatError(f"{path}: no data rows")
    for coord in (LON_COLUMN, LAT_COLUMN):
        if header.count(coord) > 1:
            raise InputFormatError(f"{path}: duplicate coordinate column '{coord}'")
    has_coords = LON_COLUMN in header and LAT_COLUMN in header
    if (LON_COLUMN in header) != (LAT_COLUMN in header):
        raise InputFormatError(f"{path}: lon and lat columns must appear together")
    schema = [h for h in header if h not in (LON_COLUMN, LAT_COLUMN)]
    if not schema:
        raise InputFormatError(f"{path}: no attribute columns")
    records = []
    points = [] if has_coords else None
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise InputFormatError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        by_name = dict(zip(header, row))
        records.append(MicrodataRecord({a: by_name[a] for a in schema}))
        if has_coords:
            try:
                points.append(GeoPoint(float(by_name[LON_COLUMN]), float(by_name[LAT_COLUMN])))
            except ValueError:
                raise InputFormatError(f"{path}:{lineno}: malformed coordinate") from None
    try:
        return MicrodataTable(records, schema, qi_attributes, id_attribute, points)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def save_table(table: MicrodataTable, path) -> None:
    path = Path(path)
    header = list(table.schema)
    if table.points is not None:
        header += [LON_COLUMN, LAT_COLUMN]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, rec in enumerate(table.records):
            row = [rec.get(a) for a in table.schema]
            if table.points is not None:
                p = table.points[i]
                row += [repr(p.lon), repr(p.lat)]
            writer.writerow(row)


def load_matrix(path) -> DistanceMatrix:
    """Read a headerless CSV of n rows times n decimal values: plain decimal
    files with numpy's C reader, any other file or any failure (and so
    every error message) with _load_matrix_csv."""
    path = Path(path)
    data = path.read_bytes()
    # on these bytes np.loadtxt splits and converts fields exactly as
    # csv.reader and float() do, up to the csv field limit
    plain = (data.strip(b"\r\n") and not data.translate(None, b"0123456789.,+-eE \t\r\n")
             and max(map(len, data.splitlines())) <= csv.field_size_limit())
    del data  # the C reader streams the file itself
    if plain:
        try:
            entries = np.loadtxt(path, delimiter=",", comments=None, encoding="utf-8", ndmin=2)
        except ValueError:
            plain = False
    if plain and entries.shape[0] == entries.shape[1]:
        return DistanceMatrix(entries)
    return _load_matrix_csv(path)


def _load_matrix_csv(path: Path) -> DistanceMatrix:
    """load_matrix through csv.reader and float()."""
    rows = []
    for lineno, line in enumerate(_csv_rows(path), start=1):
        if not line:
            continue
        try:
            rows.append([float(x) for x in line])
        except ValueError:
            raise InputFormatError(f"{path}:{lineno}: malformed number") from None
        if len(line) != len(rows[0]):
            raise InputFormatError(f"{path}:{lineno}: expected {len(rows[0])} fields, got {len(line)}")
    if not rows:
        raise InputFormatError(f"{path}: empty matrix file")
    if len(rows) != len(rows[0]):
        raise InputFormatError(f"{path}: matrix must be square, got {len(rows)}x{len(rows[0])}")
    return DistanceMatrix(np.array(rows, dtype=float))


def save_matrix(matrix: DistanceMatrix, path) -> None:
    # %.17g round-trips every float64 exactly
    np.savetxt(path, matrix.entries, fmt="%.17g", delimiter=",")


def file_digest(path) -> str:
    """Hex SHA-256 of a file, for run manifests."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
