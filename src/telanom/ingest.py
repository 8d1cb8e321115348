"""Reading, validating and grouping raw detection CSVs.

Input format (one row per detection):

    fishid,receiver,station,lat,lon,date,time_sa

``date`` is YYYY-MM-DD and ``time_sa`` is HH:MM:SS in UTC+2 (no DST).
Timestamps are stored internally as integer epoch seconds (UTC).

Station map format:

    station,lat,lon,order

``order`` is the station's 0-based position along the waterway; the set of
orders must be exactly 0..S-1.

Detections are held as columns (``Detections``), never as one object per
row: every string field is parsed once per distinct value and gathered
back by integer code.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, field
from datetime import date, timezone, timedelta, datetime
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import DataError, read_file, whole_file

log = logging.getLogger(__name__)

# fixed UTC+2 offset of the study clock, in seconds
UTC_OFFSET_S = 7200

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()

DETECTION_COLUMNS = ["fishid", "receiver", "station", "lat", "lon", "date", "time_sa"]
STATION_COLUMNS = ["station", "lat", "lon", "order"]

# parse_csv's drop reasons, in the order a row is checked against them
DROP_REASONS = ("missing_field", "bad_coordinate", "bad_timestamp",
                "unknown_station")

# rows read per block; bounds the raw strings held at once
_BLOCK_ROWS = 4096

# rows written per block; bounds the formatted text held at once (at 16,384
# rows, resampled.csv's blocks raised the peak RSS of a survey run)
_WRITE_ROWS = 4096


class DetectionRecord(NamedTuple):
    fish_id: str
    receiver_id: str
    station_id: str
    lat: float
    lon: float
    timestamp: int  # epoch seconds, UTC


class Detections:
    """Detection columns: fish, receiver and station ids (str, object
    arrays), lat/lon (float64) and timestamp (int64 epoch seconds, UTC)."""

    COLUMNS = ("fish_id", "receiver_id", "station_id", "lat", "lon",
               "timestamp")

    def __init__(self, fish_id, receiver_id, station_id, lat, lon, timestamp):
        self.fish_id = np.asarray(fish_id, dtype=object)
        self.receiver_id = np.asarray(receiver_id, dtype=object)
        self.station_id = np.asarray(station_id, dtype=object)
        self.lat = np.asarray(lat, dtype=np.float64)
        self.lon = np.asarray(lon, dtype=np.float64)
        self.timestamp = np.asarray(timestamp, dtype=np.int64)
        if len({len(getattr(self, c)) for c in self.COLUMNS}) != 1:
            raise ValueError("column length mismatch")

    @classmethod
    def from_records(cls, records):
        """Columns of a DetectionRecord list, in list order."""
        return cls(*(list(zip(*records)) or [()] * len(cls.COLUMNS)))

    def __len__(self):
        return len(self.timestamp)

    def __eq__(self, other):
        if not isinstance(other, Detections):
            return NotImplemented
        return all(np.array_equal(getattr(self, c), getattr(other, c))
                   for c in self.COLUMNS)

    def take(self, indices):
        return Detections(*(getattr(self, c)[indices] for c in self.COLUMNS))


class StationMap:
    """Receiver stations keyed by id, each with coordinates and a 0-based
    order index along the waterway."""

    def __init__(self, stations):
        # stations: iterable of (station_id, lat, lon, order)
        self._coords = {}
        self._order = {}
        for sid, lat, lon, order in stations:
            if sid in self._coords:
                raise DataError("duplicate station id %r" % sid)
            self._coords[sid] = (float(lat), float(lon))
            self._order[sid] = int(order)
        orders = sorted(self._order.values())
        if orders != list(range(len(orders))):
            raise DataError("station orders must be exactly 0..S-1, got %s" % orders)
        if not self._coords:
            raise DataError("station map is empty")

    def __len__(self):
        return len(self._coords)

    def __contains__(self, station_id):
        return station_id in self._coords

    def ids(self):
        return sorted(self._coords)

    def coords(self, station_id):
        try:
            return self._coords[station_id]
        except KeyError:
            raise DataError("unknown station id %r" % station_id) from None

    def order_of(self, station_id):
        try:
            return self._order[station_id]
        except KeyError:
            raise DataError("unknown station id %r" % station_id) from None


@dataclass
class ParseReport:
    n_rows: int = 0
    n_parsed: int = 0
    dropped: dict = field(default_factory=dict)  # reason -> count

    def drop(self, reason, n):
        self.dropped[reason] = self.dropped.get(reason, 0) + n


def _day_number(date_str):
    """YYYY-MM-DD -> days since 1970-01-01; raises ValueError."""
    y, mo, dy = (int(p) for p in date_str.strip().split("-"))
    return date(y, mo, dy).toordinal() - _EPOCH_ORDINAL


def _clock_seconds(time_str):
    """HH:MM:SS -> seconds since midnight; raises ValueError."""
    h, mi, s = (int(p) for p in time_str.strip().split(":"))
    if not (0 <= h <= 23 and 0 <= mi <= 59 and 0 <= s <= 59):
        raise ValueError("bad time %r" % time_str)
    return h * 3600 + mi * 60 + s


def parse_timestamp(date_str, time_str):
    """UTC+2 calendar date + wall time -> integer epoch seconds (UTC)."""
    try:
        days = _day_number(date_str)
        seconds = _clock_seconds(time_str)
    except ValueError:
        raise ValueError("bad date/time %r %r" % (date_str, time_str)) from None
    return days * 86400 + seconds - UTC_OFFSET_S


def format_timestamp(ts):
    """Inverse of parse_timestamp: epoch seconds -> (date_str, time_str)."""
    dt = datetime.fromtimestamp(int(ts), tz=timezone(timedelta(seconds=UTC_OFFSET_S)))
    return dt.strftime("%Y-%m-%d"), dt.strftime("%H:%M:%S")


def local_day(ts):
    """Calendar day index (days since epoch) in the study's UTC+2 clock."""
    return (int(ts) + UTC_OFFSET_S) // 86400


def _check_header(fieldnames, required, path):
    missing = [c for c in required if c not in (fieldnames or [])]
    if missing:
        raise DataError("%s: missing required column(s) %s" % (path, missing))


def load_station_map(path):
    with read_file(path, newline="") as f:
        reader = csv.DictReader(f)
        _check_header(reader.fieldnames, STATION_COLUMNS, path)
        rows = []
        for row in reader:
            try:
                rows.append((row["station"], float(row["lat"]),
                             float(row["lon"]), int(row["order"])))
            except (TypeError, ValueError):
                raise DataError("%s: malformed station row %r" % (path, row)) from None
    return StationMap(rows)


class _Codebook(dict):
    """The distinct strings of one column, numbered in first-seen order."""

    def __missing__(self, key):
        code = self[key] = len(self)
        return code


def categorize(values):
    """(sorted distinct values, int64 code of each entry into them) of a
    column of strings; codes therefore order as the strings do."""
    book = _Codebook()
    codes = np.fromiter(map(book.__getitem__, np.asarray(values).tolist()),
                        np.int64, len(values))
    names = sorted(book)
    rank = np.empty(len(names), np.int64)
    rank[[book[n] for n in names]] = np.arange(len(names))
    return names, rank[codes]


def first_of_runs(*keys):
    """True at row 0 and wherever any of the key columns differs from the
    row before: the first row of each run of equal keys."""
    flags = np.zeros(len(keys[0]), dtype=bool)
    flags[:1] = True
    for key in keys:
        key = np.asarray(key)
        flags[1:] |= key[1:] != key[:-1]
    return flags


def _decode(book, parse):
    """(value, ok) arrays over a codebook's strings: parse(s) once per
    distinct string, ok False where it raised."""
    values, ok = [], []
    for raw in book:
        try:
            values.append(parse(raw))
            ok.append(True)
        except (ValueError, OverflowError):
            values.append(0)
            ok.append(False)
    return np.array(values), np.array(ok, dtype=bool)


def _decode_clocks(book):
    """_decode(book, _clock_seconds), with the canonical strings (exactly
    eight ASCII characters, ``HH:MM:SS``) parsed as one array; every other
    string goes through _clock_seconds."""
    strings = list(book)
    values = np.zeros(len(strings), dtype=np.int64)
    ok = np.zeros(len(strings), dtype=bool)
    eight = np.flatnonzero(np.fromiter(map(len, strings), np.int64,
                                       len(strings)) == 8)
    chars = np.array([strings[i] for i in eight], dtype="U8").view(
        np.uint32).reshape(-1, 8)
    digits = chars - ord("0")  # unsigned: past 9 for every non-digit
    canonical = ((chars[:, [2, 5]] == ord(":")).all(axis=1)
                 & (digits[:, [0, 1, 3, 4, 6, 7]] <= 9).all(axis=1))
    fast = eight[canonical]
    h, mi, s = (10 * digits[canonical, i] + digits[canonical, i + 1]
                for i in (0, 3, 6))
    ok[fast] = (h <= 23) & (mi <= 59) & (s <= 59)
    values[fast] = np.where(ok[fast], h * 3600 + mi * 60 + s, 0)
    slow = np.ones(len(strings), dtype=bool)
    slow[fast] = False
    slow = np.flatnonzero(slow)
    values[slow], ok[slow] = _decode([strings[i] for i in slow],
                                     _clock_seconds)
    return values, ok


def _clock_texts(seconds):
    """The ``HH:MM:SS`` string of each second of the day in an int64
    array, made as one array of ASCII digits: the inverse of
    _decode_clocks."""
    chars = np.full((len(seconds), 8), ord(":"), dtype=np.uint8)
    for col, value in ((0, seconds // 3600), (3, seconds // 60 % 60),
                       (6, seconds % 60)):
        chars[:, col] = value // 10 + ord("0")
        chars[:, col + 1] = value % 10 + ord("0")
    return chars.view("S8").ravel().astype("U8").tolist()


def parse_csv(path, station_map):
    """Parse a detection CSV against a station map into Detections, in file
    order.

    Malformed rows and rows whose station is not in the map are dropped and
    counted in the returned ParseReport; a row is checked for each reason
    of DROP_REASONS in turn, and a row too short to hold every required
    column is a missing_field. A missing file or a missing required column
    is an error.
    """
    report = ParseReport()
    with read_file(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        _check_header(header, DETECTION_COLUMNS, path)
        where = {name: i for i, name in enumerate(header)}  # last one wins
        columns = [where[c] for c in DETECTION_COLUMNS]
        width = max(columns) + 1
        books = [_Codebook() for _ in columns]
        blocks = [[] for _ in columns]
        for block in iter(lambda: list(islice(reader, _BLOCK_ROWS)), []):
            rows = [r for r in block if len(r) >= width]
            n_rows = sum(map(bool, block))  # blank lines are not rows
            report.n_rows += n_rows
            if n_rows > len(rows):
                report.drop("missing_field", n_rows - len(rows))
            if not rows:
                continue
            fields = list(zip(*rows))
            for book, col, out in zip(books, columns, blocks):
                out.append(np.fromiter(map(book.__getitem__, fields[col]),
                                       np.int64, len(rows)))
    fish, recv, station, lat, lon, day, clock = (
        np.concatenate(b) if b else np.empty(0, np.int64) for b in blocks)

    fish_ids, recv_ids, station_ids = (
        np.array([s.strip() for s in book], dtype=object)
        for book in books[:3])
    known = np.array([s in station_map for s in station_ids], dtype=bool)
    lat_v, lat_ok = _decode(books[3], float)
    lon_v, lon_ok = _decode(books[4], float)
    day_v, day_ok = _decode(books[5], _day_number)
    clock_v, clock_ok = _decode_clocks(books[6])

    lat_deg, lon_deg = lat_v[lat], lon_v[lon]
    checks = ((fish_ids != "")[fish] & (station_ids != "")[station]
              & lat_ok[lat] & lon_ok[lon],
              (-90.0 <= lat_deg) & (lat_deg <= 90.0)
              & (-180.0 <= lon_deg) & (lon_deg <= 180.0),
              day_ok[day] & clock_ok[clock],
              known[station])
    kept = np.ones(len(fish), dtype=bool)
    for reason, ok in zip(DROP_REASONS, checks):
        n_bad = int(np.count_nonzero(kept & ~ok))
        if n_bad:
            report.drop(reason, n_bad)
        kept &= ok
    idx = np.flatnonzero(kept)
    report.n_parsed = len(idx)
    detections = Detections(
        fish_ids[fish[idx]], recv_ids[recv[idx]], station_ids[station[idx]],
        lat_deg[idx], lon_deg[idx],
        day_v[day[idx]] * 86400 + clock_v[clock[idx]] - UTC_OFFSET_S)
    for reason, n in sorted(report.dropped.items()):
        log.warning("%s: dropped %d row(s): %s", path, n, reason)
    return detections, report


def format_distinct(fmt, values):
    """[fmt(v) for v in values.tolist()] for an int64 or float64 array,
    calling fmt once per distinct value. Values are told apart by bit
    pattern, so -0.0 and 0.0 stay apart."""
    _, first, inverse = np.unique(values.view(np.int64), return_index=True,
                                  return_inverse=True)
    return np.array([fmt(v) for v in values[first].tolist()],
                    dtype=object)[inverse].tolist()


def write_csv(path, header, columns):
    """Write a CSV file of the ``header`` row and the rows of equal-length
    ``columns``, byte for byte as ``csv.writer`` writes them: None as the
    empty string, every other value as its str (repr for floats), fields
    quoted where the excel dialect needs it and lines ended by CRLF.

    A column is a sequence of values or a numpy array. A float64 array's
    text is made once per distinct bit pattern; strings are quoted by the
    csv module once per distinct string. Rows are joined in blocks of
    _WRITE_ROWS, so the text held at once is bounded.
    """
    buf = io.StringIO()
    quoter = csv.writer(buf)
    # a lone empty field is quoted, an empty field beside another is not
    pad = ("",) if len(header) > 1 else ()

    def written(row):
        buf.seek(0)
        buf.truncate()
        quoter.writerow(row)
        return buf.getvalue()

    def fields(texts):
        """csv.writer's field for each text: asked once for the distinct
        texts together and, if it quotes any of them, once per text."""
        distinct = list(dict.fromkeys(texts))
        if pad and written(distinct) == ",".join(distinct) + "\r\n":
            return texts
        quoted = {t: written((t,) + pad)[:-len(pad) - 2] for t in distinct}
        return list(map(quoted.__getitem__, texts))

    def column_fields(values):
        # the text of a number holds only digits, ".", "+", "-", "e",
        # "inf" and "nan": nothing the excel dialect quotes
        if isinstance(values, np.ndarray) and values.dtype == np.float64:
            return format_distinct(repr, values)
        if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
            return list(map(str, values.tolist()))
        values = (values.tolist() if isinstance(values, np.ndarray)
                  else list(values))
        if not set(map(type, values)) <= {str}:
            values = ["" if v is None else str(v) for v in values]
        return fields(values)

    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns) or len(columns) != len(header):
        raise ValueError("header and columns differ in shape")
    with whole_file(path, newline="") as f:
        f.write(",".join(fields([str(h) for h in header])) + "\r\n")
        for start in range(0, n_rows, _WRITE_ROWS):
            rows = zip(*(column_fields(c[start:start + _WRITE_ROWS])
                         for c in columns))
            f.write("\r\n".join(map(",".join, rows)) + "\r\n")


def write_detections_csv(detections, path):
    """Serialize detections (Detections, or a DetectionRecord list) back to
    the input CSV format.

    parse -> serialize -> parse round-trips valid rows exactly: floats are
    written with repr and timestamps re-expanded to the UTC+2 clock.
    """
    if not isinstance(detections, Detections):
        detections = Detections.from_records(detections)
    day, clock = np.divmod(detections.timestamp + UTC_OFFSET_S, 86400)
    write_csv(path, DETECTION_COLUMNS, [
        detections.fish_id, detections.receiver_id, detections.station_id,
        detections.lat, detections.lon,
        format_distinct(lambda d: date.fromordinal(
            d + _EPOCH_ORDINAL).strftime("%Y-%m-%d"), day),
        _clock_texts(clock)])


def deduplicate(detections):
    """Drop exact repeats of (fish_id, station_id, timestamp), keeping the
    first occurrence and file order. Returns (detections, n_removed)."""
    _, fish = categorize(detections.fish_id)
    _, station = categorize(detections.station_id)
    ts = detections.timestamp
    order = np.lexsort((station, ts, fish))  # stable: repeats in file order
    first = first_of_runs(fish[order], ts[order], station[order])
    kept = np.sort(order[first])
    return detections.take(kept), len(detections) - len(kept)


def group_tracks(detections):
    """Sort detections by fish_id, then timestamp, then station_id (exact
    ties keep file order), so each fish's track is one contiguous,
    time-sorted run and downstream results do not depend on input file
    order."""
    _, fish = categorize(detections.fish_id)
    _, station = categorize(detections.station_id)
    return detections.take(
        np.lexsort((station, detections.timestamp, fish)))
