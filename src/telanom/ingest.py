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
from itertools import chain, islice
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

# rows csv.reader reads per block; bounds the raw strings held at once
_BLOCK_ROWS = 4096

# characters of a detection CSV tokenised as bytes at once; bounds the text
# and the token arrays held at once
_CHUNK_CHARS = 1 << 20

# fields of up to this many bytes are told apart as numpy byte strings
_KEY_BYTES = 64

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
        rows = []
        try:
            _check_header(reader.fieldnames, STATION_COLUMNS, path)
            for row in reader:
                try:
                    rows.append((row["station"], float(row["lat"]),
                                 float(row["lon"]), int(row["order"])))
                except (TypeError, ValueError):
                    raise DataError("%s: malformed station row %r"
                                    % (path, row)) from None
        except csv.Error as e:
            raise DataError("%s: line %d: %s"
                            % (path, reader.line_num, e)) from None
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


def _decode_clocks(chars, texts, codes):
    """(seconds since midnight, ok) of each row of a time_sa column: rows
    of the (m, 8) uint8 matrix ``chars`` in the canonical form (``HH:MM:SS``
    in ASCII digits) are read as one array, and every other row goes
    through _clock_seconds, once per distinct text. A row's text is
    ``texts[codes[i]]``, or its row of ``chars`` where ``codes[i]`` is -1:
    _Block's form of the column."""
    digits = chars - np.uint8(ord("0"))  # unsigned: past 9 for non-digits
    canonical = ((chars[:, 2] == ord(":")) & (chars[:, 5] == ord(":"))
                 & (digits[:, [0, 1, 3, 4, 6, 7]] <= 9).all(axis=1))
    h, mi, s = (10 * digits[:, i].astype(np.int64) + digits[:, i + 1]
                for i in (0, 3, 6))
    ok = canonical & (h <= 23) & (mi <= 59) & (s <= 59)
    values = np.where(ok, h * 3600 + mi * 60 + s, 0)
    slow = np.flatnonzero(~canonical)
    book = _Codebook()
    slow_codes = np.fromiter(
        (book[texts[c] if c >= 0 else chars[i].tobytes().decode()]
         for i, c in zip(slow.tolist(), codes[slow].tolist())),
        np.int64, len(slow))
    slow_values, slow_ok = _decode(book, _clock_seconds)
    values[slow] = slow_values[slow_codes]
    ok[slow] = slow_ok[slow_codes]
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


class _Block(NamedTuple):
    """The records a tokeniser read from one block of a detection CSV.

    ``n_rows`` counts them, blank lines aside; the other fields cover the
    m of them wide enough to hold every required column. ``columns`` holds
    (distinct texts, int64 code of each row into them) for each of
    DETECTION_COLUMNS, and ``clocks`` the (m, 8) uint8 UTF-8 bytes of each
    row's time_sa where they are exactly eight, zeros elsewhere; time_sa's
    own codes are -1 where ``clocks`` holds its bytes."""
    n_rows: int
    columns: list
    clocks: np.ndarray


def _layout(header, path):
    """Each of DETECTION_COLUMNS' index in a row (the last column of a
    repeated name) and the least row width that holds them all."""
    _check_header(header, DETECTION_COLUMNS, path)
    where = {name: i for i, name in enumerate(header)}
    columns = [where[c] for c in DETECTION_COLUMNS]
    return columns, max(columns) + 1


def _clock_column(texts, codes):
    """_Block's time_sa column and ``clocks`` of a column given as distinct
    texts and the code of each row."""
    raw = [t.encode() for t in texts]
    eight = np.array([len(r) == 8 for r in raw], dtype=bool)
    table = np.zeros((len(raw), 8), dtype=np.uint8)
    table[eight] = np.frombuffer(b"".join(r for r in raw if len(r) == 8),
                                 np.uint8).reshape(-1, 8)
    odd = np.flatnonzero(~eight)
    remap = np.full(len(raw), -1, dtype=np.int64)
    remap[odd] = np.arange(len(odd))
    return ([texts[i] for i in odd.tolist()], remap[codes]), table[codes]


def _reader_blocks(lines, layout, path):
    """_Blocks of the records csv.reader reads from ``lines``, _BLOCK_ROWS
    at a time. ``layout`` is _layout's, or None when the header is the
    first record; a csv.Error is a DataError that names the file."""
    reader = csv.reader(lines)
    try:
        columns, width = layout or _layout(next(reader, None), path)
        for block in iter(lambda: list(islice(reader, _BLOCK_ROWS)), []):
            rows = [r for r in block if len(r) >= width]
            fields = list(zip(*rows)) or [()] * width
            coded = []
            for col in columns:
                book = _Codebook()
                codes = np.fromiter(map(book.__getitem__, fields[col]),
                                    np.int64, len(rows))
                coded.append((list(book), codes))
            coded[-1], clocks = _clock_column(*coded[-1])
            yield _Block(sum(map(bool, block)), coded, clocks)
    except csv.Error as e:
        raise DataError("%s: line %d: %s" % (path, reader.line_num, e)) \
            from None


def _factorize(raw, padded, starts, ends):
    """(distinct texts, int64 code of each field) of the fields
    ``raw[starts[i]:ends[i]]``. ``padded`` is ``raw`` as a uint8 array
    with _KEY_BYTES zero bytes after it. Fields of at most _KEY_BYTES bytes
    are zero-padded to the longest one's width (no field holds a NUL) and
    told apart by one np.unique on those bytes; only the distinct fields
    are decoded. Longer fields go through a dict."""
    lengths = ends - starts
    width = max(1, int(lengths.max(initial=0)))
    if width > _KEY_BYTES:
        book = _Codebook()
        codes = np.fromiter(
            (book[raw[a:z]] for a, z in zip(starts.tolist(), ends.tolist())),
            np.int64, len(starts))
        return [key.decode() for key in book], codes
    keys = np.lib.stride_tricks.sliding_window_view(padded, width)[starts]
    keys[np.arange(width) >= lengths[:, None]] = 0
    _, first, codes = np.unique(keys.view("S%d" % width).ravel(),
                                return_index=True, return_inverse=True)
    return [raw[a:z].decode() for a, z in zip(starts[first].tolist(),
                                              ends[first].tolist())], codes


def _byte_block(raw, starts, ends, columns):
    """The _Block of the lines [starts, ends) of ``raw``, none of them
    blank, in a file of no quote and no NUL: each line is split at its
    commas, and a line of fewer than ``max(columns)`` commas is too short
    for the row."""
    b = np.frombuffer(raw, np.uint8)
    padded = np.concatenate((b, np.zeros(_KEY_BYTES, np.uint8)))
    commas = np.flatnonzero(b == ord(","))
    first = np.searchsorted(commas, starts)
    n_commas = np.searchsorted(commas, ends) - first
    wide = n_commas >= max(columns)
    first, n_commas = first[wide], n_commas[wide]
    starts, ends = starts[wide], ends[wide]
    # a field runs from after the comma before it (or the line's start)
    # to the comma after it (or the line's end)
    commas = np.concatenate((commas, [0]))
    spans = [(commas[first + col - 1] + 1 if col else starts,
              np.where(n_commas > col, commas[first + col], ends))
             for col in columns]
    field_start, field_end = spans[-1]
    eight = field_end - field_start == 8
    clocks = np.zeros((len(starts), 8), dtype=np.uint8)
    clocks[eight] = np.lib.stride_tricks.sliding_window_view(padded, 8)[
        field_start[eight]]
    texts, odd = _factorize(raw, padded, field_start[~eight],
                            field_end[~eight])
    clock_codes = np.full(len(starts), -1, dtype=np.int64)
    clock_codes[~eight] = odd
    columns = [_factorize(raw, padded, *span) for span in spans[:-1]]
    return _Block(len(wide), columns + [(texts, clock_codes)], clocks)


def _blocks(f, path):
    """The _Blocks of the detection CSV open as ``f``, read by _byte_block
    in chunks of about _CHUNK_CHARS characters, each completed to the end
    of its last line. From the first chunk that holds a quote or a NUL, or
    a line longer than csv's field limit, on, the rest of the file goes to
    _reader_blocks: no quote came before, so the chunk starts a record in
    the state csv.reader would reach."""
    layout = None
    for text in iter(lambda: f.read(_CHUNK_CHARS), ""):
        text += f.readline()
        raw = text.encode()
        if raw[-1:] not in (b"\n", b"\r"):
            raw += b"\n"
        # a line ends at every \r and \n, so a \r\n ends a line and a
        # blank one: blank lines are not records to csv.reader
        b = np.frombuffer(raw, np.uint8)
        ends = np.flatnonzero((b == ord("\n")) | (b == ord("\r")))
        starts = np.concatenate(([0], ends[:-1] + 1))
        if (b'"' in raw or b"\0" in raw
                or (ends - starts).max() > csv.field_size_limit()):
            yield from _reader_blocks(
                chain(io.StringIO(text, newline=""), f), layout, path)
            return
        if layout is None:
            layout = _layout(raw[:ends[0]].decode().split(","), path)
            starts, ends = starts[1:], ends[1:]
        full = ends > starts  # blank lines are not rows
        yield _byte_block(raw, starts[full], ends[full], layout[0])
    if layout is None:
        _layout(None, path)


def parse_csv(path, station_map):
    """Parse a detection CSV against a station map into Detections, in file
    order.

    Malformed rows and rows whose station is not in the map are dropped and
    counted in the returned ParseReport; a row is checked for each reason
    of DROP_REASONS in turn, and a row too short to hold every required
    column is a missing_field. A missing file, a missing required column
    and a file csv.reader cannot read are errors.

    Records are read as csv.reader reads them. A file is tokenised as
    bytes by numpy until a quote (or a NUL, or an overlong line) turns up,
    and by csv.reader from there on; both give each column's distinct
    texts, which are decoded once each.
    """
    report = ParseReport()
    books = [_Codebook() for _ in DETECTION_COLUMNS]  # over all blocks
    codes = [[] for _ in DETECTION_COLUMNS]
    clocks = [np.zeros((0, 8), dtype=np.uint8)]
    with read_file(path, newline="") as f:
        for block in _blocks(f, path):
            report.n_rows += block.n_rows
            if block.n_rows > len(block.clocks):
                report.drop("missing_field", block.n_rows - len(block.clocks))
            for book, (texts, block_codes), out in zip(books, block.columns,
                                                       codes):
                remap = np.fromiter(map(book.__getitem__, texts), np.int64,
                                    len(texts))
                out.append(np.append(remap, -1)[block_codes])
            clocks.append(block.clocks)
    fish, recv, station, lat, lon, day, clock = (
        np.concatenate(c) if c else np.empty(0, np.int64) for c in codes)

    fish_ids, recv_ids, station_ids = (
        np.array([s.strip() for s in book], dtype=object)
        for book in books[:3])
    known = np.array([s in station_map for s in station_ids], dtype=bool)
    lat_v, lat_ok = _decode(books[3], float)
    lon_v, lon_ok = _decode(books[4], float)
    day_v, day_ok = _decode(books[5], _day_number)
    clock_v, clock_ok = _decode_clocks(np.concatenate(clocks), list(books[6]),
                                       clock)

    lat_deg, lon_deg = lat_v[lat], lon_v[lon]
    checks = ((fish_ids != "")[fish] & (station_ids != "")[station]
              & lat_ok[lat] & lon_ok[lon],
              (-90.0 <= lat_deg) & (lat_deg <= 90.0)
              & (-180.0 <= lon_deg) & (lon_deg <= 180.0),
              day_ok[day] & clock_ok,
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
        day_v[day[idx]] * 86400 + clock_v[idx] - UTC_OFFSET_S)
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
