"""Seeded synthetic telemetry generator with exact ground truth.

Normal fish random-walk between adjacent stations along a curved waterway,
dwell for exponential times and are detected in Poisson bursts while they
dwell. Anomalies are injected per criterion:

  1. single-station fish (all of their detections anomalous);
  2. stationary fish: a normal phase, then one same-station run spanning
     more than 120 days (the run's detections anomalous);
  3. jump moves that skip at least two stations (the arrival detection
     anomalous).

Every station visit starts with an arrival detection, so the station-to-
station steps seen by the labeller are exactly the walk's moves and the
emitted ground truth matches rule labelling row for row.

Generation is parallel-safe per fish: each fish draws from its own rng
seeded by (seed, fish index).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, asdict
from itertools import repeat

import numpy as np

from .errors import DataError, _number, read_file
from .ingest import (STATION_COLUMNS, DetectionRecord, StationMap,
                     format_timestamp, parse_timestamp, write_csv)

KM_PER_DEG_LAT = 110.574
KM_PER_DEG_LON_EQ = 111.320

# most gap draws made at once; bounds a dwell's batch arrays
_MAX_BATCH = 1 << 16


@dataclass
class SynthConfig:
    n_fish: int = 24
    n_stations: int = 16
    span_days: float = 240.0
    start_date: str = "2017-03-01"
    waterway_km: float = 52.0
    origin_lat: float = -34.40
    origin_lon: float = 20.83
    mean_dwell_days: float = 2.0
    max_dwell_days: float = 20.0
    mean_gap_s: float = 7000.0           # inter-detection gap while dwelling
    fraction_single_station: float = 0.0835  # criterion-1 fish fraction
    fraction_stationary: float = 0.0         # criterion-2 fish fraction
    skip_rate: float = 0.05              # per-move probability of a jump
    stationary_gap_s: float = 21600.0    # detection gap during a c2 run
    normal_phase_days: float = 40.0      # c2 walk length before going still
    seed: int = 0

    def validate(self):
        """DataError unless every setting is a value generate can use."""
        fields = vars(self)
        for key, least in (("n_fish", 1), ("n_stations", 4), ("seed", 0)):
            if _number(fields, key, integer=True) < least:
                raise DataError("%s must be at least %d" % (key, least))
        for key in ("span_days", "waterway_km", "mean_dwell_days",
                    "max_dwell_days", "mean_gap_s", "stationary_gap_s",
                    "normal_phase_days"):
            if not 0.0 < _number(fields, key) < math.inf:
                raise DataError("%s must be finite and positive" % key)
        for key in ("fraction_single_station", "fraction_stationary"):
            if not 0.0 <= _number(fields, key) <= 1.0:
                raise DataError("%s must be in [0, 1]" % key)
        if not 0.0 <= _number(fields, "skip_rate") < 1.0:
            raise DataError("skip_rate must be in [0, 1)")
        if not (-90.0 <= _number(fields, "origin_lat") <= 90.0
                and -180.0 <= _number(fields, "origin_lon") <= 180.0):
            raise DataError("origin_lat/origin_lon must be a coordinate")
        try:
            if not isinstance(self.start_date, str):
                raise ValueError
            format_timestamp(parse_timestamp(self.start_date, "00:00:00")
                             + self.span_days * 86400)
        except (ValueError, OverflowError, OSError):
            raise DataError("start_date must be a YYYY-MM-DD date and the "
                            "study must end by 9999-12-31, got %r"
                            % self.start_date) from None
        if self.span_days * 86400 < 4 * self.max_dwell_days * 86400:
            raise DataError("study span too short for the dwell cap")
        n_c2 = round(self.fraction_stationary * self.n_fish)
        if n_c2 and self.span_days - self.normal_phase_days < 135:
            raise DataError("stationary fish need > 120 days after the "
                            "normal phase; increase span_days")
        # ingest drops the detections at a station off the globe
        stations = make_station_map(self)
        for sid in stations.ids():
            lat, lon = stations.coords(sid)
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                raise DataError("station %s falls at (%r, %r), off the "
                                "globe; move origin_lat/origin_lon or "
                                "shorten waterway_km" % (sid, lat, lon))


@dataclass
class GroundTruth:
    """criterion id per detection: 0 normal, else 1/2/3."""
    criterion: dict = field(default_factory=dict)  # (fish_id, ts) -> int

    def mask_for(self, fish_ids, timestamps):
        return np.array([self.criterion.get((f, int(t)), 0)
                         for f, t in zip(fish_ids, timestamps)],
                        dtype=np.int64)

    def n_anomalous(self):
        return sum(1 for v in self.criterion.values() if v)

    def save_csv(self, path):
        rows = sorted(self.criterion.items())
        write_csv(path, ["fishid", "timestamp", "criterion"],
                  [[fid for (fid, _), _ in rows], [ts for (_, ts), _ in rows],
                   [crit for _, crit in rows]])

    @classmethod
    def load_csv(cls, path):
        """The ground truth ``save_csv`` wrote to ``path``. A missing
        column, and a timestamp or criterion that is not an integer, are
        DataErrors that name the file."""
        gt = cls()
        with read_file(path, newline="") as f:
            reader = csv.DictReader(f)
            missing = [c for c in ("fishid", "timestamp", "criterion")
                       if c not in (reader.fieldnames or [])]
            if missing:
                raise DataError("%s: missing column(s) %s" % (path, missing))
            for row in reader:
                try:
                    gt.criterion[(row["fishid"], int(row["timestamp"]))] = \
                        int(row["criterion"])
                except (TypeError, ValueError):
                    raise DataError("%s:%d: timestamp and criterion must be "
                                    "integers" % (path, reader.line_num)) \
                        from None
        return gt


def make_station_map(cfg):
    """Stations spaced evenly along a gently curving polyline."""
    step_km = cfg.waterway_km / (cfg.n_stations - 1)
    lat, lon = cfg.origin_lat, cfg.origin_lon
    rows = []
    for i in range(cfg.n_stations):
        rows.append(("S%02d" % i, lat, lon, i))
        heading = math.radians(55.0 + 30.0 * math.sin(0.6 * i))
        lat += step_km * math.cos(heading) / KM_PER_DEG_LAT
        lon += step_km * math.sin(heading) / (KM_PER_DEG_LON_EQ
                                              * math.cos(math.radians(lat)))
    return StationMap(rows)


class _FishEmitter:
    """Accumulates one fish's detections, dwell by dwell, as station-order
    and timestamp arrays with strictly increasing integer timestamps, so
    (fish, station, timestamp) keys are unique by construction and ground
    truth stays aligned through deduplication."""

    def __init__(self, fish_id, gt):
        self.fish_id = fish_id
        self.gt = gt
        self.orders = []      # one int64 array per dwell
        self.stamps = []      # one int64 array per dwell
        self.last_ts = None
        self.last_marker = False

    def emit(self, order, times, arrival_criterion):
        """Detections at station ``order`` at float epoch ``times``: each
        timestamp truncated, then raised to one past the one before where
        it would not increase; the first is an arrival with its
        criterion."""
        stamps = times.astype(np.int64)
        step = np.arange(1, len(stamps) + 1)
        floor = stamps[0] - 1 if self.last_ts is None else self.last_ts
        stamps = np.maximum(np.maximum.accumulate(stamps - step), floor) + step
        self.last_ts = int(stamps[-1])
        self.orders.append(np.full(len(stamps), order, dtype=np.int64))
        self.stamps.append(stamps)
        if arrival_criterion:
            self.gt.criterion[(self.fish_id, int(stamps[0]))] = \
                arrival_criterion

    def mark(self, stamps, criterion):
        """Ground truth ``criterion`` for each of the fish's ``stamps``."""
        self.gt.criterion.update(
            zip(zip(repeat(self.fish_id), stamps.tolist()),
                repeat(criterion)))

    def records(self, stations):
        """The fish's DetectionRecords in time order; ``stations`` holds
        the receiver id, station id, lat and lon of each station order."""
        orders = np.concatenate(self.orders)
        return list(map(DetectionRecord._make, zip(
            repeat(self.fish_id),
            *(column[orders].tolist() for column in stations),
            np.concatenate(self.stamps).tolist())))


def _station_columns(station_map):
    """Receiver id, station id, lat and lon arrays indexed by station
    order; each receiver id is formatted once."""
    ids = sorted(station_map.ids(), key=station_map.order_of)
    lat, lon = (np.array(c) for c in zip(*map(station_map.coords, ids)))
    return (np.array(["R%02d" % order for order in range(len(ids))],
                     dtype=object), np.array(ids, dtype=object), lat, lon)


def _emit_dwell(emitter, rng, order, t_start, t_end, mean_gap_s,
                arrival_criterion=0):
    """Arrival detection at t_start, then a Poisson stream until t_end.

    Each gap is max(1 s, an exponential draw) added to the time before,
    and the stream ends at the first time at or past t_end. The draws come
    in batches: a Generator fills an array with the draws that as many
    scalar calls would make, cumsum adds in sequence as the scalar loop
    did, and a batch that overshoots is drawn again up to the ending draw,
    so times and generator state are the scalar loop's.
    """
    times = [np.array([t_start], dtype=np.float64)]
    t = t_start
    while True:
        # mean gaps below 1 s still advance by at least 1 s
        size = min(int(max(t_end - t, 0.0) / max(mean_gap_s, 1.0) * 1.1)
                   + 16, _MAX_BATCH)
        state = rng.bit_generator.state
        steps = np.maximum(1.0, rng.exponential(mean_gap_s, size))
        steps[0] += t
        run = np.cumsum(steps)
        end = int(np.searchsorted(run, t_end))
        if end == size:
            times.append(run)
            t = float(run[-1])
            continue
        times.append(run[:end])
        if end + 1 < size:
            rng.bit_generator.state = state
            rng.exponential(mean_gap_s, end + 1)
        emitter.emit(order, np.concatenate(times), arrival_criterion)
        return


def _walk_fish(emitter, rng, cfg, t0, t_end, allow_jumps):
    """Adjacent random walk with optional jump moves.

    Returns the last station order the fish was actually detected at."""
    s_max = cfg.n_stations - 1
    order = int(rng.integers(0, s_max + 1))
    last_emitted = order
    t = t0 + rng.uniform(0, 86400.0)
    while t < t_end:
        dwell = min(rng.exponential(cfg.mean_dwell_days),
                    cfg.max_dwell_days) * 86400.0
        dwell = max(dwell, 3600.0)
        stop = min(t + dwell, t_end)
        criterion = 3 if (emitter.stamps and emitter.last_marker) else 0
        _emit_dwell(emitter, rng, order, t, stop, cfg.mean_gap_s, criterion)
        emitter.last_marker = False
        last_emitted = order
        t = stop + rng.uniform(60.0, 600.0)  # travel time before next dwell
        if allow_jumps and rng.random() < cfg.skip_rate:
            targets = [o for o in range(0, s_max + 1) if abs(o - order) >= 3]
            if targets:
                order = int(targets[rng.integers(len(targets))])
                emitter.last_marker = True
                continue
        order = _adjacent_step(order, s_max, rng)
    return last_emitted


def _adjacent_step(order, s_max, rng):
    if order == 0:
        return 1
    if order == s_max:
        return s_max - 1
    return order + (1 if rng.random() < 0.5 else -1)


def generate(cfg):
    """Generate (records, station_map, ground_truth) for a config.

    Records come back grouped per fish in time order; fish are assigned to
    criteria deterministically from the configured fractions (rounded).
    """
    cfg.validate()
    station_map = make_station_map(cfg)
    stations = _station_columns(station_map)
    gt = GroundTruth()

    t0 = parse_timestamp(cfg.start_date, "00:00:00")
    t_end = t0 + cfg.span_days * 86400.0

    n_c1 = round(cfg.fraction_single_station * cfg.n_fish)
    n_c2 = round(cfg.fraction_stationary * cfg.n_fish)
    if n_c1 + n_c2 > cfg.n_fish:
        raise DataError("anomalous fish fractions exceed the population")

    all_records = []
    s_max = cfg.n_stations - 1
    for i in range(cfg.n_fish):
        fish_id = "F%03d" % i
        rng = np.random.default_rng((cfg.seed, i))
        emitter = _FishEmitter(fish_id, gt)

        if i < n_c1:
            # criterion 1: one station for the whole study
            order = int(rng.integers(0, s_max + 1))
            start = t0 + rng.uniform(0, 86400.0)
            _emit_dwell(emitter, rng, order, start, t_end, cfg.mean_gap_s)
            emitter.mark(emitter.stamps[0], 1)
        elif i < n_c1 + n_c2:
            # criterion 2: normal walk, then one > 120 day same-station run
            t_still = t0 + cfg.normal_phase_days * 86400.0
            order = _walk_fish(emitter, rng, cfg, t0, t_still,
                               allow_jumps=False)
            still_order = _adjacent_step(order, s_max, rng)
            run_start = emitter.last_ts + max(1.0, rng.uniform(60.0, 600.0))
            _emit_dwell(emitter, rng, still_order, run_start, t_end,
                        cfg.stationary_gap_s)
            run = emitter.stamps[-1]  # the last dwell
            if run[-1] - run[0] <= 120 * 86400:
                raise DataError("stationary run too short; lengthen span_days")
            emitter.mark(run, 2)
        else:
            _walk_fish(emitter, rng, cfg, t0, t_end,
                       allow_jumps=cfg.skip_rate > 0)

        all_records += emitter.records(stations)

    return all_records, station_map, gt


def write_station_csv(station_map, path):
    ids = station_map.ids()
    lat, lon = zip(*map(station_map.coords, ids))
    write_csv(path, STATION_COLUMNS,
              [ids, lat, lon, list(map(station_map.order_of, ids))])


def config_json(cfg):
    return asdict(cfg)
