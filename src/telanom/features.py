"""Per-detection feature engineering.

Every detection becomes an 11-dimensional numeric vector:

    0  lat
    1  lon
    2  distance_km                   great-circle km from the previous detection
    3  duration_same_station_s      span of the detection's same-station run
    4  num_detections               per-fish total over the whole study
    5  num_days_detected            per-fish distinct calendar days (UTC+2)
    6  num_unique_stations          per-fish distinct stations
    7  consecutive_missing_stations stations skipped since the previous detection
    8  hour_sin                     sin of the time-of-day angle
    9  hour_cos                     cos of the time-of-day angle
    10 day_of_year_norm             (day-of-year - 1) / 365

Station and receiver identities are deliberately not model inputs; they ride
along as row metadata only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, _array, _refuse
from .ingest import UTC_OFFSET_S, categorize, first_of_runs, write_csv

EARTH_RADIUS_KM = 6371.0

FEATURE_NAMES = [
    "lat",
    "lon",
    "distance_km",
    "duration_same_station_s",
    "num_detections",
    "num_days_detected",
    "num_unique_stations",
    "consecutive_missing_stations",
    "hour_sin",
    "hour_cos",
    "day_of_year_norm",
]

N_FEATURES = len(FEATURE_NAMES)

# column groups used by the resampler
CONTINUOUS_DIMS = (0, 1, 2)             # linearly interpolated
STEPWISE_DIMS = (3, 4, 5, 6, 7)         # zero-order hold
TIME_DIMS = (8, 9, 10)                  # recomputed from the grid timestamp

F_DISTANCE = 2
F_DURATION = 3
F_UNIQUE_STATIONS = 6
F_MISSING_STATIONS = 7


def haversine_km(lat_a, lon_a, lat_b, lon_b, radius_km=EARTH_RADIUS_KM):
    """Great-circle distance between two (lat, lon) points in degrees.

    The arcsin argument is clamped to [0, 1] so antipodal rounding noise
    cannot produce a domain error.
    """
    phi_a = math.radians(lat_a)
    phi_b = math.radians(lat_b)
    dphi = math.radians(lat_b - lat_a)
    dlmb = math.radians(lon_b - lon_a)
    a = (math.sin(dphi / 2.0) ** 2
         + math.cos(phi_a) * math.cos(phi_b) * math.sin(dlmb / 2.0) ** 2)
    a = min(1.0, max(0.0, a))
    return 2.0 * radius_km * math.asin(math.sqrt(a))


class FeatureTable:
    """Columnar store of feature rows.

    ``uid`` is a per-row identity used by the leakage guard; synthetic rows
    produced by the resampler carry uid -1.
    """

    def __init__(self, uid, fish_id, station_id, timestamp, values,
                 label=None, criterion_mask=None):
        n = len(uid)
        self.uid = np.asarray(uid, dtype=np.int64)
        self.fish_id = np.asarray(fish_id, dtype=object)
        self.station_id = np.asarray(station_id, dtype=object)
        self.timestamp = np.asarray(timestamp, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64).reshape(n, N_FEATURES)
        self.label = (np.ones(n, dtype=np.int8) if label is None
                      else np.asarray(label, dtype=np.int8))
        self.criterion_mask = (np.zeros(n, dtype=np.uint8) if criterion_mask is None
                               else np.asarray(criterion_mask, dtype=np.uint8))
        for col in (self.fish_id, self.station_id, self.timestamp,
                    self.label, self.criterion_mask):
            if len(col) != n:
                raise ValueError("column length mismatch")

    def __len__(self):
        return len(self.uid)

    @classmethod
    def empty(cls):
        return cls(np.empty(0, dtype=np.int64), [], [],
                   np.empty(0, dtype=np.int64),
                   np.empty((0, N_FEATURES)))

    @classmethod
    def concat(cls, tables):
        tables = [t for t in tables if len(t)]
        if not tables:
            return cls.empty()
        return cls(np.concatenate([t.uid for t in tables]),
                   np.concatenate([t.fish_id for t in tables]),
                   np.concatenate([t.station_id for t in tables]),
                   np.concatenate([t.timestamp for t in tables]),
                   np.concatenate([t.values for t in tables]),
                   np.concatenate([t.label for t in tables]),
                   np.concatenate([t.criterion_mask for t in tables]))

    def take(self, indices):
        idx = np.asarray(indices)
        return FeatureTable(self.uid[idx], self.fish_id[idx],
                            self.station_id[idx], self.timestamp[idx],
                            self.values[idx], self.label[idx],
                            self.criterion_mask[idx])

    def copy(self):
        return self.take(np.arange(len(self)))

    def fish_groups(self):
        """Rows grouped per fish: (order, starts). ``order`` lists the row
        indices by fish id, then timestamp, ties in row order; the rows of
        each fish, in sorted id order, begin at the positions ``starts``."""
        _, fish = categorize(self.fish_id)
        order = np.lexsort((self.timestamp, fish))
        return order, np.flatnonzero(first_of_runs(fish[order]))


def _distinct_per_fish(fish, codes):
    """Number of distinct non-negative ``codes`` per fish code."""
    width = int(codes.max()) + 1
    pairs = np.unique(fish * width + codes)
    return np.bincount(pairs // width, minlength=int(fish.max()) + 1)


def _step_km(lat, lon):
    """haversine_km from each point to the next. The scalar function runs
    once per distinct pair of points, keyed by the floats' bit patterns, so
    every value is exactly its own."""
    point = [np.unique(x.view(np.int64), return_inverse=True)[1]
             for x in (lat, lon)]
    point = point[0] * (int(point[1].max()) + 1) + point[1]
    pair = point[:-1] * (int(point.max()) + 1) + point[1:]
    _, first, inverse = np.unique(pair, return_index=True,
                                  return_inverse=True)
    km = [haversine_km(*p) for p in zip(lat[first].tolist(),
                                        lon[first].tolist(),
                                        lat[first + 1].tolist(),
                                        lon[first + 1].tolist())]
    return np.array(km, dtype=np.float64)[inverse]


def engineer_tracks(tracks, station_map):
    """Engineer detections grouped as group_tracks returns them (each
    fish's detections contiguous and time-sorted) into one FeatureTable
    with sequential uids."""
    n = len(tracks)
    if n == 0:
        return FeatureTable.empty()
    ts = tracks.timestamp
    _, fish = categorize(tracks.fish_id)
    stations, station = categorize(tracks.station_id)
    orders = np.array([station_map.order_of(s) for s in stations])[station]
    new_fish = first_of_runs(fish)
    day = (ts + UTC_OFFSET_S) // 86400

    values = np.empty((n, N_FEATURES))
    values[:, 0] = tracks.lat
    values[:, 1] = tracks.lon
    values[1:, F_DISTANCE] = _step_km(tracks.lat, tracks.lon)
    # maximal runs of consecutive same-station detections
    first = np.flatnonzero(first_of_runs(fish, station))
    size = np.diff(first, append=n)
    values[:, F_DURATION] = np.repeat(ts[first + size - 1] - ts[first], size)
    values[:, 4] = np.bincount(fish)[fish]
    values[:, 5] = _distinct_per_fish(fish, day - day.min())[fish]
    values[:, F_UNIQUE_STATIONS] = _distinct_per_fish(fish, station)[fish]
    values[1:, F_MISSING_STATIONS] = np.maximum(
        np.abs(np.diff(orders)) - 1, 0)
    values[new_fish, F_DISTANCE] = 0.0
    values[new_fish, F_MISSING_STATIONS] = 0.0
    recompute_time_features(values, ts)
    return FeatureTable(np.arange(n), tracks.fish_id, tracks.station_id, ts,
                        values)


def recompute_time_features(values, timestamps):
    """Fill the time-encoding dims of ``values`` in place from timestamps.

    hour_sin/hour_cos take math.sin/math.cos of each distinct second of
    the day, so they do not depend on numpy's vectorised libm.
    """
    day, second = np.divmod(np.asarray(timestamps, dtype=np.int64)
                            + UTC_OFFSET_S, 86400)
    seen = np.zeros(86400, dtype=bool)
    seen[second] = True
    distinct = np.flatnonzero(seen)
    angle = (2.0 * math.pi * distinct / 86400.0).tolist()
    for dim, fn in ((8, math.sin), (9, math.cos)):
        table = np.empty(86400)
        table[distinct] = [fn(a) for a in angle]
        values[:, dim] = table[second]
    days = day.astype("datetime64[D]")
    year_start = days.astype("datetime64[Y]").astype("datetime64[D]")
    values[:, 10] = (days - year_start).astype(np.int64) / 365.0
    return values


class Scaler:
    """Per-dimension min-max scaler fitted on training rows only.

    Transform is (x - min) / (max - min) with no clipping, so unseen values
    outside the fitted range land outside [0, 1]. A dimension that is
    constant in the fitted data uses divisor 1: fitted values map to 0 and
    unseen deviations stay visible instead of collapsing. NaN and infinite
    values are DataErrors, in the rows it fits or scales and in a saved
    scaler alike.
    """

    def __init__(self, mins=None, maxs=None):
        self.mins = mins
        self.maxs = maxs

    def fit(self, values):
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise DataError("cannot fit scaler on empty data")
        if values.ndim != 2:
            raise DataError("cannot fit scaler on an array of shape %s"
                            % (values.shape,))
        _refuse(~np.isfinite(values), values, "cannot fit scaler",
                "not a finite number", FEATURE_NAMES)
        self.mins = values.min(axis=0)
        self.maxs = values.max(axis=0)
        return self

    def _denom(self):
        denom = self.maxs - self.mins
        return np.where(denom == 0.0, 1.0, denom)

    def transform(self, values):
        if self.mins is None:
            raise DataError("scaler is not fitted")
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(self.mins):
            raise DataError("expected rows of %d features, got shape %s"
                            % (len(self.mins), values.shape))
        _refuse(~np.isfinite(values), values, "cannot scale",
                "not a finite number", FEATURE_NAMES)
        return (values - self.mins) / self._denom()

    def to_json(self):
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @classmethod
    def from_json(cls, obj):
        mins = _array(obj, "mins", (None,))
        return cls(mins, _array(obj, "maxs", mins.shape))


def write_feature_csv(table, path):
    """Dump every column of a FeatureTable to CSV: uid, station_id,
    fish_id, timestamp, the 11 named dims, label and criterion_mask."""
    head = (["uid", "station_id", "fish_id", "timestamp"] + FEATURE_NAMES
            + ["label", "criterion_mask"])
    write_csv(path, head,
              [table.uid, table.station_id, table.fish_id, table.timestamp]
              + [table.values[:, d] for d in range(N_FEATURES)]
              + [table.label, table.criterion_mask])
