"""Rule-based anomaly labelling of engineered detection rows.

Three independent criteria mark detections as anomalous (label 0):

  1. the fish was seen at exactly one station over the whole study
     (every one of its detections is flagged);
  2. the fish has at least two distinct stations but sat in one maximal
     same-station run spanning strictly more than 120 days (only the run's
     detections are flagged);
  3. the fish skipped more than one station between consecutive detections
     (only the arrival detection is flagged).

A detection's label is 0 iff any criterion fires; the per-criterion origins
are kept in a 3-bit mask (bit 0 = criterion 1, bit 1 = criterion 2,
bit 2 = criterion 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .features import F_UNIQUE_STATIONS, F_MISSING_STATIONS
from .ingest import first_of_runs, write_csv

STATIONARY_SPAN_S = 120 * 86400

CRIT_SINGLE_STATION = 1
CRIT_STATIONARY = 2
CRIT_SKIPPED = 4


@dataclass
class LabelReport:
    n_rows: int = 0
    n_normal: int = 0
    n_anomalous: int = 0
    per_criterion: dict = field(default_factory=lambda: {1: 0, 2: 0, 3: 0})
    per_fish: dict = field(default_factory=dict)  # fish_id -> criterion mask

    @property
    def anomalous_fraction(self):
        return self.n_anomalous / self.n_rows if self.n_rows else 0.0

    def to_json(self):
        return {
            "n_rows": self.n_rows,
            "n_normal": self.n_normal,
            "n_anomalous": self.n_anomalous,
            "anomalous_fraction": self.anomalous_fraction,
            "per_criterion": {str(k): v for k, v in self.per_criterion.items()},
            "per_fish": dict(sorted(self.per_fish.items())),
        }


def criterion_single_station(values):
    """Flag every row of a fish seen at exactly one station."""
    return values[:, F_UNIQUE_STATIONS] == 1.0


def criterion_stationary(fish_ids, station_ids, timestamps,
                         span_s=STATIONARY_SPAN_S):
    """Flag maximal same-station runs spanning strictly more than span_s.

    Rows are sorted by fish, then time; runs end where the fish changes.
    Only meaningful for fish with at least two distinct stations, i.e.
    with more than one run; a single-station fish is criterion 1's job and
    gets no flags here.
    """
    ts = np.asarray(timestamps)
    new_fish = first_of_runs(fish_ids)
    first = np.flatnonzero(first_of_runs(fish_ids, station_ids))
    size = np.diff(first, append=len(ts))
    long_run = ts[first + size - 1] - ts[first] > span_s
    # a run shares its fish with a neighbouring run unless it starts a
    # fish and the next run starts the next one
    lone = new_fish[first] & np.append(new_fish[first[1:]], True)
    return np.repeat(long_run & ~lone, size)


def criterion_skipped(values):
    """Flag arrival detections that skipped more than one station."""
    return values[:, F_MISSING_STATIONS] > 1.0


def label_all(table):
    """Apply all three criteria to an engineered FeatureTable.

    Returns (labelled copy, LabelReport). Deterministic and independent of
    input row order: rows are examined per fish in time order and flags are
    written back through the original indices.
    """
    order, starts = table.fish_groups()
    m1 = criterion_single_station(table.values)
    m2 = np.empty(len(table), dtype=bool)
    m2[order] = criterion_stationary(table.fish_id[order],
                                     table.station_id[order],
                                     table.timestamp[order])
    m3 = criterion_skipped(table.values)
    mask = (m1 * CRIT_SINGLE_STATION | m2 * CRIT_STATIONARY
            | m3 * CRIT_SKIPPED).astype(np.uint8)

    out = table.copy()
    out.criterion_mask = mask
    out.label = np.where(mask > 0, 0, 1).astype(np.int8)
    report = LabelReport(n_rows=len(table))
    report.per_criterion = {1: int(m1.sum()), 2: int(m2.sum()),
                            3: int(m3.sum())}
    report.per_fish = dict(zip(
        table.fish_id[order[starts]].tolist(),
        np.bitwise_or.reduceat(mask[order], starts).tolist()))
    report.n_anomalous = int((out.label == 0).sum())
    report.n_normal = report.n_rows - report.n_anomalous
    return out, report


def write_label_csv(table, path):
    """Dump per-detection labels: fish_id, timestamp, label, criterion_mask."""
    write_csv(path, ["fish_id", "timestamp", "label", "criterion_mask"],
              [table.fish_id, table.timestamp, table.label,
               table.criterion_mask])
