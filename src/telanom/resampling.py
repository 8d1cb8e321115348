"""Irregular-to-regular resampling of normal detection rows.

The sampling interval is derived from the data: for every (fish, day) group
the minimum positive gap between consecutive detections is a candidate, the
global interval is the minimum candidate, and a budget search picks the
smallest candidate whose projected point count fits ``max_points``. Grids
are rebuilt per fish per day from the first to the last detection of the
day; continuous dims are linearly interpolated, count-like dims carry the
most recent real value forward, and time encodings are recomputed from the
grid timestamp.

Only normal rows (label 1) are ever resampled; anomalous rows keep their
original irregular timestamps elsewhere in the pipeline.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .features import (FeatureTable, CONTINUOUS_DIMS, STEPWISE_DIMS,
                       recompute_time_features)
from .ingest import UTC_OFFSET_S, first_of_runs

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ResamplePlan:
    delta_t: int                 # grid spacing, seconds
    candidate_gaps: tuple        # sorted distinct per-(fish, day) min gaps
    max_points: int
    budget_exceeded: bool = False  # no candidate fit the budget; largest used
    # gap -> number of (fish, day) groups, when planned from the gaps
    gap_histogram: dict = dataclasses.field(default=None, compare=False)

    @property
    def f_s(self):
        return 1.0 / self.delta_t

    def to_json(self):
        return {
            "delta_t": self.delta_t,
            "f_s": self.f_s,
            "candidate_gaps": list(self.candidate_gaps),
            "max_points": self.max_points,
            "budget_exceeded": self.budget_exceeded,
        }


def tradeoff_search(candidate_gaps, max_points, span):
    """Pick the smallest candidate gap whose projected point count
    span/gap fits the budget. When none fits, fall back to the largest
    candidate and warn."""
    cands = sorted(set(int(g) for g in candidate_gaps if g and g > 0))
    if not cands:
        raise DataError("no candidate gaps to search")
    for g in cands:
        if span / g <= max_points:
            return ResamplePlan(g, tuple(cands), int(max_points))
    g = cands[-1]
    log.warning("no candidate gap fits budget %d over span %d; "
                "falling back to largest gap %d", max_points, span, g)
    return ResamplePlan(g, tuple(cands), int(max_points), budget_exceeded=True)


def _day_groups(table):
    """(order, starts): the row indices by fish id, then time (as
    FeatureTable.fish_groups), and the positions in that order where each
    (fish, local day) group begins."""
    order, fish_starts = table.fish_groups()
    new = first_of_runs((table.timestamp[order] + UTC_OFFSET_S) // 86400)
    new[fish_starts] = True
    return order, np.flatnonzero(new)


def collect_candidates(table):
    """Per-(fish, day) minimum gaps and the total resampling span.

    Returns (sorted distinct gaps, total span seconds, gap histogram).
    """
    if len(table) == 0:
        return [], 0, {}
    order, starts = _day_groups(table)
    ts = table.timestamp[order]
    last = np.append(starts[1:], len(ts)) - 1
    span = int((ts[last] - ts[starts]).sum())
    # a group's minimum positive gap between consecutive detections; none
    # stands in for the gap into a group's first row and for repeated times
    none = np.iinfo(np.int64).max
    gaps = np.diff(ts, prepend=ts[0])
    gaps[starts] = none
    gaps[gaps <= 0] = none
    mins = np.minimum.reduceat(gaps, starts)
    distinct, counts = np.unique(mins[mins != none], return_counts=True)
    return (distinct.tolist(), span,
            dict(zip(distinct.tolist(), counts.tolist())))


def plan_for(table, max_points):
    """Build the automatic resampling plan for a table of normal rows; the
    plan keeps the gap histogram it was derived from."""
    cands, span, hist = collect_candidates(table)
    return dataclasses.replace(tradeoff_search(cands, max_points, span),
                               gap_histogram=hist)


def fixed_plan(delta_t, max_points=0):
    """A plan pinned to an explicit operating interval (e.g. 90 s or 65 s)."""
    delta_t = int(delta_t)
    if delta_t <= 0:
        raise DataError("resampling interval must be positive")
    return ResamplePlan(delta_t, (delta_t,), int(max_points))


def resample(table, plan):
    """Resample normal rows onto per-(fish, day) regular grids.

    Each grid runs t0, t0+dt, ... from the group's first detection and ends
    at its last one, so only the final gap may be shorter than dt. Grid rows
    carry uid -1 (synthetic). A (fish, day) group with a single detection
    passes through unchanged. Raises DataError if any input row is
    anomalous.

    All groups are interpolated by one np.interp call over keys
    ``group * 86400 + (t - group t0)``: groups span less than a day, so keys
    increase across groups, and keys and their differences are exact
    integers, so every value equals that of a call per group.
    """
    if np.any(table.label == 0):
        raise DataError("resample: input contains anomalous rows")
    if len(table) == 0:
        return FeatureTable.empty()

    order, starts = _day_groups(table)
    src = table.take(order)
    size = np.diff(starts, append=len(order))
    t0 = src.timestamp[starts]
    t1 = src.timestamp[starts + size - 1]
    steps = (t1 - t0) // plan.delta_t
    n_points = steps + 1 + (t0 + plan.delta_t * steps < t1)

    group = np.repeat(np.arange(len(starts)), n_points)
    k = np.arange(len(group)) - np.repeat(np.cumsum(n_points) - n_points,
                                          n_points)
    # capped before t0 is added, so no step of up to 2**63 s overflows
    grid = t0[group] + np.minimum(plan.delta_t * k, (t1 - t0)[group])
    src_key = (np.repeat(np.arange(len(starts)), size) * 86400
               + (src.timestamp - np.repeat(t0, size))).astype(np.float64)
    grid_key = (group * 86400 + (grid - t0[group])).astype(np.float64)

    values = np.empty((len(grid), src.values.shape[1]))
    for d in CONTINUOUS_DIMS:
        values[:, d] = np.interp(grid_key, src_key, src.values[:, d])
    hold = np.searchsorted(src_key, grid_key, side="right") - 1
    values[:, STEPWISE_DIMS] = src.values[hold][:, STEPWISE_DIMS]
    recompute_time_features(values, grid)
    uid = np.full(len(grid), -1, dtype=np.int64)

    single = np.flatnonzero(size == 1)
    rows = np.cumsum(n_points)[single] - 1
    uid[rows] = src.uid[starts[single]]
    values[rows] = src.values[starts[single]]
    return FeatureTable(uid, src.fish_id[hold], src.station_id[hold], grid,
                        values)
