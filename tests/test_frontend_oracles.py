"""The columnar front end (dedup, group, engineer, label, plan, resample)
against the row-at-a-time reference in oracles.py: equal columns, and
bit-identical feature values."""

import numpy as np
import pytest

import oracles
from telanom.features import engineer_tracks
from telanom.ingest import (DetectionRecord, Detections, StationMap,
                            deduplicate, group_tracks, parse_timestamp)
from telanom.labelling import STATIONARY_SPAN_S, label_all
from telanom.resampling import (collect_candidates, fixed_plan, plan_for,
                                resample)

SM = StationMap([("S%d" % i, -34.0 - 0.01 * i, 21.0 + 0.05 * i, i)
                 for i in range(6)])
DAY = 86400
MIDNIGHT = parse_timestamp("2017-03-01", "00:00:00")  # local (UTC+2)


def _rec(fish, station, ts, recv="R1"):
    return DetectionRecord(fish, recv, station, *SM.coords(station), int(ts))


def _hand_made():
    t = MIDNIGHT + 10 * 3600
    recs = [
        # equal timestamps at two stations, then a tie broken by station id
        _rec("F1", "S2", t), _rec("F1", "S1", t), _rec("F1", "S1", t + 60),
        _rec("F1", "S2", t + 300), _rec("F1", "S3", t + 300),
        _rec("F1", "S2", t + 900),
        # either side of local midnight, and a one-detection day after it
        _rec("F2", "S3", MIDNIGHT + DAY - 2),
        _rec("F2", "S3", MIDNIGHT + DAY - 1),
        _rec("F2", "S4", MIDNIGHT + DAY), _rec("F2", "S4", MIDNIGHT + DAY + 7),
        _rec("F2", "S3", MIDNIGHT + 3 * DAY + 5),
        # a single-detection fish
        _rec("F3", "S5", t),
        # a single-station fish
        _rec("F4", "S0", t), _rec("F4", "S0", t + 30),
        _rec("F4", "S0", t + DAY),
        # a same-station run longer than 120 days between two moves
        _rec("F5", "S0", t), _rec("F5", "S1", t + DAY),
        _rec("F5", "S1", t + 2 * DAY),
        _rec("F5", "S1", t + DAY + STATIONARY_SPAN_S + 1),
        _rec("F5", "S2", t + DAY + STATIONARY_SPAN_S + 100),
        _rec("F5", "S2", t + DAY + STATIONARY_SPAN_S + 160),
        # a skip of two stations
        _rec("F6", "S0", t), _rec("F6", "S3", t + 500),
        _rec("F6", "S4", t + 800),
        # one fish ends and the next begins at S1: their runs are apart,
        # though together they would span more than 120 days
        _rec("F7", "S0", t), _rec("F7", "S1", t + 100),
        _rec("F8", "S1", t + STATIONARY_SPAN_S),
        _rec("F8", "S1", t + STATIONARY_SPAN_S + 200),
        _rec("F8", "S2", t + STATIONARY_SPAN_S + 300),
    ]
    # exact duplicates of earlier rows (another receiver: the first copy in
    # file order must win), then the whole file out of time order
    recs += [_rec("F1", "S1", t + 60, recv="R9"),
             _rec("F5", "S1", t + DAY, "R9")]
    perm = np.random.default_rng(4).permutation(len(recs))
    return [recs[i] for i in perm]


def _assert_same_table(got, want):
    assert np.array_equal(got.uid, want.uid)
    assert list(got.fish_id) == list(want.fish_id)
    assert list(got.station_id) == list(want.station_id)
    assert np.array_equal(got.timestamp, want.timestamp)
    assert got.values.shape == want.values.shape
    assert np.array_equal(got.values, want.values)


def _front_end(records, station_map):
    unique, n_dups = deduplicate(Detections.from_records(records))
    assert unique == Detections.from_records(
        oracles.deduplicate_records(records))
    assert n_dups == len(records) - len(unique)
    tracks = group_tracks(unique)
    assert tracks == Detections.from_records(
        [d for _fid, track in oracles.group_records(
            oracles.deduplicate_records(records)) for d in track])
    table = engineer_tracks(tracks, station_map)
    _assert_same_table(table, oracles.engineer_records(records, station_map))
    return table


def _check(records, station_map, intervals):
    table = _front_end(records, station_map)
    labelled, report = label_all(table)
    mask, per_fish = oracles.criterion_masks(table)
    assert np.array_equal(labelled.criterion_mask, mask)
    assert np.array_equal(labelled.label, (mask == 0).astype(np.int8))
    assert report.per_fish == per_fish

    normals = labelled.take(np.flatnonzero(labelled.label == 1))
    # shuffled rows: grouping must not lean on the engineered row order
    normals = normals.take(np.random.default_rng(1).permutation(len(normals)))
    assert collect_candidates(normals) == oracles.collect_candidates(normals)
    plans = [plan_for(normals, max_points=len(normals) * 4)] + [
        fixed_plan(dt) for dt in intervals]
    for plan in plans:
        _assert_same_table(resample(normals, plan),
                           oracles.resample(normals, plan.delta_t))
    return labelled


def test_small_synth_matches_row_oracle(small_synth):
    records, station_map, _gt = small_synth
    labelled = _check(records, station_map, (600, 3600, 43200))
    assert np.any(labelled.label == 0) and np.any(labelled.label == 1)


def test_hand_made_cases_match_row_oracle():
    labelled = _check(_hand_made(), SM, (7, 600, 3600, 43200))
    crit = dict(zip(labelled.uid.tolist(), labelled.criterion_mask.tolist()))
    # every criterion fires somewhere in the hand-made set
    assert {m & bit for m in crit.values() for bit in (1, 2, 4)} >= {1, 2, 4}


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_inputs_match_row_oracle(n):
    records = [_rec("F1", "S0", MIDNIGHT), _rec("F1", "S1", MIDNIGHT + 9)][:n]
    table = _front_end(records, SM)
    labelled, report = label_all(table)
    assert np.array_equal(labelled.criterion_mask,
                          oracles.criterion_masks(table)[0])
    assert report.n_rows == n
