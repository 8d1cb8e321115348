import csv

import numpy as np

from telanom.features import engineer_tracks
from telanom.ingest import (DetectionRecord, Detections, StationMap,
                            group_tracks)
from telanom.labelling import (CRIT_SINGLE_STATION, CRIT_SKIPPED,
                               CRIT_STATIONARY, STATIONARY_SPAN_S,
                               criterion_stationary, label_all,
                               write_label_csv)
from telanom.synthgen import GroundTruth


SM = StationMap([("S%d" % i, -34.0, 21.0 + 0.05 * i, i) for i in range(6)])

DAY = 86400


def _table(*fish_moves):
    """fish_moves: (fish_id, [(station, ts), ...]) tuples."""
    dets = [DetectionRecord(fish, "R", st, *SM.coords(st), int(ts))
            for fish, moves in fish_moves for st, ts in moves]
    return engineer_tracks(group_tracks(Detections.from_records(dets)), SM)


def test_single_station_fish_fully_flagged():
    table = _table(("F1", [("S0", 0), ("S0", 100), ("S0", 500)]),
                   ("F2", [("S0", 0), ("S1", 100)]))
    out, report = label_all(table)
    f1 = out.fish_id == "F1"
    assert np.all(out.label[f1] == 0)
    assert np.all(out.criterion_mask[f1] == CRIT_SINGLE_STATION)
    assert np.all(out.label[~f1] == 1)
    assert report.per_criterion == {1: 3, 2: 0, 3: 0}
    assert report.per_fish == {"F1": CRIT_SINGLE_STATION, "F2": 0}


def test_stationary_run_boundary_is_strict():
    # span exactly 120 days: not flagged; one second more: flagged
    at_limit = [("S0", 0), ("S1", DAY), ("S1", DAY + STATIONARY_SPAN_S)]
    over = [("S0", 0), ("S1", DAY), ("S1", DAY + STATIONARY_SPAN_S + 1)]
    out_a, rep_a = label_all(_table(("F1", at_limit)))
    out_b, rep_b = label_all(_table(("F1", over)))
    assert rep_a.per_criterion[2] == 0
    assert np.all(out_a.label == 1)
    assert rep_b.per_criterion[2] == 2
    # only the run is flagged, not the earlier S0 detection
    assert list(out_b.label) == [1, 0, 0]
    assert list(out_b.criterion_mask) == [0, CRIT_STATIONARY, CRIT_STATIONARY]


def test_stationary_needs_two_distinct_stations():
    fish = ["F1"] * 4
    stations = ["S0"] * 4
    ts = np.array([0, DAY, 2 * DAY, 200 * DAY])
    assert not criterion_stationary(fish, stations, ts).any()
    # same span with a second station present fires
    stations2 = ["S1", "S0", "S0", "S0"]
    ts2 = np.array([0, DAY, 2 * DAY, 200 * DAY])
    got = criterion_stationary(fish, stations2, ts2)
    assert list(got) == [False, True, True, True]


def test_skip_flags_arrival_row_only():
    # S0 -> S3 skips S1, S2 (two stations): flag arrival; S3 -> S4 is fine
    table = _table(("F1", [("S0", 0), ("S3", 100), ("S4", 200)]))
    out, report = label_all(table)
    assert list(out.label) == [1, 0, 1]
    assert list(out.criterion_mask) == [0, CRIT_SKIPPED, 0]
    assert report.per_criterion == {1: 0, 2: 0, 3: 1}
    # skipping exactly one station is allowed
    out2, rep2 = label_all(_table(("F1", [("S0", 0), ("S2", 100)])))
    assert np.all(out2.label == 1)
    assert rep2.per_criterion[3] == 0


def test_union_semantics_and_mask_bits():
    # a single-station fish whose one run also exceeds 120 days gets both
    # criterion-1 bits everywhere (criterion 2 is suppressed by design);
    # a jump inside another fish combines with nothing
    moves = [("S0", 0), ("S0", STATIONARY_SPAN_S + 2)]
    out, _ = label_all(_table(("F1", moves)))
    assert np.all(out.criterion_mask == CRIT_SINGLE_STATION)
    assert np.all(out.label == 0)

    # criterion 2 and 3 can stack on the same row: long run started by a jump
    moves2 = [("S0", 0), ("S3", 100), ("S3", 100 + STATIONARY_SPAN_S + 1)]
    out2, _ = label_all(_table(("F2", moves2)))
    assert out2.criterion_mask[1] == CRIT_STATIONARY | CRIT_SKIPPED
    assert list(out2.label) == [1, 0, 0]


def test_label_zero_iff_any_criterion(small_table):
    table, _ = small_table
    assert np.array_equal(table.label == 0, table.criterion_mask > 0)


def test_labelling_permutation_invariant(small_table):
    table, report = small_table
    rng = np.random.default_rng(17)
    perm = rng.permutation(len(table))
    shuffled, rep2 = label_all(table.take(perm))
    assert np.array_equal(shuffled.label, table.label[perm])
    assert np.array_equal(shuffled.criterion_mask, table.criterion_mask[perm])
    assert rep2.per_criterion == report.per_criterion


def test_labelling_idempotent(small_table):
    table, _ = small_table
    again, _ = label_all(table)
    assert np.array_equal(again.label, table.label)
    assert np.array_equal(again.criterion_mask, table.criterion_mask)


def test_labels_match_injected_ground_truth(small_synth, small_table):
    _, _, gt = small_synth
    table, _ = small_table
    want = gt.mask_for(table.fish_id, table.timestamp)
    assert np.array_equal(table.label == 0, want > 0)
    for crit, bit in ((1, CRIT_SINGLE_STATION), (2, CRIT_STATIONARY),
                      (3, CRIT_SKIPPED)):
        rows = want == crit
        assert np.all(table.criterion_mask[rows] & bit)


def test_label_report_totals(small_table):
    table, report = small_table
    assert report.n_rows == len(table)
    assert report.n_normal + report.n_anomalous == report.n_rows
    assert report.n_anomalous == int((table.label == 0).sum())
    j = report.to_json()
    assert j["anomalous_fraction"] == report.n_anomalous / report.n_rows


def test_write_label_csv(tmp_path, small_table):
    table, _ = small_table
    path = str(tmp_path / "labels.csv")
    write_label_csv(table, path)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(table)
    assert rows[0].keys() == {"fish_id", "timestamp", "label",
                              "criterion_mask"}
    got = np.array([int(r["label"]) for r in rows])
    assert np.array_equal(got, table.label)


def test_ground_truth_csv_round_trip(tmp_path, small_synth):
    _, _, gt = small_synth
    path = str(tmp_path / "gt.csv")
    gt.save_csv(path)
    back = GroundTruth.load_csv(path)
    assert back.criterion == gt.criterion
