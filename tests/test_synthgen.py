"""Generator tests: determinism, timestamp discipline, anomaly injection
counts, ground-truth alignment with the rule labeller, and gap burstiness."""

import re

import numpy as np
import pytest

from telanom.errors import DataError
from telanom.features import engineer_tracks, haversine_km
from telanom.ingest import Detections, deduplicate, group_tracks
from telanom.labelling import label_all
from telanom.synthgen import (GroundTruth, SynthConfig, config_json,
                              generate, make_station_map)


def test_generate_is_deterministic():
    cfg = SynthConfig(n_fish=4, span_days=120.0, seed=11)
    r1, m1, g1 = generate(cfg)
    r2, m2, g2 = generate(cfg)
    assert r1 == r2
    assert m1.ids() == m2.ids()
    assert g1.criterion == g2.criterion


def test_generate_seed_changes_data():
    r1, _, _ = generate(SynthConfig(n_fish=4, span_days=120.0, seed=1))
    r2, _, _ = generate(SynthConfig(n_fish=4, span_days=120.0, seed=2))
    assert r1 != r2


def test_per_fish_timestamps_strictly_increase():
    records, _, _ = generate(SynthConfig(n_fish=5, span_days=120.0, seed=3))
    last = {}
    for rec in records:
        assert isinstance(rec.timestamp, int)
        if rec.fish_id in last:
            assert rec.timestamp > last[rec.fish_id]
        last[rec.fish_id] = rec.timestamp


def test_config_validation():
    with pytest.raises(DataError):
        generate(SynthConfig(n_fish=0))
    with pytest.raises(DataError):
        generate(SynthConfig(n_stations=3))
    with pytest.raises(DataError):
        generate(SynthConfig(span_days=30.0))  # < 4x dwell cap
    with pytest.raises(DataError):
        generate(SynthConfig(skip_rate=1.0))
    with pytest.raises(DataError):
        generate(SynthConfig(n_fish=4, span_days=150.0,
                             fraction_stationary=0.5))  # span too short
    with pytest.raises(DataError):
        generate(SynthConfig(n_fish=2, span_days=400.0,
                             fraction_single_station=0.9,
                             fraction_stationary=0.9))


def test_station_map_orders_and_spacing():
    cfg = SynthConfig(n_stations=12, waterway_km=40.0)
    smap = make_station_map(cfg)
    ids = smap.ids()
    assert len(ids) == 12
    assert [smap.order_of(s) for s in ids] == list(range(12))
    step = cfg.waterway_km / 11
    for a, b in zip(ids, ids[1:]):
        d = haversine_km(*smap.coords(a), *smap.coords(b))
        assert d == pytest.approx(step, rel=0.05)


def test_single_station_fish_count_and_truth():
    cfg = SynthConfig(n_fish=12, span_days=120.0,
                      fraction_single_station=0.25, skip_rate=0.0, seed=5)
    records, _, gt = generate(cfg)
    by_fish = {}
    for rec in records:
        by_fish.setdefault(rec.fish_id, []).append(rec)
    n_c1 = round(cfg.fraction_single_station * cfg.n_fish)
    single = [f for f, recs in by_fish.items()
              if len({r.station_id for r in recs}) == 1]
    assert len(single) == n_c1 == 3
    for f in single:
        for rec in by_fish[f]:
            assert gt.criterion[(f, rec.timestamp)] == 1
    # everyone else moved and carries no truth entries with skip_rate 0
    for f, recs in by_fish.items():
        if f not in single:
            assert all((f, r.timestamp) not in gt.criterion for r in recs)


def test_stationary_fish_run_exceeds_120_days():
    cfg = SynthConfig(n_fish=4, span_days=220.0, fraction_single_station=0.0,
                      fraction_stationary=0.25, skip_rate=0.0, seed=6)
    records, _, gt = generate(cfg)
    c2 = sorted(ts for (f, ts), c in gt.criterion.items() if c == 2)
    assert c2, "expected one stationary fish"
    assert c2[-1] - c2[0] > 120 * 86400
    fish = {f for (f, _), c in gt.criterion.items() if c == 2}
    assert len(fish) == 1


def test_jump_arrivals_skip_at_least_two_stations():
    cfg = SynthConfig(n_fish=6, span_days=120.0, fraction_single_station=0.0,
                      skip_rate=0.3, seed=8)
    records, _, gt = generate(cfg)
    c3 = {(f, ts) for (f, ts), c in gt.criterion.items() if c == 3}
    assert c3, "expected at least one jump arrival"
    by_fish = {}
    for rec in records:
        by_fish.setdefault(rec.fish_id, []).append(rec)
    order = lambda rec: int(rec.station_id[1:])  # stations are S%02d
    for f, recs in by_fish.items():
        for prev, cur in zip(recs, recs[1:]):
            if (f, cur.timestamp) in c3:
                assert abs(order(cur) - order(prev)) >= 3


def test_ground_truth_matches_rule_labeller():
    # full-path check including stationary fish and jumps
    cfg = SynthConfig(n_fish=8, span_days=220.0, fraction_single_station=0.25,
                      fraction_stationary=0.125, skip_rate=0.1, seed=9)
    records, smap, gt = generate(cfg)
    records, n_dupes = deduplicate(Detections.from_records(records))
    assert n_dupes == 0
    table = engineer_tracks(group_tracks(records), smap)
    labelled, _report = label_all(table)
    truth = gt.mask_for(labelled.fish_id, labelled.timestamp)
    want_label = (truth == 0).astype(int)
    assert np.array_equal(labelled.label, want_label)


def test_walker_gap_cv_is_bursty(small_synth):
    records, _, gt = small_synth
    by_fish = {}
    for rec in records:
        by_fish.setdefault(rec.fish_id, []).append(rec.timestamp)
    # exclude only whole-fish anomalies; jump fish still walk normally
    still_fish = {f for (f, _ts), c in gt.criterion.items() if c in (1, 2)}
    checked = 0
    for f, ts in by_fish.items():
        if f in still_fish or len(ts) < 50:
            continue
        gaps = np.diff(np.asarray(ts, dtype=np.float64))
        cv = gaps.std() / gaps.mean()
        assert cv > 0.3
        checked += 1
    assert checked >= 3


def test_ground_truth_mask_and_counts():
    gt = GroundTruth()
    gt.criterion[("F000", 100)] = 1
    gt.criterion[("F001", 200)] = 3
    mask = gt.mask_for(["F000", "F001", "F001"], [100, 200, 999])
    assert mask.tolist() == [1, 3, 0]
    assert gt.n_anomalous() == 2


def test_ground_truth_csv_round_trip(tmp_path):
    _, _, gt = generate(SynthConfig(n_fish=4, span_days=120.0,
                                    fraction_single_station=0.25, seed=12))
    path = tmp_path / "gt.csv"
    gt.save_csv(path)
    loaded = GroundTruth.load_csv(path)
    assert loaded.criterion == gt.criterion


@pytest.mark.parametrize("text,message", [
    ("fishid,timestamp\nF000,100\n", r"missing column\(s\) \['criterion'\]"),
    ("fishid,timestamp,criterion\nF000,100,1\nF001,2.5,0\n",
     ":3: timestamp and criterion must be integers"),
    ("fishid,timestamp,criterion\nF000,100\n",
     ":2: timestamp and criterion must be integers"),
    (b"fishid,timestamp,criterion\n\xff\xfe,1,1\n", "undecodable bytes"),
], ids=["missing-column", "bad-integer", "short-row", "undecodable"])
def test_bad_ground_truth_files_are_data_errors(tmp_path, text, message):
    path = tmp_path / "gt.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(DataError, match="^%s" % re.escape(str(path))) as e:
        GroundTruth.load_csv(path)
    assert re.search(message, str(e.value))


def test_config_json_round_trip():
    cfg = SynthConfig(n_fish=9, seed=4)
    blob = config_json(cfg)
    assert blob["n_fish"] == 9
    assert SynthConfig(**blob) == cfg
