import math

import numpy as np
import pytest

from oracles import (haversine_law_of_cosines, read_feature_csv,
                     sorted_by_fish_time)
from telanom.errors import DataError
from telanom.features import (FeatureTable, Scaler, engineer_tracks,
                              haversine_km, recompute_time_features,
                              write_feature_csv)
from telanom.ingest import (DetectionRecord, Detections, StationMap,
                            deduplicate, group_tracks, local_day,
                            parse_timestamp)


# -- haversine ---------------------------------------------------------------


def test_haversine_identity_and_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lat_a, lat_b = rng.uniform(-90, 90, 2)
        lon_a, lon_b = rng.uniform(-180, 180, 2)
        assert haversine_km(lat_a, lon_a, lat_a, lon_a) == 0.0
        d_ab = haversine_km(lat_a, lon_a, lat_b, lon_b)
        d_ba = haversine_km(lat_b, lon_b, lat_a, lon_a)
        assert d_ab == pytest.approx(d_ba, rel=1e-15)
        assert d_ab >= 0.0


def test_haversine_known_values():
    # antipodal points are half the circumference away
    half = math.pi * 6371.0
    assert haversine_km(0.0, 0.0, 0.0, 180.0) == pytest.approx(half, rel=1e-12)
    assert haversine_km(90.0, 0.0, -90.0, 0.0) == pytest.approx(half, rel=1e-12)
    # quarter circumference
    assert haversine_km(0.0, 0.0, 0.0, 90.0) == pytest.approx(half / 2, rel=1e-12)


def test_haversine_matches_law_of_cosines_oracle():
    rng = np.random.default_rng(12)
    for _ in range(300):
        lat_a, lat_b = rng.uniform(-89, 89, 2)
        lon_a, lon_b = rng.uniform(-180, 180, 2)
        got = haversine_km(lat_a, lon_a, lat_b, lon_b)
        want = haversine_law_of_cosines(lat_a, lon_a, lat_b, lon_b)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_haversine_triangle_inequality():
    rng = np.random.default_rng(13)
    for _ in range(200):
        pts = [(rng.uniform(-90, 90), rng.uniform(-180, 180))
               for _ in range(3)]
        (a, b, c) = pts
        ab = haversine_km(*a, *b)
        bc = haversine_km(*b, *c)
        ac = haversine_km(*a, *c)
        assert ac <= ab + bc + 1e-9 * max(1.0, ac)


# -- engineered features -----------------------------------------------------


SM = StationMap([("A", -34.0, 21.00, 0), ("B", -34.0, 21.05, 1),
                 ("C", -34.0, 21.10, 2), ("D", -34.0, 21.15, 3)])


def _det(fish, station, ts):
    lat, lon = SM.coords(station)
    return DetectionRecord(fish, "R_" + station, station, lat, lon, int(ts))


def _track(fish, moves):
    dets = [_det(fish, st, ts) for st, ts in moves]
    return group_tracks(Detections.from_records(dets))


def test_feature_vector_layout_and_values():
    t0 = parse_timestamp("2017-06-15", "06:00:00")
    track = _track("F1", [("A", t0), ("A", t0 + 600), ("C", t0 + 7200)])
    table = engineer_tracks(track, SM)
    assert table.values.shape == (3, 11)
    assert list(table.uid) == [0, 1, 2]

    v0, v1, v2 = table.values
    lat_a, lon_a = SM.coords("A")
    assert v0[0] == lat_a and v0[1] == lon_a
    assert v0[2] == 0.0                       # no previous detection
    assert v1[2] == 0.0                       # same spot
    assert v2[2] == pytest.approx(
        haversine_km(lat_a, lon_a, *SM.coords("C")), rel=1e-12)
    # same-station run span applies to every row of the run
    assert v0[3] == 600.0 and v1[3] == 600.0 and v2[3] == 0.0
    assert all(v[4] == 3.0 for v in table.values)       # num_detections
    assert all(v[5] == 1.0 for v in table.values)       # one calendar day
    assert all(v[6] == 2.0 for v in table.values)       # stations A, C
    # A -> C skips exactly station B
    assert v0[7] == 0.0 and v1[7] == 0.0 and v2[7] == 1.0
    # 06:00 local: sin = 1, cos = 0
    assert v0[8] == pytest.approx(1.0, abs=1e-12)
    assert v0[9] == pytest.approx(0.0, abs=1e-12)
    # June 15 is day 166: (166 - 1) / 365
    assert v0[10] == pytest.approx(165 / 365.0, rel=1e-12)


def test_missing_stations_is_order_gap_minus_one():
    t0 = parse_timestamp("2017-06-15", "12:00:00")
    track = _track("F1", [("D", t0), ("A", t0 + 100), ("B", t0 + 200)])
    table = engineer_tracks(track, SM)
    miss = table.values[:, 7]
    assert list(miss) == [0.0, 2.0, 0.0]  # D->A skips C,B; A->B adjacent


def test_per_fish_totals_match_naive_recount(small_synth):
    records, station_map, _ = small_synth
    records, _ = deduplicate(Detections.from_records(records))
    tracks = group_tracks(records)
    table = engineer_tracks(tracks, station_map)
    order, starts = table.fish_groups()
    for idx in np.split(order, starts[1:]):
        fid = table.fish_id[idx[0]]
        dets = np.flatnonzero(records.fish_id == fid)
        days = {local_day(t) for t in records.timestamp[dets]}
        stations = set(records.station_id[dets])
        assert np.all(table.values[idx, 4] == float(len(dets)))
        assert np.all(table.values[idx, 5] == float(len(days)))
        assert np.all(table.values[idx, 6] == float(len(stations)))


def test_engineer_tracks_uids_sequential(small_table):
    table, _ = small_table
    assert np.array_equal(np.sort(table.uid), np.arange(len(table)))


def test_recompute_time_features_matches_engineering():
    t0 = parse_timestamp("2017-06-15", "06:00:00")
    track = _track("F1", [("A", t0), ("B", t0 + 3600)])
    table = engineer_tracks(track, SM)
    blank = table.values.copy()
    blank[:, 8:] = -99.0
    out = recompute_time_features(blank, table.timestamp)
    assert np.allclose(out[:, 8:], table.values[:, 8:], rtol=0, atol=0)


# -- table plumbing ----------------------------------------------------------


def test_table_concat_take_row_round_trip(small_table):
    table, _ = small_table
    half = len(table) // 2
    a = table.take(np.arange(half))
    b = table.take(np.arange(half, len(table)))
    back = FeatureTable.concat([a, b])
    assert np.array_equal(back.uid, table.uid)
    assert np.array_equal(back.values, table.values)
    assert back.uid[3] == table.uid[3]
    assert np.array_equal(back.values[3], table.values[3])


def test_sorted_by_fish_time(small_table):
    table, _ = small_table
    rng = np.random.default_rng(5)
    shuffled = table.take(rng.permutation(len(table)))
    s = sorted_by_fish_time(shuffled)
    key = list(zip(s.fish_id, s.timestamp))
    assert key == sorted(key)


def test_feature_csv_full_round_trip(tmp_path, small_table):
    table, _ = small_table
    sub = table.take(np.arange(0, len(table), 37))
    path = str(tmp_path / "f.csv")
    write_feature_csv(sub, path)
    back = read_feature_csv(path)
    assert np.array_equal(back.uid, sub.uid)
    assert list(back.fish_id) == list(sub.fish_id)
    assert np.array_equal(back.timestamp, sub.timestamp)
    assert np.array_equal(back.values, sub.values)      # repr round-trips
    assert np.array_equal(back.label, sub.label)
    assert np.array_equal(back.criterion_mask, sub.criterion_mask)


# -- scaler ------------------------------------------------------------------


def test_scaler_maps_fitted_data_into_unit_box():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(200, 11)) * rng.uniform(0.1, 50, 11)
    s = Scaler().fit(x)
    z = s.transform(x)
    assert z.min() >= 0.0 and z.max() <= 1.0
    assert np.any(z == 0.0) and np.any(z == 1.0)


def test_scaler_is_affine_per_dimension():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(300, 11))
    s = Scaler().fit(x)
    z = s.transform(x)
    for d in range(11):
        assert np.array_equal(np.argsort(x[:, d], kind="stable"),
                              np.argsort(z[:, d], kind="stable"))


def test_scaler_constant_dimension_preserves_deviation():
    x = np.zeros((50, 11))
    x[:, 7] = 4.0  # constant in training
    s = Scaler().fit(x)
    assert s.transform(x)[:, 7].max() == 0.0
    probe = np.zeros((1, 11))
    probe[0, 7] = 6.5
    assert s.transform(probe)[0, 7] == 2.5  # divisor 1, not collapsed


def test_scaler_no_clipping_out_of_range():
    x = np.linspace(0, 1, 20).reshape(-1, 1) * np.ones((20, 11))
    s = Scaler().fit(x)
    hi = s.transform(np.full((1, 11), 2.0))
    lo = s.transform(np.full((1, 11), -1.0))
    assert np.all(hi > 1.0) and np.all(lo < 0.0)


def test_scaler_json_round_trip():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(60, 11))
    s = Scaler().fit(x)
    s2 = Scaler.from_json(s.to_json())
    assert np.array_equal(s.transform(x), s2.transform(x))


def test_scaler_unfitted_and_empty_errors():
    with pytest.raises(DataError):
        Scaler().transform(np.zeros((2, 11)))
    with pytest.raises(DataError):
        Scaler().fit(np.empty((0, 11)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scaler_rejects_non_finite_rows(bad):
    x = np.zeros((5, 11))
    x[3, 4] = x[4, 1] = bad
    with pytest.raises(DataError, match=r"^cannot fit scaler: row 3, "
                       r"column 4 \(num_detections\) is %s, not a finite "
                       r"number$" % bad):
        Scaler().fit(x)
    s = Scaler().fit(np.ones((2, 11)))
    with pytest.raises(DataError, match=r"^cannot scale: row 3, column 4 "
                       r"\(num_detections\) is %s" % bad):
        s.transform(x)
    x[3, 4] = 0.0
    with pytest.raises(DataError, match=r"^cannot scale: row 4, column 1 "):
        s.transform(x)
    assert np.array_equal(s.transform(np.ones((1, 11))), np.zeros((1, 11)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_saved_scaler_rejects_non_finite_values(bad):
    saved = Scaler().fit(np.arange(6.0).reshape(2, 3)).to_json()
    with pytest.raises(DataError, match=r"^maxs: entry 2 is %s, "
                       r"not a finite number$" % bad):
        Scaler.from_json(dict(saved, maxs=saved["maxs"][:2] + [bad]))
    with pytest.raises(DataError, match=r"^mins: entry 0 is %s" % bad):
        Scaler.from_json(dict(saved, mins=[bad] + saved["mins"][1:],
                              maxs=[bad] * 3))
