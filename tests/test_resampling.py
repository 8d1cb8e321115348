import numpy as np
import pytest

from telanom.errors import DataError
from telanom.features import (CONTINUOUS_DIMS, STEPWISE_DIMS, FeatureTable,
                              engineer_tracks, recompute_time_features)
from telanom.ingest import (DetectionRecord, Detections, StationMap,
                            group_tracks, local_day)
from telanom.resampling import (ResamplePlan, collect_candidates,
                                fixed_plan, plan_for, resample,
                                tradeoff_search)


SM = StationMap([("S0", -34.0, 21.0, 0), ("S1", -34.0, 21.05, 1),
                 ("S2", -34.0, 21.1, 2)])


def _table(moves, fish="F1"):
    dets = [DetectionRecord(fish, "R", st, *SM.coords(st), int(ts))
            for st, ts in moves]
    return engineer_tracks(group_tracks(Detections.from_records(dets)), SM)


# -- interval derivation -----------------------------------------------------


def test_daily_min_gap():
    def gaps(offsets):  # one fish, one day, rows in reverse time order
        table = _table([("S0", DAY0 + t) for t in offsets])
        return collect_candidates(table.take(np.arange(len(table))[::-1]))[0]
    assert gaps([100]) == []
    assert gaps([100, 100]) == []                     # no positive gap
    assert gaps([100, 350, 400]) == [50]
    assert gaps([400, 100, 350]) == [50]              # unsorted input


def test_tradeoff_search_picks_smallest_fitting():
    plan = tradeoff_search([10, 60, 300], max_points=100, span=3000)
    assert plan.delta_t == 60                          # 3000/10 > 100 budget
    assert plan.candidate_gaps == (10, 60, 300)
    assert not plan.budget_exceeded


def test_tradeoff_search_budget_fallback(caplog):
    with caplog.at_level("WARNING"):
        plan = tradeoff_search([10, 20], max_points=5, span=10_000)
    assert plan.delta_t == 20
    assert plan.budget_exceeded
    assert any("budget" in r.message for r in caplog.records)


def test_plan_respects_budget(small_table):
    table, _ = small_table
    normals = table.take(np.flatnonzero(table.label == 1))
    plan = plan_for(normals, max_points=20_000)
    _, span, _ = collect_candidates(normals)
    assert span / plan.delta_t <= 20_000
    assert plan.delta_t in plan.candidate_gaps


def test_fixed_plan_operating_points():
    for dt in (90, 65):
        plan = fixed_plan(dt)
        assert plan.delta_t == dt
        assert plan.f_s == 1.0 / dt
    with pytest.raises(DataError):
        fixed_plan(0)


def test_plan_json_round_trip(tmp_path):
    import json
    from telanom.pipeline import save_plan
    plan = ResamplePlan(90, (65, 90, 300), 1000,
                        gap_histogram={65: 2, 90: 5})
    save_plan(plan, None, FeatureTable.empty(), str(tmp_path))
    obj = json.loads((tmp_path / "plan.json").read_text())
    assert obj == dict(plan.to_json(), gap_histogram={"65": 2, "90": 5})
    assert obj["delta_t"] == 90
    assert obj["f_s"] == 1.0 / 90
    assert (tmp_path / "resampled.csv").read_text().startswith("uid,")


# -- grid construction -------------------------------------------------------


DAY0 = 86400 * 100  # an arbitrary calendar day, local midnight at +7200


def test_resample_exact_grid_no_remainder():
    moves = [("S0", DAY0), ("S0", DAY0 + 300), ("S1", DAY0 + 600)]
    out = resample(_table(moves), fixed_plan(100))
    assert list(out.timestamp) == [DAY0 + 100 * k for k in range(7)]
    assert np.all(out.uid == -1)


def test_resample_trailing_remainder():
    moves = [("S0", DAY0), ("S1", DAY0 + 250)]
    out = resample(_table(moves), fixed_plan(100))
    gaps = np.diff(out.timestamp)
    assert list(out.timestamp) == [DAY0, DAY0 + 100, DAY0 + 200, DAY0 + 250]
    assert list(gaps) == [100, 100, 50]               # one short final gap


@pytest.mark.parametrize("step", [10 ** 6, 2 ** 62, 2 ** 63 - 1000])
def test_resample_step_longer_than_the_day(step):
    # a group's grid is its first and last detection, whatever the step:
    # t0 + step may not fit in 64 bits
    moves = [("S0", DAY0), ("S1", DAY0 + 250)]
    out = resample(_table(moves), fixed_plan(step))
    assert list(out.timestamp) == [DAY0, DAY0 + 250]


def test_resample_single_detection_passthrough():
    moves = [("S0", DAY0), ("S0", DAY0 + 86400 * 2)]  # two one-detection days
    table = _table(moves)
    out = resample(table, fixed_plan(60))
    assert len(out) == 2
    assert np.array_equal(out.uid, table.uid)         # originals, not -1
    assert np.array_equal(out.values, table.values)


def test_resample_rejects_anomalous_rows(small_table):
    table, _ = small_table
    assert np.any(table.label == 0)
    with pytest.raises(DataError):
        resample(table, fixed_plan(90))


def test_resample_grids_are_per_fish_and_day():
    # same day, two fish; and one fish crossing midnight gets two grids
    t_noon = DAY0 + 36000
    tbl = FeatureTable.concat([
        _table([("S0", t_noon), ("S1", t_noon + 500)], fish="F1"),
        _table([("S0", t_noon + 7), ("S1", t_noon + 507)], fish="F2"),
    ])
    out = resample(tbl, fixed_plan(200))
    f1 = out.take(np.flatnonzero(out.fish_id == "F1"))
    f2 = out.take(np.flatnonzero(out.fish_id == "F2"))
    assert list(f1.timestamp) == [t_noon, t_noon + 200, t_noon + 400,
                                  t_noon + 500]
    assert list(f2.timestamp) == [t_noon + 7, t_noon + 207, t_noon + 407,
                                  t_noon + 507]

    # midnight split: local day boundary at ts where (ts+7200) % 86400 == 0
    before_mid = DAY0 + 86400 - 7200 - 100
    moves = [("S0", before_mid), ("S0", before_mid + 50),
             ("S1", before_mid + 400), ("S1", before_mid + 450)]
    out2 = resample(_table(moves), fixed_plan(50))
    days = np.array([local_day(t) for t in out2.timestamp])
    uniq = np.unique(days)
    assert len(uniq) == 2
    # each day grid starts at its own first detection
    d0 = out2.timestamp[days == uniq[0]]
    d1 = out2.timestamp[days == uniq[1]]
    assert d0[0] == before_mid and d0[-1] == before_mid + 50
    assert d1[0] == before_mid + 400 and d1[-1] == before_mid + 450


def test_resample_interpolation_schemes():
    moves = [("S0", DAY0), ("S2", DAY0 + 1000)]
    table = _table(moves)
    out = resample(table, fixed_plan(250))
    src = table.values

    # continuous dims follow straight lines between the two real rows
    for d in CONTINUOUS_DIMS:
        want = np.interp(out.timestamp.astype(float),
                         table.timestamp.astype(float), src[:, d])
        assert np.allclose(out.values[:, d], want, rtol=0, atol=0)
        lo, hi = min(src[0, d], src[1, d]), max(src[0, d], src[1, d])
        assert np.all(out.values[:, d] >= lo) and np.all(out.values[:, d] <= hi)

    # stepwise dims hold the last real value
    for d in STEPWISE_DIMS:
        mid = out.values[1:-1, d]                     # strictly between
        assert np.all(mid == src[0, d])
        assert out.values[-1, d] == src[1, d]

    # station metadata follows the hold rule
    assert list(out.station_id) == ["S0", "S0", "S0", "S0", "S2"]

    # time dims recomputed from grid timestamps
    want_t = recompute_time_features(out.values.copy(), out.timestamp)
    assert np.array_equal(out.values[:, 8:], want_t[:, 8:])


def test_resample_output_sorted_and_uid_synthetic(small_table):
    table, _ = small_table
    normals = table.take(np.flatnonzero(table.label == 1))
    out = resample(normals, fixed_plan(3600))
    key = list(zip(out.fish_id, out.timestamp))
    assert key == sorted(key)
    multi = np.bincount(
        np.unique(out.uid, return_inverse=True)[1]).max()
    assert set(np.unique(out.uid)) <= set([-1]) | set(normals.uid.tolist())
    assert multi >= 1


def test_resample_gap_regularity_property(small_table):
    # every (fish, day) group: all gaps == delta_t except <= 1 trailing
    table, _ = small_table
    normals = table.take(np.flatnonzero(table.label == 1))
    plan = plan_for(normals, max_points=20_000)
    out = resample(normals, plan)
    order, starts = out.fish_groups()
    for idx in np.split(order, starts[1:]):
        ts = out.timestamp[idx]
        days = np.array([local_day(t) for t in ts])
        for day in np.unique(days):
            dts = np.sort(ts[days == day])
            gaps = np.diff(dts)
            if len(gaps) == 0:
                continue
            assert np.all(gaps[:-1] == plan.delta_t)
            assert gaps[-1] <= plan.delta_t
