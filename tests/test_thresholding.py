import numpy as np
import pytest

from telanom.errors import DataError
from telanom.metrics import compute_metrics, confusion, save_report
from telanom.thresholding import (METRIC_COLUMNS, PercentileTable,
                                  ThresholdResult, build_table,
                                  nearest_rank_percentile, select_threshold)


def test_nearest_rank_percentile():
    data = [15.0, 20.0, 35.0, 40.0, 50.0]
    assert nearest_rank_percentile(data, 30) == 20.0   # ceil(1.5) = rank 2
    assert nearest_rank_percentile(data, 40) == 20.0   # rank 2 exactly
    assert nearest_rank_percentile(data, 41) == 35.0   # ceil(2.05) = rank 3
    assert nearest_rank_percentile(data, 100) == 50.0
    assert nearest_rank_percentile(data, 0.1) == 15.0  # rank floor is 1
    with pytest.raises(ValueError):
        nearest_rank_percentile(data, 0)
    with pytest.raises(ValueError):
        nearest_rank_percentile(data, 101)
    with pytest.raises(ValueError):
        nearest_rank_percentile([], 50)


def test_build_table_thresholds_come_from_combined_errors():
    errors = np.arange(1.0, 101.0)          # 1..100
    labels = np.ones(100, dtype=int)
    labels[-5:] = 0                          # top five errors are anomalies
    table = build_table(errors, labels)
    assert table.percentiles == list(range(1, 101))
    # nearest-rank of 1..100 at percentile p is exactly p
    assert table.thresholds == [float(p) for p in range(1, 101)]
    # at p=95 everything above 95 is called anomalous: perfect split
    thr, m = table.row(95)
    assert thr == 95.0
    assert m["recall"] == 1.0 and m["precision"] == 1.0


def test_build_table_metrics_match_direct_computation():
    rng = np.random.default_rng(8)
    errors = rng.exponential(size=400)
    labels = (rng.random(400) > 0.1).astype(int)
    table = build_table(errors, labels)
    for p in (1, 37, 50, 99, 100):
        thr, m = table.row(p)
        pred = np.where(errors > thr, 0, 1)
        want = compute_metrics(confusion(pred, labels))
        assert m == want


def test_build_table_input_validation():
    with pytest.raises(DataError):
        build_table([], [])
    with pytest.raises(DataError):
        build_table([1.0, 2.0], [1])
    with pytest.raises(DataError):
        build_table([1.0, 2.0], [1, 1])     # one class only


def _mk_table(rows):
    """rows: list of (percentile, recall, precision, specificity)."""
    metrics = [{"recall": r, "precision": pr, "specificity": sp,
                "f1_score": None, "accuracy": None}
               for _p, r, pr, sp in rows]
    return PercentileTable([p for p, *_ in rows],
                           [float(p) for p, *_ in rows], metrics)


def test_select_threshold_lexicographic():
    table = _mk_table([
        (10, 1.0, 0.50, 0.90),
        (20, 1.0, 0.80, 0.10),   # best precision among recall ties
        (30, 0.9, 0.99, 0.99),   # higher precision but lower recall: loses
        (40, 1.0, 0.80, 0.70),   # ties 20 on recall+precision, wins on spec
    ])
    out = select_threshold(table)
    assert out.percentile == 40
    assert out.tie_set == [40]


def test_select_threshold_tie_set_smallest_percentile():
    table = _mk_table([
        (5, 1.0, 0.7, 0.5),
        (6, 1.0, 0.7, 0.5),
        (7, 1.0, 0.7, 0.5),
        (8, 0.2, 0.9, 0.9),
    ])
    out = select_threshold(table)
    assert out.percentile == 5
    assert out.tie_set == [5, 6, 7]


def test_select_threshold_none_is_minus_inf():
    table = _mk_table([
        (1, None, 0.9, 0.9),
        (2, 0.1, None, None),    # any real recall beats absent
    ])
    out = select_threshold(table)
    assert out.percentile == 2


def test_select_threshold_invariant_to_low_recall_rows():
    base = [(10, 1.0, 0.5, 0.5), (20, 1.0, 0.6, 0.5)]
    extra = [(30, 0.99, 0.99, 0.99), (40, 0.5, 1.0, 1.0)]
    a = select_threshold(_mk_table(base))
    b = select_threshold(_mk_table(base + extra))
    assert (a.percentile, a.threshold) == (b.percentile, b.threshold)


def test_select_threshold_result_is_lexicographic_max():
    rng = np.random.default_rng(9)
    for _ in range(50):
        rows = [(p,
                 float(rng.choice([0.5, 0.9, 1.0])),
                 float(rng.choice([0.3, 0.7, 0.9])),
                 float(rng.choice([0.2, 0.8])))
                for p in range(1, 30)]
        out = select_threshold(_mk_table(rows))
        got = next((r, pr, sp) for p, r, pr, sp in rows
                   if p == out.percentile)
        for _p, r, pr, sp in rows:
            assert (got[0], got[1], got[2]) >= (r, pr, sp)


def test_chosen_threshold_yields_fn_zero_when_attainable():
    # anomalies have strictly larger errors than every normal row
    rng = np.random.default_rng(10)
    normal = rng.uniform(0.0, 1.0, 300)
    anomalous = rng.uniform(2.0, 3.0, 30)
    errors = np.concatenate([normal, anomalous])
    labels = np.concatenate([np.ones(300, dtype=int), np.zeros(30, dtype=int)])
    table = build_table(errors, labels)
    out = select_threshold(table)
    assert out.metrics["recall"] == 1.0
    pred = np.where(errors > out.threshold, 0, 1)
    cm = confusion(pred, labels)
    assert cm.fn == 0


def test_percentile_table_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    errors = rng.exponential(size=150)
    labels = (rng.random(150) > 0.2).astype(int)
    table = build_table(errors, labels)
    path = str(tmp_path / "table.csv")
    table.save_csv(path)
    back = PercentileTable.load_csv(path)
    assert back.percentiles == table.percentiles
    assert back.thresholds == table.thresholds      # repr round-trip
    assert back.metrics == table.metrics
    header = open(path).readline().strip().split(",")
    assert header == ["percentile", "optimal_threshold"] + METRIC_COLUMNS


def test_threshold_result_json(tmp_path):
    import json
    res = ThresholdResult(65, 0.25, {"recall": 1.0}, [65, 66])
    path = str(tmp_path / "thr.json")
    save_report(res.to_json(), path)
    obj = json.loads(open(path).read())
    assert obj == {"percentile": 65, "threshold": 0.25,
                   "metrics": {"recall": 1.0}, "tie_set": [65, 66]}


def test_empty_table_rejected():
    with pytest.raises(DataError):
        select_threshold(PercentileTable([], [], []))
