import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telanom.errors import DataError
from telanom.metrics import compute_metrics, confusion, save_report
from telanom.thresholding import (METRIC_COLUMNS, PercentileTable,
                                  ThresholdResult, _rank, build_table,
                                  contamination_threshold, contamination_top,
                                  select_threshold)


def test_nearest_rank_percentile():
    # the rank of the p-th percentile of n values; with the contamination
    # rule, the value of [15, 20, 35, 40, 50] at that rank
    data = [15.0, 20.0, 35.0, 40.0, 50.0]
    assert _rank(5, 30) == 2                # ceil(1.5) = rank 2
    assert _rank(5, 40) == 2                # rank 2 exactly
    assert _rank(5, 41) == 3                # ceil(2.05) = rank 3
    assert _rank(5, 100) == 5
    assert _rank(5, 0.1) == 1               # rank floor is 1
    assert contamination_threshold(data, 0.7) == 20.0   # p = 30
    assert contamination_threshold(data, 0.2) == 40.0   # p = 80, rank 4
    assert contamination_threshold(data, 0.001) == 50.0
    assert contamination_threshold(data, 0.999) == 15.0
    with pytest.raises(ValueError):
        _rank(5, 0)
    with pytest.raises(ValueError):
        _rank(5, 101)
    with pytest.raises(ValueError):
        _rank(0, 50)
    with pytest.raises(ValueError):
        contamination_threshold([], 0.5)


@st.composite
def _subset_cases(draw):
    """(scores, contamination, subset): scores drawn from a few values, so
    that the r-th highest is often tied, and a subset of them that holds
    r scores no lower than the r-th highest, only some of its ties among
    them, beside any others."""
    n = draw(st.integers(1, 3) | st.integers(1, 200))
    values = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1e-300,
                                            np.inf]), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scores = rng.choice(values, size=n) + rng.choice([0.0, 0.1], size=n) \
        * draw(st.booleans())
    # 1e-6 keeps r at 1 and 0.999 makes r = n for n up to 1000
    contamination = draw(st.sampled_from([1e-6, 0.001, 0.05, 0.3, 0.5, 0.9,
                                          0.999]))
    r = contamination_top(n, contamination)
    order = np.argsort(-scores, kind="stable")
    top = order[:r]
    rest = order[r:]
    extra = rest[rng.random(len(rest)) < draw(st.sampled_from([0.0, 0.3,
                                                               1.0]))]
    subset = scores[rng.permutation(np.concatenate([top, extra]))]
    return scores, contamination, subset


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_subset_cases())
def test_the_rule_over_the_top_r_is_the_rule_over_all(case):
    """The contamination rule over any subset that holds the r highest
    scores, given n, is the rule over all n scores, bit for bit, whether
    the subset is handed over or made for r; one score fewer than r is
    refused."""
    scores, contamination, subset = case
    n = len(scores)
    r = contamination_top(n, contamination)
    want = contamination_threshold(scores, contamination)
    assert want == np.sort(scores)[_rank(n, (1 - contamination) * 100) - 1]
    asked = []

    def candidates(top):
        asked.append(top)
        return subset
    for got in (contamination_threshold(subset, contamination, n),
                contamination_threshold(candidates, contamination, n)):
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert asked == [r]
    assert 1 <= r <= n
    with pytest.raises(ValueError, match="cannot hold"):
        contamination_threshold(np.sort(subset)[1 - r:] if r > 1 else [],
                                contamination, n)


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
    with pytest.raises(DataError, match="1 of 3 validation errors are NaN"):
        build_table([1.0, np.nan, 2.0], [0, 1, 1])
    # +inf ranks above every finite error
    assert build_table([1.0, np.inf, 2.0], [0, 1, 1]).thresholds[-1] == np.inf


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
