import numpy as np
import pytest

from oracles import average_ranks_loop, pair_count_auc, recount_metrics
from telanom.metrics import (ConfusionMatrix, _average_ranks, compute_metrics,
                             confusion, reshuffle_ci, roc_auc,
                             write_summary_csv, SUMMARY_COLUMNS)


def test_confusion_cells():
    pred = np.array([0, 0, 1, 1, 0, 1])
    true = np.array([0, 1, 0, 1, 0, 1])
    cm = confusion(pred, true)
    assert (cm.ta, cm.fa, cm.fn, cm.tn) == (2, 1, 1, 2)
    assert cm.total == 6
    assert cm.to_json() == {"ta": 2, "fa": 1, "tn": 2, "fn": 1}


def test_confusion_validates_inputs():
    with pytest.raises(ValueError):
        confusion([0, 1], [0])
    with pytest.raises(ValueError):
        confusion([0, 2], [0, 1])


def test_known_metric_values():
    m = compute_metrics(ConfusionMatrix(ta=8, fa=2, tn=88, fn=2))
    assert m["accuracy"] == pytest.approx(0.96)
    assert m["precision"] == pytest.approx(0.8)
    assert m["recall"] == pytest.approx(0.8)
    assert m["specificity"] == pytest.approx(88 / 90)
    assert m["f1_score"] == pytest.approx(0.8)


def test_zero_denominators_are_absent():
    # no anomalies at all: precision/recall undefined, specificity fine
    m = compute_metrics(ConfusionMatrix(ta=0, fa=0, tn=5, fn=0))
    assert m["precision"] is None and m["recall"] is None
    assert m["f1_score"] is None
    assert m["specificity"] == 1.0
    # all anomalies: specificity undefined
    m2 = compute_metrics(ConfusionMatrix(ta=3, fa=0, tn=0, fn=1))
    assert m2["specificity"] is None
    # precision + recall == 0 leaves f1 absent, not NaN
    m3 = compute_metrics(ConfusionMatrix(ta=0, fa=2, tn=1, fn=3))
    assert m3["f1_score"] is None


def test_metrics_match_recount_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        pred = rng.integers(0, 2, n)
        true = rng.integers(0, 2, n)
        cm = confusion(pred, true)
        want = recount_metrics(pred, true)
        assert (cm.ta, cm.fa, cm.tn, cm.fn) == (
            want["counts"][0], want["counts"][1],
            want["counts"][2], want["counts"][3])
        got = compute_metrics(cm)
        for key in ("accuracy", "precision", "recall", "specificity",
                    "f1_score"):
            assert got[key] == want[key]


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(7)
    pred = rng.integers(0, 2, 200)
    true = rng.integers(0, 2, 200)
    perm = rng.permutation(200)
    assert confusion(pred, true) == confusion(pred[perm], true[perm])


# -- AUC ---------------------------------------------------------------------


def test_auc_perfect_and_inverted():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([0, 0, 1, 1])        # anomalies scored highest
    assert roc_auc(scores, labels) == 1.0
    assert roc_auc(-scores, labels) == 0.0
    assert roc_auc(np.ones(4), labels) == 0.5   # all tied


def test_auc_matches_pair_count_oracle_exactly():
    rng = np.random.default_rng(100)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized scores force plenty of ties
        scores = np.round(rng.normal(size=n), 1)
        assert roc_auc(scores, labels) == pair_count_auc(scores, labels)


def test_auc_complement_without_ties():
    rng = np.random.default_rng(101)
    scores = rng.permutation(50).astype(float)  # all distinct
    labels = rng.integers(0, 2, 50)
    labels[:2] = (0, 1)
    a = roc_auc(scores, labels)
    b = roc_auc(-scores, labels)
    assert a + b == pytest.approx(1.0, abs=1e-12)


def test_auc_single_class_is_none():
    assert roc_auc([1.0, 2.0], [0, 0]) is None
    assert roc_auc([1.0, 2.0], [1, 1]) is None


def test_auc_refuses_nan_scores():
    # _average_ranks sorts NaN last, which would rank it most anomalous
    with pytest.raises(ValueError, match="1 of 3 scores are NaN"):
        roc_auc([np.nan, 1.0, 2.0], [1, 0, 1])
    assert roc_auc([np.inf, 1.0, np.inf], [0, 1, 1]) == 0.75


# -- reshuffle CI ------------------------------------------------------------


@pytest.mark.parametrize("x", [
    [3.0, 1.0, 3.0, 2.0, 1.0, 3.0],                  # ties
    [0.5] * 7,                                       # all equal
    [np.nan, 1.0, np.nan, 0.0, 1.0, np.nan],         # NaNs tie nothing
    [0.0, -0.0, 1.0, -0.0, -1.0, 0.0],               # -0.0 ties 0.0
    [np.inf, -np.inf, np.inf, 5e-324, -5e-324, 0.0],
    [4.2],                                           # single row
    [],                                              # empty
], ids=["ties", "all-equal", "nan", "signed-zero", "extremes", "one",
        "empty"])
def test_average_ranks_match_loop_oracle(x):
    got = _average_ranks(x)
    want = average_ranks_loop(x)
    assert got.shape == want.shape == (len(x),)
    assert np.array_equal(got, want)


def test_average_ranks_match_loop_oracle_on_random_ties():
    rng = np.random.default_rng(12)
    for n in (2, 3, 17, 500):
        for levels in (1, 2, 5, n):
            x = rng.integers(0, levels, size=n) / 4.0
            x[rng.random(n) < 0.1] = np.nan
            assert np.array_equal(_average_ranks(x), average_ranks_loop(x))


def test_reshuffle_ci_seeds_and_aggregation():
    calls = []

    def fake_pipeline(data, run_seed):
        calls.append(run_seed)
        rng = np.random.default_rng(run_seed)
        return {"recall": 0.9 + 0.01 * rng.random(), "precision": None}

    out = reshuffle_ci(fake_pipeline, None, repeats=8, seed=123)
    assert len(calls) == 8
    assert len(set(calls)) == 8                   # distinct derived seeds
    again = []

    def fake2(data, run_seed):
        again.append(run_seed)
        return {"recall": 1.0}

    reshuffle_ci(fake2, None, repeats=8, seed=123)
    assert again == calls                         # deterministic derivation
    assert "precision" not in out                 # absent values skipped
    r = out["recall"]
    assert r["n"] == 8
    assert 0.9 <= r["mean"] <= 0.91
    assert r["half_width"] > 0.0


def test_reshuffle_ci_half_width_formula():
    vals = iter([0.5, 0.7, 0.9])

    def fixed(data, run_seed):
        return {"m": next(vals)}

    out = reshuffle_ci(fixed, None, repeats=3, seed=0)
    sd = np.std([0.5, 0.7, 0.9], ddof=1)
    assert out["m"]["mean"] == pytest.approx(0.7)
    assert out["m"]["half_width"] == pytest.approx(1.96 * sd / np.sqrt(3))


def test_reshuffle_ci_rejects_zero_repeats():
    with pytest.raises(ValueError):
        reshuffle_ci(lambda d, s: {}, None, repeats=0, seed=0)


def test_summary_csv(tmp_path):
    path = str(tmp_path / "summary.csv")
    write_summary_csv([{"model": "autoencoder", "resampling": "none",
                        "recall": 1.0, "precision": None}], path)
    lines = open(path).read().splitlines()
    assert lines[0].split(",") == SUMMARY_COLUMNS
    row = lines[1].split(",")
    assert row[SUMMARY_COLUMNS.index("recall")] == "1.0"
    assert row[SUMMARY_COLUMNS.index("precision")] == ""   # absent, not 0
