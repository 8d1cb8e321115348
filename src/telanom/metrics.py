"""Evaluation metrics with the anomaly class (label 0) as the positive class.

Confusion cells:

    ta  true anomaly:   true 0, predicted 0
    fn  missed anomaly: true 0, predicted 1
    fa  false alarm:    true 1, predicted 0
    tn  true normal:    true 1, predicted 1

Ratios with a zero denominator are reported as absent (None), never as 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import whole_file
from .ingest import write_csv


@dataclass(frozen=True)
class ConfusionMatrix:
    ta: int
    fa: int
    tn: int
    fn: int

    @property
    def total(self):
        return self.ta + self.fa + self.tn + self.fn

    def to_json(self):
        return {"ta": self.ta, "fa": self.fa, "tn": self.tn, "fn": self.fn}


def confusion(predicted, actual):
    """Count confusion cells for 0/1 label vectors of equal length."""
    p = np.asarray(predicted)
    a = np.asarray(actual)
    if p.shape != a.shape:
        raise ValueError("length mismatch: %s vs %s" % (p.shape, a.shape))
    if not (np.isin(p, (0, 1)).all() and np.isin(a, (0, 1)).all()):
        raise ValueError("labels must be 0 or 1")
    return ConfusionMatrix(
        ta=int(((a == 0) & (p == 0)).sum()),
        fa=int(((a == 1) & (p == 0)).sum()),
        tn=int(((a == 1) & (p == 1)).sum()),
        fn=int(((a == 0) & (p == 1)).sum()),
    )


def _ratio(num, den):
    return num / den if den else None


def compute_metrics(cm):
    """Accuracy, precision, recall, specificity and F1 from a confusion
    matrix; absent (None) where the denominator is zero."""
    precision = _ratio(cm.ta, cm.ta + cm.fa)
    recall = _ratio(cm.ta, cm.ta + cm.fn)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return {
        "accuracy": _ratio(cm.ta + cm.tn, cm.total),
        "precision": precision,
        "recall": recall,
        "specificity": _ratio(cm.tn, cm.tn + cm.fa),
        "f1_score": f1,
    }


def _average_ranks(x):
    """1-based ranks with ties sharing their average rank: the equal
    values at sorted positions i..j all get 0.5 * (i + j) + 1. NaNs sort
    last and tie with nothing; -0.0 ties with 0.0."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    starts = np.ones(n, dtype=bool)          # a run of equal values starts
    np.not_equal(sx[1:], sx[:-1], out=starts[1:])
    bounds = np.append(np.flatnonzero(starts), n)
    i, j = bounds[:-1], bounds[1:] - 1
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (i + j) + 1.0, j - i + 1)
    return ranks


def roc_auc(scores, actual):
    """Area under the ROC curve via average ranks (Mann-Whitney form).

    ``scores``: higher means more anomalous. ``actual``: 0/1 labels with
    0 the positive class. Ties contribute 1/2; all-equal scores give 0.5.
    Returns None when either class is missing. NaN scores have no rank and
    are refused.
    """
    s = np.asarray(scores, dtype=np.float64)
    a = np.asarray(actual)
    if s.shape != a.shape:
        raise ValueError("length mismatch")
    if np.isnan(s).any():
        raise ValueError("%d of %d scores are NaN"
                         % (np.isnan(s).sum(), len(s)))
    pos = a == 0
    n_pos = int(pos.sum())
    n_neg = len(a) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(s)
    r_pos = ranks[pos].sum()
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def reshuffle_ci(pipeline_fn, data, repeats, seed):
    """Uncertainty of pipeline metrics over repeated random splits.

    ``pipeline_fn(data, run_seed) -> dict`` of metric name -> float (or
    None). Each repeat uses a distinct derived seed. Returns metric name ->
    {"mean", "half_width", "n"} where half_width is the 95% normal
    approximation 1.96 * sd / sqrt(n); absent values are skipped.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    children = np.random.SeedSequence(seed).spawn(repeats)
    samples = {}
    for child in children:
        run_seed = int(child.generate_state(1)[0])
        result = pipeline_fn(data, run_seed)
        for name, value in result.items():
            if value is None:
                continue
            samples.setdefault(name, []).append(float(value))
    out = {}
    for name, vals in sorted(samples.items()):
        n = len(vals)
        mean = float(np.mean(vals))
        if n > 1:
            half = 1.96 * float(np.std(vals, ddof=1)) / math.sqrt(n)
        else:
            half = 0.0
        out[name] = {"mean": mean, "half_width": half, "n": n}
    return out


SUMMARY_COLUMNS = ["model", "resampling", "accuracy", "recall", "specificity",
                   "precision", "f1_score", "auc", "n_parameters",
                   "train_time_minutes", "fn_fraction", "fa_fraction"]


def write_summary_csv(rows, path):
    """One row per (model, resampling mode) with headline metrics."""
    write_csv(path, SUMMARY_COLUMNS,
              [[row.get(k) for row in rows] for k in SUMMARY_COLUMNS])


def save_report(report, path):
    """Indented, key-sorted JSON: the writer of every report-like file."""
    with whole_file(path) as f:
        json.dump(report, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
