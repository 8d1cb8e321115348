"""Percentile threshold search over validation reconstruction errors.

Candidate thresholds are the 1st..100th percentiles (nearest-rank) of the
combined validation errors, normal and anomalous together. A row is
classified anomalous when its error is strictly greater than the threshold.
The selected percentile maximises recall first, then precision among the
recall maximisers, then specificity among those; remaining ties go to the
smallest percentile and the full tie set is reported.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, read_file
from .ingest import write_csv
from .metrics import confusion, compute_metrics

METRIC_COLUMNS = ["precision", "recall", "f1_score", "specificity", "accuracy"]


def nearest_rank_percentile(values, p):
    """Nearest-rank percentile: the value at rank ceil(p/100 * n) of the
    ascending sort, 0 < p <= 100."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    return float(values[_rank(len(values), p) - 1])


def _rank(n, p):
    """The rank of the nearest-rank percentile ``p`` of ``n`` values."""
    if n == 0:
        raise ValueError("empty data")
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile out of range: %r" % p)
    # p * n first: exact multiples of 100 stay exact under the division
    return max(1, math.ceil(p * n / 100.0))


def contamination_threshold(train_scores, contamination):
    """The threshold that budgets a ``contamination`` share of the training
    rows as anomalous: the (1 - contamination) nearest-rank percentile of
    their scores."""
    return nearest_rank_percentile(train_scores,
                                   (1.0 - contamination) * 100.0)


def contamination_top(n, contamination):
    """r such that the ``contamination_threshold`` of ``n`` scores is their
    r-th largest."""
    return n - _rank(n, (1.0 - contamination) * 100.0) + 1


def flag(scores, threshold):
    """Predicted labels: 0 (anomalous) where a score is strictly greater
    than the threshold, 1 (normal) elsewhere."""
    return np.where(np.asarray(scores) > threshold, 0, 1)


def _as_matrix(rows):
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2:
        raise DataError("expected a 2-d row matrix, got shape %s" % (x.shape,))
    return x


def _check_width(x, width):
    if x.shape[1] != width:
        raise DataError("rows have %d features; the model was fitted on %d"
                        % (x.shape[1], width))
    return x


class _Detector:
    """The protocol every model shares: ``scores`` and a ``threshold``,
    from which ``predict`` is derived. A row is anomalous when its score is
    strictly above the threshold."""

    def predict(self, rows):
        return flag(self.scores(rows), self.threshold)


@dataclass
class PercentileTable:
    percentiles: list            # ints, ascending
    thresholds: list             # float per percentile
    metrics: list                # dict per percentile; absent values are None

    def row(self, percentile):
        i = self.percentiles.index(percentile)
        return self.thresholds[i], self.metrics[i]

    def save_csv(self, path):
        write_csv(path, ["percentile", "optimal_threshold"] + METRIC_COLUMNS,
                  [self.percentiles, self.thresholds]
                  + [[m[k] for m in self.metrics] for k in METRIC_COLUMNS])

    @classmethod
    def load_csv(cls, path):
        percentiles, thresholds, metrics = [], [], []
        with read_file(path, newline="") as f:
            reader = csv.DictReader(f)
            needed = ["percentile", "optimal_threshold"] + METRIC_COLUMNS
            missing = [c for c in needed if c not in (reader.fieldnames or [])]
            if missing:
                raise DataError("%s: missing column(s) %s" % (path, missing))
            for row in reader:
                percentiles.append(int(row["percentile"]))
                thresholds.append(float(row["optimal_threshold"]))
                metrics.append({k: (None if row[k] == "" else float(row[k]))
                                for k in METRIC_COLUMNS})
        return cls(percentiles, thresholds, metrics)


@dataclass
class ThresholdResult:
    percentile: int
    threshold: float
    metrics: dict
    tie_set: list = field(default_factory=list)

    def to_json(self):
        return {"percentile": self.percentile,
                "threshold": self.threshold,
                "metrics": self.metrics,
                "tie_set": list(self.tie_set)}


def build_table(errors, labels):
    """Score every candidate percentile threshold on validation data.

    ``errors`` are reconstruction errors of the combined validation set and
    ``labels`` its 0/1 ground truth; both classes must be present.
    """
    errors = np.asarray(errors, dtype=np.float64)
    labels = np.asarray(labels)
    if errors.shape != labels.shape:
        raise DataError("errors and labels differ in length")
    if len(errors) == 0:
        raise DataError("empty validation set")
    if not ((labels == 0).any() and (labels == 1).any()):
        raise DataError("validation set must contain both classes")

    sorted_errors = np.sort(errors)
    n = len(sorted_errors)
    ps, thresholds, metric_rows = [], [], []
    for p in range(1, 101):
        thr = float(sorted_errors[_rank(n, p) - 1])
        metric_rows.append(compute_metrics(confusion(flag(errors, thr),
                                                     labels)))
        thresholds.append(thr)
        ps.append(p)
    return PercentileTable(ps, thresholds, metric_rows)


def _value(m, key):
    v = m.get(key)
    return -math.inf if v is None else v


def select_threshold(table):
    """Lexicographic (recall, precision, specificity) maximisation.

    Absent metrics compare as -inf. Returns the smallest percentile among
    the final ties, with the whole tie set attached.
    """
    if not table.percentiles:
        raise DataError("empty percentile table")
    idx = list(range(len(table.percentiles)))

    for key in ("recall", "precision", "specificity"):
        best = max(_value(table.metrics[i], key) for i in idx)
        idx = [i for i in idx if _value(table.metrics[i], key) == best]

    tie_set = sorted(table.percentiles[i] for i in idx)
    winner = min(idx, key=lambda i: table.percentiles[i])
    return ThresholdResult(table.percentiles[winner],
                           table.thresholds[winner],
                           dict(table.metrics[winner]),
                           tie_set)
