"""Per-layer tracing from outside the program.

``install`` replaces each public name telanom's callers use with a wrapper
that records a span: name, parent span, start, end, self time (its
duration minus the part its child spans cover), rows in and out, and the
process's RSS high-water mark at the span's end. Names are wrapped where
their caller looks them up: ``pipeline`` binds its stage functions at
import, so they are wrapped in the ``telanom.pipeline`` namespace; the CLI
imports at call time, so module attributes serve it; detector, Scaler,
LeakageGuard and Autoencoder methods are wrapped on their classes.

Spans are kept in memory and written out by ``save`` when the operation
ends. ``layer_metrics`` folds them into the ``<module>.<metric>`` numbers of
BENCHMARK.json's ``per_layer`` list.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import json
import resource
import time

import numpy as np

from telanom import autoencoder, detectors, features, pipeline, resampling, tuning
from telanom.features import FeatureTable

DETECTORS = {"iforest": detectors.IsolationForest,
             "lof": detectors.LocalOutlierFactor,
             "dbscan": detectors.Dbscan}


def _rows(x):
    if isinstance(x, tuple):
        x = x[0] if x else None
    if isinstance(x, (list, np.ndarray, FeatureTable)):
        return len(x)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []   # [span, seconds covered by its children]
        self.counts = collections.Counter()
        self.query_sets = collections.defaultdict(set)

    def wrap(self, name, fn, method=False, hook=None):
        """``fn`` wrapped to record a ``name`` span; ``hook(tracer, args,
        result)`` adds counts taken from the call."""
        rows_arg = 1 if method else 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1][0]["id"] if self._open else None,
                    "rows_in": (_rows(args[rows_arg])
                                if len(args) > rows_arg else None)}
            self.spans.append(span)
            frame = [span, 0.0]
            self._open.append(frame)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
                duration = span["end"] - span["start"]
                span["self_s"] = duration - frame[1]
                if self._open:
                    self._open[-1][1] += duration
                span["rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024.0)
            span["rows_out"] = _rows(result)
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    def _by_name(self):
        agg = collections.defaultdict(collections.Counter)
        for s in self.spans:
            a = agg[s["name"]]
            a["calls"] += 1
            a["self_s"] += s["self_s"]
            a["total_s"] += s["end"] - s["start"]
            a["rows_in"] += s["rows_in"] or 0
            a["rows_out"] += s["rows_out"] or 0
        return agg

    def layer_metrics(self, wall_s):
        """Per-layer metrics of one operation that took ``wall_s``."""
        agg = self._by_name()
        c = self.counts

        def self_s(*names):
            return sum(agg[n]["self_s"] for n in names)

        top = sum(s["end"] - s["start"] for s in self.spans
                  if s["parent"] is None)
        train_s = self_s("autoencoder.train")
        grid_s = agg["tuning.grid"]["total_s"]
        m = {
            "ingest.parse_s": self_s("ingest.parse"),
            "ingest.dedup_s": self_s("ingest.dedup"),
            "ingest.group_s": self_s("ingest.group"),
            "ingest.rows_read": c["rows_read"],
            "ingest.rows_dropped": c["rows_dropped"],
            "ingest.duplicates_removed": c["duplicates_removed"],
            "features.engineer_s": self_s("features.engineer"),
            "features.scaler_s": self_s("features.scaler"),
            "features.rows": agg["features.engineer"]["rows_out"],
            "labelling.label_s": self_s("labelling.label"),
            "labelling.anomalous_rows": c["anomalous_rows"],
            "resampling.plan_s": self_s("resampling.plan",
                                        "resampling.collect"),
            "resampling.resample_s": self_s("resampling.resample"),
            "resampling.collect_calls": agg["resampling.collect"]["calls"],
            "resampling.pool_rows": agg["resampling.resample"]["rows_out"],
            "resampling.pool_over_budget": (
                agg["resampling.resample"]["rows_out"] / c["max_points"]
                if c["max_points"] else 0.0),
            "pipeline.split_s": self_s("pipeline.split"),
            "pipeline.guard_s": self_s("pipeline.guard"),
            "pipeline.guard_checks": agg["pipeline.guard"]["calls"],
            "pipeline.artifacts_s": self_s("pipeline.artifacts"),
            "autoencoder.train_s": train_s,
            "autoencoder.row_epochs_per_s": (c["row_epochs"] / train_s
                                             if train_s else 0.0),
            "autoencoder.score_s": self_s("autoencoder.score"),
            "thresholding.table_s": self_s("thresholding.table"),
            "thresholding.select_s": self_s("thresholding.select"),
            "metrics.evaluate_s": self_s("metrics.evaluate"),
            "tuning.grid_s": grid_s,
            "tuning.candidates": c["candidates"],
            "tuning.candidate_s": grid_s / c["candidates"] if c["candidates"]
            else 0.0,
            "process.unattributed_s": wall_s - top,
        }
        for kind in DETECTORS:
            p = "detectors.%s." % kind
            m.update({
                p + "fit_s": self_s(p + "fit"),
                p + "score_s": self_s(p + "scores", p + "predict"),
                p + "score_calls": agg[p + "scores"]["calls"],
                p + "query_sets": len(self.query_sets[kind]),
                p + "fit_rows": agg[p + "fit"]["rows_in"],
                p + "query_rows": agg[p + "scores"]["rows_in"],
            })
        return m

    def save(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f)


# ---------------------------------------------------------------------------
# hooks: counts read off a call's arguments and result


def _parsed(tracer, _args, result):
    report = result[1]
    tracer.counts["rows_read"] += report.n_rows
    tracer.counts["rows_dropped"] += sum(report.dropped.values())


def _deduplicated(tracer, _args, result):
    tracer.counts["duplicates_removed"] += result[1]


def _labelled(tracer, _args, result):
    tracer.counts["anomalous_rows"] += result[1].n_anomalous


def _resampled(tracer, args, _result):
    tracer.counts["max_points"] += args[1].max_points


def _trained(tracer, args, _result):
    tracer.counts["row_epochs"] += len(args[1]) * args[2].epochs


def _searched(tracer, _args, result):
    tracer.counts["candidates"] += len(result.rows)


def _query_set(kind):
    # the base of score_calls: distinct query matrices, by content
    def hook(tracer, args, _result):
        x = np.ascontiguousarray(args[1], dtype=np.float64)
        tracer.query_sets[kind].add(
            (x.shape, hashlib.blake2b(x.tobytes(), digest_size=16).digest()))
    return hook


def install(tracer):
    """Wrap telanom's layer boundaries in this process."""
    functions = [
        (pipeline, "load_station_map", "ingest.parse", None),
        (pipeline, "parse_csv", "ingest.parse", _parsed),
        (pipeline, "deduplicate", "ingest.dedup", _deduplicated),
        (pipeline, "group_tracks", "ingest.group", None),
        (pipeline, "engineer_tracks", "features.engineer", None),
        (pipeline, "label_all", "labelling.label", _labelled),
        (pipeline, "split_rows", "pipeline.split", None),
        (pipeline, "train_val_split", "pipeline.split", None),
        (pipeline, "train", "autoencoder.train", _trained),
        (pipeline, "build_table", "thresholding.table", None),
        (pipeline, "select_threshold", "thresholding.select", None),
        (pipeline, "_evaluate", "metrics.evaluate", None),
        (pipeline, "_write_artifacts", "pipeline.artifacts", None),
        (tuning, "grid_search", "tuning.grid", _searched),
        (tuning, "confusion", "metrics.evaluate", None),
        (tuning, "compute_metrics", "metrics.evaluate", None),
    ]
    # the CLI's tune imports these from resampling at call time
    for module in (pipeline, resampling):
        functions += [
            (module, "plan_for", "resampling.plan", None),
            (module, "fixed_plan", "resampling.plan", None),
            (module, "resample", "resampling.resample", _resampled),
            (module, "collect_candidates", "resampling.collect", None),
        ]
    for module, attr, name, hook in functions:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr),
                                          hook=hook))

    methods = [
        (features.Scaler, "fit", "features.scaler", None),
        (features.Scaler, "transform", "features.scaler", None),
        (pipeline.LeakageGuard, "check", "pipeline.guard", None),
        (autoencoder.Autoencoder, "scores", "autoencoder.score", None),
    ]
    for kind, cls in DETECTORS.items():
        p = "detectors.%s." % kind
        methods += [(cls, "fit", p + "fit", None),
                    (cls, "scores", p + "scores", _query_set(kind)),
                    (cls, "predict", p + "predict", None)]
    for cls, attr, name, hook in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr),
                                       method=True, hook=hook))
