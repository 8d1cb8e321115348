"""Deterministic hyperparameter grid search.

Grids are explicit candidate lists per parameter. Candidates are evaluated
in canonical order (parameter names sorted, candidate values sorted), so the
result never depends on how the caller happened to order the lists; ties
keep the first candidate in canonical order.

Every candidate is built by detectors.build_model, as run builds its
models, so a parameter the grid leaves out takes run's default and an
unknown parameter or a bad value is a DataError that names it.

Scoring: the classical detectors fit on the training rows (labels unused)
and are scored by F1 on the labelled validation rows. The autoencoder
trains on all of the normal training rows it is given and is scored by the
lexicographic (recall, precision, specificity) outcome of its selected
percentile threshold on the validation rows. Absent metrics compare as
-inf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .autoencoder import train
from .child import run_all
from .detectors import NeighbourPass, build_model
from .errors import DataError
from .ingest import write_csv
from .metrics import confusion, compute_metrics
from .thresholding import (build_table, contamination_threshold, flag,
                           select_threshold)

DEFAULT_GRIDS = {
    "iforest": {
        "contamination": [0.001, 0.02, 0.05, 0.3],
        "n_estimators": [100, 150, 200],
    },
    "lof": {
        "k": [5, 10, 20],
        "contamination": [0.01, 0.08, 0.1, 0.2],
    },
    "dbscan": {
        "eps": [0.5, 1.5, 2.0, 3.5, 5.0],
        "min_pts": [2, 4, 10],
    },
    "autoencoder": {
        "learning_rate": [0.001, 0.01, 0.1],
        "units": [4, 8, 16, 32, 64, 128],
        "bottleneck": [2, 4, 8],
        "batch_size": [128, 256, 512],
        "epochs": [20, 50],
    },
}


@dataclass
class GridSearchResult:
    model_kind: str
    best_params: dict
    best_score: tuple
    rows: list = field(default_factory=list)  # one dict per candidate

    def save_csv(self, path):
        if not self.rows:
            raise DataError("empty grid result")
        names = sorted(self.best_params)
        score_cols = [k for k in self.rows[0] if k not in names]
        write_csv(path, names + score_cols,
                  [[row[k] for row in self.rows] for k in names + score_cols])


def _canonical_candidates(grid):
    if not isinstance(grid, dict):
        raise DataError("a grid must map parameter names to value lists")
    names = sorted(grid)
    lists = []
    for name in names:
        try:
            lists.append(sorted(grid[name]))
        except TypeError:
            raise DataError("grid parameter %r needs a list of numbers, got "
                            "%r" % (name, grid[name])) from None
    for combo in product(*lists):
        yield dict(zip(names, combo))


def _nn(v):
    return -math.inf if v is None else v


def _fitted_scores(model, train_x, val_x, **fit_args):
    """A classical candidate's threshold and validation scores."""
    model.fit(train_x, **fit_args)
    return model.threshold, model.scores(val_x)


def _thresholded_scores(kind, models, train_x, val_x):
    """Every classical candidate's (threshold, validation scores), in
    candidate order. Each distinct fit is one job of run_all, and what the
    candidates share is made here before any job is dealt.

    LOF's contamination only sets the threshold over the training LOF
    values, so LOF candidates of one k share a fit and its validation
    scores. Those fits only read one neighbour pass of the training rows
    and one of the validation rows, for every k, and are made here. A
    DBSCAN candidate's threshold is its eps and its scores are the
    distances to its core points, the training rows with ``counts[eps] >=
    min_pts`` in one count pass for every eps, so candidates with one core
    mask share a fit and its validation scores.
    """
    if kind == "iforest":
        return run_all([functools.partial(_fitted_scores, model, train_x,
                                          val_x) for model in models])
    if kind == "lof":
        ks = [model.k for model in models]
        fit = NeighbourPass(train_x, train_x, ks=ks, self_excluded=True)
        val = NeighbourPass(val_x, train_x, ks=ks)
        by_k = {}
        for model in models:
            if model.k not in by_k:
                model.fit(train_x, neighbours=fit)
                by_k[model.k] = (model.train_lof,
                                 model.scores(val_x, neighbours=val))
        return [(contamination_threshold(by_k[model.k][0],
                                         model.contamination),
                 by_k[model.k][1]) for model in models]
    counts = NeighbourPass(train_x, train_x,
                           radii=sorted({model.eps for model in models}))
    cores = [(counts.counts(model.eps) >= model.min_pts).tobytes()
             for model in models]
    first = {}
    for model, core in zip(models, cores):
        first.setdefault(core, model)
    fitted = dict(zip(first, run_all([
        functools.partial(_fitted_scores, model, train_x, val_x,
                          neighbours=counts) for model in first.values()])))
    return [(model.threshold, fitted[core][1])
            for model, core in zip(models, cores)]


def _score_classical(threshold, val_scores, val_y):
    """F1 outcome of one classical candidate."""
    m = compute_metrics(confusion(flag(val_scores, threshold), val_y))
    return (_nn(m["f1_score"]),), {"f1_score": m["f1_score"],
                                   "recall": m["recall"],
                                   "precision": m["precision"]}


def _score_autoencoder(model, train_cfg, train_x, val_x, val_y):
    train(model, train_x, train_cfg)
    sel = select_threshold(build_table(model.scores(val_x), val_y))
    m = sel.metrics
    return ((_nn(m["recall"]), _nn(m["precision"]), _nn(m["specificity"])),
            {"recall": m["recall"], "precision": m["precision"],
             "specificity": m["specificity"], "percentile": sel.percentile})


def grid_search(model_kind, grid, train_x, val_x, val_y, seed=0):
    """Exhaustive search over a candidate grid; returns GridSearchResult.

    ``train_x``: training matrix (normal rows only for the autoencoder).
    ``val_x``/``val_y``: labelled validation rows, both classes present for
    the autoencoder path. Every candidate is built, and so checked, before
    any is fitted.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    val_x = np.asarray(val_x, dtype=np.float64)
    val_y = np.asarray(val_y)

    candidates = [(params,) + build_model(model_kind, params,
                                          train_x.shape[1], seed)
                  for params in _canonical_candidates(grid)]
    if model_kind == "autoencoder":
        outcomes = run_all([
            functools.partial(_score_autoencoder, model, train_cfg, train_x,
                              val_x, val_y)
            for _, model, train_cfg in candidates])
    else:
        outcomes = [_score_classical(threshold, val_scores, val_y)
                    for threshold, val_scores in _thresholded_scores(
                        model_kind, [model for _, model, _ in candidates],
                        train_x, val_x)]
    best = None
    rows = []
    for (params, _, _), (score, detail) in zip(candidates, outcomes):
        rows.append({**params, **detail})
        if best is None or score > best[0]:
            best = (score, params)
    if best is None:
        raise DataError("empty grid")
    return GridSearchResult(model_kind, best[1], best[0], rows)
