"""Deterministic hyperparameter grid search.

Grids are explicit candidate lists per parameter. Candidates are evaluated
in canonical order (parameter names sorted, candidate values sorted), so the
result never depends on how the caller happened to order the lists; ties
keep the first candidate in canonical order.

Every candidate is built by detectors.build_model, as run builds its
models, so a parameter the grid leaves out takes run's default and an
unknown parameter or a bad value is a DataError that names it.

Grids serve the three classical detectors. Each candidate fits on the
training rows (labels unused) and is scored by F1 on the labelled
validation rows; an absent F1 compares as -inf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .child import run_all
from .detectors import NeighbourPass, build_model
from .errors import DataError
from .ingest import write_csv
from .metrics import confusion, compute_metrics
from .thresholding import contamination_threshold, flag

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


def _fitted(build, train_x, **fit_args):
    """The model ``build()`` makes, fitted."""
    model = build()[0]
    model.fit(train_x, **fit_args)
    return model


def _fitted_scores(build, train_x, val_x, **fit_args):
    """A classical candidate's threshold and validation scores."""
    model = _fitted(build, train_x, **fit_args)
    return model.threshold, model.scores(val_x)


def _forest_scores(build, reads, train_x, val_x):
    """The (threshold, validation scores) of the forest candidates of one
    subsample, a pair for each (n_estimators, contamination) of ``reads``,
    from one fit: ``build()`` makes the candidate with the most trees, and
    the first t of its trees are a t-tree candidate's. One walk of the
    training rows and one of the validation rows serve every t."""
    model = _fitted(build, train_x)
    sizes = sorted({t for t, _ in reads})
    train = dict(zip(sizes, model.prefix_scores(train_x, sizes)))
    val = dict(zip(sizes, model.prefix_scores(val_x, sizes)))
    return [(contamination_threshold(train[t], contamination), val[t])
            for t, contamination in reads]


def _lof_scores(build, train_x, val_x, fit, val):
    """A LOF candidate's training LOF values and validation scores, read
    off the neighbour passes ``fit`` and ``val``."""
    model = _fitted(build, train_x, neighbours=fit)
    return model.train_lof, model.scores(val_x, neighbours=val)


def _thresholded_scores(kind, models, builds, train_x, val_x):
    """Every classical candidate's (threshold, validation scores), in
    candidate order. ``models`` are the unfitted candidates, and
    ``builds[i]()`` makes candidate i again for its fit, so that no fitted
    model outlives the scores taken from it. Each distinct fit is made
    once, as one job of run_all, and what the candidates share is made
    here before any job is dealt. A fit computes only what the candidates
    are ranked on.

    Isolation-forest candidates of one subsample share one forest, grown
    to their most trees from the grid's one seed: a candidate's threshold
    and scores are read off its first n_estimators trees, and its
    contamination only sets the threshold over the training scores. LOF's
    contamination only sets the threshold over the training LOF values, so
    LOF candidates of one k share a fit and its validation scores. Those
    fits only read one neighbour pass of the training rows and one of the
    validation rows, for every k, and are made here. A DBSCAN candidate's
    threshold is its eps and its scores are the distances to its core
    points, the training rows with ``counts[eps] >= min_pts`` in one count
    pass for every eps, so candidates with one core mask share a fit and
    its validation scores; no fit clusters.
    """
    if kind == "iforest":
        groups = {}
        for i, model in enumerate(models):
            groups.setdefault(model.subsample, []).append(i)
        groups = list(groups.values())
        outcomes = run_all([functools.partial(
            _forest_scores,
            builds[max(group, key=lambda i: models[i].n_estimators)],
            [(models[i].n_estimators, models[i].contamination)
             for i in group], train_x, val_x) for group in groups])
        scored = {i: pair for group, outcome in zip(groups, outcomes)
                  for i, pair in zip(group, outcome)}
        return [scored[i] for i in range(len(models))]
    if kind == "lof":
        ks = [model.k for model in models]
        fit = NeighbourPass(train_x, train_x, ks=ks, self_excluded=True)
        val = NeighbourPass(val_x, train_x, ks=ks)
        by_k = {}
        for model, build in zip(models, builds):
            if model.k not in by_k:
                by_k[model.k] = _lof_scores(build, train_x, val_x, fit, val)
        return [(contamination_threshold(by_k[model.k][0],
                                         model.contamination),
                 by_k[model.k][1]) for model in models]
    counts = NeighbourPass(train_x, train_x,
                           radii=sorted({model.eps for model in models}))
    cores = [(counts.counts(model.eps) >= model.min_pts).tobytes()
             for model in models]
    first = {}
    for build, core in zip(builds, cores):
        first.setdefault(core, build)
    fitted = dict(zip(first, run_all([
        functools.partial(_fitted_scores, build, train_x, val_x,
                          neighbours=counts) for build in first.values()])))
    return [(model.threshold, fitted[core][1])
            for model, core in zip(models, cores)]


def _score_classical(threshold, val_scores, val_y):
    """F1 outcome of one classical candidate."""
    m = compute_metrics(confusion(flag(val_scores, threshold), val_y))
    f1 = m["f1_score"]
    return (-math.inf if f1 is None else f1,), {
        "f1_score": f1, "recall": m["recall"], "precision": m["precision"]}


def grid_search(model_kind, grid, train_x, val_x, val_y, seed=0):
    """Exhaustive search over a candidate grid; returns GridSearchResult.

    ``model_kind`` is one of DEFAULT_GRIDS' kinds; ``train_x`` is the
    training matrix and ``val_x``/``val_y`` the labelled validation rows.
    Every candidate is built, and so checked, before any is fitted; each
    fit builds its candidate again, so that only a candidate's parameters
    and outcome outlive its fit.
    """
    if model_kind not in DEFAULT_GRIDS:
        raise DataError("no grid search for model %r; choose from %s"
                        % (model_kind, ", ".join(DEFAULT_GRIDS)))
    train_x = np.asarray(train_x, dtype=np.float64)
    val_x = np.asarray(val_x, dtype=np.float64)
    val_y = np.asarray(val_y)

    candidates = list(_canonical_candidates(grid))
    builds = [functools.partial(build_model, model_kind, params,
                                train_x.shape[1], seed)
              for params in candidates]
    models = [build()[0] for build in builds]
    outcomes = [_score_classical(threshold, val_scores, val_y)
                for threshold, val_scores in _thresholded_scores(
                    model_kind, models, builds, train_x, val_x)]
    best = None
    rows = []
    for params, (score, detail) in zip(candidates, outcomes):
        rows.append({**params, **detail})
        if best is None or score > best[0]:
            best = (score, params)
    if best is None:
        raise DataError("empty grid")
    return GridSearchResult(model_kind, best[1], best[0], rows)
