"""Grid-search tests: exhaustive candidate coverage, canonical ordering,
tie handling, and scoring-path behaviour on a separable toy problem."""

import gc
import math
import os
import time
import weakref

import numpy as np
import pytest

from oracles import run_threshold
from telanom import detectors, tuning
from telanom.detectors import Dbscan, LocalOutlierFactor, NeighbourPass
from telanom.errors import DataError
from telanom.metrics import compute_metrics, confusion
from telanom.tuning import (DEFAULT_GRIDS, GridSearchResult,
                            _canonical_candidates, grid_search)


VAL_ANOMALIES = np.array([
    [8.0, 0, 0], [0, 8.0, 0], [0, 0, 8.0], [-8.0, 0, 0], [0, -8.0, 0],
    [0, 0, -8.0], [8.0, 8.0, 0], [0, 8.0, 8.0], [8.0, 0, 8.0],
    [-8.0, -8.0, 0], [0, -8.0, -8.0], [-8.0, 0, -8.0]])

TRAIN_ANOMALIES = np.array([
    [7.0, 7.0, 7.0], [-7.0, -7.0, 7.0], [7.0, -7.0, -7.0],
    [-7.0, 7.0, -7.0]])


def _toy_problem(seed=0):
    """Tight normal blob plus scattered far-out anomalies (label 0).

    The anomalies are mutually distant, so they never gather enough
    neighbours to become density cores of their own."""
    rng = np.random.default_rng(seed)
    train_n = rng.normal(0.0, 0.4, size=(150, 3))
    val_n = rng.normal(0.0, 0.4, size=(40, 3))
    train_x = np.vstack([train_n, TRAIN_ANOMALIES])
    val_x = np.vstack([val_n, VAL_ANOMALIES])
    val_y = np.concatenate([np.ones(40, dtype=int),
                            np.zeros(len(VAL_ANOMALIES), dtype=int)])
    return train_x, val_x, val_y, train_n, val_n


def test_candidate_order_is_canonical():
    grid = {"b": [3, 1], "a": [10, 5]}
    combos = list(_canonical_candidates(grid))
    assert combos == [{"a": 5, "b": 1}, {"a": 5, "b": 3},
                      {"a": 10, "b": 1}, {"a": 10, "b": 3}]


def test_evaluation_count_equals_grid_product():
    train_x, val_x, val_y, _, _ = _toy_problem()
    grid = {"eps": [0.5, 1.0, 2.0], "min_pts": [2, 4]}
    result = grid_search("dbscan", grid, train_x, val_x, val_y)
    assert len(result.rows) == 3 * 2
    seen = {(r["eps"], r["min_pts"]) for r in result.rows}
    assert seen == {(e, m) for e in grid["eps"] for m in grid["min_pts"]}


def test_result_independent_of_grid_list_order():
    train_x, val_x, val_y, _, _ = _toy_problem()
    g1 = {"eps": [0.5, 1.0, 2.0], "min_pts": [2, 4]}
    g2 = {"min_pts": [4, 2], "eps": [2.0, 0.5, 1.0]}
    r1 = grid_search("dbscan", g1, train_x, val_x, val_y)
    r2 = grid_search("dbscan", g2, train_x, val_x, val_y)
    assert r1.best_params == r2.best_params
    assert r1.best_score == r2.best_score
    assert r1.rows == r2.rows


def test_ties_keep_first_candidate_in_canonical_order():
    # both eps values separate the blobs perfectly, so scores tie and the
    # smaller eps (earlier in canonical order) must win
    train_x, val_x, val_y, _, _ = _toy_problem()
    grid = {"eps": [1.5, 2.0], "min_pts": [4]}
    result = grid_search("dbscan", grid, train_x, val_x, val_y)
    tied = {(r["eps"], r["f1_score"]) for r in result.rows}
    scores = {s for _, s in tied}
    assert len(scores) == 1, "fixture must produce a tie"
    assert result.best_params == {"eps": 1.5, "min_pts": 4}


def test_classical_best_beats_degenerate_candidate():
    train_x, val_x, val_y, _, _ = _toy_problem()
    grid = {"eps": [0.001, 1.5], "min_pts": [4]}
    result = grid_search("dbscan", grid, train_x, val_x, val_y)
    assert result.best_params["eps"] == 1.5
    assert result.best_score[0] == pytest.approx(1.0)


def test_none_metric_compares_as_minus_inf():
    train_x, val_x, val_y, _, _ = _toy_problem()
    # with a huge eps everything sits next to a core, nothing gets flagged,
    # precision is None, and that candidate must lose to the working one
    grid = {"eps": [1.5, 1e6], "min_pts": [4]}
    result = grid_search("dbscan", grid, train_x, val_x, val_y)
    assert result.best_params["eps"] == 1.5
    rows = {r["eps"]: r for r in result.rows}
    assert rows[1e6]["f1_score"] is None


def test_iforest_and_lof_paths_run():
    train_x, val_x, val_y, _, _ = _toy_problem()
    r_if = grid_search("iforest", {"contamination": [0.05],
                                   "n_estimators": [50]},
                       train_x, val_x, val_y, seed=3)
    assert set(r_if.best_params) == {"contamination", "n_estimators"}
    assert len(r_if.rows) == 1 and "f1_score" in r_if.rows[0]
    r_lof = grid_search("lof", {"k": [5, 10], "contamination": [0.1]},
                        train_x, val_x, val_y)
    assert len(r_lof.rows) == 2
    assert r_lof.best_score[0] >= max(_nn(r["f1_score"])
                                      for r in r_lof.rows) - 1e-12


def _nn(v):
    return float("-inf") if v is None else v


@pytest.mark.parametrize("kind,grid,message", [
    ("lof", {"kk": [5, 50]}, "no parameter 'kk'"),
    ("iforest", {"seed": [1]}, "no parameter 'seed'"),
    ("lof", {"k": ["5"]}, "k must be an integer, got '5'"),
    ("lof", {"k": [5.0]}, "k must be an integer, got 5.0"),
    ("lof", {"k": [5, "5"]}, "parameter 'k' needs a list of numbers"),
    ("dbscan", {"eps": 0.5}, "parameter 'eps' needs a list of numbers"),
    ("dbscan", {"min_pts": [True]}, "min_pts must be an integer"),
    ("iforest", {"contamination": [None]}, "contamination must be a number"),
    ("iforest", {"contamination": [0.1, math.inf]},
     "contamination must be finite, got inf"),
    ("lof", {"contamination": [math.nan]},
     "contamination must be finite, got nan"),
    ("dbscan", {"eps": [0.5, math.nan]}, "eps must be finite, got nan"),
])
def test_grid_rejects_unknown_parameters_and_bad_values(kind, grid, message):
    train_x, val_x, val_y, _, _ = _toy_problem()
    with pytest.raises(DataError, match=message):
        grid_search(kind, grid, train_x, val_x, val_y)


@pytest.mark.parametrize("params,message", [
    ({"learning_rate": None}, "learning_rate must be a number"),
    ({"learning_rate": -math.inf}, "learning_rate must be finite, got -inf"),
], ids=["learning-rate-none", "learning-rate-minus-inf"])
def test_autoencoder_parameters_are_checked_when_built(params, message):
    # run builds its autoencoder through build_model, which no grid reaches
    with pytest.raises(DataError, match=message):
        detectors.build_model("autoencoder", params, 3, 0)


def test_unknown_model_kind_rejected(monkeypatch):
    # a kind without a grid, the autoencoder too, is refused before any
    # candidate is built, let alone fitted
    def built(*args):
        raise AssertionError("a candidate was built")
    monkeypatch.setattr(tuning, "build_model", built)
    for kind in ("svm", "autoencoder"):
        with pytest.raises(DataError, match="no grid search for model %r"
                                            % kind):
            grid_search(kind, {"units": [4]}, np.ones((4, 2)),
                        np.ones((4, 2)), np.ones(4, dtype=int))


def test_default_grids_cover_all_models():
    assert DEFAULT_GRIDS == {
        "iforest": {"contamination": [0.001, 0.02, 0.05, 0.3],
                    "n_estimators": [100, 150, 200]},
        "lof": {"k": [5, 10, 20], "contamination": [0.01, 0.08, 0.1, 0.2]},
        "dbscan": {"eps": [0.5, 1.5, 2.0, 3.5, 5.0], "min_pts": [2, 4, 10]}}


def test_grid_result_csv(tmp_path):
    train_x, val_x, val_y, _, _ = _toy_problem()
    grid = {"eps": [1e-6, 1.5], "min_pts": [4]}
    result = grid_search("dbscan", grid, train_x, val_x, val_y)
    path = tmp_path / "grid.csv"
    result.save_csv(path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["eps", "min_pts"]
    assert len(lines) == 3
    with pytest.raises(DataError):
        GridSearchResult("dbscan", {}, (0.0,), []).save_csv(
            tmp_path / "empty.csv")


def _sweeps_against(monkeypatch, ref):
    """The query rows of every distance sweep made against ``ref``."""
    sweeps = []

    def counted(a, b, *rows, _fn=detectors._sq_dist_blocks):
        if b is ref:
            sweeps.append(a)
        return _fn(a, b, *rows)
    monkeypatch.setattr(detectors, "_sq_dist_blocks", counted)
    return sweeps


def test_lof_grid_reuses_fits_without_changing_rows(monkeypatch, cpus):
    # candidates of one k share a fit; every k comes from one sweep of the
    # training rows and one of the validation rows; each row must equal a
    # fresh fit. On one CPU, so that no call is made in a child, where
    # these lists do not see it
    cpus(1)
    train_x, val_x, val_y, _, _ = _toy_problem()
    grid = DEFAULT_GRIDS["lof"]
    calls = []
    for name in ("fit", "scores"):
        def counted(self, rows, *args, _name=name,
                    _fn=getattr(LocalOutlierFactor, name), **kwargs):
            calls.append(_name)
            return _fn(self, rows, *args, **kwargs)
        monkeypatch.setattr(LocalOutlierFactor, name, counted)
    sweeps = _sweeps_against(monkeypatch, train_x)
    result = grid_search("lof", grid, train_x, val_x, val_y)
    assert sorted(calls) == ["fit"] * 3 + ["scores"] * 3
    assert [a is train_x for a in sweeps] == [True, False]
    assert sweeps[1] is val_x
    monkeypatch.undo()

    want = []
    for params in _canonical_candidates(grid):
        model = LocalOutlierFactor(**params).fit(train_x)
        model.threshold = run_threshold(model, train_x)
        m = compute_metrics(confusion(model.predict(val_x), val_y))
        want.append({**params, "f1_score": m["f1_score"],
                     "recall": m["recall"], "precision": m["precision"]})
    assert result.rows == want
    assert len({r["precision"] for r in want if r["k"] == 5}) > 1


def test_dbscan_grid_counts_once_per_eps_without_changing_rows(monkeypatch,
                                                              cpus):
    # one neighbour-count pass covers every eps of the grid; each row must
    # equal a fresh fit. On one CPU, as above
    cpus(1)
    train_x, val_x, val_y, _, _ = _toy_problem()
    grid = DEFAULT_GRIDS["dbscan"]
    passes = []

    def counted(self, *args, _fn=NeighbourPass.__init__, **kwargs):
        _fn(self, *args, **kwargs)
        passes.append(self.radii)
    monkeypatch.setattr(tuning.NeighbourPass, "__init__", counted)
    sweeps = _sweeps_against(monkeypatch, train_x)
    result = grid_search("dbscan", grid, train_x, val_x, val_y)
    assert passes == [sorted(grid["eps"])]
    assert len(sweeps) == 1
    monkeypatch.undo()

    want = []
    for params in _canonical_candidates(grid):
        model = Dbscan(**params).fit(train_x)
        m = compute_metrics(confusion(model.predict(val_x), val_y))
        want.append({**params, "f1_score": m["f1_score"],
                     "recall": m["recall"], "precision": m["precision"]})
    assert result.rows == want
    assert len({r["f1_score"] for r in want}) > 1


def test_dbscan_grid_shares_fits_and_scores_by_core_mask(monkeypatch, cpus):
    # candidates with one core mask share a fit and its validation scores.
    # On one CPU, as above
    cpus(1)
    train_x, val_x, val_y, _, _ = _toy_problem()
    grid = {"eps": [0.05, 0.5, 1.5, 2.0, 3.5], "min_pts": [1, 2, 4, 10]}
    calls = []
    for name in ("fit", "scores"):
        def counted(self, rows, *args, _name=name, _fn=getattr(Dbscan, name),
                    **kwargs):
            calls.append((_name, self.eps, self.min_pts))
            return _fn(self, rows, *args, **kwargs)
        monkeypatch.setattr(Dbscan, name, counted)
    result = grid_search("dbscan", grid, train_x, val_x, val_y)
    monkeypatch.undo()

    counts = NeighbourPass(train_x, train_x, radii=grid["eps"])
    masks = {(eps, m): (counts.counts(eps) >= m).tobytes()
             for eps in grid["eps"] for m in grid["min_pts"]}
    first = list(dict.fromkeys(masks[p["eps"], p["min_pts"]]
                               for p in _canonical_candidates(grid)))
    assert len(first) < len(masks)
    for name in ("fit", "scores"):
        assert [masks[c[1:]] for c in calls if c[0] == name] == first

    want = []
    for params in _canonical_candidates(grid):
        model = Dbscan(**params).fit(train_x)
        m = compute_metrics(confusion(model.predict(val_x), val_y))
        want.append({**params, "f1_score": m["f1_score"],
                     "recall": m["recall"], "precision": m["precision"]})
    assert result.rows == want


@pytest.mark.parametrize("kind,grid", [
    ("iforest", {"contamination": [0.02, 0.05], "n_estimators": [20, 40],
                 "subsample": [64, 256]}),
    ("lof", DEFAULT_GRIDS["lof"]),
    ("dbscan", {"eps": [0.05, 0.5, 1.5, 2.0, 3.5], "min_pts": [1, 2, 4, 10]}),
])
def test_grids_dealt_across_cpus_give_the_rows_of_one(cpus, kind, grid):
    # each distinct fit is a job of run_all: on two CPUs half of them run in
    # a child process, and every row and the choice stay the same. The
    # forest candidates of one subsample share a fit, so the iforest grid
    # has two subsamples
    train_x, val_x, val_y, _, _ = _toy_problem()
    results = []
    for n_cpus in (1, 2):
        forks = cpus(n_cpus)
        results.append(grid_search(kind, grid, train_x, val_x, val_y,
                                   seed=4))
        # LOF's fits are made before any job is dealt
        assert len(forks) == (n_cpus - 1) * (kind != "lof")
    assert results[0].rows == results[1].rows
    assert results[0].best_params == results[1].best_params
    assert results[0].best_score == results[1].best_score


@pytest.mark.skipif(not hasattr(os, "fork")
                    or not hasattr(os, "sched_getaffinity"),
                    reason="a child process needs fork")
def test_a_failed_candidate_ends_the_grid_at_once(monkeypatch, cpus):
    # four DBSCAN fits, one per core mask: fits 0 and 2 are made here, 1
    # and 3 in a child. Fit 2's error is raised once fit 1 is done, and
    # the child is killed in fit 3
    train_x, val_x, val_y, _, _ = _toy_problem()
    grid = {"eps": [0.2, 0.3, 0.5, 1.0], "min_pts": [4]}
    counts = NeighbourPass(train_x, train_x, radii=grid["eps"])
    assert len({(counts.counts(eps) >= 4).tobytes()
                for eps in grid["eps"]}) == 4
    forks = cpus(2)

    def scores(build, train_x, val_x, **fit_args):
        model = build()[0]
        if model.eps == 0.5:
            raise RuntimeError("fit 2 failed")
        if model.eps == 1.0:
            time.sleep(60)
        return model.threshold, np.zeros(len(val_x))
    monkeypatch.setattr(tuning, "_fitted_scores", scores)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="fit 2 failed"):
        grid_search("dbscan", grid, train_x, val_x, val_y)
    assert time.monotonic() - t0 < 30
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("kind,grid", [
    ("iforest", {"n_estimators": [5, 10], "contamination": [0.05, 0.1],
                 "subsample": [64, 256]}),
    ("lof", {"k": [3, 5, 8], "contamination": [0.05, 0.1]}),
    ("dbscan", {"eps": [0.5, 1.0, 2.0], "min_pts": [2, 4]}),
])
def test_no_fitted_candidate_outlives_its_fit(monkeypatch, cpus, kind,
                                              grid):
    """A grid keeps each candidate's parameters and outcome, not its
    fitted model: when a fit starts, no model fitted before it is alive,
    and the rows are the same as ever. The forest candidates of one
    subsample share a fit, so the iforest grid has two subsamples."""
    cpus(1)
    train_x, val_x, val_y, _, _ = _toy_problem()
    want = grid_search(kind, grid, train_x, val_x, val_y)
    fitted, alive = [], []

    def watched(fit):
        def start(model, *args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in fitted))
            fitted.append(weakref.ref(model))
            return fit(model, *args, **kwargs)
        return start
    cls = type(detectors.build_model(kind, {}, 3, 0)[0])
    monkeypatch.setattr(cls, "fit", watched(cls.fit))
    got = grid_search(kind, grid, train_x, val_x, val_y)
    assert got == want
    assert len(alive) > 1 and not any(alive)


_TWO_SUBSAMPLES = {"n_estimators": [10, 25, 40], "contamination": [0.02, 0.1],
                   "subsample": [64, 256]}


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize("kind,grid", [
    ("iforest", DEFAULT_GRIDS["iforest"]),
    ("iforest", _TWO_SUBSAMPLES),
    ("lof", DEFAULT_GRIDS["lof"]),
    ("dbscan", DEFAULT_GRIDS["dbscan"]),
], ids=["iforest", "iforest-subsamples", "lof", "dbscan"])
def test_shared_fits_give_each_candidate_its_own_fit(cpus, kind, grid,
                                                     n_cpus):
    """Every candidate's threshold and validation scores are bit-identical
    to those of a fresh fit of its own, whatever the fits share."""
    train_x, val_x, val_y, _, _ = _toy_problem()
    candidates = list(_canonical_candidates(grid))
    builds = [lambda p=params: detectors.build_model(kind, p, 3, 4)
              for params in candidates]
    models = [build()[0] for build in builds]
    cpus(n_cpus)
    got = tuning._thresholded_scores(kind, models, builds, train_x, val_x)
    assert len(got) == len(candidates)
    for params, (threshold, scores) in zip(candidates, got):
        model = detectors.build_model(kind, params, 3, 4)[0].fit(train_x)
        assert threshold == run_threshold(model, train_x), params
        assert scores.tobytes() == model.scores(val_x).tobytes(), params


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_dbscan_grid_never_clusters(monkeypatch, cpus, n_cpus):
    # a candidate is ranked on its core points only, so no fit clusters,
    # here or in a child
    train_x, val_x, val_y, _, _ = _toy_problem()
    want = grid_search("dbscan", DEFAULT_GRIDS["dbscan"], train_x, val_x,
                       val_y)

    def cluster(self):
        raise AssertionError("a grid candidate clustered")
    monkeypatch.setattr(Dbscan, "cluster", cluster)
    cpus(n_cpus)
    got = grid_search("dbscan", DEFAULT_GRIDS["dbscan"], train_x, val_x,
                      val_y)
    assert got == want


@pytest.mark.parametrize("grid,trees", [
    (DEFAULT_GRIDS["iforest"], 200),
    (_TWO_SUBSAMPLES, 2 * 40),
    ({"n_estimators": [7], "contamination": [0.1, 0.2]}, 7),
])
def test_forest_grid_grows_each_distinct_tree_once(monkeypatch, cpus, grid,
                                                   trees):
    # candidates of one subsample share one forest of their most trees. On
    # one CPU, so that no tree is grown in a child, where the count does
    # not see it
    cpus(1)
    train_x, val_x, val_y, _, _ = _toy_problem()
    grown = []

    def counted(self, *args, _fn=detectors.IsolationForest._build_tree):
        grown.append(self.subsample)
        return _fn(self, *args)
    monkeypatch.setattr(detectors.IsolationForest, "_build_tree", counted)
    grid_search("iforest", grid, train_x, val_x, val_y)
    assert len(grown) == trees
