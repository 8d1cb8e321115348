import io
import itertools
import json
import math
import os
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from oracles import (brute_force_lof, isolation_mean_depths,
                     lof_neighbourhoods, reference_dbscan,
                     rng_isolation_trees, same_partition)
from scipy.spatial.distance import cdist
from telanom import detectors
from telanom.detectors import (MODEL_KINDS, Dbscan, IsolationForest,
                               LocalOutlierFactor, NeighbourPass,
                               expected_path_length, harmonic, load_model,
                               save_model, scores_from_mean_depths)
from telanom.errors import DataError
from telanom.pipeline import RunConfig, prepare_training
from telanom.thresholding import (contamination_threshold, contamination_top,
                                  flag)


# -- shared helpers ----------------------------------------------------------


def _blobs(rng, n, d=11, centers=3, spread=0.5, box=10.0):
    mus = rng.uniform(-box, box, size=(centers, d))
    assign = rng.integers(0, centers, size=n)
    return mus[assign] + rng.normal(scale=spread, size=(n, d))


# -- isolation forest --------------------------------------------------------


def test_harmonic_numbers():
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0
    assert harmonic(10) == pytest.approx(sum(1.0 / k for k in range(1, 11)),
                                         rel=1e-15)
    big = 2_000_000
    assert harmonic(big) == pytest.approx(math.log(big) + 0.5772156649,
                                          rel=1e-9)


def test_expected_path_length():
    assert expected_path_length(0) == 0.0
    assert expected_path_length(1) == 0.0
    assert expected_path_length(2) == pytest.approx(2.0 * 1.0 - 1.0)
    # c(n) grows like 2 ln n
    assert expected_path_length(256) == pytest.approx(
        2.0 * harmonic(255) - 2.0 * 255.0 / 256.0, rel=1e-15)


def test_scores_from_mean_depths_range():
    s = scores_from_mean_depths(np.array([0.0, 5.0, 50.0]), 256)
    assert s[0] == 1.0                       # zero depth: maximally anomalous
    assert np.all(s > 0.0) and np.all(s <= 1.0)
    assert s[1] > s[2]                       # deeper is less anomalous


def test_iforest_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(0)
    x = _blobs(rng, 400)
    a = IsolationForest(n_estimators=25, seed=5).fit(x).scores(x)
    b = IsolationForest(n_estimators=25, seed=5).fit(x).scores(x)
    c = IsolationForest(n_estimators=25, seed=6).fit(x).scores(x)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_iforest_scores_in_unit_interval():
    rng = np.random.default_rng(1)
    x = _blobs(rng, 300)
    s = IsolationForest(n_estimators=50, seed=0).fit(x).scores(x)
    assert np.all(s > 0.0) and np.all(s <= 1.0)


def test_iforest_isolates_obvious_outlier():
    rng = np.random.default_rng(2)
    x = rng.normal(scale=0.3, size=(500, 11))
    outlier = np.full((1, 11), 9.0)
    # contamination must budget at least one training row: at 0.01 the
    # threshold sits below the top ~1% of train scores
    model = IsolationForest(n_estimators=100, contamination=0.01,
                            seed=0).fit(np.vstack([x, outlier]))
    s_in = model.scores(x)
    s_out = model.scores(outlier)
    assert s_out[0] > s_in.max()
    assert model.predict(outlier)[0] == 0


def test_iforest_contamination_sets_flag_rate():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1000, 11))
    model = IsolationForest(n_estimators=50, contamination=0.1, seed=1).fit(x)
    flagged = (model.predict(x) == 0).sum()
    # strictly-above nearest-rank threshold flags at most the contamination
    # share, and nearly exactly it for continuous scores
    assert flagged <= 100
    assert flagged >= 80


def test_iforest_height_cap():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(600, 11))
    model = IsolationForest(n_estimators=20, subsample=256, seed=0).fit(x)
    cap = math.ceil(math.log2(model.sample_size))

    def max_depth(tree, node=0, depth=0):
        if tree["feature"][node] < 0:
            return depth
        return max(max_depth(tree, tree["left"][node], depth + 1),
                   max_depth(tree, tree["right"][node], depth + 1))

    assert max(max_depth(t) for t in model.trees) <= cap


def test_iforest_duplicating_inliers_does_not_mask_outlier():
    # with full-data trees, duplicates change no node's [min, max] span, so
    # the outlier's expected isolation depth must not grow (statistical)
    rng = np.random.default_rng(5)
    inliers = rng.normal(scale=0.2, size=(300, 4))
    outlier = np.full((1, 4), 8.0)
    base = np.vstack([inliers, outlier])
    dup = np.vstack([inliers, inliers, outlier])
    m1 = IsolationForest(n_estimators=300, subsample=len(base),
                         seed=7).fit(base)
    m2 = IsolationForest(n_estimators=300, subsample=len(dup),
                         seed=7).fit(dup)
    d1 = m1.mean_depths(outlier)[0]
    d2 = m2.mean_depths(outlier)[0]
    assert d2 <= d1 + 0.25


def test_iforest_json_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    x = _blobs(rng, 200)
    model = IsolationForest(n_estimators=10, seed=3).fit(x)
    path = str(tmp_path / "if.json")
    save_model(model, path)
    back = load_model(path)
    assert isinstance(back, IsolationForest)
    assert np.array_equal(back.scores(x), model.scores(x))
    assert np.array_equal(back.predict(x), model.predict(x))


def test_iforest_validation():
    with pytest.raises(DataError):
        IsolationForest(n_estimators=0)
    with pytest.raises(DataError):
        IsolationForest(contamination=0.0)
    with pytest.raises(DataError):
        IsolationForest().fit(np.zeros((1, 3)))
    with pytest.raises(DataError):
        IsolationForest().predict(np.zeros((2, 3)))


def _on_thresholds(model, x):
    """Rows of ``x`` with one feature set exactly to a split threshold, one
    row for every internal node of the first trees."""
    rows = []
    for tree in model.trees[:3]:
        for node, f in enumerate(tree["feature"]):
            if f >= 0:
                row = x[node % len(x)].copy()
                row[f] = tree["threshold"][node]
                rows.append(row)
    return np.array(rows)


def _forest_cases():
    rng = np.random.default_rng(40)
    x = _blobs(rng, 150, d=4, spread=0.6, box=3.0)
    q = _blobs(np.random.default_rng(41), 60, d=4, spread=2.0, box=6.0)
    odd = np.array([[np.nan] * 4, [np.nan, 0.0, 0.0, 0.0],
                    [np.inf, -np.inf, 0.0, 0.0], [1e300, -1e300, 0.0, 0.0]])
    yield "default", IsolationForest(n_estimators=30, seed=2).fit(x), q
    model = IsolationForest(n_estimators=30, seed=3).fit(x)
    yield "on thresholds", model, _on_thresholds(model, x)
    yield "nan and inf", model, odd
    yield "one estimator", IsolationForest(n_estimators=1, seed=4).fit(x), q
    yield "subsample 2", IsolationForest(n_estimators=20, subsample=2,
                                         seed=5).fit(x), q
    yield "constant data", IsolationForest(n_estimators=5, seed=6).fit(
        np.ones((20, 3))), np.vstack([np.ones((2, 3)), q[:3, :3]])
    yield "no rows", model, np.empty((0, 4))
    yield "one row", model, q[:1]


@pytest.mark.parametrize("case", list(_forest_cases()), ids=lambda c: c[0])
def test_iforest_mean_depths_match_oracle(case):
    _, model, q = case
    assert np.array_equal(model.mean_depths(q),
                          isolation_mean_depths(model.trees, q))


def test_iforest_constant_data_trees_are_root_leaves():
    model = IsolationForest(n_estimators=5, seed=6).fit(np.ones((20, 3)))
    assert all(t["feature"] == [-1] for t in model.trees)
    assert np.all(model.mean_depths(np.zeros((4, 3)))
                  == expected_path_length(20))


def test_iforest_loaded_model_matches_oracle(tmp_path):
    rng = np.random.default_rng(42)
    x = _blobs(rng, 200, d=5)
    q = np.vstack([_blobs(rng, 40, d=5, box=15.0), [[np.nan] * 5]])
    path = str(tmp_path / "if.json")
    save_model(IsolationForest(n_estimators=15, seed=7).fit(x), path)
    back = load_model(path)
    assert np.array_equal(back.mean_depths(q),
                          isolation_mean_depths(back.trees, q))


def test_iforest_scores_do_not_depend_on_batching(monkeypatch):
    # every row takes the same path and sums its trees in the same order,
    # whatever block it is scored in
    rng = np.random.default_rng(43)
    x = _blobs(rng, 300, d=6)
    q = np.vstack([_blobs(rng, 50, d=6, box=15.0), x[:20]])
    model = IsolationForest(n_estimators=40, seed=8).fit(x)
    whole = model.scores(q)
    one_by_one = np.concatenate([model.scores(q[i:i + 1])
                                 for i in range(len(q))])
    assert np.array_equal(whole, one_by_one)
    for rows in (1, 7):
        monkeypatch.setattr(detectors, "_FOREST_BLOCK_ROWS", rows)
        assert np.array_equal(model.scores(q), whole)


def _fitted_with_rng(monkeypatch, model, x):
    """``model`` fitted on ``x``, and the generator its fit drew from."""
    made, real = [], np.random.default_rng

    def recorded(seed):
        made.append(real(seed))
        return made[-1]
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", recorded)
        model.fit(x)
    assert len(made) == 1
    return model, made[0]


def _assert_oracle_trees(monkeypatch, x, n_estimators=10, subsample=256,
                         seed=0):
    model, rng = _fitted_with_rng(monkeypatch, IsolationForest(
        n_estimators=n_estimators, subsample=subsample, seed=seed), x)
    trees, state = rng_isolation_trees(x, n_estimators, subsample, seed)
    assert model.trees == trees
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("seed", range(50))
def test_iforest_trees_match_the_rng_calling_builder(monkeypatch, seed):
    """The replayed draws grow the trees the generator's own calls grow,
    and leave the generator in the same state."""
    rng = np.random.default_rng(70 + seed)
    x = _blobs(rng, int(rng.integers(40, 400)), d=int(rng.integers(1, 12)))
    _assert_oracle_trees(monkeypatch, x, n_estimators=8,
                         subsample=int(rng.integers(2, 300)), seed=seed)


def _odd_columns(rng, n):
    x = _blobs(rng, n, d=5, spread=0.6, box=3.0)
    x[:, 1] = 2.5                            # a constant column
    x[n // 2:, 3] = x[:n - n // 2, 3]        # repeated values
    if n > 2:
        x[1::3] = x[0]                       # duplicate rows
    return x


@pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 39_000])
def test_iforest_trees_match_the_rng_calling_builder_on_odd_rows(
        monkeypatch, n):
    rng = np.random.default_rng(90 + n)
    x = _odd_columns(rng, n)
    _assert_oracle_trees(monkeypatch, x, n_estimators=100 if n > 300 else 20,
                         seed=n)
    x[:, 2] = np.nan                         # a NaN column is never split
    _assert_oracle_trees(monkeypatch, x, seed=n + 1)


def test_iforest_constant_rows_match_the_rng_calling_builder(monkeypatch):
    x = np.ones((50, 3))
    _assert_oracle_trees(monkeypatch, x, seed=3)


def _interleaved(rng, draws, ms, n, seed):
    """``n`` integer and uniform draws, in an order and with bounds taken
    from ``seed``, through ``draws`` (a Generator or a _Draws)."""
    plan = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        if plan.random() < 0.5:
            out.append(int(draws.integers(int(plan.choice(ms)))
                           if draws is rng else
                           draws.integer(int(plan.choice(ms)))))
        else:
            lo, hi = np.sort(plan.normal(scale=10.0, size=2))
            out.append(float(draws.uniform(lo, hi)))
    return out


@pytest.mark.parametrize("ms", [
    [1],
    [1, 2, 3, 5, 11],
    [1, 3 * 2 ** 30],                 # a quarter of draws are rejected
    [2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32, 7]])
@pytest.mark.parametrize("half", [False, True], ids=["fresh", "half-kept"])
def test_replayed_draws_match_the_generator(ms, half):
    """_Draws gives Generator.integers(m) and .uniform(lo, hi), interleaved,
    and leaves the generator as those calls do, also when it starts with
    a 32-bit half kept by rng.choice."""
    for seed in range(10):
        want, got = np.random.default_rng(seed), np.random.default_rng(seed)
        if half:
            for rng in (want, got):
                rng.choice(1000, size=7, replace=False)
            assert got.bit_generator.state["has_uint32"] == 1
        expected = _interleaved(want, want, ms, 600, 100 + seed)
        with detectors._Draws(got) as draws:
            drawn = _interleaved(got, draws, ms, 600, 100 + seed)
        assert drawn == expected
        assert got.bit_generator.state == want.bit_generator.state
        assert got.integers(2 ** 40) == want.integers(2 ** 40)


def test_replayed_uniform_refuses_an_infinite_range():
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    for lo, hi in ((-np.inf, np.inf), (0.0, np.inf), (-1e308, 1e308)):
        with pytest.raises(OverflowError) as numpys:
            rng.uniform(lo, hi)
        with pytest.raises(OverflowError) as replayed:
            with detectors._Draws(rng) as draws:
                draws.uniform(lo, hi)
        assert str(replayed.value) == str(numpys.value)
    assert rng.bit_generator.state == state


# -- local outlier factor ----------------------------------------------------


def test_lof_matches_brute_force_oracle():
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(30, 200))
        train = _blobs(rng, n, d=int(rng.integers(2, 12)))
        queries = train[rng.integers(0, n, size=10)] + rng.normal(
            scale=0.01, size=(10, train.shape[1]))
        k = int(rng.integers(1, 8))
        model = LocalOutlierFactor(k=k).fit(train)
        want_train = brute_force_lof(train, None, k)
        # fit-time LOF of the training rows
        got_q = model.scores(queries)
        want_q = brute_force_lof(train, queries, k)
        assert np.allclose(model.train_lof, want_train, rtol=1e-9, atol=0)
        assert np.allclose(got_q, want_q, rtol=1e-9, atol=0)


def test_lof_handles_duplicates_with_cap():
    x = np.zeros((10, 3))
    x[8:] = 1.0
    model = LocalOutlierFactor(k=3, lrd_cap=1e12).fit(x)
    assert np.isfinite(model.train_lof).all()
    assert np.isfinite(model.scores(np.zeros((1, 3)))).all()


def test_lof_ties_included_in_neighbourhood():
    # a point with k-th distance shared by several neighbours must use all
    grid = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                     [0.0, -1.0], [3.0, 0.0], [0.0, 3.0], [5.0, 5.0],
                     [4.0, 5.0], [5.0, 4.0]])
    model = LocalOutlierFactor(k=2).fit(grid)
    want = brute_force_lof(grid, None, 2)
    assert np.allclose(model.train_lof, want, rtol=1e-12, atol=0)


def test_lof_flags_outlier():
    rng = np.random.default_rng(21)
    train = rng.normal(scale=0.3, size=(300, 5))
    model = LocalOutlierFactor(k=5, contamination=0.01).fit(train)
    far = np.full((1, 5), 7.0)
    near = train[:5]
    assert model.scores(far)[0] > model.scores(near).max()
    assert model.predict(far)[0] == 0
    assert np.all(model.predict(near) == 1)


def test_lof_json_round_trip(tmp_path):
    rng = np.random.default_rng(22)
    x = _blobs(rng, 150, d=5)
    model = LocalOutlierFactor(k=4).fit(x)
    path = str(tmp_path / "lof.json")
    save_model(model, path)
    back = load_model(path)
    q = _blobs(np.random.default_rng(23), 20, d=5)
    assert np.array_equal(back.scores(q), model.scores(q))
    assert back.threshold == model.threshold


def test_lof_validation():
    with pytest.raises(DataError):
        LocalOutlierFactor(k=0)
    with pytest.raises(DataError):
        LocalOutlierFactor(contamination=1.5)
    with pytest.raises(DataError):
        LocalOutlierFactor(k=5).fit(np.zeros((5, 2)))   # need > k rows
    with pytest.raises(DataError):
        LocalOutlierFactor().scores(np.zeros((2, 2)))


# -- dbscan ------------------------------------------------------------------


def test_dbscan_matches_reference_partition():
    rng = np.random.default_rng(30)
    for _ in range(20):
        n = int(rng.integers(20, 150))
        x = _blobs(rng, n, d=int(rng.integers(2, 6)), spread=0.8, box=5.0)
        eps = float(rng.uniform(0.5, 2.0))
        min_pts = int(rng.integers(2, 8))
        model = Dbscan(eps=eps, min_pts=min_pts).fit(x)
        want = reference_dbscan(x, eps, min_pts)
        assert same_partition(model.labels_, want)


def test_dbscan_permutation_invariant_partition():
    rng = np.random.default_rng(31)
    x = _blobs(rng, 120, d=3, spread=0.6, box=4.0)
    model = Dbscan(eps=1.0, min_pts=4).fit(x)
    perm = rng.permutation(len(x))
    model_p = Dbscan(eps=1.0, min_pts=4).fit(x[perm])
    assert same_partition(model.labels_[perm], model_p.labels_)


def test_dbscan_min_pts_counts_self():
    # two points eps apart: with min_pts=2 both are cores of one cluster
    x = np.array([[0.0, 0.0], [0.4, 0.0], [9.0, 9.0]])
    model = Dbscan(eps=0.5, min_pts=2).fit(x)
    assert model.labels_[0] == model.labels_[1] != Dbscan.NOISE
    assert model.labels_[2] == Dbscan.NOISE
    # min_pts=1 makes even the singleton a core of its own cluster
    model1 = Dbscan(eps=0.5, min_pts=1).fit(x)
    assert model1.labels_[2] != Dbscan.NOISE
    assert model1.n_clusters == 2


def test_dbscan_border_goes_to_nearest_core():
    # chain clusters: the bridge point sees one core on each side but only
    # 3 neighbours total, so it stays non-core and must join the nearer core
    left = np.array([[0.0, 0.0], [-1.0, 0.0], [-2.0, 0.0], [-0.5, 0.3]])
    right = np.array([[2.0, 0.0], [3.0, 0.0], [4.0, 0.0], [2.5, 0.3]])
    border = np.array([[0.9, 0.0]])           # 0.9 from left, 1.1 from right
    x = np.vstack([left, right, border])
    model = Dbscan(eps=1.2, min_pts=4).fit(x)
    assert model.labels_[8] != -1
    assert model.labels_[8] == model.labels_[0]
    assert model.labels_[0] != model.labels_[4]


def test_dbscan_two_blobs_and_noise():
    rng = np.random.default_rng(32)
    a = rng.normal(loc=0.0, scale=0.2, size=(40, 2))
    b = rng.normal(loc=8.0, scale=0.2, size=(40, 2))
    lone = np.array([[4.0, 4.0]])
    x = np.vstack([a, b, lone])
    model = Dbscan(eps=1.0, min_pts=5).fit(x)
    assert model.n_clusters == 2
    assert model.labels_[80] == Dbscan.NOISE
    assert len(set(model.labels_[:40])) == 1
    assert len(set(model.labels_[40:80])) == 1
    # prediction: near a blob is normal, far from both is anomalous
    assert model.predict(np.array([[0.1, 0.1]]))[0] == 1
    assert model.predict(np.array([[4.0, 4.0]]))[0] == 0
    s = model.scores(np.array([[0.0, 0.0], [4.0, 4.0]]))
    assert s[0] < s[1]


def test_dbscan_no_cores():
    x = np.array([[0.0, 0.0], [5.0, 5.0]])
    model = Dbscan(eps=0.5, min_pts=3).fit(x)
    assert model.n_clusters == 0
    assert np.all(model.labels_ == Dbscan.NOISE)
    assert np.all(np.isinf(model.scores(x)))
    assert np.all(model.predict(x) == 0)


def test_dbscan_json_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    x = _blobs(rng, 100, d=4, spread=0.5, box=3.0)
    model = Dbscan(eps=1.0, min_pts=4).fit(x)
    path = str(tmp_path / "db.json")
    save_model(model, path)
    back = load_model(path)
    q = _blobs(np.random.default_rng(34), 30, d=4, spread=1.5, box=6.0)
    assert np.array_equal(back.scores(q), model.scores(q))
    assert np.array_equal(back.predict(q), model.predict(q))


_CLUSTER_READS = ("labels_", "core_labels", "n_clusters")


@pytest.mark.parametrize("order", list(itertools.permutations(
    _CLUSTER_READS)), ids="-".join)
def test_dbscan_clusters_are_made_on_first_read(order, tmp_path):
    """Scoring needs no clusters. Read in any order, before or after
    scoring and after a save and a load, the clusters are the ones fit
    made when it clustered at once; the fit rows go once they are made."""
    rng = np.random.default_rng(36)
    x = _blobs(rng, 150, d=3, spread=0.6, box=4.0)
    x[:40:2] = x[1:40:2]                       # duplicate rows
    q = _blobs(rng, 20, d=3, spread=1.0, box=5.0)
    for eps, min_pts in ((1.0, 4), (0.3, 3), (0.05, 2), (0.05, 3)):
        core_labels, labels, n_clusters = oracles.eager_dbscan(x, eps,
                                                               min_pts)
        want = {"labels_": labels, "core_labels": core_labels,
                "n_clusters": n_clusters}
        model = Dbscan(eps=eps, min_pts=min_pts).fit(x)
        scores = model.scores(q)
        assert model._unclustered is not None
        for name in order:
            got = getattr(model, name)
            assert np.asarray(got).dtype == np.asarray(want[name]).dtype
            assert np.array_equal(got, want[name]), name
            assert model._unclustered is None
        assert np.array_equal(model.scores(q), scores)
        path = str(tmp_path / "db.json")
        save_model(model, path)
        back = load_model(path)
        assert back.labels_ is None
        assert np.array_equal(back.core_labels, core_labels)
        assert back.n_clusters == n_clusters
        assert np.array_equal(back.scores(q), scores)


def test_unclustered_dbscan_saves_its_clusters(tmp_path):
    # save_model reads the clusters of a model that never made them
    x = _blobs(np.random.default_rng(37), 100, d=4, spread=0.5, box=3.0)
    fresh = Dbscan(eps=1.0, min_pts=4).fit(x)
    clustered = Dbscan(eps=1.0, min_pts=4).fit(x).cluster()
    save_model(fresh, str(tmp_path / "fresh.json"))
    save_model(clustered, str(tmp_path / "clustered.json"))
    assert ((tmp_path / "fresh.json").read_bytes()
            == (tmp_path / "clustered.json").read_bytes())
    assert oracles.eager_dbscan(x, 1.0, 4)[2] == load_model(
        str(tmp_path / "fresh.json")).n_clusters > 1


def test_dbscan_validation():
    with pytest.raises(DataError):
        Dbscan(eps=0.0)
    with pytest.raises(DataError):
        Dbscan(min_pts=0)
    with pytest.raises(DataError):
        Dbscan().scores(np.zeros((2, 2)))


def test_load_model_unknown_kind(tmp_path):
    path = tmp_path / "weird.json"
    path.write_text(json.dumps({"kind": "mystery"}) + "\n")
    with pytest.raises(DataError):
        load_model(str(path))


# -- distance blocks ---------------------------------------------------------


BLOCK = 8   # rows per distance block in the tests below


def _grid_rows(rng, n, d=3):
    """Integer points: squared distances are exact, so neighbourhood ties
    are the same in the detectors and in the oracles. Rows BLOCK - 1 and
    BLOCK are exact duplicates straddling the first block edge."""
    x = rng.integers(0, 4, size=(n, d)).astype(float)
    if n > BLOCK:
        x[BLOCK] = x[BLOCK - 1]
    return x


def _block_height(monkeypatch, rows, width):
    """Make the kernel stream ``rows`` rows at a time against a reference
    set of ``width`` rows."""
    monkeypatch.setattr(detectors, "_BLOCK_FLOATS", rows * width)
    monkeypatch.setattr(detectors, "_MIN_BLOCK_ROWS", 1)


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_lof_block_edges_match_oracle(monkeypatch, n):
    rng = np.random.default_rng(40 + n)
    train = _grid_rows(rng, n)
    _block_height(monkeypatch, BLOCK, n)
    for k in (1, 3):
        model = LocalOutlierFactor(k=k).fit(train)
        assert np.allclose(model.train_lof, brute_force_lof(train, None, k),
                           rtol=1e-12, atol=0)
        for m in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
            q = _grid_rows(rng, m)
            assert np.allclose(model.scores(q), brute_force_lof(train, q, k),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                               2 * BLOCK + 1])
def test_dbscan_block_edges_match_reference(monkeypatch, n):
    rng = np.random.default_rng(50 + n)
    x = _grid_rows(rng, n)
    _block_height(monkeypatch, BLOCK, n)
    for eps, min_pts in ((1.0, 2), (1.5, 3), (2.0, 1)):
        model = Dbscan(eps=eps, min_pts=min_pts).fit(x)
        assert same_partition(model.labels_, reference_dbscan(x, eps, min_pts))
        for m in (1, BLOCK + 1):
            q = _grid_rows(rng, m) + 0.5
            want = (cdist(q, model.core_points).min(axis=1)
                    if len(model.core_points) else np.full(m, np.inf))
            assert np.allclose(model.scores(q), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [1, BLOCK + 1, 2 * BLOCK + 1])
def test_neighbour_counts_covers_every_radius_in_one_sweep(monkeypatch, n):
    rng = np.random.default_rng(70 + n)
    x = _grid_rows(rng, n)
    _block_height(monkeypatch, BLOCK, n)
    radii = [3.0, 1.0, math.sqrt(2.0), 2.0, 0.5]   # unsorted, 2 on ties
    sweeps = []

    def counted(a, b, *rows, _fn=detectors._sq_dist_blocks):
        sweeps.append(a)
        return _fn(a, b, *rows)
    monkeypatch.setattr(detectors, "_sq_dist_blocks", counted)
    hood = NeighbourPass(x, x, radii=radii)
    d2 = cdist(x, x, "sqeuclidean")
    for r in radii:
        assert hood.counts(r).shape == (n,)
        assert np.array_equal(hood.counts(r), (d2 <= r * r).sum(axis=1))
    assert len(sweeps) == 1
    for r in radii:
        assert np.array_equal(hood.counts(r),
                              NeighbourPass(x, x, radii=[r]).counts(r))


# -- the shared neighbour pass ------------------------------------------------


def _same_hoods(got, want):
    return all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def _duplicated_blobs(rng, n, d):
    """Float rows with exact duplicates, some straddling block edges."""
    x = _blobs(rng, n, d=d, spread=0.3, box=2.0)
    x[1::5] = x[0:n - 1:5][:len(x[1::5])]
    x[BLOCK] = x[BLOCK - 1]
    return x


@pytest.mark.parametrize("n", [BLOCK + 1, 2 * BLOCK + 1, 40, 300])
@pytest.mark.parametrize("rows", [1, BLOCK, 64])
def test_neighbour_pass_equals_per_k_oracle(monkeypatch, n, rows):
    # every k and every radius of one pass, bit for bit against one sweep
    # per k that takes roots before selecting, at several block heights
    rng = np.random.default_rng(90 + n)
    ks, radii = [1, 3, 5, 8], [0.25, 1.0]
    _block_height(monkeypatch, rows, n)
    for x in (_grid_rows(rng, n), _duplicated_blobs(rng, n, d=3)):
        q = np.vstack([x[::3], _grid_rows(rng, 7) / 2.0])
        fit = NeighbourPass(x, x, ks=ks, radii=radii, self_excluded=True)
        query = NeighbourPass(q, x, ks=ks)
        for k in ks:
            assert _same_hoods(fit.neighbourhood(k),
                               lof_neighbourhoods(x, x, k, True))
            assert _same_hoods(query.neighbourhood(k),
                               lof_neighbourhoods(q, x, k, False))
        counts = NeighbourPass(x, x, radii=radii)
        for r in radii:
            assert np.array_equal(fit.counts(r), counts.counts(r))


def _same_root_pair():
    """Doubles a < b, b the next one up, with one rounded square root."""
    a = 2.0
    while math.sqrt(np.nextafter(a, np.inf)) != math.sqrt(a):
        a = np.nextafter(a, np.inf)
    return a, np.nextafter(a, np.inf)


def test_neighbour_pass_keeps_entries_one_ulp_above_the_k_distance(
        monkeypatch):
    # a d2 one double above the k-th smallest has the same root, so it is
    # in the tie-inclusive neighbourhood; a test on d2 <= kd2 would drop it
    a, b = _same_root_pair()
    c = np.nextafter(b, np.inf)
    while math.sqrt(c) == math.sqrt(b):
        c = np.nextafter(c, np.inf)
    block = np.array([[0.5, a, b, c, 9.0],
                      [b, a, 9.0, c, a]])

    def fixed_blocks(q, x, start=0, stop=None):
        yield 0, len(q), block.copy()
    monkeypatch.setattr(detectors, "_sq_dist_blocks", fixed_blocks)
    monkeypatch.setattr(oracles, "_sq_dist_blocks", fixed_blocks)
    q, x = np.zeros((2, 1)), np.zeros((5, 1))
    got = NeighbourPass(q, x, ks=[2]).neighbourhood(2)
    assert _same_hoods(got, lof_neighbourhoods(q, x, 2, False))
    kdist, ids, dists, sizes = got
    assert kdist.tolist() == [math.sqrt(a)] * 2
    assert sizes.tolist() == [3, 3]
    assert ids.tolist() == [0, 1, 2, 0, 1, 4]
    assert dists[2] == math.sqrt(b)


def test_lof_takes_precomputed_neighbourhoods():
    rng = np.random.default_rng(93)
    train = _duplicated_blobs(rng, 120, d=5)
    q = _blobs(rng, 30, d=5)
    shared = NeighbourPass(train, train, ks=[3, 7], radii=[1.0],
                           self_excluded=True)
    queries = NeighbourPass(q, train, ks=[3, 7])
    for k in (3, 7):
        alone = LocalOutlierFactor(k=k).fit(train)
        model = LocalOutlierFactor(k=k).fit(train, neighbours=shared)
        for a, b in ((model.kdist, alone.kdist), (model.lrd, alone.lrd),
                     (model.train_lof, alone.train_lof)):
            assert np.array_equal(a, b)
        assert model.threshold == alone.threshold
        assert np.array_equal(model.scores(q, neighbours=queries),
                              alone.scores(q))
    db = Dbscan(eps=1.0, min_pts=3)
    assert np.array_equal(db.fit(train, neighbours=shared).labels_,
                          Dbscan(eps=1.0, min_pts=3).fit(train).labels_)
    with pytest.raises(ValueError, match="k=5"):
        LocalOutlierFactor(k=5).fit(train, neighbours=shared)
    with pytest.raises(ValueError, match="radius"):
        Dbscan(eps=2.0).fit(train, neighbours=shared)


def test_scores_reject_rows_of_another_width():
    rng = np.random.default_rng(94)
    train = _blobs(rng, 60, d=4)
    for model in (LocalOutlierFactor(k=3).fit(train),
                  Dbscan(eps=3.0, min_pts=3).fit(train)):
        for width in (3, 5):
            with pytest.raises(DataError, match="features"):
                model.scores(_blobs(rng, 5, d=width))


def test_block_height_does_not_change_results(monkeypatch):
    # BLAS may round a.b differently for one-row, few-row and whole-set
    # products, so values agree to rounding and decisions exactly
    rng = np.random.default_rng(60)
    train = _blobs(rng, 300, d=11)
    q = _blobs(rng, 50, d=11)
    fits = []
    for rows in (1, 7, 300):
        _block_height(monkeypatch, rows, 300)
        lof = LocalOutlierFactor(k=5).fit(train)
        db = Dbscan(eps=2.0, min_pts=4).fit(train)
        fits.append((lof.train_lof, lof.scores(q), db.labels_, db.scores(q)))
    for lof_train, lof_q, db_labels, db_q in fits[1:]:
        assert np.allclose(lof_train, fits[0][0], rtol=1e-12, atol=0)
        assert np.allclose(lof_q, fits[0][1], rtol=1e-12, atol=0)
        assert np.array_equal(db_labels, fits[0][2])
        assert np.allclose(db_q, fits[0][3], rtol=1e-12, atol=0)


@pytest.mark.parametrize("rows", [1, 7, 8, 10, 12, None])
def test_kernel_equals_the_transposed_operand_kernel(monkeypatch, rows):
    # blocks multiplied by a row-major copy of b^T have the bits of the view
    # b.T's products. One-row blocks (gemv, here the tails of 57, 71 and 43
    # rows), a set's one block times itself (syrk, the 5-row set at heights
    # 7, 8 and 10), blocks of 12 rows and more (a small-matrix kernel for
    # 12 x 700 x 11) and rows of 16 features and more (the 9 x 16 set) keep
    # b.T. Run under OPENBLAS_CORETYPE=Haswell or =Prescott too. None is
    # the default blocking, 93 rows for the 700-row set. A sweep from a block
    # boundary yields that stretch of the whole sweep's blocks.
    rng = np.random.default_rng(95)
    for n, d in ((57, 11), (71, 11), (5, 11), (9, 16), (64, 3), (22, 1),
                 (700, 11)):
        x, q = _blobs(rng, n, d=d), _blobs(rng, 43, d=d)
        for a, b in ((x, x), (q, x), (x, q)):
            height = rows
            if rows is None:
                height = detectors._block_rows(b)
            else:
                _block_height(monkeypatch, rows, len(b))
            want = [(lo, hi, d2.tobytes()) for lo, hi, d2 in
                    oracles.transposed_sq_dist_blocks(a, b, height)]
            got = [(lo, hi, d2.tobytes())
                   for lo, hi, d2 in detectors._sq_dist_blocks(a, b)]
            assert got == want, (n, d, len(a), len(b))
            start = min(2 * height, len(a))
            got = [(lo, hi, d2.tobytes()) for lo, hi, d2 in
                   detectors._sq_dist_blocks(a, b, start, len(a))]
            assert got == [w for w in want if w[0] >= start]


# -- sweeps split across CPUs -------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork")
                                or not hasattr(os, "sched_getaffinity"),
                                reason="splitting a sweep needs fork")


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _edge_duplicated(rng, n, d=3):
    """Float rows in which a duplicate pair straddles every block edge."""
    x = _blobs(rng, n, d=d, spread=0.3, box=2.0)
    for edge in range(BLOCK, n, BLOCK):
        x[edge] = x[edge - 1]
    return x


def _sweep_outputs(q, x):
    """Everything the split sweeps give, for x against itself (self
    excluded) and for q against x: counts, k-distances, neighbourhoods and
    nearest rows."""
    ks, radii = [1, 3, 5, 8], [0.25, 1.0]
    fit = NeighbourPass(x, x, ks=ks, radii=radii, self_excluded=True)
    query = NeighbourPass(q, x, ks=ks, radii=radii)
    out = [p.counts(r) for p in (fit, query) for r in radii]
    for k in ks:
        out += list(fit.neighbourhood(k)) + list(query.neighbourhood(k))
    return out + list(detectors._nearest(x, x)) + list(
        detectors._nearest(q, x))


def _blocks(n):
    return -(-n // BLOCK)


@needs_fork
@pytest.mark.parametrize("n,m", [
    (BLOCK, BLOCK - 1),               # one block each: nothing forks
    (2 * BLOCK, 2 * BLOCK),           # two blocks
    (5 * BLOCK, 3 * BLOCK),           # odd block counts
    (2 * BLOCK + 1, 4 * BLOCK + 1),   # one-row tail blocks
    (5 * BLOCK + 1, 1)])
def test_split_sweeps_are_bit_identical(monkeypatch, cpus, n, m):
    rng = np.random.default_rng(96 + n)
    x = _edge_duplicated(rng, n)
    q = np.vstack([x[::3], _blobs(rng, n, d=3, spread=0.3, box=2.0)])[:m]
    _block_height(monkeypatch, BLOCK, n)
    monkeypatch.setattr(detectors, "_SPLIT_PAIRS", 1)
    cpus(1)
    want = _sweep_outputs(q, x)
    for n_cpus in (2, 3):
        forks = cpus(n_cpus)
        got = _sweep_outputs(q, x)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        # two sweeps of each query set, each in one range per CPU it fills
        assert len(forks) == 2 * sum(min(_blocks(rows), n_cpus) - 1
                                     for rows in (n, m))
        _assert_no_child()


@needs_fork
def test_sweeps_under_the_floor_fork_nothing(monkeypatch, cpus):
    rng = np.random.default_rng(97)
    x = _edge_duplicated(rng, 5 * BLOCK)
    _block_height(monkeypatch, BLOCK, len(x))
    want = _sweep_outputs(x, x)
    forks = cpus(2)
    monkeypatch.setattr(detectors, "_SPLIT_PAIRS", len(x) ** 2 + 1)
    got = _sweep_outputs(x, x)
    assert forks == []
    monkeypatch.setattr(detectors, "_SPLIT_PAIRS", len(x) ** 2)
    again = _sweep_outputs(x, x)
    assert len(forks) == 4
    for g, a, w in zip(got, again, want, strict=True):
        assert g.tobytes() == w.tobytes() and a.tobytes() == w.tobytes()
    _assert_no_child()


@needs_fork
@pytest.mark.parametrize("failing", ["parent", "child"])
def test_a_failing_split_sweep_leaves_no_child(monkeypatch, cpus, failing):
    """Either side's error is the one raised; a child still sweeping when
    the parent fails is killed and reaped."""
    x = _blobs(np.random.default_rng(98), 4 * BLOCK, d=3)
    _block_height(monkeypatch, BLOCK, len(x))
    monkeypatch.setattr(detectors, "_SPLIT_PAIRS", 1)
    forks = cpus(2)

    def blocks(a, b, start=0, stop=None, _fn=detectors._sq_dist_blocks):
        side = "parent" if start == 0 else "child"
        if side == failing:
            raise DataError("the %s failed" % side)
        if side == "child":
            time.sleep(60)
        return _fn(a, b, start, stop)
    monkeypatch.setattr(detectors, "_sq_dist_blocks", blocks)
    t0 = time.monotonic()
    with pytest.raises(DataError, match="^the %s failed$" % failing):
        NeighbourPass(x, x, ks=[3]).neighbourhood(3)
    assert time.monotonic() - t0 < 30
    assert len(forks) == 1
    _assert_no_child()


def _hand_tree(spec):
    """A tree's parallel node lists, in preorder, from nested specs: a
    split is (feature, threshold, left spec, right spec), a leaf its size;
    a split's size is its leaves' sum."""
    tree = {k: [] for k in ("feature", "threshold", "left", "right", "size")}

    def add(spec):
        node = len(tree["size"])
        split = isinstance(spec, tuple)
        tree["feature"].append(spec[0] if split else -1)
        tree["threshold"].append(float(spec[1]) if split else 0.0)
        tree["left"].append(-1)
        tree["right"].append(-1)
        tree["size"].append(0 if split else spec)
        if split:
            tree["left"][node] = add(spec[2])
            tree["right"][node] = add(spec[3])
            tree["size"][node] = (tree["size"][tree["left"][node]]
                                  + tree["size"][tree["right"][node]])
        return node
    add(spec)
    return tree


def _full_spec(rng, depth):
    """A complete subtree of ``depth`` levels of splits on three features,
    at thresholds among -1, 0, 0.5 and 1."""
    if depth == 0:
        return int(rng.integers(0, 6))
    return (int(rng.integers(0, 3)), float(rng.choice([-1.0, 0.0, 0.5, 1.0])),
            _full_spec(rng, depth - 1), _full_spec(rng, depth - 1))


def _chain_spec(depth, foot=1):
    """A tree ``depth`` levels deep: each split's left child is a leaf of
    size 1, and the last split's right child one of size ``foot``."""
    spec = foot
    for level in range(depth):
        spec = (level % 3, float(level % 2), 1, spec)
    return spec


def _hand_forest(specs, sample_size):
    model = IsolationForest(n_estimators=len(specs))
    model.sample_size = sample_size
    model.trees = [_hand_tree(spec) for spec in specs]
    return model


def _heap_forests():
    rng = np.random.default_rng(31)
    # a spine with a leaf beside it at every depth, alternating sides, and
    # a full subtree at its foot; a full tree; a single leaf; a chain
    spine = _full_spec(rng, 2)
    for level in range(4):
        leaf = int(rng.integers(0, 4))
        split = (level % 3, [0.5, -1.0, 1.0, 0.0][level])
        spine = split + ((leaf, spine) if level % 2 else (spine, leaf))
    yield "leaves at every depth", _hand_forest(
        [spine, _full_spec(rng, 6), 3, _chain_spec(6)], sample_size=64)
    # thresholds at a node's minimum: the left child is an empty leaf
    yield "empty left child", _hand_forest(
        [(0, -1.0, 0, (1, 0.0, 0, (2, 0.5, 2, 3))), (2, -1.0, 0, 7),
         _full_spec(rng, 3)], sample_size=16)
    yield "single leaf", IsolationForest(n_estimators=5, seed=6).fit(
        np.ones((20, 3)))


@needs_fork
@pytest.mark.parametrize("name", ["leaves at every depth",
                                  "empty left child", "single leaf"])
def test_hand_built_forests_match_the_oracle(monkeypatch, cpus, name):
    """Hand-built forests score every row as the per-tree walk does, bit
    for bit, whole or split on 1, 2 and 3 CPUs: rows on the thresholds,
    NaN and infinite ones among them."""
    model = dict(_heap_forests())[name]
    rng = np.random.default_rng(32)
    values = np.array([-1.0, 0.0, 0.5, 1.0, np.nan, np.inf, -np.inf,
                       -0.5, 2.0])
    q = rng.choice(values, size=(3 * 256 + 7, 3))
    q[:len(values)] = values[:, None]
    want = isolation_mean_depths(model.trees, q)
    if name == "single leaf":
        assert model._forest.max_depth == 0
    cpus(1)
    assert model.mean_depths(q).tobytes() == want.tobytes()
    monkeypatch.setattr(detectors, "_SPLIT_PAIRS", 1)
    for n_cpus in (1, 2, 3):
        forks = cpus(n_cpus)
        assert model.mean_depths(q).tobytes() == want.tobytes()
        assert len(forks) == n_cpus - 1
        _assert_no_child()


def _forest_and_rows(n, n_estimators=100):
    rng = np.random.default_rng(99)
    x = _blobs(rng, 600, d=4, spread=0.6, box=3.0)
    model = IsolationForest(n_estimators=n_estimators, seed=9).fit(x)
    q = np.vstack([x, _blobs(rng, n, d=4, box=6.0)])[:n]
    q[::17] = np.nan
    return model, q


def _walks(n):
    return -(-n // detectors._FOREST_BLOCK_ROWS)


@needs_fork
@pytest.mark.parametrize("n", [255, 256, 257, 2 * 256 + 1, 5 * 256])
def test_split_forest_walks_are_bit_identical(monkeypatch, cpus, n):
    """Forest walks split at 256-row block edges give the one-process
    walk's bits, on 1, 2 and 3 CPUs."""
    model, q = _forest_and_rows(n, n_estimators=30)
    cpus(1)
    want = model.mean_depths(q)
    assert want.tobytes() == isolation_mean_depths(model.trees, q).tobytes()
    monkeypatch.setattr(detectors, "_SPLIT_PAIRS", 1)
    for n_cpus in (1, 2, 3):
        forks = cpus(n_cpus)
        got = model.mean_depths(q)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert len(forks) == min(_walks(n), n_cpus) - 1
        _assert_no_child()


@needs_fork
def test_forest_walks_split_from_the_floor(cpus):
    """A walk of 100 trees splits from 2,500 rows: 250k row-trees, the
    4M-pair floor of the distance sweeps at 16 pairs each."""
    floor = detectors._SPLIT_PAIRS // (100 * detectors._WALK_PAIRS)
    assert floor == 2500
    model, q = _forest_and_rows(floor + 1)
    cpus(1)
    want = model.mean_depths(q)
    for n_cpus in (1, 2, 3):
        forks = cpus(n_cpus)
        for rows in (floor - 1, floor, floor + 1):
            got = model.mean_depths(q[:rows])
            assert got.tobytes() == want[:rows].tobytes()
        assert len(forks) == 2 * (n_cpus - 1)
        _assert_no_child()


@needs_fork
@pytest.mark.parametrize("failing", ["parent", "child"])
def test_a_failing_forest_walk_leaves_no_child(monkeypatch, cpus, failing):
    """Either side's error is the one raised; a child still walking when
    the parent fails is killed and reaped."""
    model, q = _forest_and_rows(4 * 256, n_estimators=10)
    monkeypatch.setattr(detectors, "_SPLIT_PAIRS", 1)
    forks = cpus(2)

    def walk(self, x, sizes, start, stop,
             _fn=detectors._PackedForest._walk):
        side = "parent" if start == 0 else "child"
        if side == failing:
            raise DataError("the %s failed" % side)
        if side == "child":
            time.sleep(60)
        return _fn(self, x, sizes, start, stop)
    monkeypatch.setattr(detectors._PackedForest, "_walk", walk)
    t0 = time.monotonic()
    with pytest.raises(DataError, match="^the %s failed$" % failing):
        model.scores(q)
    assert time.monotonic() - t0 < 30
    assert len(forks) == 1
    _assert_no_child()


@needs_fork
@pytest.mark.parametrize("n", [255, 256, 257, 2 * 256 + 1])
def test_prefix_walks_are_the_walks_of_smaller_forests(monkeypatch, cpus,
                                                       n):
    """One walk read after tree t gives a t-tree forest's mean depths, bit
    for bit, at the walk's block edges, whole or split on 1, 2 and 3
    CPUs."""
    model, q = _forest_and_rows(n, n_estimators=30)
    sizes = [1, 7, 20, 30]
    want = [isolation_mean_depths(model.trees[:t], q) for t in sizes]
    height_limit = math.ceil(math.log2(model.sample_size))
    alone = [detectors._PackedForest(model.trees[:t], height_limit)
             .mean_depths(q, [t])[0] for t in sizes]
    for a, b in zip(alone, want):
        assert a.tobytes() == b.tobytes()
    monkeypatch.setattr(detectors, "_SPLIT_PAIRS", 1)
    for n_cpus in (1, 2, 3):
        forks = cpus(n_cpus)
        got = model._forest.mean_depths(q, sizes)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert len(forks) == min(_walks(n), n_cpus) - 1
        _assert_no_child()


@pytest.mark.parametrize("subsample", [32, 256, 1000])
def test_a_smaller_fit_is_a_prefix_of_a_larger_one(subsample):
    """A t-tree fit grows the first t trees of a larger fit of its seed and
    subsample, and its threshold and scores are the larger fit's prefix
    scores, thresholded at its own contamination."""
    rng = np.random.default_rng(98)
    x = _blobs(rng, 600, d=4, spread=0.6, box=3.0)
    q = _blobs(rng, 50, d=4, box=6.0)
    big = IsolationForest(n_estimators=40, subsample=subsample, seed=3,
                          contamination=0.05).fit(x)
    sizes = [5, 17, 40]
    train = big.prefix_scores(x, sizes)
    val = big.prefix_scores(q, sizes)
    for t, train_t, val_t in zip(sizes, train, val):
        for contamination in (0.01, 0.05, 0.3):
            small = IsolationForest(n_estimators=t, subsample=subsample,
                                    seed=3, contamination=contamination)
            small.fit(x)
            assert small.trees == big.trees[:t]
            assert small.threshold == contamination_threshold(train_t,
                                                              contamination)
            assert small.scores(q).tobytes() == val_t.tobytes()


def test_iforest_threshold_is_taken_on_first_read():
    # fit keeps its rows for the threshold, and lets them go once read
    rng = np.random.default_rng(97)
    x = _blobs(rng, 300, d=4, spread=0.6, box=3.0)
    model = IsolationForest(n_estimators=20, seed=2, contamination=0.1)
    model.fit(x)
    assert model._fit_x is x
    want = contamination_threshold(model.scores(x), 0.1)
    assert model.threshold == want and model._fit_x is None
    assert model.fit(x).threshold == want
    model.fit(x).threshold = 0.5
    assert model.threshold == 0.5 and model._fit_x is None


_SPECIAL = [np.nan, np.inf, -np.inf]


@st.composite
def _threshold_cases(draw, contamination):
    """(model, rows): a forest fitted on blobs, on a grid of
    four values (duplicated rows, tied totals) or on constant rows (every
    tree a single leaf), and rows to threshold, drawn from the fit rows
    and new blobs, with NaN and infinite entries among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["blobs", "blobs", "grid", "constant"]))
    n_fit = draw(st.integers(2, 400) | st.integers(100, 400))
    if kind == "blobs":
        fit = _blobs(rng, n_fit, d=3, spread=0.6, box=3.0)
    elif kind == "grid":
        fit = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(n_fit, 3))
    else:
        fit = np.ones((n_fit, 3))
    model = IsolationForest(
        n_estimators=draw(st.sampled_from([1, 7, 30])),
        contamination=contamination,
        subsample=draw(st.sampled_from([2, 16, 256, 256])),
        seed=draw(st.integers(0, 100))).fit(fit)
    # most row counts are large enough for the pruned walk
    n = draw(st.integers(1, 3000) | st.integers(300, 3000))
    rows = np.vstack([fit, _blobs(rng, n, d=3, box=6.0)])[
        rng.integers(0, n_fit + n, size=n)]
    specials = draw(st.integers(0, 3))
    at = rng.integers(0, n, size=(specials, 2))
    rows[at[:, 0], rng.integers(0, 3, size=specials)] = rng.choice(
        _SPECIAL, size=specials)
    return model, rows


@needs_fork
@pytest.mark.parametrize("contamination", [1e-4, 0.001, 0.01, 0.05, 0.3,
                                           0.9])
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bounded_threshold_is_the_contamination_threshold(monkeypatch, cpus,
                                                          contamination,
                                                          data):
    """The forest's threshold, read off the rows that can score among its
    top share, is the contamination threshold of every row's score, bit
    for bit, on 1, 2 and 3 CPUs, split at every size."""
    model, rows = data.draw(_threshold_cases(contamination))
    cpus(1)
    want = contamination_threshold(model.scores(rows), model.contamination)
    monkeypatch.setattr(detectors, "_SPLIT_PAIRS", 1)
    # any bound at least the r-th least total is exact: with r candidates
    # (extra -r) it is their greatest total, and rows of the top share are
    # left out of the candidates more often
    r = contamination_top(len(rows), contamination)
    monkeypatch.setattr(detectors, "_CANDIDATE_EXTRA",
                        data.draw(st.sampled_from([32, 0, -r])))
    for n_cpus in (1, 2, 3):
        cpus(n_cpus)
        got = model.threshold_of(rows)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        _assert_no_child()


def test_the_shallowest_row_outside_the_candidates_is_kept():
    """A row whose lower bound lies just under the candidates' bound is
    kept at every level. In 99 trees every row reaches a leaf worth 6
    (depth 5, size 2). In the last, the others reach one worth 6 too, and
    row 0 one worth 5 beside one worth 5 + c(20), under an entry of level 3
    whose other child is a leaf worth 4. Row 0 is the shallowest (599
    against 600) but has the largest upper bound at level 3, so it is no
    candidate; its lower bound is 598 at level 3 and 599 at level 4, within
    0.4% of the bound."""
    def full(depth, leaf):
        return leaf if depth == 0 else (0, 0.5, full(depth - 1, leaf),
                                        full(depth - 1, leaf))
    left = (0, 0.5, (0, 0.5, (0, 0.5, (0, 0.5, 1, 20), 1), full(2, 2)),
            full(3, 2))
    right = (0, 0.5, full(3, 2),
             (0, 0.5, full(2, 2), (0, 0.5, full(1, 2), full(1, 2))))
    model = _hand_forest([full(5, 2)] * 99 + [(0, 0.5, left, right)],
                         sample_size=32)
    model.contamination = 0.001
    rows = np.ones((300, 1))
    rows[0] = 0.0
    assert detectors._BOUND_LEVEL == 3 and model._forest.depth == 5
    assert model.mean_depths(rows[:2]).tolist() == [5.99, 6.0]
    want = contamination_threshold(model.scores(rows), 0.001)
    assert want == model.scores(rows[:1])[0]
    assert model.threshold_of(rows) == want


def test_a_range_smaller_than_the_candidates_is_walked_in_full():
    # the last range of a split walk can hold fewer rows than 2r + 32
    model, q = _forest_and_rows(40, n_estimators=30)
    forest = model._forest
    got = forest._least_totals(q, 4, 0, 40)[0]
    want = forest._walk(q, [30], 0, 40)[0]
    assert np.sort(got).tobytes() == np.sort(want).tobytes()


def test_survey_like_thresholds_walk_few_rows_in_full(monkeypatch, cpus,
                                                      small_table):
    """On a pipeline's fit rows at the default contamination, the threshold
    walks few rows to the last level: a change that walked them all would
    keep the bits and lose the gain."""
    labelled, _ = small_table
    cfg = RunConfig(resample_interval="3600", max_points=20000)
    x = prepare_training(labelled, cfg, 0).fit_x
    model = IsolationForest(seed=5).fit(x)
    walked = []

    def descend(self, block, node, first, last, scratch,
                _fn=detectors._PackedForest._descend):
        if last == self.depth:
            walked.append(node.shape[1])
        return _fn(self, block, node, first, last, scratch)
    monkeypatch.setattr(detectors._PackedForest, "_descend", descend)
    cpus(1)
    assert len(x) > 8 * (2 * contamination_top(len(x), 0.001) + 32)
    assert model.threshold == contamination_threshold(model.scores(x), 0.001)
    full, scored = sum(walked[:-_walks(len(x))]), sum(walked[-_walks(len(x)):])
    assert scored == len(x)
    assert full < 0.1 * len(x), (full, len(x))


def test_predict_derives_from_scores_and_threshold():
    rng = np.random.default_rng(61)
    train = _blobs(rng, 200, d=4, spread=0.6, box=3.0)
    q = _blobs(np.random.default_rng(62), 60, d=4, spread=2.0, box=6.0)
    for model in (IsolationForest(n_estimators=20, contamination=0.05,
                                  seed=1),
                  LocalOutlierFactor(k=5, contamination=0.05),
                  Dbscan(eps=1.0, min_pts=4)):
        model.fit(train)
        want = np.where(model.scores(q) > model.threshold, 0, 1)
        assert np.array_equal(model.predict(q), want)
        assert np.array_equal(flag(model.scores(q), model.threshold), want)


# -- model files -------------------------------------------------------------


def _saved(tmp_path, model):
    path = tmp_path / ("%s.json" % model.kind)
    save_model(model, str(path))
    return path, json.loads(path.read_text())


def _write(path, obj):
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


def test_load_model_rejects_missing_keys(tmp_path):
    x = _blobs(np.random.default_rng(70), 40, d=3)
    for model in (IsolationForest(n_estimators=3).fit(x),
                  LocalOutlierFactor(k=3).fit(x),
                  Dbscan(eps=2.0, min_pts=3).fit(x)):
        path, obj = _saved(tmp_path, model)
        for key in obj:
            if key == "kind":
                continue
            cut = {k: v for k, v in obj.items() if k != key}
            with pytest.raises(DataError, match=key):
                load_model(_write(path, cut))


def test_load_model_rejects_inconsistent_lof(tmp_path):
    x = _blobs(np.random.default_rng(71), 40, d=3)
    path, obj = _saved(tmp_path, LocalOutlierFactor(k=3).fit(x))
    for key in ("x", "kdist", "lrd", "train_lof"):
        cut = dict(obj, **{key: obj[key][:-1]})
        with pytest.raises(DataError, match="differ in length"):
            load_model(_write(path, cut))
    few = dict(obj, **{key: obj[key][:3]
                       for key in ("x", "kdist", "lrd", "train_lof")})
    with pytest.raises(DataError, match="more than k=3"):
        load_model(_write(path, few))
    for key in ("kdist", "lrd", "train_lof"):
        negative = dict(obj, **{key: [-0.5] + obj[key][1:]})
        with pytest.raises(DataError, match=": %s must be non-negative, got "
                           "-0.5$" % key):
            load_model(_write(path, negative))
        nan = dict(obj, **{key: obj[key][:1] + [math.nan] + obj[key][2:]})
        with pytest.raises(DataError, match="%s: entry 1 is nan" % key):
            load_model(_write(path, nan))
    x = [row[:] for row in obj["x"]]
    x[4][2] = math.inf
    with pytest.raises(DataError, match="x: row 4, column 2 is inf"):
        load_model(_write(path, dict(obj, x=x)))
    for cap in (0.0, -1.0):
        with pytest.raises(DataError, match="lrd_cap must be positive"):
            load_model(_write(path, dict(obj, lrd_cap=cap)))


def test_load_model_rejects_inconsistent_dbscan(tmp_path):
    x = _blobs(np.random.default_rng(72), 40, d=3)
    path, obj = _saved(tmp_path, Dbscan(eps=2.0, min_pts=3).fit(x))
    assert len(obj["core_labels"]) > 1
    cut = dict(obj, core_labels=obj["core_labels"][:-1])
    with pytest.raises(DataError, match="differ in length"):
        load_model(_write(path, cut))
    with pytest.raises(DataError, match="n_clusters must be >= 0"):
        load_model(_write(path, dict(obj, n_clusters=-1)))
    n = obj["n_clusters"]
    for label in (-1, n):
        labels = obj["core_labels"][:-1] + [label]
        with pytest.raises(DataError, match=r"core_labels must lie in "
                           r"\[0, n_clusters=%d\), got %d$" % (n, label)):
            load_model(_write(path, dict(obj, core_labels=labels)))
    points = [row[:] for row in obj["core_points"]]
    points[1][0] = math.nan
    with pytest.raises(DataError, match="core_points: row 1, column 0 is "
                                        "nan"):
        load_model(_write(path, dict(obj, core_points=points)))


def test_load_model_rejects_non_object(tmp_path):
    with pytest.raises(DataError):
        load_model(_write(tmp_path / "list.json", [1, 2, 3]))


def _corrupt_tree(obj, tree=0, **lists):
    trees = [dict(t) for t in obj["trees"]]
    trees[tree].update(lists)
    return dict(obj, trees=trees)


def test_load_model_rejects_corrupt_iforest(tmp_path):
    x = _blobs(np.random.default_rng(73), 60, d=3)
    path, obj = _saved(tmp_path, IsolationForest(n_estimators=3,
                                                 seed=1).fit(x))
    tree = obj["trees"][1]
    assert tree["feature"][0] >= 0          # the root splits
    n = len(tree["feature"])
    bad = {
        "differ in length": [_corrupt_tree(obj, 1, **{k: tree[k][:-1]})
                             for k in tree],
        "not after its parent": [
            _corrupt_tree(obj, 1, left=[0] + tree["left"][1:]),
            _corrupt_tree(obj, 1, right=[n] + tree["right"][1:]),
            _corrupt_tree(obj, 1, left=[-1] + tree["left"][1:])],
        "two nodes": [_corrupt_tree(obj, 1, right=[tree["left"][0]]
                                    + tree["right"][1:])],
        "negative": [_corrupt_tree(obj, 1, size=[-1] + tree["size"][1:])],
        "sample_size": [dict(obj, sample_size=0),
                        dict(obj, sample_size=2.5)],
        "sample_size must be in \\[1, subsample 256\\], got 257": [
            dict(obj, sample_size=257)],
        "tree 1's root size 7 is not sample_size 60": [
            _corrupt_tree(obj, 1, **_hand_tree(_chain_spec(6)))],
        "tree 1: a split's children's sizes do not sum to its own": [
            _corrupt_tree(obj, 1, size=[61] + tree["size"][1:]),
            _corrupt_tree(obj, 1, size=tree["size"][:-1] + [2])],
        "non-empty list": [dict(obj, trees=[]), dict(obj, trees={})],
        "number lists": [_corrupt_tree(obj, 1, threshold="abc"),
                         dict(obj, trees=[[1, 2]])],
        # 60 rows: a height limit of 6
        "tree 1 is deeper than its height limit 6": [
            _corrupt_tree(obj, 1, **_hand_tree(_chain_spec(depth)))
            for depth in (7, 300)],
    }
    for message, objs in bad.items():
        for cut in objs:
            with pytest.raises(DataError, match=message):
                load_model(_write(path, cut))
    at_limit = _corrupt_tree(obj, 1, **_hand_tree(_chain_spec(6, foot=54)))
    assert load_model(_write(path, at_limit)).trees == at_limit["trees"]


def test_load_model_rejects_truncated_file(tmp_path):
    x = _blobs(np.random.default_rng(74), 60, d=3)
    for model in (IsolationForest(n_estimators=3).fit(x),
                  LocalOutlierFactor(k=3).fit(x),
                  Dbscan(eps=2.0, min_pts=3).fit(x)):
        path, _ = _saved(tmp_path, model)
        text = path.read_text()
        for cut in (len(text) // 2, len(text) - 3, 1):
            path.write_text(text[:cut])
            with pytest.raises(DataError, match="JSON"):
                load_model(str(path))


def test_iforest_rejects_rows_narrower_than_its_splits(tmp_path):
    x = _blobs(np.random.default_rng(75), 80, d=4)
    path, obj = _saved(tmp_path, IsolationForest(n_estimators=5,
                                                 seed=2).fit(x))
    widest = max(f for t in obj["trees"] for f in t["feature"])
    model = load_model(str(path))
    model.scores(x[:, :widest + 1])
    with pytest.raises(DataError, match="feature %d" % widest):
        model.scores(x[:, :widest])


def test_model_files_are_json_dump_bytes(tmp_path):
    # save_model writes json.dumps(obj) + "\n" for every kind: the bytes
    # json.dump writes, from the C encoder
    from telanom.autoencoder import Autoencoder
    x = _blobs(np.random.default_rng(76), 60, d=3)
    models = (IsolationForest(n_estimators=4).fit(x),
              LocalOutlierFactor(k=3).fit(x),
              Dbscan(eps=2.0, min_pts=3).fit(x),
              Autoencoder(3, 4, 2, seed=1))
    assert {model.kind for model in models} == set(MODEL_KINDS)
    for model in models:
        path = tmp_path / "model.json"
        save_model(model, str(path))
        want = io.StringIO()
        json.dump(model.to_json(), want)
        assert path.read_text() == want.getvalue() + "\n"
