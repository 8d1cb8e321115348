"""Acceptance suite: the eleven binding criteria for this package.

Each test prints one `criterion NN [PASS|FAIL] ...` line (run with -s to see
them live). The end-to-end criteria share one seeded synthetic run built at
module scope.
"""

import time

import numpy as np
import pytest

from oracles import (brute_force_lof, finite_difference_gradients,
                     haversine_law_of_cosines, pair_count_auc,
                     recount_metrics, reference_dbscan, same_partition)
from telanom.autoencoder import Autoencoder
from telanom.detectors import Dbscan, LocalOutlierFactor
from telanom.errors import LeakageError
from telanom.features import engineer_tracks, haversine_km
from telanom.ingest import Detections, deduplicate, group_tracks, local_day
from telanom.labelling import label_all
from telanom.metrics import compute_metrics, confusion, roc_auc
from telanom.pipeline import RunConfig, run_pipeline
import telanom.pipeline as pipeline_mod
from telanom.synthgen import SynthConfig, generate
from telanom.thresholding import PercentileTable, select_threshold


class _criterion:
    """Prints one pass/fail line per criterion as the test finishes."""

    def __init__(self, num, desc):
        self.num = num
        self.desc = desc
        self.notes = []

    def note(self, text):
        self.notes.append(text)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        extra = ("  (%s)" % "; ".join(self.notes)) if self.notes else ""
        print("criterion %02d [%s] %s%s" % (self.num, status, self.desc,
                                            extra))
        return False


@pytest.fixture(scope="module")
def e2e():
    """Seeded synthetic study: >=20 fish, >=50k detections, ~8% anomalies
    from single-station fish and jump moves; full four-model pipeline."""
    t0 = time.perf_counter()
    records, smap, gt = generate(SynthConfig(seed=0))
    n_fish = len({r.fish_id for r in records})
    n_detections = len(records)
    records, _ = deduplicate(Detections.from_records(records))
    table = engineer_tracks(group_tracks(records), smap)
    labelled, _report = label_all(table)
    cfg = RunConfig(seed=0, resample_interval="auto", max_points=30000,
                    models="autoencoder,iforest,lof,dbscan")
    result = run_pipeline(labelled, cfg, seed=0)
    elapsed = time.perf_counter() - t0
    return {"n_fish": n_fish, "n_detections": n_detections,
            "labelled": labelled, "result": result, "elapsed": elapsed}


def test_criterion_01_threshold_fixture_replay():
    with _criterion(1, "threshold fixture replay selects 65/67/69") as c:
        t0 = time.perf_counter()
        expected = (("no_resample", 65, 0.993855),
                    ("90s", 67, 0.984360),
                    ("65s", 69, 0.981761))
        for name, want_pct, want_precision in expected:
            table = PercentileTable.load_csv(
                "tests/fixtures/threshold_reference_%s.csv" % name)
            sel = select_threshold(table)
            assert sel.percentile == want_pct
            assert abs(sel.metrics["precision"] - want_precision) <= 1e-6
            assert abs(sel.metrics["recall"] - 1.0) <= 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        c.note("%.3fs" % elapsed)


def test_criterion_02_parameter_count():
    with _criterion(2, "autoencoder(11, 128, 2) has exactly 3597 parameters"):
        assert Autoencoder(11, units=128, bottleneck=2).n_parameters == 3597


def test_criterion_03_lof_oracle_equivalence():
    with _criterion(3, "LOF == brute-force definition on 100 datasets "
                       "(1e-9 rel)") as c:
        t0 = time.perf_counter()
        rng = np.random.default_rng(300)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(30, 501))
            n_blobs = int(rng.integers(1, 4))
            centers = rng.normal(0.0, 3.0, size=(n_blobs, 11))
            x = (centers[rng.integers(n_blobs, size=n)]
                 + rng.normal(0.0, 0.5, size=(n, 11)))
            n_out = max(1, n // 50)
            x[:n_out] += rng.normal(0.0, 8.0, size=(n_out, 11))
            queries = (centers[rng.integers(n_blobs, size=25)]
                       + rng.normal(0.0, 1.0, size=(25, 11)))
            k = int(rng.integers(3, 11))

            model = LocalOutlierFactor(k=k).fit(x)
            want_train = brute_force_lof(x, None, k)
            rel = (np.abs(model.train_lof - want_train)
                   / np.maximum(np.abs(want_train), 1e-300))
            worst = max(worst, float(rel.max()))
            want_q = brute_force_lof(x, queries, k)
            got_q = model.scores(queries)
            rel_q = np.abs(got_q - want_q) / np.maximum(np.abs(want_q),
                                                        1e-300)
            worst = max(worst, float(rel_q.max()))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-9
        assert elapsed < 30.0
        c.note("max rel err %.2e, %.1fs" % (worst, elapsed))


def test_criterion_04_dbscan_oracle_equivalence():
    with _criterion(4, "DBSCAN partition == reference BFS on 100 datasets "
                       "(up to relabelling)") as c:
        t0 = time.perf_counter()
        rng = np.random.default_rng(400)
        for _ in range(100):
            n = int(rng.integers(40, 301))
            d = int(rng.integers(2, 6))
            n_blobs = int(rng.integers(1, 5))
            centers = rng.uniform(-6.0, 6.0, size=(n_blobs, d))
            x = (centers[rng.integers(n_blobs, size=n)]
                 + rng.normal(0.0, 0.4, size=(n, d)))
            eps = float(rng.uniform(0.3, 1.2))
            min_pts = int(rng.integers(2, 9))
            got = Dbscan(eps=eps, min_pts=min_pts).fit(x).labels_
            want = reference_dbscan(x, eps, min_pts)
            assert same_partition(got, want)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        c.note("%.1fs" % elapsed)


def test_criterion_05_haversine():
    with _criterion(5, "haversine identity/antipodal/oracle agreement") as c:
        rng = np.random.default_rng(500)
        for _ in range(50):
            lat = float(rng.uniform(-89.0, 89.0))
            lon = float(rng.uniform(-180.0, 180.0))
            assert haversine_km(lat, lon, lat, lon) == 0.0

        got = haversine_km(0.0, 0.0, 0.0, 180.0)
        assert abs(got - 20015.0869) / 20015.0869 <= 1e-6

        worst = 0.0
        for _ in range(300):
            lat1, lat2 = rng.uniform(-89.0, 89.0, 2)
            lon1, lon2 = rng.uniform(-180.0, 180.0, 2)
            want = haversine_law_of_cosines(lat1, lon1, lat2, lon2)
            if want < 1e-6:
                continue  # law of cosines is ill-conditioned near zero
            rel = abs(haversine_km(lat1, lon1, lat2, lon2) - want) / want
            worst = max(worst, rel)
        assert worst <= 1e-9
        c.note("max rel err %.2e" % worst)


def test_criterion_06_gradient_check():
    with _criterion(6, "autoencoder gradients match finite differences "
                       "(< 1e-4 rel)") as c:
        rng = np.random.default_rng(600)
        worst = 0.0
        for d, units, bottleneck, n_rows in ((4, 6, 2, 12), (3, 5, 1, 7),
                                             (6, 9, 3, 20)):
            model = Autoencoder(d, units=units, bottleneck=bottleneck,
                                seed=int(rng.integers(1000)))
            x = rng.uniform(0.05, 0.95, size=(n_rows, d))
            cache = {}
            model.forward(x, cache)
            analytic = model.backward(cache)
            numeric = finite_difference_gradients(model, x, eps=1e-5)
            for name, g_a in analytic.items():
                g_n = numeric[name]
                denom = np.maximum(np.maximum(np.abs(g_a), np.abs(g_n)),
                                   1e-8)
                worst = max(worst, float((np.abs(g_a - g_n) / denom).max()))
        assert worst < 1e-4
        c.note("max rel err %.2e" % worst)


def test_criterion_07_end_to_end_no_false_normal(e2e):
    with _criterion(7, "synthetic e2e: autoencoder FN = 0, "
                       "FA fraction <= 0.05") as c:
        assert e2e["n_fish"] >= 20
        assert e2e["n_detections"] >= 50_000
        rate = float((e2e["labelled"].label == 0).mean())
        assert 0.05 <= rate <= 0.12  # ~8% injected anomalies
        entry = e2e["result"].report["models"]["autoencoder"]
        assert entry["confusion"]["fn"] == 0
        assert entry["metrics"]["fn_fraction"] == 0.0
        assert entry["metrics"]["fa_fraction"] <= 0.05
        assert e2e["elapsed"] <= 600.0
        c.note("%d detections, anomaly rate %.3f, fa %.4f, %.0fs"
               % (e2e["n_detections"], rate,
                  entry["metrics"]["fa_fraction"], e2e["elapsed"]))


def test_criterion_08_classical_contrast(e2e):
    with _criterion(8, "IF/LOF/DBSCAN miss >= 50% or are reported "
                       "beating it") as c:
        for name in ("iforest", "lof", "dbscan"):
            frac = e2e["result"].report["models"][name]["metrics"][
                "fn_fraction"]
            assert frac is not None, "report must state the FN fraction"
            if frac >= 0.5:
                c.note("%s fn=%.4f" % (name, frac))
            else:
                c.note("%s fn=%.4f beats the contrast (stated)"
                       % (name, frac))


def test_criterion_09_resampling_regularity(e2e):
    with _criterion(9, "all resampled gaps == delta_t except <= 1 trailing "
                       "remainder per fish-day") as c:
        pool = e2e["result"].train_pool
        dt = e2e["result"].plan.delta_t
        groups = {}
        for i in range(len(pool)):
            key = (pool.fish_id[i], local_day(int(pool.timestamp[i])))
            groups.setdefault(key, []).append(int(pool.timestamp[i]))
        n_gaps = 0
        for ts in groups.values():
            gaps = np.diff(np.sort(ts))
            if len(gaps) == 0:
                continue
            assert np.all(gaps[:-1] == dt)
            assert 0 < gaps[-1] <= dt
            n_gaps += len(gaps)
        assert n_gaps > 1000  # the scan actually covered the output
        c.note("%d fish-days, %d gaps, delta_t %ds"
               % (len(groups), n_gaps, dt))


def test_criterion_10_metric_identities():
    with _criterion(10, "10,000 metric recounts exact; AUC == pair-count "
                        "oracle") as c:
        rng = np.random.default_rng(1000)
        for _ in range(10_000):
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

        for _ in range(200):
            n = int(rng.integers(2, 201))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.normal(size=n), 1)  # plenty of ties
            assert roc_auc(scores, labels) == pair_count_auc(scores, labels)


def test_criterion_11_leakage_guard_aborts():
    with _criterion(11, "corrupted pipeline feeding a test row into "
                        "training aborts") as c:
        records, smap, _gt = generate(SynthConfig(
            n_fish=4, span_days=100.0, mean_gap_s=30000.0,
            fraction_single_station=0.26, seed=2))
        records, _ = deduplicate(Detections.from_records(records))
        labelled, _report = label_all(
            engineer_tracks(group_tracks(records), smap))
        cfg = RunConfig(seed=1, resample_interval="none", models="iforest")

        original = pipeline_mod.split_rows

        def corrupted(table, run_cfg, seed):
            split = original(table, run_cfg, seed)
            leak = split.normal_test.uid[0]
            idx = np.flatnonzero(table.uid == leak)
            from telanom.features import FeatureTable
            tampered = FeatureTable.concat([split.normal_train,
                                            table.take(idx)])
            return pipeline_mod.DatasetSplit(split.normal_test, tampered,
                                             split.anomaly_test,
                                             split.anomaly_val)

        pipeline_mod.split_rows = corrupted
        try:
            with pytest.raises(LeakageError) as err:
                run_pipeline(labelled, cfg, seed=1)
        finally:
            pipeline_mod.split_rows = original
        assert err.value.uids  # names the leaked rows
        c.note("stage %r, uids %s" % (err.value.stage, err.value.uids))
