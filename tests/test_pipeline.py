"""Pipeline orchestration tests: config parsing, stratified splitting, the
leakage guard, deterministic end-to-end runs, and artifact round-trips."""

import collections
import csv
import dataclasses
import io
import json
import os
import shutil
import time

import numpy as np
import pytest

from oracles import reshuffle_report
from telanom import detectors, pipeline, tuning
from telanom.cli import build_parser, cmd_tune, main
from telanom.detectors import Dbscan, IsolationForest, LocalOutlierFactor
from telanom.errors import (DataError, LeakageError, TrainingError,
                            whole_file)
from telanom.features import FeatureTable, engineer_tracks
from telanom.ingest import Detections, deduplicate, group_tracks
from telanom.labelling import label_all
from telanom.pipeline import (LeakageGuard, RunConfig, evaluate_saved,
                              run_experiment, run_pipeline, split_rows,
                              train_val_split, write_split_csv)
from telanom.synthgen import (SynthConfig, generate, write_station_csv)
from telanom.ingest import write_detections_csv


TINY_CFG = SynthConfig(n_fish=4, span_days=100.0, mean_gap_s=30000.0,
                       fraction_single_station=0.26, skip_rate=0.08, seed=2)


@pytest.fixture(scope="module")
def tiny_labelled():
    records, smap, _gt = generate(TINY_CFG)
    records, _ = deduplicate(Detections.from_records(records))
    table = engineer_tracks(group_tracks(records), smap)
    labelled, _report = label_all(table)
    return labelled


@pytest.fixture(scope="module")
def tiny_csvs(tmp_path_factory):
    records, smap, gt = generate(TINY_CFG)
    root = tmp_path_factory.mktemp("tinydata")
    det = os.path.join(root, "detections.csv")
    sta = os.path.join(root, "stations.csv")
    write_detections_csv(records, det)
    write_station_csv(smap, sta)
    return det, sta


def _fast_cfg(**over):
    base = dict(seed=5, resample_interval="none", models="iforest,dbscan",
                ae_units=8, ae_epochs=2, ae_batch_size=64, lof_k=5)
    base.update(over)
    return RunConfig(**base)


# ---------------------------------------------------------------- RunConfig

def test_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment settings\n"
        "seed = 9\n"
        "resample_interval = 90   # seconds\n"
        "normal_test_fraction = 0.2\n"
        "models = iforest , dbscan\n"
        "dump_features = true\n"
        "dbscan_eps = 1.25\n"
        "\n")
    cfg = RunConfig.from_file(path)
    assert cfg.seed == 9
    assert cfg.interval_mode() == 90
    assert cfg.normal_test_fraction == 0.2
    assert cfg.model_list == ["iforest", "dbscan"]
    assert cfg.dump_features is True
    assert cfg.dbscan_eps == 1.25
    # untouched keys keep their defaults
    assert cfg.ae_units == 128


def test_config_file_errors(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("no_such_key = 1\n")
    with pytest.raises(DataError):
        RunConfig.from_file(bad_key)
    bad_value = tmp_path / "b.cfg"
    bad_value.write_text("seed = often\n")
    with pytest.raises(DataError):
        RunConfig.from_file(bad_value)
    bad_line = tmp_path / "c.cfg"
    bad_line.write_text("just some words\n")
    with pytest.raises(DataError):
        RunConfig.from_file(bad_line)


def test_config_booleans(tmp_path):
    path = tmp_path / "flag.cfg"
    for text, want in (("1", True), ("TRUE", True), ("Yes", True),
                       ("on", True), ("0", False), ("false", False),
                       ("NO", False), ("Off", False)):
        path.write_text("dump_features = %s\n" % text)
        assert RunConfig.from_file(path).dump_features is want
    path.write_text("seed = 3\ndump_features = ture\n")
    with pytest.raises(DataError, match=r"flag\.cfg:2: bad value 'ture'"):
        RunConfig.from_file(path)


def test_config_validation():
    with pytest.raises(DataError):
        RunConfig(normal_test_fraction=0.0).validate()
    with pytest.raises(DataError):
        RunConfig(anomaly_test_fraction=1.0).validate()
    with pytest.raises(DataError):
        RunConfig(split_unit="station").validate()
    with pytest.raises(DataError):
        RunConfig(models="iforest,svm").validate()
    with pytest.raises(DataError):
        RunConfig(models="").validate()
    with pytest.raises(DataError):
        RunConfig(models=" , ").validate()
    with pytest.raises(DataError):
        RunConfig(resample_interval="ninety").validate()
    assert RunConfig(resample_interval="7200.0").interval_mode() == 7200
    assert RunConfig(resample_interval="none").interval_mode() == "none"


# -------------------------------------------------------------- splitting

def test_split_fractions_and_disjointness(tiny_labelled):
    cfg = _fast_cfg()
    split = split_rows(tiny_labelled, cfg, seed=3)
    n_normal = int((tiny_labelled.label == 1).sum())
    n_anomaly = int((tiny_labelled.label == 0).sum())
    c = split.counts()
    assert c["normal_test"] == round(0.10 * n_normal)
    assert c["normal_test"] + c["normal_train"] == n_normal
    assert c["anomaly_test"] == round(0.50 * n_anomaly)
    assert c["anomaly_test"] + c["anomaly_val"] == n_anomaly
    parts = [split.normal_test, split.normal_train, split.anomaly_test,
             split.anomaly_val]
    all_uids = np.concatenate([p.uid for p in parts])
    assert len(set(all_uids.tolist())) == len(all_uids) == len(tiny_labelled)
    assert np.all(split.normal_test.label == 1)
    assert np.all(split.normal_train.label == 1)
    assert np.all(split.anomaly_test.label == 0)
    assert np.all(split.anomaly_val.label == 0)


def test_split_is_seeded(tiny_labelled):
    cfg = _fast_cfg()
    s1 = split_rows(tiny_labelled, cfg, seed=3)
    s2 = split_rows(tiny_labelled, cfg, seed=3)
    s3 = split_rows(tiny_labelled, cfg, seed=4)
    assert np.array_equal(s1.normal_test.uid, s2.normal_test.uid)
    assert not np.array_equal(s1.normal_test.uid, s3.normal_test.uid)


def test_fish_unit_split_keeps_fish_whole(tiny_labelled):
    cfg = _fast_cfg(split_unit="fish", normal_test_fraction=0.3)
    split = split_rows(tiny_labelled, cfg, seed=1)
    test_fish = set(split.normal_test.fish_id.tolist())
    train_fish = set(split.normal_train.fish_id.tolist())
    assert test_fish and train_fish
    assert not test_fish & train_fish


def test_split_requires_both_labels(tiny_labelled):
    normals_only = tiny_labelled.take(np.flatnonzero(tiny_labelled.label == 1))
    with pytest.raises(DataError):
        split_rows(normals_only, _fast_cfg(), seed=0)


def test_train_val_split_fractions(tiny_labelled):
    tr, val = train_val_split(tiny_labelled, 0.25, seed=2)
    assert len(val) == round(0.25 * len(tiny_labelled))
    assert len(tr) + len(val) == len(tiny_labelled)
    assert not set(tr.uid.tolist()) & set(val.uid.tolist())


# ------------------------------------------------------------ leakage guard

def test_leakage_guard_catches_test_rows(tiny_labelled):
    split = split_rows(tiny_labelled, _fast_cfg(), seed=3)
    guard = LeakageGuard.from_split(split)
    guard.check(split.normal_train, "fit")          # clean: no raise
    tampered = np.concatenate([split.normal_train.uid[:4],
                               split.normal_test.uid[:1]])
    bad = tiny_labelled.take(np.flatnonzero(
        np.isin(tiny_labelled.uid, tampered)))
    with pytest.raises(LeakageError) as err:
        guard.check(bad, "fit")
    assert err.value.stage == "fit"
    assert err.value.uids == [int(split.normal_test.uid[0])]
    assert "fit" in str(err.value)
    # several test rows, from both test partitions, each listed once
    leaked = np.concatenate([split.anomaly_test.uid[:3],
                             split.normal_test.uid[:4]])
    rows = tiny_labelled.take(np.flatnonzero(np.isin(
        tiny_labelled.uid, np.concatenate([leaked,
                                           split.normal_train.uid[:2]]))))
    with pytest.raises(LeakageError) as err:
        guard.check(FeatureTable.concat([rows, rows]), "threshold")
    want = sorted(int(u) for u in leaked)
    assert err.value.uids == want
    assert str(err.value) == (
        "leakage: 7 test row(s) reached stage 'threshold' (uids %s...)"
        % want[:5])


def test_write_split_csv_lines_per_uid(tiny_labelled, tmp_path):
    split = split_rows(tiny_labelled, _fast_cfg(), seed=3)
    path = tmp_path / "split.csv"
    write_split_csv(split, str(path))
    want = "uid,partition\n"
    for part in ("normal_test", "normal_train", "anomaly_test",
                 "anomaly_val"):
        for u in getattr(split, part).uid:
            want += "%d,%s\n" % (u, part)
    assert path.read_text() == want
    # an empty partition writes no line
    split.anomaly_val = split.anomaly_val.take(np.empty(0, np.int64))
    write_split_csv(split, str(path))
    assert path.read_text() == "".join(
        line for line in want.splitlines(True)
        if not line.endswith(",anomaly_val\n"))


# ------------------------------------------------------------ run_pipeline

def test_run_pipeline_report_shape(tiny_labelled):
    cfg = _fast_cfg(models="autoencoder,iforest,dbscan")
    result = run_pipeline(tiny_labelled, cfg, seed=5, timer=lambda: 0.0)
    report = result.report
    assert set(report["models"]) == {"autoencoder", "iforest", "dbscan"}
    for name, entry in report["models"].items():
        assert set(entry) >= {"confusion", "metrics", "runtime_s",
                              "n_parameters"}
        assert entry["runtime_s"] == 0.0
    assert "threshold" in report["models"]["autoencoder"]
    assert report["split"] == result.split.counts()
    assert report["n_train_pool"] == len(result.train_pool)
    assert report["resample_interval"] == "none"
    assert report["resample_plan"] is None


def _record_stages(monkeypatch):
    """The stage of every LeakageGuard.check call, in call order."""
    stages = []
    check = LeakageGuard.check

    def checked(self, table, stage):
        stages.append(stage)
        return check(self, table, stage)
    monkeypatch.setattr(LeakageGuard, "check", checked)
    return stages


@pytest.mark.parametrize("models,fit_checks", [
    ("iforest,lof,dbscan", 2), ("autoencoder", 0), ("dbscan,autoencoder", 2)])
def test_run_pipeline_builds_classical_fit_rows_once(tiny_labelled,
                                                     monkeypatch, models,
                                                     fit_checks):
    fit_rows = []
    stages = _record_stages(monkeypatch)
    for cls in (IsolationForest, LocalOutlierFactor, Dbscan):
        def fitted(self, rows, *args, _fit=cls.fit, **kwargs):
            fit_rows.append(rows)
            return _fit(self, rows, *args, **kwargs)
        monkeypatch.setattr(cls, "fit", fitted)
    run_pipeline(tiny_labelled,
                 _fast_cfg(models=models, resample_interval="600"), seed=5,
                 timer=lambda: 0.0)
    # the pool is checked where it is resampled and scaled, and each
    # matrix's source rows under the stage that reads them
    ae = 2 * ("autoencoder" in models)
    assert collections.Counter(stages) == collections.Counter(
        resample=1, scaler_fit=1, fit=fit_checks, ae_fit=ae, threshold=ae)
    assert len(fit_rows) == len(models.split(",")) - ("autoencoder" in models)
    assert all(rows is fit_rows[0] for rows in fit_rows)


def test_grid_defaults_are_run_defaults():
    # a grid parameter left out takes its class's default, which RunConfig
    # repeats
    def state(pair):
        return json.dumps([vars(pair[0]), pair[1] and vars(pair[1])],
                          default=lambda a: a.tolist(), sort_keys=True)
    for name in pipeline.MODEL_NAMES:
        assert state(detectors.build_model(name, {}, 11, 3)) == state(
            detectors.build_model(name, RunConfig().model_params(name), 11,
                                  3)), name


def test_grid_candidate_with_run_params_builds_run_models(tiny_labelled,
                                                         monkeypatch):
    # run and tune build through one table: a candidate with run's
    # parameters and model seed, fitted on run's rows, is run's model
    cfg = _fast_cfg(models="iforest,lof,dbscan", resample_interval="600")
    result = run_pipeline(tiny_labelled, cfg, seed=5, timer=lambda: 0.0)
    data = pipeline.prepare_training(tiny_labelled, cfg, 5)
    x_test = result.scaler.transform(result.split.test_table().values)
    built = []

    def recorded(*args):
        model, train_cfg = detectors.build_model(*args)
        built.append(model)
        return model, train_cfg
    monkeypatch.setattr(tuning, "build_model", recorded)
    for name in ("iforest", "lof", "dbscan"):
        grid = {key: [value] for key, value in cfg.model_params(name).items()}
        built.clear()
        tuning.grid_search(name, grid, data.fit_x, data.val_x, data.val_y,
                           seed=pipeline._model_seed(5))
        # built once to be checked, then again to be fitted
        _checked, model = built
        want = result.models[name]
        assert model.threshold == want.threshold, name
        assert np.array_equal(model.scores(x_test), want.scores(x_test)), name


@pytest.mark.parametrize("models", ["lof,dbscan", "dbscan,iforest,lof",
                                    "lof", "dbscan"])
def test_lof_and_dbscan_fits_share_one_sweep(tiny_labelled, monkeypatch,
                                              models):
    # one sweep of the fit rows against themselves serves LOF's
    # k-neighbourhoods and DBSCAN's eps-counts, made by the first fit; the
    # models match the ones fitted on their own. A sweep split across CPUs
    # sweeps its first rows here and the rest in child processes, which
    # this list does not see: one sweep is one call from row 0.
    sweeps, fits = [], []

    def blocks(a, b, start=0, stop=None, _fn=detectors._sq_dist_blocks):
        if a is b:
            sweeps.append((len(fits), a, start))
        return _fn(a, b, start, stop)
    for cls in (LocalOutlierFactor, Dbscan):
        def fitted(self, rows, *args, _fit=cls.fit, **kwargs):
            fits.append(self.kind)
            return _fit(self, rows, *args, **kwargs)
        monkeypatch.setattr(cls, "fit", fitted)
    monkeypatch.setattr(detectors, "_sq_dist_blocks", blocks)
    cfg = _fast_cfg(models=models, resample_interval="600")
    result = run_pipeline(tiny_labelled, cfg, seed=5, timer=lambda: 0.0)
    monkeypatch.undo()
    assert [(at, start) for at, _, start in sweeps] == [(1, 0)]
    fit_x = sweeps[0][1]
    if "lof" in models:
        alone = LocalOutlierFactor(k=cfg.lof_k).fit(fit_x)
        assert np.array_equal(result.models["lof"].train_lof, alone.train_lof)
    if "dbscan" in models:
        alone = Dbscan(cfg.dbscan_eps, cfg.dbscan_min_pts).fit(fit_x)
        assert np.array_equal(result.models["dbscan"].labels_, alone.labels_)


def test_a_run_clusters_before_its_files_and_its_repeats_never(
        tiny_csvs, tmp_path, monkeypatch, cpus):
    """A run saves dbscan.json, so its DBSCAN model clusters in the model
    loop, before the model files' writers start; the confidence-interval
    repeats score their fits and never cluster. On one CPU, so that every
    call is made here."""
    cpus(1)
    events = []

    def cluster(self, _fn=Dbscan.cluster):
        events.append("cluster" if self._unclustered is not None
                      else "clustered")
        return _fn(self)

    def write(cfg, result, _fn=pipeline._write_artifacts):
        events.append("write")
        return _fn(cfg, result)
    monkeypatch.setattr(Dbscan, "cluster", cluster)
    monkeypatch.setattr(pipeline, "_write_artifacts", write)
    det, sta = tiny_csvs
    cfg = RunConfig(input_csv=det, station_csv=sta, out_dir=str(tmp_path),
                    seed=5, resample_interval="none", models="dbscan",
                    ci_repeats=2)
    result = run_experiment(cfg, timer=lambda: 0.0)
    assert [e for e in events if e != "clustered"] == ["cluster", "write"]
    assert "clustered" in events        # save_model reads the clusters
    assert result.report["ci"]["dbscan"]["recall"]["n"] == 2


def test_per_criterion_outcomes_recount_from_the_files(tiny_csvs, tmp_path):
    """Each model's per_criterion block recounts from labels.csv (the rows'
    criterion masks), split.csv (the test rows) and the model's flags on
    them; the misses of every criterion together are the FN cell, and
    evaluate reports the same blocks."""
    det, sta = tiny_csvs
    out = tmp_path / "out"
    cfg = RunConfig(input_csv=det, station_csv=sta, out_dir=str(out),
                    seed=5, resample_interval="none",
                    models="autoencoder,iforest,lof,dbscan", ae_units=8,
                    ae_epochs=2, ae_batch_size=64)
    result = run_experiment(cfg, timer=lambda: 0.0)
    with open(out / "labels.csv") as f:
        masks = np.array([int(r["criterion_mask"])
                          for r in csv.DictReader(f)])
    with open(out / "split.csv") as f:
        uids = np.array([int(r["uid"]) for r in csv.DictReader(f)
                         if r["partition"].endswith("_test")])
    # uids number the labelled rows in labels.csv order
    assert np.array_equal(result.table.uid, np.arange(len(masks)))
    x = result.scaler.transform(result.table.take(uids).values)
    with open(out / "report.json") as f:
        report = json.load(f)
    seen = collections.Counter()
    for name, model in result.models.items():
        missed = model.predict(x) == 1
        entry = report["models"][name]
        want = {}
        for key, bit in (("1", 1), ("2", 2), ("3", 4)):
            marked = (masks[uids] & bit) != 0
            n, k = int(marked.sum()), int(missed[marked].sum())
            want[key] = {"anomalies": n, "missed": k,
                         "fn_fraction": k / n if n else None}
            seen[key] += n
        assert entry["per_criterion"] == want, name
        assert int(missed[masks[uids] > 0].sum()) == entry["confusion"]["fn"]
    # criteria 1 and 3 mark test rows here, criterion 2 none
    assert [bool(seen[key]) for key in ("1", "2", "3")] == [True, False, True]
    replay = evaluate_saved(cfg, str(out))
    for name, entry in replay["models"].items():
        assert entry["per_criterion"] == (
            report["models"][name]["per_criterion"])


def _cli_args(tiny_csvs, out, *argv):
    det, sta = tiny_csvs
    return list(argv) + ["--input", det, "--stations", sta, "--out", str(out),
                         "--seed", "5", "--resample-interval", "600"]


@pytest.mark.parametrize("argv,want", [
    # val_x stacks the ae_val matrix on the anomalies, so tune reads ae_val
    (("tune", "--model", "lof"),
     dict(resample=1, scaler_fit=1, fit=2, ae_fit=1, threshold=2)),
    (("resample",), dict(resample=1, scaler_fit=1)),
], ids=["tune-lof", "resample"])
def test_cli_training_paths_go_through_the_guard(tiny_csvs, tmp_path,
                                                 monkeypatch, argv, want):
    stages = _record_stages(monkeypatch)
    assert main(_cli_args(tiny_csvs, tmp_path / "out", *argv)) == 0
    assert collections.Counter(stages) == collections.Counter(want)


def test_tune_stops_on_a_resampled_test_row(tiny_csvs, tmp_path,
                                            monkeypatch):
    splits = []
    split_rows_, resample_ = pipeline.split_rows, pipeline.resample

    def recorded(*args):
        splits.append(split_rows_(*args))
        return splits[-1]

    def leaky(table, plan):
        return FeatureTable.concat([resample_(table, plan),
                                    splits[-1].normal_test.take([0])])
    monkeypatch.setattr(pipeline, "split_rows", recorded)
    monkeypatch.setattr(pipeline, "resample", leaky)
    args = build_parser().parse_args(
        _cli_args(tiny_csvs, tmp_path, "tune", "--model", "lof"))
    with pytest.raises(LeakageError) as err:
        cmd_tune(args)
    assert err.value.stage == "scaler_fit"
    assert err.value.uids == [int(splits[-1].normal_test.uid[0])]


def test_run_pipeline_is_deterministic(tiny_labelled):
    cfg = _fast_cfg(models="autoencoder,iforest,lof,dbscan",
                    resample_interval="auto", max_points=3000)
    blobs = []
    for _ in range(2):
        result = run_pipeline(tiny_labelled, cfg, seed=5, timer=lambda: 0.0)
        blobs.append(json.dumps(result.report, sort_keys=True))
    assert blobs[0] == blobs[1]


def test_run_pipeline_resample_modes(tiny_labelled):
    fixed = run_pipeline(tiny_labelled, _fast_cfg(resample_interval="600"),
                         seed=5, timer=lambda: 0.0)
    assert fixed.plan.delta_t == 600
    assert fixed.report["resample_interval"] == 600
    assert fixed.report["resample_plan"]["delta_t"] == 600

    auto = run_pipeline(tiny_labelled,
                        _fast_cfg(resample_interval="auto", max_points=800),
                        seed=5, timer=lambda: 0.0)
    # the budget bounds the projected count span/delta_t, and delta_t is
    # the smallest candidate that fits it
    from telanom.resampling import collect_candidates
    cands, span, _ = collect_candidates(auto.split.normal_train)
    assert span / auto.plan.delta_t <= 800
    smaller = [g for g in cands if g < auto.plan.delta_t]
    assert all(span / g > 800 for g in smaller)
    assert not auto.plan.budget_exceeded
    assert auto.plan.delta_t == auto.report["resample_plan"]["delta_t"]

    off = run_pipeline(tiny_labelled, _fast_cfg(), seed=5, timer=lambda: 0.0)
    assert off.plan is None
    assert np.array_equal(np.sort(off.train_pool.uid),
                          np.sort(off.split.normal_train.uid))


def test_run_pipeline_scores_test_set_once(tiny_labelled, monkeypatch):
    seen = {}
    for cls in (IsolationForest, LocalOutlierFactor, Dbscan):
        def counted(self, rows, _fn=cls.scores):
            seen.setdefault(self.kind, []).append(np.array(rows))
            return _fn(self, rows)
        monkeypatch.setattr(cls, "scores", counted)
    cfg = _fast_cfg(models="iforest,lof,dbscan")
    result = run_pipeline(tiny_labelled, cfg, seed=5, timer=lambda: 0.0)
    x_test = result.scaler.transform(result.split.test_table().values)
    for kind in ("iforest", "lof", "dbscan"):
        on_test = [x for x in seen[kind] if np.array_equal(x, x_test)]
        assert len(on_test) == 1, kind


# ------------------------------------------ the autoencoder's child process

needs_fork = pytest.mark.skipif(not hasattr(os, "fork")
                                or not hasattr(os, "sched_getaffinity"),
                                reason="the child process needs fork")


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _files(out):
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def _untimed(files):
    """``_files``' contents less the timing fields: runtime_s in
    report.json and train_time_minutes in summary.csv."""
    files = dict(files)
    if "report.json" in files:
        files["report.json"] = json.loads(files["report.json"])
        for entry in files["report.json"]["models"].values():
            del entry["runtime_s"]
    if "summary.csv" in files:
        files["summary.csv"] = list(csv.DictReader(
            io.StringIO(files["summary.csv"].decode())))
        for row in files["summary.csv"]:
            del row["train_time_minutes"]
    return files


def _assert_whole(left, whole):
    """Every file a failed run ``left`` is one the successful one-process
    run wrote (``whole``), equal but for its timing fields, and none is a
    temporary file."""
    assert [name for name in left if ".tmp-" in name] == []
    assert set(left) <= set(whole)
    left, whole = _untimed(left), _untimed(whole)
    assert [name for name in left if left[name] != whole[name]] == []


@needs_fork
def test_forked_and_inline_runs_are_identical(tiny_labelled, tiny_csvs,
                                              tmp_path, cpus):
    det, sta = tiny_csvs
    cfg = _fast_cfg(models="autoencoder,iforest,lof,dbscan",
                    resample_interval="auto", max_points=2500,
                    input_csv=det, station_csv=sta, dump_features=True)
    reports, files = [], []
    for n_cpus in (2, 1):
        forks = cpus(n_cpus)
        result = run_pipeline(tiny_labelled, cfg, seed=5, timer=lambda: 0.0)
        reports.append(json.dumps(result.report))
        # one out_dir for both, since report.json holds it
        out = tmp_path / "out"
        run_experiment(dataclasses.replace(cfg, out_dir=str(out)),
                       timer=lambda: 0.0)
        files.append(_files(out))
        shutil.rmtree(out)
        # per run: the autoencoder's job, the second half of the fit
        # rows' pass against themselves and of the forest's walk over its
        # 2,943 fit rows; the test-row scorings are too small to split.
        # run_experiment's stage files are written in the autoencoder's
        # child, and its model files' writers add a fourth
        assert len(forks) == (7 if n_cpus > 1 else 0)
        _assert_no_child()
    assert reports[0] == reports[1]
    assert files[0] == files[1]
    assert "models/autoencoder.json" in files[0]


@needs_fork
@pytest.mark.parametrize("models, forks", [
    ("iforest", 0), ("autoencoder,iforest", 0), ("iforest,lof", 1),
    ("dbscan", 1)])
def test_model_files_are_dealt_only_with_fit_rows(tiny_csvs, tmp_path, cpus,
                                                  models, forks):
    """The artifact writers are dealt to a child only where the LOF or
    DBSCAN model file, which hold their fit rows, is among them; the
    others run here and write the same files."""
    det, sta = tiny_csvs
    cfg = _fast_cfg(models=models, input_csv=det, station_csv=sta,
                    out_dir=str(tmp_path / "out"))
    cpus(1)
    result = run_experiment(cfg, timer=lambda: 0.0)
    before = _files(tmp_path / "out")
    made = cpus(2)
    pipeline._write_artifacts(cfg, result)
    assert len(made) == forks
    _assert_no_child()
    assert _files(tmp_path / "out") == before


@needs_fork
def test_child_data_error_is_the_parents(tiny_labelled, tiny_csvs, tmp_path,
                                         monkeypatch, capsys, cpus):
    forks = cpus(2)

    def bad_rows(*args, **kwargs):
        raise DataError("no usable training rows")
    monkeypatch.setattr(pipeline, "train", bad_rows)
    with pytest.raises(DataError, match="^no usable training rows$"):
        run_pipeline(tiny_labelled, _fast_cfg(models="autoencoder,iforest"),
                     seed=5)
    det, sta = tiny_csvs
    assert main(["run", "--input", det, "--stations", sta,
                 "--resample-interval", "none",
                 "--models", "iforest,autoencoder",
                 "--out", str(tmp_path / "o")]) == 2
    assert "data error: no usable training rows" in capsys.readouterr().err
    assert len(forks) == 2
    _assert_no_child()


@needs_fork
@pytest.mark.parametrize("models,raised", [
    ("lof,autoencoder", "lof"), ("autoencoder,lof", "autoencoder")])
def test_parent_error_leaves_no_child(tiny_labelled, monkeypatch, cpus,
                                      models, raised):
    """The parent's error kills a child whose result the serial order
    would not reach; with the autoencoder first, the child's error is the
    one raised, as when the models run one after another."""
    forks = cpus(2)

    def lof_fails(self, *args, **kwargs):
        raise RuntimeError("lof")

    def autoencoder_fails(*args, **kwargs):
        if raised == "lof":
            time.sleep(60)
        raise RuntimeError("autoencoder")
    monkeypatch.setattr(LocalOutlierFactor, "fit", lof_fails)
    monkeypatch.setattr(pipeline, "train", autoencoder_fails)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="^%s$" % raised):
        run_pipeline(tiny_labelled, _fast_cfg(models=models), seed=5)
    assert time.monotonic() - t0 < 30
    assert len(forks) == 1
    _assert_no_child()


@needs_fork
def test_child_without_a_result_is_an_error(tiny_labelled, monkeypatch,
                                            cpus):
    forks = cpus(2)
    monkeypatch.setattr(pipeline, "train",
                        lambda *args, **kwargs: os._exit(1))
    with pytest.raises(RuntimeError, match="no result"):
        run_pipeline(tiny_labelled, _fast_cfg(models="autoencoder,iforest"),
                     seed=5)
    assert len(forks) == 1
    _assert_no_child()


@needs_fork
def test_the_autoencoders_failure_stops_the_later_models(tiny_labelled,
                                                        monkeypatch, cpus,
                                                        tmp_path):
    """The autoencoder's job fails in its child while iforest fits here:
    LOF, after both in model_list order, never starts, and the
    autoencoder's error is raised."""
    cpus(2)
    sent, started = tmp_path / "sent", []

    def fails(*args, **kwargs):
        sent.touch()
        raise TrainingError("the autoencoder diverged")

    def waits(self, *args, _fn=IsolationForest.fit, **kwargs):
        # wait until the child has failed and had time to send it
        deadline = time.monotonic() + 20
        while not sent.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(1)
        return _fn(self, *args, **kwargs)

    def lof_fit(self, *args, _fn=LocalOutlierFactor.fit, **kwargs):
        started.append("lof")
        return _fn(self, *args, **kwargs)
    monkeypatch.setattr(pipeline, "train", fails)
    monkeypatch.setattr(IsolationForest, "fit", waits)
    monkeypatch.setattr(LocalOutlierFactor, "fit", lof_fit)
    t0 = time.monotonic()
    with pytest.raises(TrainingError, match="^the autoencoder diverged$"):
        run_pipeline(tiny_labelled,
                     _fast_cfg(models="autoencoder,iforest,lof"), seed=5)
    assert time.monotonic() - t0 < 30
    assert started == []
    _assert_no_child()


def test_one_cpu_runs_the_models_in_model_list_order(tiny_labelled,
                                                     monkeypatch, cpus):
    cpus(1)
    order = []

    def trains(*args, _fn=pipeline.train, **kwargs):
        order.append("autoencoder")
        return _fn(*args, **kwargs)
    monkeypatch.setattr(pipeline, "train", trains)
    for cls in (IsolationForest, LocalOutlierFactor, Dbscan):
        def fit(self, *args, _fn=cls.fit, **kwargs):
            order.append(self.kind)
            return _fn(self, *args, **kwargs)
        monkeypatch.setattr(cls, "fit", fit)
    models = "lof,autoencoder,iforest,dbscan"
    result = run_pipeline(tiny_labelled, _fast_cfg(models=models), seed=5)
    assert order == models.split(",")
    assert list(result.models) == list(result.report["models"]) == order


@needs_fork
@pytest.mark.parametrize("failing", ["lof.json", "dbscan.json"])
def test_a_failing_file_writer_leaves_no_child(tiny_csvs, tmp_path,
                                               monkeypatch, capsys, cpus,
                                               failing):
    """The model files' writers are dealt across the CPUs, lof.json's
    here and dbscan.json's in the child; either one's DataError ends the
    run with exit 2 and its message, no child is left, and every file the
    run leaves is the one-process run's, with no temporary file."""
    det, sta = tiny_csvs
    out = tmp_path / "o"
    argv = ["run", "--input", det, "--stations", sta,
            "--resample-interval", "none", "--models", "lof,dbscan",
            "--out", str(out)]
    # one out_dir for both, since report.json holds it
    cpus(1)
    assert main(argv) == 0
    whole = _files(out)
    shutil.rmtree(out)
    forks = cpus(2)

    def save(model, path, _fn=pipeline.save_model):
        if path.endswith(failing):
            raise DataError("cannot write %s" % failing)
        return _fn(model, path)
    monkeypatch.setattr(pipeline, "save_model", save)
    capsys.readouterr()
    assert main(argv) == 2
    assert ("data error: cannot write %s" % failing
            in capsys.readouterr().err)
    # the stage files' child while the models fit, and the model files'
    assert len(forks) == 2
    _assert_no_child()
    left = _files(out)
    assert "models/%s" % failing not in left
    _assert_whole(left, whole)


# ------------------------------------------ the stage files' writers

_STAGE_FILES = ("labels.csv", "label_report.json", "plan.json",
                "resampled.csv", "split.csv")


@needs_fork
@pytest.mark.parametrize("models,forks_on", [
    ("iforest", {2: 2, 3: 3}),
    ("autoencoder", {2: 1, 3: 1}),
    ("autoencoder,iforest,lof,dbscan", {2: 4, 3: 7}),
], ids=["run-iforest", "threshold", "run-all"])
def test_stage_files_on_one_two_and_three_cpus(tiny_csvs, tmp_path, cpus,
                                               models, forks_on):
    """The stage files are written in the run's child while the models
    fit, after the autoencoder's job when it is there; every file is the
    one-process run's, byte for byte under an injected timer."""
    det, sta = tiny_csvs
    out = tmp_path / "out"
    cfg = _fast_cfg(models=models, resample_interval="auto",
                    max_points=2500, input_csv=det, station_csv=sta,
                    out_dir=str(out))
    files = []
    for n_cpus in (1, 2, 3):
        forks = cpus(n_cpus)
        run_experiment(cfg, timer=lambda: 0.0)
        files.append(_files(out))
        shutil.rmtree(out)
        # the run's child (stage files, and the autoencoder's job beside
        # classical models), one per further share of the model files'
        # writers where LOF and DBSCAN run, the split sweeps of the
        # LOF/DBSCAN fit rows' pass and the split walk of the forest's
        # 2,943 fit rows
        assert len(forks) == forks_on.get(n_cpus, 0)
        _assert_no_child()
    assert files[0] == files[1] == files[2]
    assert set(_STAGE_FILES) <= set(files[0])
    assert "report.json" in files[0]


@needs_fork
def test_a_failing_model_kills_the_child_mid_write(tiny_csvs, tmp_path,
                                                   monkeypatch, cpus):
    """An iforest fit fails while the child is halfway through split.csv:
    the child is killed at once, and the run leaves no split.csv, no
    temporary file and no child, and every file it leaves is the
    one-process run's."""
    det, sta = tiny_csvs
    cfg = _fast_cfg(models="iforest", resample_interval="auto",
                    max_points=2500, input_csv=det, station_csv=sta)
    cpus(1)
    run_experiment(dataclasses.replace(cfg, out_dir=str(tmp_path / "one")),
                   timer=lambda: 0.0)
    whole = _files(tmp_path / "one")
    out = tmp_path / "two"

    def stalled_split(split, path):
        with whole_file(path) as f:
            f.write("uid,partition\n")
            f.flush()
            time.sleep(60)

    begun = []

    def fails(self, *args, **kwargs):
        time.sleep(0.3)
        # fail once the child has begun split.csv under its temporary name
        deadline = time.monotonic() + 20
        while not begun and time.monotonic() < deadline:
            begun.extend(out.glob("split.csv.tmp-*"))
            time.sleep(0.01)
        raise RuntimeError("iforest")
    monkeypatch.setattr(pipeline, "write_split_csv", stalled_split)
    monkeypatch.setattr(IsolationForest, "fit", fails)
    forks = cpus(2)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="^iforest$"):
        run_experiment(dataclasses.replace(cfg, out_dir=str(out)))
    assert time.monotonic() - t0 < 30
    assert len(begun) == 1
    assert len(forks) == 1
    _assert_no_child()
    left = _files(out)
    assert "split.csv" not in left
    _assert_whole(left, whole)


@needs_fork
def test_a_failing_model_kills_the_autoencoders_job(tiny_csvs, tmp_path,
                                                    monkeypatch, cpus):
    """An iforest fit fails while the child still trains the autoencoder,
    whose result the serial order would not reach: the child is killed at
    once, before any stage file is begun."""
    det, sta = tiny_csvs
    monkeypatch.setattr(pipeline, "train",
                        lambda *args, **kwargs: time.sleep(60))

    def fails(self, *args, **kwargs):
        time.sleep(0.3)
        raise RuntimeError("iforest")
    monkeypatch.setattr(IsolationForest, "fit", fails)
    forks = cpus(2)
    out = tmp_path / "o"
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="^iforest$"):
        run_experiment(_fast_cfg(models="iforest,autoencoder",
                                 input_csv=det, station_csv=sta,
                                 out_dir=str(out)))
    assert time.monotonic() - t0 < 30
    assert len(forks) == 1
    _assert_no_child()
    assert not out.exists()


@needs_fork
@pytest.mark.parametrize("failing,raised", [
    (("split.csv",), "split.csv"),
    (("labels.csv", "split.csv"), "labels.csv"),
    (("iforest.json", "split.csv"), "split.csv"),
])
def test_a_failing_stage_writer_leaves_the_other_files_whole(
        tiny_csvs, tmp_path, monkeypatch, capsys, cpus, failing, raised):
    """A stage writer's DataError ends the run with exit 2 and its
    message, as one after another: the stage files written before it are
    whole, and no later writer runs, so neither does any model file's;
    the stage files' errors come before the model files'."""
    det, sta = tiny_csvs
    argv = ["run", "--input", det, "--stations", sta, "--seed", "5",
            "--resample-interval", "auto", "--max-points", "2500",
            "--models", "iforest"]
    cpus(1)
    assert main(argv + ["--out", str(tmp_path / "one")]) == 0
    whole = _files(tmp_path / "one")
    capsys.readouterr()

    def fail_on(name, fn):
        def writer(*args):
            # save_model writes scaler.json too
            if name in failing and (name != "iforest.json"
                                    or args[-1].endswith(name)):
                raise DataError("cannot write %s" % name)
            return fn(*args)
        return writer
    monkeypatch.setattr(pipeline, "write_split_csv",
                        fail_on("split.csv", pipeline.write_split_csv))
    monkeypatch.setattr(pipeline, "save_labels",
                        fail_on("labels.csv", pipeline.save_labels))
    monkeypatch.setattr(pipeline, "save_model",
                        fail_on("iforest.json", pipeline.save_model))
    forks = cpus(2)
    out = tmp_path / "two"
    assert main(argv + ["--out", str(out)]) == 2
    assert "data error: cannot write %s" % raised in capsys.readouterr().err
    # the stage files' child and the second half of the forest's walk
    # over its 2,943 fit rows; the model files' writers are never dealt
    assert len(forks) == 2
    _assert_no_child()
    left = _files(out)
    before = {"labels.csv": [],
              "split.csv": ["labels.csv", "label_report.json", "plan.json",
                            "resampled.csv"]}
    assert sorted(left) == sorted(before[raised])
    _assert_whole(left, whole)


# ------------------------------------------------- experiment + evaluation

def test_run_experiment_writes_artifacts(tiny_csvs, tmp_path):
    det, sta = tiny_csvs
    out = tmp_path / "out"
    cfg = RunConfig(input_csv=det, station_csv=sta, out_dir=str(out),
                    seed=5, resample_interval="auto", max_points=2500,
                    models="autoencoder,iforest,dbscan", ae_units=8,
                    ae_epochs=2, ae_batch_size=64, dump_features=True)
    result = run_experiment(cfg, timer=lambda: 0.0)
    for name in ("report.json", "label_report.json", "labels.csv",
                 "scaler.json", "split.csv", "summary.csv", "plan.json",
                 "resampled.csv", "threshold.json", "percentile_table.csv",
                 "loss_curve.csv", "features.csv"):
        assert (out / name).exists(), name
    for name in ("autoencoder", "iforest", "dbscan"):
        assert (out / "models" / ("%s.json" % name)).exists()
    with open(out / "report.json") as f:
        on_disk = json.load(f)
    assert on_disk["config"]["seed"] == 5
    assert set(on_disk["models"]) == {"autoencoder", "iforest", "dbscan"}
    assert on_disk == json.loads(json.dumps(result.report))

    # split.csv covers every labelled row exactly once
    lines = (out / "split.csv").read_text().strip().splitlines()[1:]
    assert len(lines) == len(result.table)
    # scaler.json holds the bytes json.dump writes
    assert (out / "scaler.json").read_text() == json.dumps(
        result.scaler.to_json()) + "\n"


def _every_output_cfg(tiny_csvs, out):
    """A four-model auto run with dump_features: every output of run."""
    det, sta = tiny_csvs
    return _fast_cfg(models="autoencoder,iforest,lof,dbscan",
                     resample_interval="auto", max_points=2500,
                     input_csv=det, station_csv=sta, out_dir=str(out),
                     dump_features=True)


def test_run_outputs_are_every_file_a_run_writes(tiny_csvs, tmp_path):
    out = tmp_path / "out"
    run_experiment(_every_output_cfg(tiny_csvs, out), timer=lambda: 0.0)
    assert sorted(_files(out)) == sorted(pipeline._RUN_OUTPUTS)


def test_a_run_leaves_no_file_of_an_earlier_run(tiny_csvs, tmp_path):
    """An iforest-only run without resampling into the directory of a
    four-model run leaves exactly the files of a fresh run."""
    out = tmp_path / "out"
    second = dataclasses.replace(_every_output_cfg(tiny_csvs, out),
                                 models="iforest", resample_interval="none",
                                 dump_features=False)
    run_experiment(second, timer=lambda: 0.0)
    fresh = _files(out)
    assert "plan.json" not in fresh and "models/lof.json" not in fresh
    run_experiment(_every_output_cfg(tiny_csvs, out), timer=lambda: 0.0)
    run_experiment(second, timer=lambda: 0.0)
    assert _files(out) == fresh


def test_a_failed_run_leaves_no_file_of_an_earlier_run(tiny_csvs, tmp_path,
                                                       monkeypatch):
    """A run that fails writing iforest.json into the directory of a
    four-model run leaves only whole files of its own."""
    out = tmp_path / "out"
    second = dataclasses.replace(_every_output_cfg(tiny_csvs, out),
                                 models="iforest,dbscan", seed=6)
    run_experiment(second, timer=lambda: 0.0)
    whole = _files(out)
    run_experiment(_every_output_cfg(tiny_csvs, out), timer=lambda: 0.0)

    def save_model(model, path, _fn=pipeline.save_model):
        if path.endswith("iforest.json"):
            raise DataError("cannot write iforest.json")
        return _fn(model, path)
    monkeypatch.setattr(pipeline, "save_model", save_model)
    with pytest.raises(DataError, match="cannot write iforest.json"):
        run_experiment(second, timer=lambda: 0.0)
    left = _files(out)
    assert "models/iforest.json" not in left and "report.json" not in left
    assert set(_STAGE_FILES) <= set(left)
    _assert_whole(left, whole)


def test_ci_repeats_equal_one_run_per_model(tiny_csvs, tmp_path):
    det, sta = tiny_csvs
    cfg = RunConfig(input_csv=det, station_csv=sta, out_dir=str(tmp_path),
                    seed=5, resample_interval="none",
                    models="autoencoder,iforest,dbscan", ae_units=8,
                    ae_epochs=2, ae_batch_size=64, ci_repeats=3)
    result = run_experiment(cfg, timer=lambda: 0.0)
    want = reshuffle_report(result.table, cfg)
    assert list(want) == ["autoencoder", "iforest", "dbscan"]
    assert all(want[name]["recall"]["n"] == 3 for name in want)
    assert result.report["ci"] == want
    for name, entry in result.report["models"].items():
        assert entry["ci"] == want[name]


@needs_fork
def test_ci_repeats_on_one_and_two_cpus_are_the_same(tiny_csvs, tmp_path,
                                                     cpus):
    # the repeats run one after another; on two CPUs each one trains its
    # autoencoder in a child, as the run does, whose child also writes the
    # stage files
    det, sta = tiny_csvs
    cfg = RunConfig(input_csv=det, station_csv=sta, out_dir=str(tmp_path),
                    seed=5, resample_interval="none",
                    models="autoencoder,iforest", ae_units=8, ae_epochs=2,
                    ae_batch_size=64, ci_repeats=3)
    cis = []
    for n_cpus in (1, 2):
        forks = cpus(n_cpus)
        cis.append(run_experiment(cfg, timer=lambda: 0.0).report["ci"])
        # on two CPUs: the run's autoencoder and stage files, and each
        # repeat's autoencoder; without LOF or DBSCAN the model files'
        # writers run in the process
        assert len(forks) == 4 * (n_cpus - 1)
        _assert_no_child()
    assert cis[0] == cis[1]
    assert all(cis[0][name]["recall"]["n"] == 3 for name in cis[0])


def test_evaluate_saved_matches_original_run(tiny_csvs, tmp_path):
    det, sta = tiny_csvs
    out = tmp_path / "orig"
    cfg = RunConfig(input_csv=det, station_csv=sta, out_dir=str(out),
                    seed=7, resample_interval="auto", max_points=2500,
                    models="autoencoder,iforest,lof,dbscan", ae_units=8,
                    ae_epochs=2, ae_batch_size=64)
    original = run_experiment(cfg, timer=lambda: 0.0)
    replay = evaluate_saved(cfg, str(out), timer=lambda: 0.0)
    assert replay["split"] == original.report["split"]
    assert list(replay["models"]) == list(pipeline.MODEL_NAMES)
    for name, entry in replay["models"].items():
        want = dict(original.report["models"][name])
        # run's report also carries the autoencoder's percentile search
        if name == "autoencoder":
            assert want.pop("threshold")["threshold"] == (
                original.models[name].threshold)
        # the interval the plan chose, not the "auto" that asked for it
        assert entry["resample_interval"] == original.plan.delta_t
        assert entry == dict(want, runtime_s=0.0)


@pytest.fixture(scope="module")
def iforest_run(tiny_csvs, tmp_path_factory):
    """The output directory of a seed-7 iforest run on tiny_csvs and the
    config it ran with."""
    det, sta = tiny_csvs
    cfg = RunConfig(input_csv=det, station_csv=sta, seed=7,
                    out_dir=str(tmp_path_factory.mktemp("iforest_run")),
                    resample_interval="none", models="iforest")
    run_experiment(cfg, timer=lambda: 0.0)
    return cfg.out_dir, cfg


@pytest.mark.parametrize("change", [
    dict(seed=8), dict(normal_test_fraction=0.2),
    dict(anomaly_test_fraction=0.4), dict(split_unit="fish"),
], ids=lambda change: next(iter(change)))
def test_evaluate_saved_rejects_another_split(iforest_run, change):
    out, cfg = iforest_run
    assert evaluate_saved(cfg, out)["models"]["iforest"]["confusion"]
    with pytest.raises(DataError, match="report.json: %s is" % next(
            iter(change))):
        evaluate_saved(dataclasses.replace(cfg, **change), out)


def test_evaluate_saved_rejects_other_inputs(iforest_run, tmp_path):
    out, cfg = iforest_run
    lines = open(cfg.input_csv).read().splitlines(keepends=True)
    fewer = tmp_path / "fewer.csv"
    fewer.write_text("".join(lines[:-1]))
    with pytest.raises(DataError, match="report.json: ingest summary"):
        evaluate_saved(dataclasses.replace(cfg, input_csv=str(fewer)), out)


def test_evaluate_saved_missing_model(tiny_csvs, tmp_path):
    det, sta = tiny_csvs
    out = tmp_path / "orig2"
    cfg = RunConfig(input_csv=det, station_csv=sta, out_dir=str(out),
                    seed=7, resample_interval="none", models="iforest")
    run_experiment(cfg, timer=lambda: 0.0)
    probe = RunConfig(input_csv=det, station_csv=sta, seed=7,
                      resample_interval="none", models="lof")
    with pytest.raises(DataError):
        evaluate_saved(probe, str(out))
