"""Pipeline orchestration tests: config parsing, stratified splitting, the
leakage guard, deterministic end-to-end runs, and artifact round-trips."""

import collections
import dataclasses
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
from telanom.errors import DataError, LeakageError
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
        (model,) = built
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


def _cli_args(tiny_csvs, out, *argv):
    det, sta = tiny_csvs
    return list(argv) + ["--input", det, "--stations", sta, "--out", str(out),
                         "--seed", "5", "--resample-interval", "600"]


AE_GRID = {"units": [4], "bottleneck": [2], "learning_rate": [0.01],
           "batch_size": [64], "epochs": [2]}


@pytest.mark.parametrize("argv,want", [
    # val_x stacks the ae_val matrix on the anomalies, so tune reads ae_val
    (("tune", "--model", "lof"),
     dict(resample=1, scaler_fit=1, fit=2, ae_fit=1, threshold=2)),
    (("tune", "--model", "autoencoder"),
     dict(resample=1, scaler_fit=1, ae_fit=2, threshold=2)),
    (("resample",), dict(resample=1, scaler_fit=1)),
], ids=["tune-lof", "tune-autoencoder", "resample"])
def test_cli_training_paths_go_through_the_guard(tiny_csvs, tmp_path,
                                                 monkeypatch, argv, want):
    stages = _record_stages(monkeypatch)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(AE_GRID))
    if "autoencoder" in argv:
        argv += ("--grid", str(grid))
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
        files.append({str(path.relative_to(out)): path.read_bytes()
                      for path in sorted(out.rglob("*")) if path.is_file()})
        shutil.rmtree(out)
        # per run: the autoencoder's job, and the second half of the fit
        # rows' pass against themselves; the test-row scorings are too
        # small to split. run_experiment's file writers add a third
        assert len(forks) == (5 if n_cpus > 1 else 0)
        _assert_no_child()
    assert reports[0] == reports[1]
    assert files[0] == files[1]
    assert "models/autoencoder.json" in files[0]


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
@pytest.mark.parametrize("failing", ["lof.json", "dbscan.json"])
def test_a_failing_file_writer_leaves_no_child(tiny_csvs, tmp_path,
                                               monkeypatch, capsys, cpus,
                                               failing):
    """The writers are dealt across the CPUs, lof.json's here and
    dbscan.json's in the child; either one's DataError ends the run with
    exit 2 and its message, no child is left, and the other writers have
    written their whole files."""
    forks = cpus(2)

    def save(model, path, _fn=pipeline.save_model):
        if path.endswith(failing):
            raise DataError("cannot write %s" % failing)
        return _fn(model, path)
    monkeypatch.setattr(pipeline, "save_model", save)
    det, sta = tiny_csvs
    assert main(["run", "--input", det, "--stations", sta,
                 "--resample-interval", "none", "--models", "lof,dbscan",
                 "--out", str(tmp_path / "o")]) == 2
    assert ("data error: cannot write %s" % failing
            in capsys.readouterr().err)
    assert len(forks) == 1
    _assert_no_child()
    out = tmp_path / "o"
    other = {"lof.json": "dbscan.json", "dbscan.json": "lof.json"}[failing]
    assert not (out / "models" / failing).exists()
    detectors.load_model(str(out / "models" / other))
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 3


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
    # autoencoder in a child, as the run does
    det, sta = tiny_csvs
    cfg = RunConfig(input_csv=det, station_csv=sta, out_dir=str(tmp_path),
                    seed=5, resample_interval="none",
                    models="autoencoder,iforest", ae_units=8, ae_epochs=2,
                    ae_batch_size=64, ci_repeats=3)
    cis = []
    for n_cpus in (1, 2):
        forks = cpus(n_cpus)
        cis.append(run_experiment(cfg, timer=lambda: 0.0).report["ci"])
        # on two CPUs: the autoencoder of the run and of each repeat, and
        # the file writers
        assert len(forks) == 5 * (n_cpus - 1)
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
