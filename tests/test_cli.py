"""CLI tests: exit codes, artifact layout, and stage subcommands, all run
in-process through main(argv)."""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import telanom
import telanom.tuning
from telanom.cli import _load_config, build_parser, main
from telanom.detectors import LocalOutlierFactor, save_model
from telanom.errors import DataError
from telanom.metrics import save_report
from telanom.pipeline import RunConfig


SYNTH_CFG = {"n_fish": 4, "span_days": 100.0, "mean_gap_s": 30000.0,
             "fraction_single_station": 0.26, "skip_rate": 0.08, "seed": 2}

RUN_CFG_TEXT = (
    "resample_interval = none\n"
    "models = iforest,dbscan\n"
    "ae_units = 8\n"
    "ae_epochs = 2\n"
    "ae_batch_size = 64\n")


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Synthetic CSVs produced by the synth subcommand itself."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = os.path.join(root, "synth.json")
    with open(cfg_path, "w") as f:
        json.dump(SYNTH_CFG, f)
    out = os.path.join(root, "data")
    assert main(["synth", "--config", cfg_path, "--out", out]) == 0
    return {"dir": out,
            "detections": os.path.join(out, "detections.csv"),
            "stations": os.path.join(out, "stations.csv"),
            "cfg_path": cfg_path,
            "root": str(root)}


def _data_args(dataset, out):
    return ["--input", dataset["detections"],
            "--stations", dataset["stations"], "--out", out]


def test_synth_writes_dataset(dataset):
    for name in ("detections.csv", "stations.csv", "ground_truth.csv",
                 "synth.json"):
        assert os.path.exists(os.path.join(dataset["dir"], name))
    with open(os.path.join(dataset["dir"], "synth.json")) as f:
        blob = json.load(f)
    assert blob["n_detections"] > 0
    assert blob["n_anomalous"] > 0
    assert blob["config"]["n_fish"] == 4


def test_synth_is_deterministic(dataset, tmp_path):
    out2 = str(tmp_path / "again")
    assert main(["synth", "--config", dataset["cfg_path"],
                 "--out", out2]) == 0
    with open(dataset["detections"]) as f:
        first = f.read()
    with open(os.path.join(out2, "detections.csv")) as f:
        again = f.read()
    assert first == again


def test_usage_errors_exit_1(capsys):
    assert main(["tune"]) == 1                  # missing required --model
    assert main(["no-such-command"]) == 1
    assert main(["run", "--seed", "NaNsense"]) == 1
    err = capsys.readouterr().err
    assert "error" in err.lower()


def test_data_errors_exit_2(dataset, tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    assert main(["label", "--input", missing,
                 "--stations", dataset["stations"],
                 "--out", str(tmp_path / "o1")]) == 2
    assert main(["run", "--input", dataset["detections"],
                 "--stations", dataset["stations"],
                 "--models", "svm", "--out", str(tmp_path / "o2")]) == 2
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["synth", "--config", str(bad_json),
                 "--out", str(tmp_path / "o3")]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("settings, flags", [
    ({"n_fish": "3"}, []), ({"n_fish": 2.5}, []), ({"n_fish": True}, []),
    ({"seed": -1}, []), ({"origin_lat": "x"}, []),
    ({"start_date": "2017-13-01"}, []), ({"start_date": "9999-12-01"}, []),
    ({"mean_gap_s": 0}, []),
    ({}, ["--days", "nan"]), ({}, ["--days", "inf"]),
    ({"origin_lat": 89.99, "waterway_km": 500}, [])])
def test_bad_generator_settings_exit_2(settings, flags, tmp_path):
    """Each ends in a data error, in a fresh process given a time limit:
    the zero gap and the non-finite spans once never finished, and the
    polar origin once placed stations off the globe."""
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(dict({"n_fish": 2}, **settings)))
    src = os.path.dirname(os.path.dirname(telanom.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "telanom.cli", "synth", "--config", str(cfg),
         "--out", str(tmp_path / "out")] + flags,
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "data error" in proc.stderr


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Prints the thread variables after importing the package, then the thread
# count of numpy's bundled OpenBLAS where that library is found
_BLAS_PROBE = """
import ctypes, glob, json, os, sys
import telanom, numpy
threads = None
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                              "numpy.libs", "*openblas*"))
for lib in libs:
    get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        threads = get()
print(json.dumps([{v: os.environ.get(v) for v in sys.argv[1:]}, threads]))
"""


@pytest.mark.parametrize("openblas", [None, "2"], ids=["unset", "set"])
def test_blas_runs_one_thread_unless_the_caller_chose(openblas):
    """Importing telanom sets every BLAS thread variable the caller left
    unset to 1, before numpy loads BLAS; one the caller set is kept."""
    src = os.path.dirname(os.path.dirname(telanom.__file__))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    if openblas:
        env["OPENBLAS_NUM_THREADS"] = openblas
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE, *BLAS_THREAD_VARS],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    seen, threads = json.loads(proc.stdout)
    want = dict.fromkeys(BLAS_THREAD_VARS, "1")
    want["OPENBLAS_NUM_THREADS"] = openblas or "1"
    assert seen == want
    if threads is not None and not openblas:
        assert threads == 1


def test_bad_config_boolean_exits_2(dataset, tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(RUN_CFG_TEXT + "dump_features = ture\n")
    assert main(["run", "--config", str(cfg)]
                + _data_args(dataset, str(tmp_path / "o"))) == 2
    assert "typo.cfg:6: bad value 'ture'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, setting, grid, message", [
    (["run", "--seed", "-1"], "", None, "seed must be at least 0"),
    (["split", "--seed", "-1"], "", None, "seed must be at least 0"),
    (["tune", "--model", "lof", "--seed", "-1"], "", None,
     "seed must be at least 0"),
    (["run"], "seed = -2\n", None, "seed must be at least 0"),
    (["tune", "--model", "dbscan"], "seed = -2\n", None,
     "seed must be at least 0"),
    (["run", "--models", "iforest"], "if_subsample = 0\n", None,
     "subsample must be >= 1"),
    (["run", "--models", "autoencoder"], "ae_batch_size = 0\n", None,
     "batch_size must be >= 1"),
    (["tune", "--model", "iforest"], "", {"subsample": [256, 0]},
     "subsample must be >= 1"),
    (["run", "--resample-interval", "inf"], "", None,
     "bad resample_interval 'inf'"),
    (["run"], "resample_interval = 1e19\n", None,
     "bad resample_interval '1e19'"),
    (["run", "--max-points", "0"], "", None,
     "max_points must be at least 1"),
    (["run"], "max_points = -5\n", None, "max_points must be at least 1"),
    (["run", "--models", "iforest,iforest"], "", None,
     "model(s) ['iforest'] named more than once"),
    (["run"], "models = autoencoder,lof,autoencoder\n", None,
     "model(s) ['autoencoder'] named more than once"),
    (["tune", "--model", "dbscan"], "", {"eps": [0.5, math.nan]},
     "eps must be finite, got nan"),
    (["run", "--models", "dbscan"], "dbscan_eps = nan\n", None,
     "eps must be finite, got nan"),
    (["run", "--ci-repeats", "1"], "", None,
     "ci_repeats must be 0 or at least 2, got 1"),
    (["run"], "ci_repeats = -3\n", None,
     "ci_repeats must be 0 or at least 2, got -3"),
    (["run", "--models", "autoencoder"], "ae_epochs = -1\n", None,
     "epochs must be >= 1"),
    (["run", "--models", "autoencoder"], "ae_learning_rate = -0.01\n", None,
     "learning_rate must be positive"),
], ids=["run-seed", "split-seed", "tune-seed", "config-seed",
        "tune-config-seed", "if-subsample", "ae-batch-size",
        "grid-subsample", "interval-inf",
        "config-interval-1e19", "max-points-0", "config-max-points",
        "models-twice", "config-models-twice", "grid-eps-nan",
        "config-eps-nan", "ci-repeats-1", "config-ci-repeats",
        "ae-epochs", "ae-learning-rate"])
def test_bad_seeds_and_sizes_exit_2(dataset, tmp_path, capsys, monkeypatch,
                                    argv, setting, grid, message):
    """A negative seed, a zero forest subsample, a zero autoencoder batch,
    fewer than one epoch or a learning rate that is not positive, an
    interval that is not a whole number of seconds in [1, 2**63), a point
    budget below 1, one or a negative number of confidence-interval
    repeats and a model named twice are data errors, from a flag, a config
    file or a tune grid; a grid fails before any candidate is fitted, and
    a run before the autoencoder trains."""
    def fitted(*args, **kwargs):
        raise AssertionError("a model was fitted")
    monkeypatch.setattr(telanom.tuning, "_fitted", fitted)
    monkeypatch.setattr(telanom.pipeline, "train", fitted)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG_TEXT + setting)
    if grid is not None:
        (tmp_path / "grid.json").write_text(json.dumps(grid))
        argv = argv + ["--grid", str(tmp_path / "grid.json")]
    code = main(argv + ["--config", str(cfg)]
                + _data_args(dataset, str(tmp_path / "o")))
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error: ") and message in err, err


def test_tune_has_no_autoencoder_grid(dataset, tmp_path, capsys,
                                      monkeypatch):
    """tune takes the classical models only: --model autoencoder is a usage
    error, made before the input is read or a model trained."""
    def called(*args, **kwargs):
        raise AssertionError("tune went on")
    monkeypatch.setattr(telanom.pipeline, "parse_csv", called)
    monkeypatch.setattr(telanom.pipeline, "train", called)
    code = main(["tune", "--model", "autoencoder"]
                + _data_args(dataset, str(tmp_path / "o")))
    err = capsys.readouterr().err
    assert code == 1, err
    assert "invalid choice: 'autoencoder'" in err, err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("interval", ["0.5", "-5", "1.5", "0", "nan",
                                      "9223372036854775808", "600 s"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_interval_must_be_whole_seconds(dataset, tmp_path, capsys,
                                        monkeypatch, interval, where):
    """An interval that is not a whole number of seconds in [1, 2**63) is
    refused before the input is read, never truncated."""
    def parsed(*args):
        raise AssertionError("the input was read")
    monkeypatch.setattr(telanom.pipeline, "parse_csv", parsed)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG_TEXT + ("resample_interval = %s\n" % interval
                                   if where == "config" else ""))
    flag = ["--resample-interval", interval] if where == "flag" else []
    code = main(["run", "--config", str(cfg)] + flag
                + _data_args(dataset, str(tmp_path / "o")))
    err = capsys.readouterr().err
    assert code == 2, err
    assert "bad resample_interval %r" % interval in err, err


@pytest.mark.parametrize("interval, seconds", [
    ("600", 600), ("600.0", 600), (" 1 ", 1), (600, 600), ("1e3", 1000),
    ("auto", "auto"), ("None", "none")])
def test_interval_mode_reads_whole_seconds(interval, seconds):
    assert RunConfig(resample_interval=interval).interval_mode() == seconds


def test_internal_errors_exit_3(dataset, tmp_path, capsys, monkeypatch):
    # an error of the program's own, not of its inputs
    def broken(table):
        raise RuntimeError("labeller broke")
    monkeypatch.setattr(telanom.pipeline, "label_all", broken)
    assert main(["label"] + _data_args(dataset, str(tmp_path / "o"))) == 3
    assert ("internal error: RuntimeError: labeller broke"
            in capsys.readouterr().err)


@pytest.mark.parametrize("reader", ["input", "stations", "config", "grid",
                                    "synth-config", "models-dir"])
@pytest.mark.parametrize("fault", ["undecodable", "directory"])
def test_unreadable_input_files_exit_2(dataset, tmp_path, capsys, reader,
                                       fault):
    """Each reader of an input file: bytes that do not decode, and a
    directory where the file should be, are data errors that name it."""
    bad = tmp_path / "bad"
    if fault == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"key = \xff\xfe\xc3(\n")
    argv = {"input": ["run", "--input", str(bad), "--stations",
                      dataset["stations"]],
            "stations": ["run", "--input", dataset["detections"],
                         "--stations", str(bad)],
            "config": ["run", "--config", str(bad)] + _data_args(
                dataset, str(tmp_path / "o"))[:4],
            "grid": ["tune", "--model", "lof", "--grid", str(bad)]
            + _data_args(dataset, str(tmp_path / "o"))[:4],
            "synth-config": ["synth", "--config", str(bad)],
            "models-dir": ["evaluate", "--models-dir", str(tmp_path)]
            + _data_args(dataset, str(tmp_path / "o"))[:4]}[reader]
    if reader == "models-dir":
        # evaluate's first read is the run's report.json
        bad.rename(tmp_path / "report.json")
        bad = tmp_path / "report.json"
    code = main(argv + ["--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error: %s: " % bad), err


def test_ingest_subcommand(dataset, tmp_path):
    out = str(tmp_path / "ingest")
    assert main(["ingest"] + _data_args(dataset, out)) == 0
    assert os.path.exists(os.path.join(out, "detections_clean.csv"))
    with open(os.path.join(out, "ingest.json")) as f:
        blob = json.load(f)
    assert blob["rows_parsed"] > 0
    assert blob["n_fish"] == 4


def test_label_and_features_subcommands(dataset, tmp_path):
    out = str(tmp_path / "stages")
    assert main(["label"] + _data_args(dataset, out)) == 0
    assert os.path.exists(os.path.join(out, "labels.csv"))
    assert os.path.exists(os.path.join(out, "label_report.json"))
    assert main(["features"] + _data_args(dataset, out)) == 0
    assert os.path.exists(os.path.join(out, "features.csv"))


def test_resample_subcommand(dataset, tmp_path):
    out = str(tmp_path / "res")
    assert main(["resample", "--resample-interval", "600"]
                + _data_args(dataset, out)) == 0
    assert os.path.exists(os.path.join(out, "resampled.csv"))
    with open(os.path.join(out, "plan.json")) as f:
        plan = json.load(f)
    assert plan["delta_t"] == 600
    assert main(["resample", "--resample-interval", "none"]
                + _data_args(dataset, str(tmp_path / "res2"))) == 2


def test_split_subcommand(dataset, tmp_path):
    out = str(tmp_path / "split")
    assert main(["split", "--seed", "3"] + _data_args(dataset, out)) == 0
    with open(os.path.join(out, "split.json")) as f:
        counts = json.load(f)
    assert set(counts) == {"normal_test", "normal_train", "anomaly_test",
                           "anomaly_val"}
    lines = open(os.path.join(out, "split.csv")).read().strip().splitlines()
    assert lines[0] == "uid,partition"
    assert len(lines) - 1 == sum(counts.values())


def test_split_and_run_write_the_same_split_csv(dataset, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG_TEXT)
    texts = []
    for command in ("split", "run"):
        out = str(tmp_path / command)
        assert main([command, "--config", str(cfg), "--seed", "4"]
                    + _data_args(dataset, out)) == 0
        with open(os.path.join(out, "split.csv")) as f:
            texts.append(f.read())
    assert texts[0].startswith("uid,partition\n")
    assert texts[0] == texts[1]


def test_resample_and_run_write_the_same_pool(dataset, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG_TEXT)
    texts = []
    for command in ("resample", "run"):
        out = str(tmp_path / command)
        assert main([command, "--config", str(cfg), "--seed", "4",
                      "--resample-interval", "600"]
                     + _data_args(dataset, out)) == 0
        texts.append([open(os.path.join(out, name)).read()
                      for name in ("plan.json", "resampled.csv")])
    assert texts[0][1].startswith("uid,")
    assert texts[0] == texts[1]


def test_label_and_features_write_the_same_files_as_run(dataset, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG_TEXT + "dump_features = true\n")
    files = {"label": ("labels.csv", "label_report.json"),
             "features": ("features.csv",)}
    run_out = str(tmp_path / "run")
    assert main(["run", "--config", str(cfg), "--seed", "4"]
                + _data_args(dataset, run_out)) == 0
    for command, names in files.items():
        out = str(tmp_path / command)
        assert main([command, "--config", str(cfg), "--seed", "4"]
                    + _data_args(dataset, out)) == 0
        for name in names:
            with open(os.path.join(out, name), "rb") as f:
                text = f.read()
            with open(os.path.join(run_out, name), "rb") as f:
                assert text == f.read(), name
    with open(os.path.join(run_out, "features.csv")) as f:
        assert f.readline().startswith("uid,station_id,fish_id,timestamp,")


def test_evaluate_at_another_seed_exits_2(dataset, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG_TEXT.replace("iforest,dbscan", "iforest"))
    out = str(tmp_path / "run")
    assert main(["run", "--config", str(cfg), "--seed", "0"]
                + _data_args(dataset, out)) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--seed", "1",
                 "--models-dir", out]
                + _data_args(dataset, str(tmp_path / "eval"))) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error")
    assert "report.json: seed is 1, the run's was 0" in err
    assert not os.path.exists(os.path.join(tmp_path, "eval",
                                           "evaluation.json"))


def test_each_flag_overrides_the_config_file(tmp_path):
    cfg = tmp_path / "all.cfg"
    cfg.write_text("input_csv = file.csv\n"
                   "station_csv = file_stations.csv\n"
                   "out_dir = file_out\n"
                   "seed = 1\n"
                   "resample_interval = 600\n"
                   "max_points = 100\n"
                   "models = lof\n"
                   "ci_repeats = 2\n")
    flags = {"--input": ("input_csv", "flag.csv"),
             "--stations": ("station_csv", "flag_stations.csv"),
             "--out": ("out_dir", "flag_out"),
             "--seed": ("seed", 7),
             "--resample-interval": ("resample_interval", "auto"),
             "--max-points": ("max_points", 5000),
             "--models": ("models", "iforest,dbscan"),
             "--ci-repeats": ("ci_repeats", 3)}

    def load(*argv):
        return _load_config(build_parser().parse_args(["run"] + list(argv)))
    from_file = load("--config", str(cfg))
    assert from_file == dataclasses.replace(
        RunConfig(), input_csv="file.csv", station_csv="file_stations.csv",
        out_dir="file_out", seed=1, resample_interval="600", max_points=100,
        models="lof", ci_repeats=2)
    for flag, (name, value) in flags.items():
        assert load("--config", str(cfg), flag, str(value)) == (
            dataclasses.replace(from_file, **{name: value})), flag
    # with no config file the flags land on the defaults
    assert load("--input", "a.csv", "--stations", "b.csv") == (
        dataclasses.replace(RunConfig(), input_csv="a.csv",
                            station_csv="b.csv"))
    with pytest.raises(DataError, match="missing required setting "
                                        "'station_csv'"):
        load("--input", "a.csv")


def test_run_subcommand(dataset, tmp_path, capsys):
    out = str(tmp_path / "run")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG_TEXT)
    assert main(["run", "--config", str(cfg), "--seed", "5"]
                + _data_args(dataset, out)) == 0
    stdout = capsys.readouterr().out
    assert "iforest" in stdout and "dbscan" in stdout
    assert os.path.exists(os.path.join(out, "report.json"))
    assert os.path.exists(os.path.join(out, "summary.csv"))


def test_train_threshold_evaluate_roundtrip(dataset, tmp_path, capsys):
    out = str(tmp_path / "trained")
    cfg = tmp_path / "ae.cfg"
    cfg.write_text(RUN_CFG_TEXT.replace("iforest,dbscan",
                                        "autoencoder,iforest"))
    assert main(["train", "--config", str(cfg), "--seed", "5"]
                + _data_args(dataset, out)) == 0
    assert os.path.exists(os.path.join(out, "models", "autoencoder.json"))
    assert os.path.exists(os.path.join(out, "models", "iforest.json"))
    assert os.path.exists(os.path.join(out, "threshold.json"))
    capsys.readouterr()

    out2 = str(tmp_path / "eval")
    assert main(["evaluate", "--config", str(cfg), "--seed", "5",
                 "--models-dir", out]
                + _data_args(dataset, out2)) == 0
    with open(os.path.join(out2, "evaluation.json")) as f:
        ev = json.load(f)
    assert set(ev["models"]) == {"autoencoder", "iforest"}

    # same config and seed: evaluation equals the training-run report
    with open(os.path.join(out, "report.json")) as f:
        trained = json.load(f)
    for name in ("autoencoder", "iforest"):
        assert (ev["models"][name]["confusion"]
                == trained["models"][name]["confusion"])


def test_evaluate_rejects_broken_autoencoder_files(dataset, tmp_path, capsys):
    out = str(tmp_path / "trained")
    cfg = tmp_path / "ae.cfg"
    cfg.write_text(RUN_CFG_TEXT.replace("iforest,dbscan",
                                        "autoencoder,iforest"))
    assert main(["train", "--config", str(cfg), "--seed", "5"]
                + _data_args(dataset, out)) == 0
    texts = {}
    for name in ("models/autoencoder.json", "models/iforest.json",
                 "threshold.json"):
        with open(os.path.join(out, name)) as f:
            texts[name] = f.read()
    text = texts["models/autoencoder.json"]
    obj = json.loads(text)
    params = obj["params"]
    # a valid model of 5 inputs, scored against the 11 features of scaler.json
    narrow = dict(obj, n_inputs=5, params=dict(
        params, w1=params["w1"][:5], b4=params["b4"][:5],
        w4=[row[:5] for row in params["w4"]]))
    broken = {
        "truncated": ("models/autoencoder.json", text[:len(text) // 2]),
        "not JSON": ("models/autoencoder.json", "autoencoder\n"),
        "non-object": ("models/autoencoder.json", json.dumps([obj])),
        "missing key": ("models/autoencoder.json", json.dumps(
            {k: v for k, v in obj.items() if k != "params"})),
        "missing parameter": ("models/autoencoder.json", json.dumps(dict(
            obj, params={k: v for k, v in params.items() if k != "b3"}))),
        "wrong shape": ("models/autoencoder.json", json.dumps(dict(
            obj, params=dict(params, w1=params["w1"][:-1])))),
        "another kind": ("models/autoencoder.json", json.dumps(dict(
            obj, kind="iforest"))),
        "another model": ("models/autoencoder.json", texts[
            "models/iforest.json"]),
        "narrower model": ("models/autoencoder.json", json.dumps(narrow)),
        "text threshold": ("threshold.json", json.dumps({"threshold": "x"})),
        "no threshold": ("threshold.json", json.dumps({"percentile": 5})),
        "non-object threshold": ("threshold.json", json.dumps([1])),
    }
    for what, (name, content) in broken.items():
        with open(os.path.join(out, name), "w") as f:
            f.write(content)
        capsys.readouterr()
        code = main(["evaluate", "--config", str(cfg), "--seed", "5",
                     "--models-dir", out]
                    + _data_args(dataset, str(tmp_path / "eval")))
        err = capsys.readouterr().err
        with open(os.path.join(out, name), "w") as f:
            f.write(texts[name])
        assert code == 2, (what, err)
        assert err.startswith("data error"), (what, err)
        assert os.path.basename(name) in err, (what, err)
    assert main(["evaluate", "--config", str(cfg), "--seed", "5",
                 "--models-dir", out]
                + _data_args(dataset, str(tmp_path / "eval"))) == 0


def test_evaluate_rejects_broken_classical_and_scaler_files(dataset, tmp_path,
                                                            capsys):
    out = str(tmp_path / "trained")
    cfg = tmp_path / "nn.cfg"
    cfg.write_text(RUN_CFG_TEXT.replace("iforest,dbscan", "lof,dbscan"))
    assert main(["train", "--config", str(cfg), "--seed", "5"]
                + _data_args(dataset, out)) == 0
    broken = [
        ("models/dbscan.json", lambda o: dict(o, core_points=[1.0, 2.0],
                                              core_labels=[0, 0])),
        ("models/dbscan.json", lambda o: dict(o, eps="0.5")),
        ("models/dbscan.json", lambda o: dict(
            o, core_points=[row[:5] for row in o["core_points"]])),
        ("scaler.json", lambda o: dict(o, mins=o["mins"][:5])),
        ("scaler.json", lambda o: {k: v[:5] for k, v in o.items()}),
        ("scaler.json", lambda o: dict(o, maxs="wide")),
        ("scaler.json", lambda o: dict(o, maxs=o["maxs"][:3] + [math.nan]
                                       + o["maxs"][4:])),
        ("scaler.json", lambda o: dict(o, mins=[-math.inf] + o["mins"][1:])),
        ("models/lof.json", lambda o: dict(o, k="5")),
        ("models/lof.json", lambda o: dict(o, k=True)),
        ("models/lof.json", lambda o: dict(o, x=[row[:5] for row in o["x"]])),
    ]
    for name, change in broken:
        path = os.path.join(out, name)
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(json.dumps(change(json.loads(text))))
        capsys.readouterr()
        code = main(["evaluate", "--config", str(cfg), "--seed", "5",
                     "--models-dir", out]
                    + _data_args(dataset, str(tmp_path / "eval")))
        err = capsys.readouterr().err
        with open(path, "w") as f:
            f.write(text)
        assert code == 2, (name, err)
        assert err.startswith("data error"), (name, err)
        assert os.path.basename(name) in err, (name, err)
    assert main(["evaluate", "--config", str(cfg), "--seed", "5",
                 "--models-dir", out]
                + _data_args(dataset, str(tmp_path / "eval"))) == 0


@pytest.fixture(scope="module")
def trained_all(dataset, tmp_path_factory):
    """(config path, output directory) of a train run of all four
    models."""
    root = tmp_path_factory.mktemp("trained-all")
    cfg = root / "all.cfg"
    cfg.write_text(RUN_CFG_TEXT.replace("iforest,dbscan",
                                        "autoencoder,iforest,lof,dbscan"))
    out = str(root / "trained")
    assert main(["train", "--config", str(cfg), "--seed", "5"]
                + _data_args(dataset, out)) == 0
    return cfg, out


@pytest.mark.parametrize("name, field, value", [
    ("models/iforest.json", "threshold", math.nan),
    ("models/iforest.json", "contamination", math.inf),
    ("models/lof.json", "threshold", math.inf),
    ("models/lof.json", "contamination", math.nan),
    ("models/lof.json", "lrd_cap", -math.inf),
    ("models/dbscan.json", "eps", math.nan),
    ("threshold.json", "threshold", math.nan),
    ("models/autoencoder.json", "params/b4/0", math.nan),
    ("models/autoencoder.json", "params/w1/3/1", -math.inf),
    ("models/lof.json", "x/2/1", math.inf),
    ("models/lof.json", "kdist/0", math.nan),
    ("models/lof.json", "lrd/1", -math.inf),
    ("models/lof.json", "train_lof/2", math.nan),
    ("models/dbscan.json", "core_points/0/3", math.nan),
])
def test_evaluate_refuses_non_finite_numbers(trained_all, dataset, tmp_path,
                                             capsys, name, field, value):
    """Python's JSON reader takes NaN and Infinity. Every number of a model
    file and threshold.json refuses them: a NaN threshold would flag no
    row, and a NaN bias of the autoencoder made it miss every anomaly,
    and either exited 0. ``field`` is a path of keys and list indices."""
    cfg, trained = trained_all
    out = str(tmp_path / "trained")
    shutil.copytree(trained, out)
    path = os.path.join(out, name)
    with open(path) as f:
        obj = json.load(f)
    *keys, last = [int(key) if key.isdigit() else key
                   for key in field.split("/")]
    entry = obj
    for key in keys:
        entry = entry[key]
    entry[last] = value
    with open(path, "w") as f:
        json.dump(obj, f)
    capsys.readouterr()
    code = main(["evaluate", "--config", str(cfg), "--seed", "5",
                 "--models-dir", out]
                + _data_args(dataset, str(tmp_path / "eval")))
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error") and os.path.basename(name) in err
    array = [key for key in field.split("/") if not key.isdigit()][-1]
    at = [int(key) for key in field.split("/") if key.isdigit()]
    if not at:
        want = "%s must be finite, got %r" % (field, value)
    elif len(at) == 1:
        want = "%s: entry %d is %r, not a finite number" % (array, *at, value)
    else:
        want = "%s: row %d, column %d is %r, not a finite number" % (
            array, *at, value)
    assert want in err, err


@pytest.fixture(scope="module")
def ci_set_run(tmp_path_factory):
    """(data flags, run directory) of the CI set (``synth --fish 6 --days
    90 --seed 1``) run with all four models, ``--max-points 5000`` and two
    confidence-interval repeats, as CI runs it."""
    root = tmp_path_factory.mktemp("ci-set")
    data = str(root / "data")
    assert main(["synth", "--fish", "6", "--days", "90", "--seed", "1",
                 "--out", data]) == 0
    flags = ["--input", os.path.join(data, "detections.csv"),
             "--stations", os.path.join(data, "stations.csv"),
             "--max-points", "5000",
             "--models", "autoencoder,iforest,lof,dbscan"]
    out = str(root / "run")
    assert main(["run"] + flags + ["--ci-repeats", "2", "--out", out]) == 0
    return flags, out


def _no_constant(name):
    raise ValueError("%s is not JSON" % name)


def test_every_json_file_of_a_run_is_strict_json(ci_set_run, tmp_path):
    """Python's JSON writer writes NaN and Infinity unless told not to, and
    no other reader takes them. Every JSON file of a run and its evaluate
    parses with a ``parse_constant`` that raises, and save_report and
    save_model refuse a NaN rather than write one."""
    flags, out = ci_set_run
    evaluated = str(tmp_path / "eval")
    assert main(["evaluate"] + flags + ["--models-dir", out,
                                        "--out", evaluated]) == 0
    paths = [os.path.join(folder, name)
             for root in (out, evaluated)
             for folder, _, names in os.walk(root)
             for name in names if name.endswith(".json")]
    assert {os.path.relpath(path, out) for path in paths} >= {
        "report.json", "threshold.json", "scaler.json", "plan.json",
        "label_report.json", os.path.join("models", "iforest.json")}
    for path in paths:
        with open(path) as f:
            json.load(f, parse_constant=_no_constant)
    with open(os.path.join(out, "models", "lof.json")) as f:
        lof = LocalOutlierFactor.from_json(json.load(f))
    lof.threshold = math.nan
    for write, obj in ((save_report, {"auc": math.nan}), (save_model, lof)):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write(obj, str(tmp_path / "refused.json"))
        assert not os.path.exists(tmp_path / "refused.json")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_evaluate_refuses_nan_scores(ci_set_run, tmp_path, capsys):
    """An autoencoder file whose first weights alternate +-1e308 loads,
    every entry being finite, but scores every row NaN; evaluate exited 0
    with every anomaly missed and an AUC of 1.0. The scores are refused
    where they meet the threshold, naming the file."""
    flags, trained = ci_set_run
    out = str(tmp_path / "run")
    shutil.copytree(trained, out)
    path = os.path.join(out, "models", "autoencoder.json")
    with open(path) as f:
        obj = json.load(f)
    w1 = obj["params"]["w1"]
    obj["params"]["w1"] = [[(-1e308, 1e308)[(i + j) % 2]
                            for j in range(len(w1[0]))]
                           for i in range(len(w1))]
    with open(path, "w") as f:
        json.dump(obj, f)
    capsys.readouterr()
    code = main(["evaluate"] + flags + ["--models-dir", out,
                                        "--out", str(tmp_path / "eval")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error: %s: " % path), err
    assert "autoencoder scores" in err and "as NaN" in err, err


# main's wall time and the process's peak RSS in MB, VmHWM: unlike
# ru_maxrss, it is not the peak of the process that ran the interpreter
_EVALUATE_PEAK = """
import sys, time
from telanom.cli import main
t = time.perf_counter()
code = main(sys.argv[1:])
with open("/proc/self/status") as f:
    kb = [line.split()[1] for line in f if line.startswith("VmHWM:")][0]
print(time.perf_counter() - t, int(kb) / 1024)
sys.exit(code)
"""


def _chain(depth, root_size):
    """A tree of ``depth`` splits, each with a leaf of one row on its left,
    over ``root_size`` rows."""
    n = 2 * depth + 1
    return {"feature": [0 if i % 2 == 0 and i < n - 1 else -1
                        for i in range(n)],
            "threshold": [0.0] * n,
            "left": [i + 1 if i % 2 == 0 and i < n - 1 else -1
                     for i in range(n)],
            "right": [i + 2 if i % 2 == 0 and i < n - 1 else -1
                      for i in range(n)],
            "size": [root_size - i // 2 if i % 2 == 0 else 1
                     for i in range(n)]}


@pytest.mark.parametrize("change, message", [
    (lambda o: dict(o, sample_size=2 ** 34,
                    trees=[_chain(34, 2 ** 34)] + o["trees"][1:]),
     "sample_size must be in [1, 256], got 17179869184"),
    (lambda o: dict(o, sample_size=2 ** 34, subsample=2 ** 34,
                    trees=[_chain(34, 2 ** 34)] + o["trees"][1:]),
     "tree 1's root size"),
    (lambda o: dict(o, sample_size=2 ** 34, subsample=2 ** 34,
                    trees=[dict(_chain(34, 2 ** 34), size=[1] * 69)]
                    + o["trees"][1:]),
     "tree 0: a split's children's sizes do not sum to its own"),
], ids=["sample-size", "root-size", "child-sizes"])
def test_evaluate_refuses_a_forest_that_asks_for_a_huge_heap(
        dataset, tmp_path, change, message):
    """A saved forest whose sizes are not those of a fit is refused before
    its heap, 2**34 slots per tree here, is made: evaluate exits 2 within
    a second and 100 MB."""
    out = str(tmp_path / "trained")
    cfg = tmp_path / "if.cfg"
    cfg.write_text(RUN_CFG_TEXT.replace("iforest,dbscan", "iforest"))
    assert main(["train", "--config", str(cfg), "--seed", "5"]
                + _data_args(dataset, out)) == 0
    path = os.path.join(out, "models", "iforest.json")
    with open(path) as f:
        model = json.load(f)
    with open(path, "w") as f:
        json.dump(change(model), f)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(telanom.__file__)),
        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _EVALUATE_PEAK, "evaluate", "--config",
         str(cfg), "--seed", "5", "--models-dir", out]
        + _data_args(dataset, str(tmp_path / "eval")),
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr, proc.stderr
    seconds, peak_mb = map(float, proc.stdout.split())
    assert seconds < 1.0 and peak_mb < 100, (seconds, peak_mb)


def test_tune_rejects_unknown_and_bad_grid_parameters(dataset, tmp_path,
                                                     capsys):
    grid = tmp_path / "grid.json"
    for model, content, key in (("lof", {"kk": [5, 50]}, "'kk'"),
                                ("lof", {"k": ["5"]}, "k must be"),
                                ("dbscan", [0.5], "expected a JSON object")):
        grid.write_text(json.dumps(content))
        capsys.readouterr()
        code = main(["tune", "--model", model, "--grid", str(grid),
                     "--resample-interval", "none", "--seed", "5"]
                    + _data_args(dataset, str(tmp_path / "tune")))
        err = capsys.readouterr().err
        assert code == 2, (content, err)
        assert err.startswith("data error") and key in err, (content, err)


def test_tune_subcommand(dataset, tmp_path):
    out = str(tmp_path / "tune")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"eps": [0.5, 2.0], "min_pts": [4]}))
    assert main(["tune", "--model", "dbscan", "--grid", str(grid),
                 "--resample-interval", "none", "--seed", "5"]
                + _data_args(dataset, out)) == 0
    assert os.path.exists(os.path.join(out, "tune_dbscan.csv"))
    with open(os.path.join(out, "tune_dbscan.json")) as f:
        blob = json.load(f)
    assert blob["model"] == "dbscan"
    assert set(blob["best_params"]) == {"eps", "min_pts"}
