"""CLI tests: exit codes, artifact layout, and stage subcommands, all run
in-process through main(argv)."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import telanom
from telanom.cli import _load_config, build_parser, main
from telanom.errors import DataError
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


def test_bad_config_boolean_exits_2(dataset, tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(RUN_CFG_TEXT + "dump_features = ture\n")
    assert main(["run", "--config", str(cfg)]
                + _data_args(dataset, str(tmp_path / "o"))) == 2
    assert "typo.cfg:6: bad value 'ture'" in capsys.readouterr().err


def test_internal_errors_exit_3(dataset, tmp_path, capsys):
    # a directory where a file is expected is not a modelled failure
    assert main(["label", "--input", dataset["dir"],
                 "--stations", dataset["stations"],
                 "--out", str(tmp_path / "o")]) == 3
    assert "internal error" in capsys.readouterr().err


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


def test_tune_rejects_unknown_and_bad_grid_parameters(dataset, tmp_path,
                                                     capsys):
    grid = tmp_path / "grid.json"
    for model, content, key in (("lof", {"kk": [5, 50]}, "'kk'"),
                                ("lof", {"k": ["5"]}, "k must be"),
                                ("dbscan", [0.5], "grid must map")):
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
