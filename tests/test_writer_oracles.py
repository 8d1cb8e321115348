"""The batched generator and the columnar CSV writer against the scalar
generator and the csv.writer writers in oracles.py: equal records, ground
truth and generator state, and byte-identical files."""

import math

import numpy as np
import pytest

import oracles
from telanom import ingest, synthgen
from telanom.autoencoder import TrainResult
from telanom.features import write_feature_csv
from telanom.ingest import (Detections, StationMap, write_csv,
                            write_detections_csv)
from telanom.labelling import write_label_csv
from telanom.metrics import SUMMARY_COLUMNS, write_summary_csv
from telanom.pipeline import RunConfig, run_experiment
from telanom.synthgen import SynthConfig, generate, write_station_csv
from telanom.thresholding import METRIC_COLUMNS, PercentileTable
from telanom.tuning import grid_search

GENERATOR_CONFIGS = {
    "default": {},
    "stationary": dict(n_fish=20, fraction_stationary=0.1, skip_rate=0.2),
    "skips": dict(n_fish=8, skip_rate=0.2),
    "one fish": dict(n_fish=1, span_days=90.0),
}


def _bytes(path):
    with open(path, "rb") as f:
        return f.read()


@pytest.mark.parametrize("name, seed", [
    ("default", 0), ("default", 9), ("stationary", 5), ("stationary", 17),
    ("skips", 0), ("skips", 3), ("skips", 5), ("one fish", 0),
    ("one fish", 5), ("one fish", 17)])
def test_generator_matches_the_scalar_loop(name, seed, tmp_path):
    cfg = SynthConfig(seed=seed, **GENERATOR_CONFIGS[name])
    records, station_map, gt = generate(cfg)
    want, want_map, want_gt = oracles.scalar_generate(cfg)
    assert records == want
    assert list(gt.criterion.items()) == list(want_gt.criterion.items())

    write_detections_csv(records, tmp_path / "detections.csv")
    oracles.csv_detections(Detections.from_records(want),
                           tmp_path / "want_detections.csv")
    write_station_csv(station_map, tmp_path / "stations.csv")
    oracles.csv_stations(want_map, tmp_path / "want_stations.csv")
    gt.save_csv(tmp_path / "ground_truth.csv")
    oracles.csv_ground_truth(want_gt, tmp_path / "want_ground_truth.csv")
    for stem in ("detections", "stations", "ground_truth"):
        assert _bytes(tmp_path / ("%s.csv" % stem)) == _bytes(
            tmp_path / ("want_%s.csv" % stem)), stem


@pytest.mark.parametrize("max_batch", [1, 7, synthgen._MAX_BATCH])
@pytest.mark.parametrize("span_s, mean_gap_s", [
    (3600.0, 7000.0), (200000.0, 7000.0), (20000.0, 0.3), (50.0, 1e9),
    (0.5, 1.0), (-10.0, 100.0)])
def test_dwell_draws_leave_the_scalar_state(span_s, mean_gap_s, max_batch,
                                            monkeypatch):
    """Stamps, ground truth and rng state after one dwell, over one-draw,
    many-batch and overshooting batches and a dwell already over."""
    monkeypatch.setattr(synthgen, "_MAX_BATCH", max_batch)
    t_start = 1.49e9 + 0.75
    last_ts = int(t_start) + 5  # the arrival must be pushed up
    rng, want_rng = (np.random.default_rng(3) for _ in range(2))
    emitter = synthgen._FishEmitter("F", synthgen.GroundTruth())
    want = oracles._ScalarEmitter("F", {2: ("S", 0.0, 0.0)},
                                  synthgen.GroundTruth())
    emitter.last_ts = want.last_ts = last_ts
    synthgen._emit_dwell(emitter, rng, 2, t_start, t_start + span_s,
                         mean_gap_s, arrival_criterion=3)
    oracles._scalar_dwell(want, want_rng, 2, t_start, t_start + span_s,
                          mean_gap_s, arrival_criterion=3)
    assert emitter.stamps[0].tolist() == [r.timestamp for r in want.records]
    assert emitter.gt.criterion == want.gt.criterion
    assert rng.bit_generator.state == want_rng.bit_generator.state


WEIRD_STRINGS = ["plain", "a,comma", 'a "quote"', "cr\rhere", "lf\nhere",
                 "crlf\r\n", " leading", "trailing ", "été",
                 "日本", "", "'single'", "tab\there"]
WEIRD_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-5, 1.5, -2.25e-300, math.inf,
                -math.inf, math.nan, 0.1 + 0.2]


def _csv_writer_bytes(path, header, columns):
    oracles._csv_rows(path, header, zip(*columns))
    return _bytes(path)


@pytest.mark.parametrize("n_rows", [0, 1, 2, ingest._WRITE_ROWS - 1,
                                    ingest._WRITE_ROWS,
                                    ingest._WRITE_ROWS + 1])
def test_write_csv_matches_csv_writer(n_rows, tmp_path):
    rng = np.random.default_rng(n_rows)
    strings = [WEIRD_STRINGS[i] for i in
               rng.integers(len(WEIRD_STRINGS), size=n_rows)]
    floats = np.array(WEIRD_FLOATS)[rng.integers(len(WEIRD_FLOATS),
                                                  size=n_rows)]
    ints = rng.integers(-10 ** 12, 10 ** 12, size=n_rows)
    mixed = [[None, 3, 2.5, "x,y", True][i % 5] for i in range(n_rows)]
    header = ["s", "f", "i", "mixed", "a,b"]
    columns = [strings, floats, ints, mixed, np.array(strings, dtype=object)]
    write_csv(tmp_path / "got.csv", header, columns)
    assert _bytes(tmp_path / "got.csv") == _csv_writer_bytes(
        tmp_path / "want.csv", header,
        [strings, floats.tolist(), ints.tolist(), mixed, strings])


@pytest.mark.parametrize("values", [WEIRD_STRINGS, ["", ""], [""], [],
                                    ["only"]])
def test_write_csv_one_column_quotes_empty_rows(values, tmp_path):
    """csv.writer quotes an empty field that is a row's only one."""
    write_csv(tmp_path / "got.csv", ["v"], [values])
    assert _bytes(tmp_path / "got.csv") == _csv_writer_bytes(
        tmp_path / "want.csv", ["v"], [values])


def test_write_csv_floats_keep_their_bits(tmp_path):
    values = np.array(WEIRD_FLOATS)
    write_csv(tmp_path / "got.csv", ["f", "g"], [values, values[::-1]])
    assert _bytes(tmp_path / "got.csv") == _csv_writer_bytes(
        tmp_path / "want.csv", ["f", "g"],
        [list(map(repr, WEIRD_FLOATS)), list(map(repr, WEIRD_FLOATS[::-1]))])


def test_clock_texts_of_every_second_of_the_day():
    seconds = np.arange(86400)
    assert ingest._clock_texts(seconds) == [
        "%02d:%02d:%02d" % (s // 3600, s // 60 % 60, s % 60)
        for s in seconds.tolist()]


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", ["a", "b"], [[1, 2], [1]])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", ["a"], [[1], [1]])


def test_detections_with_awkward_ids_match_csv_writer(tmp_path):
    """Station, receiver and fish ids that csv.writer must quote."""
    smap = StationMap([(s, -34.0 - i, 21.0 + i, i)
                       for i, s in enumerate(WEIRD_STRINGS[:6])])
    records = [ingest.DetectionRecord(fish, recv, sid, *smap.coords(sid),
                                      1490000000 + 977 * i)
               for i, (fish, recv, sid) in enumerate(zip(
                   WEIRD_STRINGS * 3, WEIRD_STRINGS[::-1] * 3,
                   smap.ids() * 7))]
    write_detections_csv(records, tmp_path / "got.csv")
    oracles.csv_detections(Detections.from_records(records),
                           tmp_path / "want.csv")
    assert _bytes(tmp_path / "got.csv") == _bytes(tmp_path / "want.csv")
    write_station_csv(smap, tmp_path / "got_st.csv")
    oracles.csv_stations(smap, tmp_path / "want_st.csv")
    assert _bytes(tmp_path / "got_st.csv") == _bytes(tmp_path / "want_st.csv")


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("writers")
    records, smap, _gt = generate(SynthConfig(n_fish=4, span_days=100.0,
                                              fraction_single_station=0.26,
                                              skip_rate=0.08, seed=2))
    write_detections_csv(records, root / "detections.csv")
    write_station_csv(smap, root / "stations.csv")
    cfg = RunConfig(input_csv=str(root / "detections.csv"),
                    station_csv=str(root / "stations.csv"),
                    out_dir=str(root / "out"), seed=5,
                    resample_interval="auto", max_points=2500,
                    models="autoencoder,iforest", ae_units=8, ae_epochs=3,
                    ae_batch_size=64, dump_features=True)
    return run_experiment(cfg, timer=lambda: 0.0), root / "out"


def test_run_files_match_csv_writer(experiment, tmp_path):
    result, out = experiment
    for name, oracle, obj in (
            ("labels.csv", oracles.csv_labels, result.table),
            ("features.csv", oracles.csv_features, result.table),
            ("resampled.csv", oracles.csv_features, result.train_pool),
            ("percentile_table.csv", oracles.csv_percentile_table,
             result.percentile_table),
            ("loss_curve.csv", oracles.csv_loss_curve, result.loss_curve)):
        oracle(obj, tmp_path / name)
        assert _bytes(out / name) == _bytes(tmp_path / name), name


def test_table_writers_match_csv_writer(experiment, tmp_path):
    result, _out = experiment
    tail = result.table.take(np.arange(len(result.table) - 3,
                                       len(result.table)))
    empty = tail.take(np.arange(0))
    for writer, oracle, obj in (
            (write_label_csv, oracles.csv_labels, tail),
            (write_feature_csv, oracles.csv_features, tail),
            (write_feature_csv, oracles.csv_features, empty)):
        writer(obj, tmp_path / "got.csv")
        oracle(obj, tmp_path / "want.csv")
        assert _bytes(tmp_path / "got.csv") == _bytes(tmp_path / "want.csv")

    table = PercentileTable([1, 2], [0.5, -0.0], [
        dict.fromkeys(METRIC_COLUMNS, 1e-5), dict.fromkeys(METRIC_COLUMNS)])
    curve = TrainResult([0.25, 1e16, 5e-324], [None, 0.5, None])
    for obj, oracle in ((table, oracles.csv_percentile_table),
                        (curve, oracles.csv_loss_curve)):
        obj.save_csv(tmp_path / "got.csv")
        oracle(obj, tmp_path / "want.csv")
        assert _bytes(tmp_path / "got.csv") == _bytes(tmp_path / "want.csv")


def test_tune_and_summary_rows_match_csv_writer(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 3))
    y = np.r_[np.ones(50, dtype=int), np.zeros(10, dtype=int)]
    result = grid_search("dbscan", {"eps": [0.5, 2.0], "min_pts": [2, 4]},
                         x[:40], x[40:], y[40:])
    result.save_csv(tmp_path / "got.csv")
    oracles.csv_tune_rows(result, tmp_path / "want.csv")
    assert _bytes(tmp_path / "got.csv") == _bytes(tmp_path / "want.csv")

    rows = [dict(zip(SUMMARY_COLUMNS, values)) for values in (
        ["iforest", 7319, 0.5, None, 1.0, -0.0, 1e16, 5e-324, 5, 1e-5,
         0.25, 0.0],
        ["lof,k", "none", None, None, None, None, None, None, 4, 0.1, None,
         math.nan])]
    write_summary_csv(rows, tmp_path / "got.csv")
    oracles.csv_summary(rows, tmp_path / "want.csv")
    assert _bytes(tmp_path / "got.csv") == _bytes(tmp_path / "want.csv")
