"""Autoencoder unit tests: parameter accounting, forward/backward math,
gradient correctness against finite differences, and reproducible training."""

import json
import tracemalloc

import numpy as np
import pytest

from oracles import (finite_difference_gradients, reference_forward,
                     reference_scores, reference_train)
from telanom import autoencoder
from telanom.autoencoder import (Autoencoder, TrainConfig, train,
                                 PARAM_NAMES)
from telanom.detectors import load_model, save_model
from telanom.errors import DataError, TrainingError


def closed_form_count(d, u, b):
    # w1 d*u + b1 u + w2 u*b + b2 b + w3 b*u + b3 u + w4 u*d + b4 d
    return 2 * d * u + 2 * u * b + 2 * u + b + d


def test_parameter_count_closed_form():
    for d in (3, 11, 20):
        for u in (4, 32, 128):
            for b in (1, 2, 8):
                model = Autoencoder(d, units=u, bottleneck=b, seed=0)
                assert model.n_parameters == closed_form_count(d, u, b)
                by_shape = (d * u + u) + (u * b + b) + (b * u + u) + (u * d + d)
                assert model.n_parameters == by_shape


def test_parameter_count_reference_value():
    assert Autoencoder(11, units=128, bottleneck=2).n_parameters == 3597


def test_init_bounds_and_zero_biases():
    model = Autoencoder(7, units=16, bottleneck=3, seed=42)
    fan_in = {"w1": 7, "w2": 16, "w3": 3, "w4": 16}
    for name, fi in fan_in.items():
        bound = 1.0 / np.sqrt(fi)
        w = model.params[name]
        assert np.all(np.abs(w) <= bound)
        assert np.std(w) > 0.0
    for name in ("b1", "b2", "b3", "b4"):
        assert np.all(model.params[name] == 0.0)


def test_init_seed_determinism():
    a = Autoencoder(5, units=8, bottleneck=2, seed=9)
    b = Autoencoder(5, units=8, bottleneck=2, seed=9)
    c = Autoencoder(5, units=8, bottleneck=2, seed=10)
    for name in PARAM_NAMES:
        assert np.array_equal(a.params[name], b.params[name])
    assert not np.array_equal(a.params["w1"], c.params["w1"])


def test_init_rejects_bad_sizes():
    with pytest.raises(DataError):
        Autoencoder(0, units=4, bottleneck=2)
    with pytest.raises(DataError):
        Autoencoder(4, units=0, bottleneck=2)
    with pytest.raises(DataError):
        Autoencoder(4, units=4, bottleneck=0)


def test_forward_shape_and_sigmoid_range():
    rng = np.random.default_rng(1)
    model = Autoencoder(6, units=10, bottleneck=2, seed=3)
    x = rng.uniform(0.0, 1.0, size=(25, 6))
    y = model.forward(x)
    assert y.shape == x.shape
    assert np.all(y > 0.0) and np.all(y < 1.0)


def test_loss_is_mean_squared_reconstruction_error():
    rng = np.random.default_rng(2)
    model = Autoencoder(4, units=6, bottleneck=2, seed=5)
    x = rng.uniform(0.0, 1.0, size=(9, 4))
    y = model.forward(x)
    assert model.loss(x) == pytest.approx(np.mean((y - x) ** 2), rel=0,
                                          abs=0)


def test_scores_are_per_row_mse():
    rng = np.random.default_rng(3)
    model = Autoencoder(5, units=8, bottleneck=2, seed=6)
    x = rng.uniform(0.0, 1.0, size=(12, 5))
    y = model.forward(x)
    expected = np.mean((y - x) ** 2, axis=1)
    assert np.array_equal(model.scores(x), expected)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    model = Autoencoder(4, units=6, bottleneck=2, seed=11)
    x = rng.uniform(0.05, 0.95, size=(12, 4))
    cache = {}
    model.forward(x, cache)
    analytic = model.backward(cache)
    numeric = finite_difference_gradients(model, x, eps=1e-5)
    worst = 0.0
    for name in PARAM_NAMES:
        g_a, g_n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(g_a), np.abs(g_n)), 1e-8)
        rel = np.abs(g_a - g_n) / denom
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4


def test_backward_covers_both_relu_branches():
    # make sure the check above is not trivially passing on dead units
    rng = np.random.default_rng(4)
    model = Autoencoder(4, units=6, bottleneck=2, seed=11)
    x = rng.uniform(0.05, 0.95, size=(12, 4))
    cache = {}
    model.forward(x, cache)
    assert np.any(cache["z1"] > 0) and np.any(cache["z1"] < 0)
    assert np.any(cache["z3"] > 0) and np.any(cache["z3"] < 0)


def _toy_rows(n=160, d=5, seed=8):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.2, 0.8, size=(n, 2))
    # rank-2 structure embedded in d dims, kept inside the unit box
    mix = rng.uniform(0.0, 1.0, size=(2, d))
    x = base @ mix
    x = (x - x.min()) / (x.max() - x.min()) * 0.9 + 0.05
    return x


def test_training_is_bit_exact_reproducible():
    cfg = TrainConfig(learning_rate=0.005, batch_size=32, epochs=4, seed=21)
    runs = []
    for _ in range(2):
        model = Autoencoder(5, units=12, bottleneck=2, seed=13)
        result = train(model, _toy_rows(), cfg)
        runs.append((model, result))
    m1, r1 = runs[0]
    m2, r2 = runs[1]
    for name in PARAM_NAMES:
        assert np.array_equal(m1.params[name], m2.params[name])
    assert r1.train_losses == r2.train_losses
    assert r1.val_losses == r2.val_losses


def test_training_seed_changes_outcome():
    rows = _toy_rows()
    m1 = Autoencoder(5, units=12, bottleneck=2, seed=13)
    m2 = Autoencoder(5, units=12, bottleneck=2, seed=13)
    train(m1, rows, TrainConfig(batch_size=32, epochs=3, seed=1))
    train(m2, rows, TrainConfig(batch_size=32, epochs=3, seed=2))
    assert not np.array_equal(m1.params["w1"], m2.params["w1"])


def test_training_reduces_loss_and_records_epochs():
    cfg = TrainConfig(learning_rate=0.01, batch_size=32, epochs=30, seed=3)
    model = Autoencoder(5, units=12, bottleneck=2, seed=13)
    rows = _toy_rows()
    result = train(model, rows[32:], cfg, val_rows=rows[:32])
    assert len(result.train_losses) == cfg.epochs
    assert len(result.val_losses) == cfg.epochs
    assert result.train_losses[-1] < result.train_losses[0]
    assert all(v is not None and np.isfinite(v) for v in result.val_losses)


def test_training_with_explicit_validation_rows():
    rows = _toy_rows()
    val = rows[:20]
    cfg = TrainConfig(batch_size=32, epochs=2, seed=4)
    model = Autoencoder(5, units=12, bottleneck=2, seed=13)
    result = train(model, rows, cfg, val_rows=val)
    assert result.val_losses[-1] == pytest.approx(model.loss(val), rel=0,
                                                  abs=0)


def test_training_with_empty_validation_reports_none():
    rows = _toy_rows()
    cfg = TrainConfig(batch_size=32, epochs=2, seed=4)
    model = Autoencoder(5, units=12, bottleneck=2, seed=13)
    result = train(model, rows, cfg, val_rows=rows[:0])
    assert result.val_losses == [None, None]


def test_training_input_validation():
    cfg = TrainConfig(epochs=1)
    model = Autoencoder(3, units=4, bottleneck=2)
    with pytest.raises(DataError):
        train(model, np.empty((0, 3)), cfg)
    with pytest.raises(DataError):
        train(model, np.ones(9), cfg)
    bad = np.ones((8, 3))
    bad[2, 1] = np.nan
    with pytest.raises(DataError):
        train(model, bad, cfg)


def test_training_aborts_on_non_finite_loss():
    model = Autoencoder(3, units=4, bottleneck=2, seed=0)
    model.params["w4"][:] = np.nan
    with pytest.raises(TrainingError):
        train(model, np.full((16, 3), 0.5), TrainConfig(epochs=1, seed=0))


def test_json_round_trip_preserves_scores():
    rng = np.random.default_rng(6)
    model = Autoencoder(5, units=9, bottleneck=2, seed=17)
    x = rng.uniform(0.0, 1.0, size=(10, 5))
    clone = Autoencoder.from_json(model.to_json())
    assert np.array_equal(model.scores(x), clone.scores(x))


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    model = Autoencoder(4, units=6, bottleneck=2, seed=19)
    train(model, _toy_rows(n=80, d=4, seed=9),
          TrainConfig(batch_size=16, epochs=2, seed=5))
    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    x = rng.uniform(0.0, 1.0, size=(6, 4))
    assert np.array_equal(model.scores(x), clone.scores(x))
    for name in PARAM_NAMES:
        assert np.array_equal(model.params[name], clone.params[name])


def test_scores_check_rows_and_predict_reads_the_threshold():
    model = Autoencoder(4, units=6, bottleneck=2, seed=19)
    x = np.random.default_rng(8).uniform(0.0, 1.0, size=(9, 4))
    for bad in (x[:, :3], np.hstack([x, x]), x[0]):
        with pytest.raises(DataError):
            model.scores(bad)
    scores = model.scores(x)
    model.threshold = float(np.median(scores))
    assert np.array_equal(model.predict(x),
                          np.where(scores > model.threshold, 0, 1))


def test_train_result_csv(tmp_path):
    model = Autoencoder(4, units=6, bottleneck=2, seed=19)
    result = train(model, _toy_rows(n=80, d=4, seed=9),
                   TrainConfig(batch_size=16, epochs=3, seed=5))
    path = tmp_path / "losses.csv"
    result.save_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[1]) == result.train_losses[0]


# -- training against the allocating reference loop -------------------------


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("n,d,units,batch_size,val", [
    (100, 5, 12, 32, "rows"),        # ragged last batch of 4 rows
    (40, 5, 12, 64, "rows"),         # batch_size > n: one batch per epoch
    (65, 5, 12, 32, "rows"),         # one-row last batch
    (80, 5, 12, 16, "empty"),        # an empty validation matrix
    (90, 5, 12, 16, None),           # val_rows=None: no losses, no split
    (120, 6, 4, 32, "rows"),
    (600, 11, 128, 128, "rows"),
], ids=["ragged", "batch-over-n", "one-row-batch", "empty-val",
        "no-val-rows", "units-4", "units-128"])
def test_training_equals_reference_loop_bit_for_bit(n, d, units, batch_size,
                                                    val):
    rng = np.random.default_rng(n + units)
    rows = rng.uniform(0.0, 1.0, size=(n, d))
    val_rows = {"rows": rng.uniform(0.0, 1.0, size=(23, d)),
                "empty": rows[:0], None: None}[val]
    cfg = TrainConfig(learning_rate=0.01, batch_size=batch_size, epochs=4,
                      seed=7)
    model = Autoencoder(d, units=units, bottleneck=2, seed=3)
    ref = {k: v.copy() for k, v in model.params.items()}
    result = train(model, rows, cfg, val_rows=val_rows)
    train_losses, val_losses = reference_train(ref, rows, cfg, val_rows)
    for name in PARAM_NAMES:
        assert _same_bits(model.params[name], ref[name]), name
    assert result.train_losses == train_losses
    assert result.val_losses == val_losses
    q = rng.uniform(-0.5, 1.5, size=(31, d))
    assert _same_bits(model.scores(q), reference_scores(ref, q))
    # some ReLU units were off, so the masked branches were exercised
    cache = {}
    model.forward(q, cache)
    assert np.any(cache["z1"] < 0) and np.any(cache["z3"] < 0)


def test_sigmoid_matches_reference_on_extreme_logits():
    model = Autoencoder(11, units=4, bottleneck=2, seed=0)
    model.params["w4"][:] = 0.0
    model.params["b4"][:] = [np.inf, -np.inf, np.nan, 800.0, -800.0, 0.0,
                             1e-300, -1e-300, 36.7, -36.7, -745.2]
    x = np.full((3, 11), 0.5)
    with np.errstate(all="ignore"):
        got = model.forward(x)
        want = reference_forward(model.params, x)["y"]
    # a NaN logit gives NaN either way, only its sign bit may differ; it
    # ends training with a non-finite loss before any update
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert _same_bits(got[~nan], want[~nan])
    assert np.array_equal(got[0, :6], [1.0, 0.0, np.nan, 1.0, 0.0, 0.5],
                          equal_nan=True)


def test_training_params_are_views_of_one_vector():
    model = Autoencoder(5, units=12, bottleneck=2, seed=13)
    train(model, _toy_rows(), TrainConfig(batch_size=32, epochs=1, seed=1))
    flat = model.params["w1"].base
    assert flat is not None and flat.size == model.n_parameters
    assert all(model.params[k].base is flat for k in PARAM_NAMES)


def test_non_finite_loss_stops_where_the_reference_loop_stops():
    rows = _toy_rows(n=100)
    cfg = TrainConfig(learning_rate=1e140, batch_size=32, epochs=3, seed=4)
    model = Autoencoder(5, units=12, bottleneck=2, seed=13)
    ref = {k: v.copy() for k, v in model.params.items()}
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingError) as got:
            train(model, rows, cfg, val_rows=rows[:0])
        with pytest.raises(TrainingError) as want:
            reference_train(ref, rows, cfg, rows[:0])
    assert str(got.value) == str(want.value)
    assert "batch starting 0" not in str(got.value)
    for name in PARAM_NAMES:
        assert _same_bits(model.params[name], ref[name]), name


def test_training_steps_allocate_no_activation_temporaries():
    # beside the workspaces, a call holds about 310 KB: six flat
    # parameter-sized vectors, the batch, the shuffle order and the input
    # check; any per-step (512 x 128) float64 temporary would add 512 KB
    rng = np.random.default_rng(5)
    rows = rng.uniform(0.0, 1.0, size=(2048, 11))
    val = rng.uniform(0.0, 1.0, size=(64, 11))
    model = Autoencoder(11, units=128, bottleneck=2, seed=1)
    buffers = sum(a.nbytes for ws in (
        autoencoder._Workspace(model, 512, backward=True),
        autoencoder._Workspace(model, len(val))) for a in vars(ws).values())
    tracemalloc.start()
    try:
        train(model, rows, TrainConfig(batch_size=512, epochs=2, seed=2),
              val_rows=val)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < buffers + 384 * 1024


# -- model files ---------------------------------------------------------------


def _saved_model(tmp_path):
    model = Autoencoder(4, units=6, bottleneck=2, seed=19)
    path = tmp_path / "autoencoder.json"
    save_model(model, path)
    return path, json.loads(path.read_text())


def test_load_rejects_truncated_and_non_json_files(tmp_path):
    path, _ = _saved_model(tmp_path)
    text = path.read_text()
    for cut in ("", text[:1], text[:len(text) // 2], text[:-3], "not json"):
        path.write_text(cut)
        with pytest.raises(DataError, match="JSON"):
            load_model(path)
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(DataError, match="JSON"):
        load_model(path)


def test_load_rejects_non_objects_and_missing_keys(tmp_path):
    path, obj = _saved_model(tmp_path)
    for bad in ([1, 2], "autoencoder", 3, None):
        path.write_text(json.dumps(bad))
        with pytest.raises(DataError, match="JSON object"):
            load_model(path)
    for key in obj:
        path.write_text(json.dumps({k: v for k, v in obj.items()
                                    if k != key}))
        with pytest.raises(DataError, match=key):
            load_model(path)
    for name in PARAM_NAMES:
        params = {k: v for k, v in obj["params"].items() if k != name}
        path.write_text(json.dumps(dict(obj, params=params)))
        with pytest.raises(DataError, match=name):
            load_model(path)
    for bad in (dict(obj, kind="iforest"), dict(obj, params=[1]),
                dict(obj, units="many"), dict(obj, units=0)):
        path.write_text(json.dumps(bad))
        with pytest.raises(DataError):
            load_model(path)


def test_load_rejects_parameters_of_the_wrong_shape(tmp_path):
    path, obj = _saved_model(tmp_path)
    w1 = obj["params"]["w1"]
    bad = {
        "w1": [w1[:-1], [row[:-1] for row in w1], w1[0], [w1]],
        "b4": [obj["params"]["b4"] + [0.0], 0.5],
        "w2": [[["x", 1.0]] * 6, [[1.0, [2.0]]] * 6],
    }
    for name, values in bad.items():
        for value in values:
            params = dict(obj["params"], **{name: value})
            path.write_text(json.dumps(dict(obj, params=params)))
            with pytest.raises(DataError, match=name):
                load_model(path)
    # layer sizes that disagree with the stored arrays
    for key, value in (("n_inputs", 5), ("units", 7), ("bottleneck", 3)):
        path.write_text(json.dumps(dict(obj, **{key: value})))
        with pytest.raises(DataError, match="shape"):
            load_model(path)
