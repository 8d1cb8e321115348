"""Dense reconstruction autoencoder, written directly on numpy in float64.

Architecture: d -> units (relu) -> bottleneck (linear) -> units (relu) ->
d (sigmoid). The sigmoid output matches min-max scaled inputs. Weights are
seeded uniform draws scaled by fan-in, biases start at zero. Training is
minibatch gradient descent on mean squared reconstruction error with the
Adam update rule; shuffling is reseeded per epoch from the training seed,
so a rerun with the same seed reproduces the final weights bit-exactly.

Every pass writes into a workspace of preallocated buffers. Training
allocates one per call for the batches and one for the validation rows,
and keeps parameters, gradients and Adam's moments in flat vectors whose
reshaped views are the eight parameter arrays, so a step allocates no
array and one Adam update is fourteen ufunc calls over all parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, TrainingError, _array, _number, _object
from .ingest import write_csv
from .thresholding import _Detector, _as_matrix, _check_width

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4")


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 512
    epochs: int = 50
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.batch_size < 1:
            raise DataError("batch_size must be >= 1")
        if self.epochs < 1:
            raise DataError("epochs must be >= 1")
        if not self.learning_rate > 0:
            raise DataError("learning_rate must be positive")


@dataclass
class TrainResult:
    train_losses: list
    val_losses: list

    def save_csv(self, path):
        write_csv(path, ["epoch", "train_loss", "val_loss"],
                  [range(1, len(self.train_losses) + 1), self.train_losses,
                   self.val_losses])


class _Workspace:
    """Buffers for passes over up to ``rows`` rows, plus the gradient
    buffers when ``backward``. A pass over ``m`` rows uses the first ``m``
    rows of each buffer, which are contiguous like a fresh array."""

    def __init__(self, model, rows, backward=False):
        def buf(width, dtype=np.float64):
            return np.empty((rows, width), dtype=dtype)

        d, u, b = model.n_inputs, model.units, model.bottleneck
        self.z1, self.a1, self.z3, self.a3 = buf(u), buf(u), buf(u), buf(u)
        self.z2 = buf(b)
        # e is scratch: exp(-|z|) and the sigmoid's numerator, then
        # squared residuals or 1 - y
        self.y, self.e, self.diff = buf(d), buf(d), buf(d)
        self.pos = buf(d, bool)
        if backward:
            self.du, self.dz2, self.mask = buf(u), buf(b), buf(u, bool)


def _param_shapes(d, u, b):
    """Name -> shape of each parameter of a d -> u -> b -> u -> d net."""
    return {"w1": (d, u), "b1": (u,), "w2": (u, b), "b2": (b,),
            "w3": (b, u), "b3": (u,), "w4": (u, d), "b4": (d,)}


def _param_views(flat, shapes):
    """Name -> view of ``flat`` reshaped to ``shapes[name]``, laid out in
    PARAM_NAMES order."""
    views, lo = {}, 0
    for k in PARAM_NAMES:
        hi = lo + math.prod(shapes[k])
        views[k] = flat[lo:hi].reshape(shapes[k])
        lo = hi
    return views


class Autoencoder(_Detector):
    """Symmetric four-layer autoencoder with a linear bottleneck.

    Its ``threshold`` is not learnt by ``train``: it is chosen on labelled
    validation rows (thresholding.select_threshold) and kept in its own
    file, not in the model file."""

    kind = "autoencoder"

    def __init__(self, n_inputs, units=128, bottleneck=2, seed=0):
        if min(n_inputs, units, bottleneck) < 1 or seed < 0:
            raise DataError("layer sizes must be positive and the seed "
                            "non-negative")
        self.n_inputs = int(n_inputs)
        self.units = int(units)
        self.bottleneck = int(bottleneck)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self.params = {}
        for k, shape in self.param_shapes.items():
            if k.startswith("w"):
                bound = 1.0 / math.sqrt(shape[0])   # fan-in
                self.params[k] = rng.uniform(-bound, bound, size=shape)
            else:
                self.params[k] = np.zeros(shape)
        self.threshold = None

    @property
    def param_shapes(self):
        return _param_shapes(self.n_inputs, self.units, self.bottleneck)

    @property
    def n_parameters(self):
        return sum(p.size for p in self.params.values())

    def _forward(self, x, ws):
        """Reconstruction of the rows of ``x``, computed in ``ws``."""
        m = len(x)
        p = self.params
        z1, a1, z2, z3, a3 = (b[:m] for b in (ws.z1, ws.a1, ws.z2, ws.z3,
                                               ws.a3))
        y, e, pos = ws.y[:m], ws.e[:m], ws.pos[:m]
        np.matmul(x, p["w1"], out=z1)
        z1 += p["b1"]
        np.maximum(z1, 0.0, out=a1)
        np.matmul(a1, p["w2"], out=z2)      # linear bottleneck
        z2 += p["b2"]
        np.matmul(z2, p["w3"], out=z3)
        z3 += p["b3"]
        np.maximum(z3, 0.0, out=a3)
        np.matmul(a3, p["w4"], out=y)
        y += p["b4"]
        # sigmoid, overflow-free: 1/(1+exp(-z)) for z >= 0 and
        # exp(z)/(1+exp(z)) below, both from e = exp(-|z|). The numerator
        # is max(e, z >= 0): 1 where z >= 0, since there e <= 1, and e
        # below, since e >= 0 (NaN stays NaN).
        np.greater_equal(y, 0.0, out=pos)
        np.abs(y, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.add(1.0, e, out=y)
        np.maximum(e, pos, out=e)
        np.divide(e, y, out=y)
        return y

    def _squared_errors(self, x, ws):
        """(y - x) ** 2 for the rows of ``x``, in ``ws.e``; leaves the
        residual y - x in ``ws.diff``."""
        m = len(x)
        y = self._forward(x, ws)
        np.subtract(y, x, out=ws.diff[:m])
        return np.square(ws.diff[:m], out=ws.e[:m])

    def _loss(self, x, ws):
        """Mean squared reconstruction error of ``x``, computed in ``ws``."""
        return float(np.mean(self._squared_errors(x, ws)))

    def _backward(self, x, ws, grads):
        """Writes into the arrays of ``grads`` the gradients of the mean
        squared error of the pass over ``x`` held in ``ws``, whose residual
        is in ``ws.diff``. Overwrites ``ws.diff`` and ``ws.e``."""
        m = len(x)
        p = self.params
        y, dz4, t = ws.y[:m], ws.diff[:m], ws.e[:m]
        du, dz2, mask = ws.du[:m], ws.dz2[:m], ws.mask[:m]
        # dz4 = (2/n) * (y - x) * y * (1 - y), the loss averaging over
        # rows and dims
        np.multiply(2.0 / x.size, dz4, out=dz4)
        np.multiply(dz4, y, out=dz4)
        np.subtract(1.0, y, out=t)
        np.multiply(dz4, t, out=dz4)
        np.matmul(ws.a3[:m].T, dz4, out=grads["w4"])
        np.sum(dz4, axis=0, out=grads["b4"])
        np.matmul(dz4, p["w4"].T, out=du)
        np.greater(ws.z3[:m], 0.0, out=mask)
        np.multiply(du, mask, out=du)                   # dz3
        np.matmul(ws.z2[:m].T, du, out=grads["w3"])
        np.sum(du, axis=0, out=grads["b3"])
        np.matmul(du, p["w3"].T, out=dz2)
        np.matmul(ws.a1[:m].T, dz2, out=grads["w2"])
        np.sum(dz2, axis=0, out=grads["b2"])
        np.matmul(dz2, p["w2"].T, out=du)
        np.greater(ws.z1[:m], 0.0, out=mask)
        np.multiply(du, mask, out=du)                   # dz1
        np.matmul(x.T, du, out=grads["w1"])
        np.sum(du, axis=0, out=grads["b1"])

    def forward(self, x, cache=None):
        """Reconstruction of the rows of ``x``; a ``cache`` dict receives
        the pass's activations for ``backward``."""
        x = np.asarray(x, dtype=np.float64)
        ws = _Workspace(self, len(x), backward=cache is not None)
        y = self._forward(x, ws)
        if cache is not None:
            cache.update(x=x, ws=ws, z1=ws.z1, a1=ws.a1, z2=ws.z2, z3=ws.z3,
                         a3=ws.a3, y=y)
        return y

    def loss(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self._loss(x, _Workspace(self, len(x)))

    def backward(self, cache):
        """Gradients of mean squared reconstruction error w.r.t. all
        parameters, given a forward cache."""
        x, ws = cache["x"], cache["ws"]
        np.subtract(cache["y"], x, out=ws.diff)
        grads = _param_views(np.empty(self.n_parameters), self.param_shapes)
        self._backward(x, ws, grads)
        return grads

    def scores(self, rows):
        """Per-row mean squared reconstruction error."""
        x = _check_width(_as_matrix(rows), self.n_inputs)
        return np.mean(self._squared_errors(x, _Workspace(self, len(x))),
                       axis=1)

    def to_json(self):
        return {
            "kind": self.kind,
            "n_inputs": self.n_inputs,
            "units": self.units,
            "bottleneck": self.bottleneck,
            "seed": self.seed,
            "params": {k: v.tolist() for k, v in self.params.items()},
        }

    @classmethod
    def from_json(cls, obj):
        # the parameters are read before the constructor draws weights
        sizes = [_number(obj, key, integer=True)
                 for key in ("n_inputs", "units", "bottleneck", "seed")]
        params = {k: _array(_object(obj, "params"), k, shape)
                  for k, shape in _param_shapes(*sizes[:3]).items()}
        model = cls(*sizes)
        model.params = params
        return model


def train(model, rows, cfg, val_rows=None):
    """Train in place; returns a TrainResult with per-epoch losses.

    ``rows`` must be the scaled normal training matrix; every row is
    trained on. ``val_rows`` are the rows whose loss is recorded after each
    epoch; without them there are no validation losses. Training aborts
    with TrainingError the moment a batch loss stops being finite.
    Afterwards ``model.params`` are views of one flat parameter vector.
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0:
        raise DataError("training data must be a non-empty row matrix")
    if not np.isfinite(x).all():
        raise DataError("training data contains non-finite values")

    rng = np.random.default_rng(cfg.seed)
    val = np.empty((0, x.shape[1])) if val_rows is None else np.asarray(
        val_rows, dtype=np.float64)

    shapes = model.param_shapes
    theta = np.concatenate([np.asarray(model.params[k], dtype=np.float64)
                            .reshape(-1) for k in PARAM_NAMES])
    model.params = _param_views(theta, shapes)
    grad = np.empty_like(theta)
    grads = _param_views(grad, shapes)
    adam_m, adam_v = np.zeros_like(theta), np.zeros_like(theta)
    t1, t2 = np.empty_like(theta), np.empty_like(theta)
    beta1, beta2 = cfg.beta1, cfg.beta2
    step = 0

    batch_rows = min(cfg.batch_size, len(x))
    ws = _Workspace(model, batch_rows, backward=True)
    xb = np.empty((batch_rows, x.shape[1]))
    val_ws = _Workspace(model, len(val))
    train_losses, val_losses = [], []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(x))
        epoch_loss = 0.0
        for lo in range(0, len(x), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            # the indices are valid; mode="raise" would gather through a
            # temporary copy
            batch = np.take(x, idx, axis=0, out=xb[:len(idx)], mode="clip")
            batch_loss = model._loss(batch, ws)
            if not math.isfinite(batch_loss):
                raise TrainingError(
                    "non-finite loss at epoch %d, batch starting %d"
                    % (epoch + 1, lo))
            epoch_loss += batch_loss * len(batch)
            model._backward(batch, ws, grads)
            step += 1
            bc1 = 1.0 - beta1 ** step
            bc2 = 1.0 - beta2 ** step
            # Adam: m = beta1*m + (1-beta1)*g; v = beta2*v + (1-beta2)*g*g;
            # theta -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
            np.multiply(beta1, adam_m, out=adam_m)
            np.multiply(1.0 - beta1, grad, out=t1)
            np.add(adam_m, t1, out=adam_m)
            np.multiply(beta2, adam_v, out=adam_v)
            np.multiply(1.0 - beta2, grad, out=t1)
            np.multiply(t1, grad, out=t1)
            np.add(adam_v, t1, out=adam_v)
            np.divide(adam_m, bc1, out=t1)
            np.multiply(cfg.learning_rate, t1, out=t1)
            np.divide(adam_v, bc2, out=t2)
            np.sqrt(t2, out=t2)
            np.add(t2, cfg.adam_eps, out=t2)
            np.divide(t1, t2, out=t1)
            np.subtract(theta, t1, out=theta)
        train_losses.append(epoch_loss / len(x))
        val_losses.append(model._loss(val, val_ws) if len(val) else None)
    return TrainResult(train_losses, val_losses)
