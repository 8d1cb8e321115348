"""Dense reconstruction autoencoder, written directly on numpy in float64.

Architecture: d -> units (relu) -> bottleneck (linear) -> units (relu) ->
d (sigmoid). The sigmoid output matches min-max scaled inputs. Weights are
seeded uniform draws scaled by fan-in, biases start at zero. Training is
minibatch gradient descent on mean squared reconstruction error with the
Adam update rule; shuffling is reseeded per epoch from the training seed,
so a rerun with the same seed reproduces the final weights bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DataError, TrainingError

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
    val_fraction: float = 0.2


@dataclass
class TrainResult:
    train_losses: list
    val_losses: list

    def save_csv(self, path):
        import csv
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["epoch", "train_loss", "val_loss"])
            for e, (tr, vl) in enumerate(zip(self.train_losses,
                                             self.val_losses), start=1):
                w.writerow([e, repr(tr), "" if vl is None else repr(vl)])


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class Autoencoder:
    """Symmetric four-layer autoencoder with a linear bottleneck."""

    def __init__(self, n_inputs, units=128, bottleneck=2, seed=0):
        if n_inputs < 1 or units < 1 or bottleneck < 1:
            raise DataError("layer sizes must be positive")
        self.n_inputs = int(n_inputs)
        self.units = int(units)
        self.bottleneck = int(bottleneck)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)

        def init(fan_in, fan_out):
            bound = 1.0 / math.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=(fan_in, fan_out))

        self.params = {
            "w1": init(self.n_inputs, self.units),
            "b1": np.zeros(self.units),
            "w2": init(self.units, self.bottleneck),
            "b2": np.zeros(self.bottleneck),
            "w3": init(self.bottleneck, self.units),
            "b3": np.zeros(self.units),
            "w4": init(self.units, self.n_inputs),
            "b4": np.zeros(self.n_inputs),
        }

    @property
    def n_parameters(self):
        return sum(p.size for p in self.params.values())

    def forward(self, x, cache=None):
        p = self.params
        z1 = x @ p["w1"] + p["b1"]
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ p["w2"] + p["b2"]          # linear bottleneck
        z3 = z2 @ p["w3"] + p["b3"]
        a3 = np.maximum(z3, 0.0)
        z4 = a3 @ p["w4"] + p["b4"]
        y = _sigmoid(z4)
        if cache is not None:
            cache.update(x=x, z1=z1, a1=a1, z2=z2, z3=z3, a3=a3, y=y)
        return y

    def loss(self, x):
        y = self.forward(x)
        return float(np.mean((y - x) ** 2))

    def backward(self, cache):
        """Gradients of mean squared reconstruction error w.r.t. all
        parameters, given a forward cache."""
        p = self.params
        x, y = cache["x"], cache["y"]
        n = x.size  # loss averages over rows and dims
        dz4 = (2.0 / n) * (y - x) * y * (1.0 - y)
        grads = {
            "w4": cache["a3"].T @ dz4,
            "b4": dz4.sum(axis=0),
        }
        da3 = dz4 @ p["w4"].T
        dz3 = da3 * (cache["z3"] > 0.0)
        grads["w3"] = cache["z2"].T @ dz3
        grads["b3"] = dz3.sum(axis=0)
        dz2 = dz3 @ p["w3"].T
        grads["w2"] = cache["a1"].T @ dz2
        grads["b2"] = dz2.sum(axis=0)
        da1 = dz2 @ p["w2"].T
        dz1 = da1 * (cache["z1"] > 0.0)
        grads["w1"] = x.T @ dz1
        grads["b1"] = dz1.sum(axis=0)
        return grads

    def scores(self, rows):
        """Per-row mean squared reconstruction error."""
        x = np.asarray(rows, dtype=np.float64)
        y = self.forward(x)
        return np.mean((y - x) ** 2, axis=1)

    def to_json(self):
        return {
            "kind": "autoencoder",
            "n_inputs": self.n_inputs,
            "units": self.units,
            "bottleneck": self.bottleneck,
            "seed": self.seed,
            "params": {k: v.tolist() for k, v in self.params.items()},
        }

    @classmethod
    def from_json(cls, obj):
        model = cls(obj["n_inputs"], obj["units"], obj["bottleneck"],
                    obj["seed"])
        for k in PARAM_NAMES:
            model.params[k] = np.asarray(obj["params"][k], dtype=np.float64)
        return model

    def save(self, path):
        with open(path, "w") as f:
            f.write(json.dumps(self.to_json()))
            f.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls.from_json(json.load(f))


def train(model, rows, cfg, val_rows=None):
    """Train in place; returns a TrainResult with per-epoch losses.

    ``rows`` must be the scaled normal training matrix. When ``val_rows``
    is None a seeded 80/20 split is carved out of ``rows`` first. Training
    aborts with TrainingError the moment a batch loss stops being finite.
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0:
        raise DataError("training data must be a non-empty row matrix")
    if not np.isfinite(x).all():
        raise DataError("training data contains non-finite values")

    rng = np.random.default_rng(cfg.seed)
    if val_rows is None:
        perm = rng.permutation(len(x))
        n_val = int(round(cfg.val_fraction * len(x)))
        val = x[perm[:n_val]]
        x = x[perm[n_val:]]
    else:
        val = np.asarray(val_rows, dtype=np.float64)
    if len(x) == 0:
        raise DataError("validation split consumed all training rows")

    adam_m = {k: np.zeros_like(v) for k, v in model.params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in model.params.items()}
    step = 0

    train_losses, val_losses = [], []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(x))
        epoch_loss = 0.0
        for lo in range(0, len(x), cfg.batch_size):
            batch = x[order[lo:lo + cfg.batch_size]]
            cache = {}
            y = model.forward(batch, cache)
            batch_loss = float(np.mean((y - batch) ** 2))
            if not math.isfinite(batch_loss):
                raise TrainingError(
                    "non-finite loss at epoch %d, batch starting %d"
                    % (epoch + 1, lo))
            epoch_loss += batch_loss * len(batch)
            grads = model.backward(cache)
            step += 1
            bc1 = 1.0 - cfg.beta1 ** step
            bc2 = 1.0 - cfg.beta2 ** step
            for k, g in grads.items():
                adam_m[k] = cfg.beta1 * adam_m[k] + (1.0 - cfg.beta1) * g
                adam_v[k] = cfg.beta2 * adam_v[k] + (1.0 - cfg.beta2) * g * g
                m_hat = adam_m[k] / bc1
                v_hat = adam_v[k] / bc2
                model.params[k] -= (cfg.learning_rate * m_hat
                                    / (np.sqrt(v_hat) + cfg.adam_eps))
        train_losses.append(epoch_loss / len(x))
        val_losses.append(model.loss(val) if len(val) else None)
    return TrainResult(train_losses, val_losses)


def train_config_json(cfg):
    return asdict(cfg)
