"""Exception types shared across the package, and the checked reader of
the JSON files it saves."""

import json

import numpy as np


class DataError(Exception):
    """Malformed or inconsistent input data (CLI exit code 2)."""


def load_json(path, read):
    """``read(obj)`` of the JSON object ``obj`` in the file at ``path``. A
    file that holds no JSON object, a key ``read`` misses and a DataError
    of ``read`` are DataErrors that name the file."""
    with open(path) as f:
        try:
            obj = json.load(f)
        except ValueError as e:
            raise DataError("%s: not a JSON file: %s" % (path, e)) from None
    if not isinstance(obj, dict):
        raise DataError("%s: expected a JSON object" % path)
    try:
        return read(obj)
    except KeyError as e:
        raise DataError("%s: lacks key %s" % (path, e)) from None
    except DataError as e:
        raise DataError("%s: %s" % (path, e)) from None


def _number(obj, key, integer=False):
    """Field ``key`` of a saved file or of grid parameters: a JSON number,
    or an integer when ``integer``; DataError otherwise."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(
            value, int if integer else (int, float)):
        raise DataError("%s must be %s, got %r"
                        % (key, "an integer" if integer else "a number",
                           value))
    return value


def _array(obj, key, ndim, dtype=np.float64):
    """Saved file field ``key``: a ``ndim``-d array of numbers; DataError
    otherwise."""
    try:
        value = np.asarray(obj[key], dtype=dtype)
    except (TypeError, ValueError):
        raise DataError("%s must be an array of numbers" % key) from None
    if value.ndim != ndim:
        raise DataError("%s must be %d-d, got shape %s"
                        % (key, ndim, value.shape))
    return value


class LeakageError(RuntimeError):
    """A held-out test row reached a training-side stage."""

    def __init__(self, stage, uids):
        self.stage = stage
        self.uids = sorted(uids)
        super().__init__(
            "leakage: %d test row(s) reached stage %r (uids %s%s)"
            % (len(self.uids), stage, self.uids[:5],
               "..." if len(self.uids) > 5 else "")
        )

    def __reduce__(self):
        # rebuilt from its fields when a child process sends it back
        return type(self), (self.stage, self.uids)


class TrainingError(RuntimeError):
    """Training diverged or was fed unusable data."""
