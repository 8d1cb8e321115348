"""Exception types shared across the package, the checked reader of the
JSON files it saves, and the opener every file it writes goes through."""

import contextlib
import json
import math
import os
import re

import numpy as np


class DataError(Exception):
    """Malformed or inconsistent input data (CLI exit code 2)."""


@contextlib.contextmanager
def read_file(path, **kwargs):
    """``open(path, **kwargs)`` for reading text: the opener of every input
    file. A path that cannot be opened as a readable file and bytes that
    do not decode are DataErrors that name the file."""
    try:
        f = open(path, **kwargs)
    except OSError as e:
        raise DataError("%s: cannot read: %s" % (path, e.strerror or e)) \
            from None
    with f:
        try:
            yield f
        except UnicodeDecodeError as e:
            raise DataError("%s: undecodable bytes: %s" % (path, e)) \
                from None


def load_json(path, read):
    """``read(obj)`` of the JSON object ``obj`` in the file at ``path``. A
    file that cannot be read, holds no JSON object, a key ``read`` misses
    and a DataError of ``read`` are DataErrors that name the file."""
    with read_file(path) as f:
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


@contextlib.contextmanager
def whole_file(path, **kwargs):
    """``open(path, "w", **kwargs)`` by way of ``<path>.tmp-<pid>`` beside
    it, renamed into place once the block ends: the rename is atomic on
    POSIX, so ``path`` holds the old file or the whole new one. A block
    that raises removes the temporary file. Nothing is fsynced."""
    temporary = "%s.tmp-%d" % (path, os.getpid())
    f = open(temporary, "w", **kwargs)
    try:
        with f:
            yield f
        os.replace(temporary, path)
    except BaseException:
        os.remove(temporary)
        raise


def remove_temporaries(root):
    """Remove the ``whole_file`` temporaries of killed writers under root."""
    for folder, _, names in os.walk(root):
        for name in names:
            if re.search(r"\.tmp-\d+$", name):
                os.remove(os.path.join(folder, name))


def _number(obj, key, integer=False):
    """Field ``key`` of a saved file or of grid parameters: a finite JSON
    number, or an integer when ``integer``; DataError otherwise. Python's
    JSON reader takes NaN, Infinity and -Infinity, which no field
    holds."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(
            value, int if integer else (int, float)):
        raise DataError("%s must be %s, got %r"
                        % (key, "an integer" if integer else "a number",
                           value))
    if isinstance(value, float) and not math.isfinite(value):
        raise DataError("%s must be finite, got %r" % (key, value))
    return value


def _array(obj, key, ndim, dtype=np.float64, finite=True):
    """Saved file field ``key``: a ``ndim``-d array of numbers, all finite
    when ``finite``; DataError otherwise."""
    try:
        value = np.asarray(obj[key], dtype=dtype)
    except (TypeError, ValueError):
        raise DataError("%s must be an array of numbers" % key) from None
    if value.ndim != ndim:
        raise DataError("%s must be %d-d, got shape %s"
                        % (key, ndim, value.shape))
    if finite:
        _finite(value, key)
    return value


def _finite(values, what, rows=None, columns=()):
    """DataError naming the first NaN or infinite entry of ``values``, in
    C order, if there is one. A 2-d array names it by row (``rows[i]`` or
    ``row i``) and column (with its name when ``columns`` names every
    column), any other array by its index."""
    bad = ~np.isfinite(values)
    if not bad.any():
        return
    at = tuple(np.argwhere(bad)[0])
    if values.ndim == 2:
        row, col = at
        place = "%s, column %d%s" % (
            rows[row] if rows else "row %d" % row, col,
            " (%s)" % columns[col] if len(columns) == values.shape[1]
            else "")
    else:
        place = "entry %s" % ", ".join(map(str, at))
    raise DataError("%s: %s is %r, not a finite number"
                    % (what, place, float(values[at])))


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
