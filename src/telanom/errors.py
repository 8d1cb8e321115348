"""Exception types shared across the package, the checked reader of the
JSON files it saves, and the opener every file it writes goes through."""

import contextlib
import json
import math
import os
import re
import reprlib
import sys

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
        except (ValueError, RecursionError) as e:    # or nested too deep
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


def _object(obj, key):
    """Field ``key`` of a saved file: a JSON object; DataError otherwise."""
    value = obj[key]
    if not isinstance(value, dict):
        raise DataError("%s must be an object, got %s"
                        % (key, reprlib.repr(value)))
    return value


def _number(obj, key, integer=False, low=-math.inf, high=math.inf):
    """Field ``key`` of a saved file or of grid parameters: a finite JSON
    number in ``[low, high]``, returned as a float, or an int when
    ``integer``. A bool, NaN, an infinity (Python's JSON reader takes
    them) or an integer past a float's range is a DataError naming it."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(
            value, int if integer else (int, float)):
        raise DataError("%s must be %s, got %s" % (
            key, "an integer" if integer else "a number", reprlib.repr(value)))
    if not integer and not abs(value) <= sys.float_info.max:
        raise DataError("%s must be finite, got %s"
                        % (key, reprlib.repr(value)))
    value = value if integer else float(value)
    if not low <= value <= high:
        raise DataError("%s must be in [%s, %s], got %s"
                        % (key, low, high, reprlib.repr(value)))
    return value


def _array(obj, key, shape, dtype=np.float64, low=-math.inf, high=math.inf):
    """Field ``key`` of a saved file: a ``dtype`` array of JSON numbers of
    ``shape``, an int for each fixed dimension and None for each free one
    (``[]`` has no rows), each finite, in ``[low, high]`` and integral for
    an integer dtype. Otherwise a DataError naming it or its bad entry."""
    field = obj[key]
    try:
        value = np.asarray(field)
    except ValueError:                       # a ragged list
        value = np.asarray(None)
    if value.dtype.kind not in "iuf":
        raise DataError("%s must be an array of numbers, got %s"
                        % (key, reprlib.repr(field)))
    if value.shape == (0,):
        value = value.reshape([0] + [d or 0 for d in shape[1:]])
    if value.ndim != len(shape) or any(
            d not in (None, n) for d, n in zip(shape, value.shape)):
        raise DataError("%s must have shape %s, got %s"
                        % (key, shape, value.shape))
    _refuse(~np.isfinite(value), value, key, "not a finite number")
    _refuse((value < low) | (value > high), value, key,
            "not in [%s, %s]" % (low, high))
    with np.errstate(invalid="ignore"):
        cast = value.astype(dtype, copy=False)
    _refuse(cast != value, value, key, "not an integer")
    return cast


def _refuse(bad, values, what, why, columns=()):
    """DataError naming the first entry of a 1-d or 2-d ``values`` where
    ``bad`` holds, if any, and ``why``; a column by name if ``columns``."""
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        place = ("row %d, column %d" if values.ndim == 2 else "entry %d") % at
        if len(columns) == values.shape[-1]:
            place += " (%s)" % columns[at[-1]]
        raise DataError("%s: %s is %r, %s"
                        % (what, place, values[at].item(), why))


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
