"""errors.whole_file, the opener every file the package writes goes
through: a writer that raises halfway leaves the file it would have
replaced byte for byte as it was, and no temporary file beside it."""

import os

import numpy as np
import pytest

from telanom import ingest
from telanom.detectors import save_model
from telanom.errors import remove_temporaries, whole_file
from telanom.ingest import write_csv
from telanom.metrics import save_report


class _Model:
    """The one method save_model asks of a model."""

    def __init__(self, value):
        self.value = value

    def to_json(self):
        return {"kind": "stub", "value": self.value}


class _NoText:
    def __str__(self):
        raise ValueError("no text")


# writer: (a write that succeeds, one that raises halfway, its error);
# np.int64 is not JSON, and write_csv meets the value with no text in its
# second block of rows, after the first is written
WRITES = {
    "save_report": (lambda path: save_report({"a": 1, "b": 2}, path),
                    lambda path: save_report({"a": 1, "b": np.int64(2)},
                                             path),
                    TypeError),
    "save_model": (lambda path: save_model(_Model(1), path),
                   lambda path: save_model(_Model(np.int64(1)), path),
                   TypeError),
    "write_csv": (lambda path: write_csv(path, ["a"], [[1, 2, 3]]),
                  lambda path: write_csv(path, ["a"], [[1, _NoText(), 3]]),
                  ValueError),
}


@pytest.mark.parametrize("writer", sorted(WRITES))
def test_a_failing_writer_leaves_the_old_file(tmp_path, monkeypatch, writer):
    monkeypatch.setattr(ingest, "_WRITE_ROWS", 1)
    good, bad, error = WRITES[writer]
    path = tmp_path / "out"
    good(str(path))
    before = path.read_bytes()
    with pytest.raises(error):
        bad(str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("writer", sorted(WRITES))
def test_a_failing_writer_leaves_no_new_file(tmp_path, monkeypatch, writer):
    monkeypatch.setattr(ingest, "_WRITE_ROWS", 1)
    _good, bad, error = WRITES[writer]
    with pytest.raises(error):
        bad(str(tmp_path / "out"))
    assert list(tmp_path.iterdir()) == []


def test_a_file_appears_only_once_whole(tmp_path):
    path = tmp_path / "out"
    with whole_file(str(path)) as f:
        f.write("part")
        f.flush()
        assert not path.exists()
        assert [p.name for p in tmp_path.iterdir()] == [
            "out.tmp-%d" % os.getpid()]
    assert path.read_text() == "part"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_remove_temporaries_takes_only_temporary_files(tmp_path):
    names = ["a.csv.tmp-12", "a.csv", "b.tmp-", "c.tmp-1x", "d.tmp-3.csv"]
    (tmp_path / "models").mkdir()
    for name in names:
        (tmp_path / name).write_text("x")
    (tmp_path / "models" / "lof.json.tmp-7").write_text("x")
    remove_temporaries(str(tmp_path))
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
        set(names) - {"a.csv.tmp-12"} | {"models"})
