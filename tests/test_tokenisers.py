"""parse_csv's two tokenisers, numpy over bytes and csv.reader from the first
quote on, against the csv.reader row loop they replaced (oracles.py): equal
Detections and ParseReport on generated files, and the same errors."""

import csv
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from telanom import ingest
from telanom.cli import main
from telanom.errors import DataError
from telanom.ingest import (DETECTION_COLUMNS, Detections, StationMap,
                            parse_csv, write_detections_csv)

SM = StationMap([("A", -34.0, 21.0, 0), ("B", -34.1, 21.1, 1)])

# valid fields of each column, with whitespace, non-ASCII digits and
# letters and NULs, and fields that ingest drops
VALID = {
    "fishid": ["F1", "F2", " F1", "é", "F1\x00"],
    "receiver": ["R1", "R2", "", "rü", "\x00"],
    "station": ["A", "B", " A"],
    "lat": ["-34.0", "-34.1", " -34.0", "-34.00", "-3_4"],
    "lon": ["21.0", "21.1", "21", "2.1e1"],
    "date": ["2017-03-01", " 2017-03-01", "2017-3-1", "２017-03-01"],
    "time_sa": ["10:00:00", "23:59:59", "1:2:3", " 1:02:03", "12:00:00 ",
                "١٢:00:00", "１２:00:00", "09:05:07"],
}
INVALID = {
    "fishid": ["", "  "],
    "station": ["Z", "", "A\x00"],
    "lat": ["95", "nan", "x", "", "1e400"],
    "lon": ["-181", "inf", ""],
    "date": ["2017-02-29", "2017-13-01", ""],
    "time_sa": ["24:00:00", "12:00:0\x00", "12:00", ""],
}
PLAIN = st.characters(codec="utf-8", exclude_characters='\r\n,"')
FIELD = st.one_of(st.text(PLAIN, max_size=6),
                  st.sampled_from(sum(INVALID.values(), [])))
QUOTED = st.one_of(
    # a quoted field, perhaps holding commas, line ends and doubled quotes
    st.text(st.characters(codec="utf-8"), max_size=6).map(
        lambda t: '"%s"' % t.replace('"', '""')),
    # a quote inside an unquoted field is a literal one
    st.text(PLAIN, min_size=1, max_size=3).map(lambda t: t + '"x'))


@st.composite
def csv_texts(draw):
    names = draw(st.permutations(DETECTION_COLUMNS))
    for extra in draw(st.lists(st.sampled_from(DETECTION_COLUMNS
                                               + ["extra", ""]), max_size=3)):
        names.insert(draw(st.integers(0, len(names))), extra)
    if draw(st.integers(0, 19)) == 0:
        names.remove(draw(st.sampled_from(DETECTION_COLUMNS)))
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")  # a blank line
            continue
        width = draw(st.sampled_from([len(names)] * 4
                                     + list(range(len(names) + 3))))
        lines.append(",".join(
            draw(st.sampled_from(VALID[names[i]]))
            if i < len(names) and names[i] in VALID
            and draw(st.integers(0, 9)) else draw(FIELD)
            for i in range(width)))
    if draw(st.integers(0, 2)) == 0:
        # quotes from a later line on
        at = draw(st.integers(0, len(lines) - 1))
        fields = lines[at].split(",")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(QUOTED)
        lines[at] = ",".join(fields)
    ends = draw(st.lists(st.sampled_from(["\n", "\r", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(parse, path):
    try:
        detections, report = parse(path, SM)
    except (DataError, csv.Error):
        return "error"
    return detections, report, list(report.dropped)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=csv_texts(),
       chunk=st.integers(1, 48) | st.just(ingest._CHUNK_CHARS),
       key_bytes=st.sampled_from([8, ingest._KEY_BYTES]))
def test_tokenisers_match_the_row_loop(text, chunk, key_bytes):
    # chunks of a few characters put a chunk boundary after every line; at
    # 8 key bytes, longer fields go through the dict
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "d.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        with mock.patch.multiple(ingest, _CHUNK_CHARS=chunk,
                                 _KEY_BYTES=key_bytes):
            got = _outcome(parse_csv, path)
        assert got == _outcome(oracles.row_parse_csv, path)


def _survey_sized(path, n=60000):
    rng = np.random.default_rng(0)
    stations = rng.integers(0, 2, n)
    write_detections_csv(Detections(
        np.char.mod("F%03d", rng.integers(0, 20, n)).astype(object),
        np.char.mod("R%02d", stations).astype(object),
        np.array(["A", "B"], dtype=object)[stations],
        np.where(stations, -34.1, -34.0), np.where(stations, 21.1, 21.0),
        np.sort(rng.integers(1488326400, 1500000000, n))), path)


def test_tokenisers_agree_on_a_survey_sized_file_in_less_memory(tmp_path):
    path = str(tmp_path / "d.csv")
    _survey_sized(path)
    peaks, outcomes = [], []
    for parse in (parse_csv, oracles.row_parse_csv):
        tracemalloc.start()
        try:
            outcomes.append(parse(path, SM))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    (got, got_report), (want, want_report) = outcomes
    assert got_report == want_report and got_report.n_parsed == 60000
    assert got == want
    assert peaks[0] < peaks[1]


def test_quoted_and_crlf_copies_parse_alike(tmp_path):
    path = str(tmp_path / "d.csv")
    _survey_sized(path, 3000)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    for name, kwargs in (("crlf.csv", {}),
                         ("lf.csv", {"lineterminator": "\n"}),
                         ("quoted.csv", {"quoting": csv.QUOTE_ALL})):
        with open(tmp_path / name, "w", newline="") as f:
            csv.writer(f, **kwargs).writerows(rows)
        assert parse_csv(str(tmp_path / name), SM) == parse_csv(path, SM)


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("which", ["detections", "stations"])
def test_a_field_past_csv_limit_exits_2(tmp_path, csv_dataset, capsys,
                                        quoted, which):
    # csv.reader refuses a field longer than its limit, 131,072 characters
    field = "x" * 200000
    files = {k: csv_dataset[k] for k in ("detections", "stations")}
    with open(files[which], newline="") as f:
        lines = f.readlines()
    first = lines[1].split(",", 1)
    lines[1] = '"%s",%s' % (field, first[1]) if quoted else (
        "%s,%s" % (field, first[1]))
    files[which] = str(tmp_path / os.path.basename(files[which]))
    with open(files[which], "w", newline="") as f:
        f.writelines(lines)
    assert main(["ingest", "--input", files["detections"],
                 "--stations", files["stations"],
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "field larger than field limit" in err and files[which] in err
