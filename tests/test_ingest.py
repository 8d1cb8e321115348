import numpy as np
import pytest

from telanom.errors import DataError
from telanom.ingest import (DetectionRecord, Detections, StationMap,
                            _clock_column, _clock_seconds, _decode_clocks,
                            deduplicate,
                            format_timestamp, group_tracks, load_station_map,
                            local_day, parse_csv, parse_timestamp,
                            write_detections_csv)


def _write(path, text):
    path.write_text(text)
    return str(path)


STATIONS = "station,lat,lon,order\nA,-34.0,21.0,0\nB,-34.1,21.1,1\nC,-34.2,21.2,2\n"


@pytest.fixture
def station_map(tmp_path):
    return load_station_map(_write(tmp_path / "stations.csv", STATIONS))


# -- timestamps --------------------------------------------------------------


def test_parse_timestamp_is_utc_plus_two():
    # 1970-01-01 02:00:00 local is the epoch instant
    assert parse_timestamp("1970-01-01", "02:00:00") == 0
    assert parse_timestamp("1970-01-01", "00:00:00") == -7200
    assert parse_timestamp("2017-03-01", "00:00:00") == 1488326400 - 7200


def test_timestamp_round_trip():
    rng = np.random.default_rng(0)
    for ts in rng.integers(0, 2_000_000_000, size=500):
        d, t = format_timestamp(int(ts))
        assert parse_timestamp(d, t) == int(ts)


def test_parse_timestamp_rejects_garbage():
    for bad in (("2017-13-01", "00:00:00"), ("2017-02-30", "00:00:00"),
                ("2017-01-01", "24:00:00"), ("nope", "00:00:00"),
                ("2017-01-01", "12:61:00")):
        with pytest.raises(ValueError):
            parse_timestamp(*bad)


def test_local_day_boundary():
    midnight = parse_timestamp("2020-06-01", "00:00:00")
    assert local_day(midnight) == local_day(midnight + 86399)
    assert local_day(midnight + 86400) == local_day(midnight) + 1
    assert local_day(midnight - 1) == local_day(midnight) - 1


# -- station map -------------------------------------------------------------


def test_station_map_lookup(station_map):
    assert len(station_map) == 3
    assert station_map.coords("B") == (-34.1, 21.1)
    assert station_map.order_of("C") == 2
    assert "A" in station_map and "Z" not in station_map
    with pytest.raises(DataError):
        station_map.coords("Z")
    with pytest.raises(DataError):
        station_map.order_of("Z")


def test_station_map_rejects_bad_orders():
    with pytest.raises(DataError):
        StationMap([("A", 0, 0, 0), ("B", 0, 0, 2)])  # gap
    with pytest.raises(DataError):
        StationMap([("A", 0, 0, 0), ("B", 0, 0, 0)])  # repeat
    with pytest.raises(DataError):
        StationMap([("A", 0, 0, 0), ("A", 0, 0, 1)])  # dup id
    with pytest.raises(DataError):
        StationMap([])


def test_load_station_map_missing_column(tmp_path):
    path = _write(tmp_path / "s.csv", "station,lat,lon\nA,0,0\n")
    with pytest.raises(DataError):
        load_station_map(path)


# -- detection parsing -------------------------------------------------------


GOOD = ("fishid,receiver,station,lat,lon,date,time_sa\n"
        "F1,R1,A,-34.0,21.0,2017-03-01,10:00:00\n"
        "F1,R2,B,-34.1,21.1,2017-03-01,11:30:00\n"
        "F2,R1,A,-34.0,21.0,2017-03-02,09:15:45\n")


def test_parse_csv_good_rows(tmp_path, station_map):
    records, report = parse_csv(_write(tmp_path / "d.csv", GOOD), station_map)
    assert report.n_rows == 3 and report.n_parsed == 3
    assert report.dropped == {}
    assert records.take([0]) == Detections.from_records([DetectionRecord(
        "F1", "R1", "A", -34.0, 21.0,
        parse_timestamp("2017-03-01", "10:00:00"))])


def test_parse_csv_drops_and_counts(tmp_path, station_map):
    text = ("fishid,receiver,station,lat,lon,date,time_sa\n"
            "F1,R1,A,-34.0,21.0,2017-03-01,10:00:00\n"
            ",R1,A,-34.0,21.0,2017-03-01,10:00:00\n"        # missing fish
            "F1,R1,A,notanumber,21.0,2017-03-01,10:00:00\n"  # bad float
            "F1,R1,A,95.0,21.0,2017-03-01,10:00:00\n"        # lat out of range
            "F1,R1,A,-34.0,21.0,2017-03-99,10:00:00\n"       # bad date
            "F1,R1,Z,-34.0,21.0,2017-03-01,10:00:00\n")      # unknown station
    records, report = parse_csv(_write(tmp_path / "d.csv", text), station_map)
    assert len(records) == 1
    assert report.n_rows == 6 and report.n_parsed == 1
    assert report.dropped == {"missing_field": 2, "bad_coordinate": 1,
                              "bad_timestamp": 1, "unknown_station": 1}


def test_parse_csv_short_rows_are_missing_fields(tmp_path, station_map):
    # rows too short to hold every column, or with empty date/time strings
    text = ("fishid,receiver,station,lat,lon,date,time_sa\n"
            "F1,R1,A,-34.0,21.0,2017-03-01,10:00:00\n"
            "F1,R1,A,-34.0,21.0\n"                         # no date/time
            "F1,R1,A,-34.0,21.0,2017-03-01\n"              # no time
            "F1,R1\n"
            "\n"                                            # blank: no row
            "F1,R1,A,-34.0,21.0,,10:00:00\n"               # empty date
            "F1,R1,A,-34.0,21.0,2017-03-01,\n")            # empty time
    records, report = parse_csv(_write(tmp_path / "d.csv", text), station_map)
    assert len(records) == 1
    assert report.n_rows == 6 and report.n_parsed == 1
    assert report.dropped == {"missing_field": 3, "bad_timestamp": 2}


def test_cli_ingest_short_row_exits_cleanly(tmp_path, station_map):
    from telanom.cli import main
    det = _write(tmp_path / "d.csv",
                 "fishid,receiver,station,lat,lon,date,time_sa\n"
                 "F001,R00,A,-34.4,20.83\n"
                 "F001,R00,A,-34.4,20.83,2017-03-01,10:00:00\n")
    sta = _write(tmp_path / "s.csv", STATIONS)
    out = tmp_path / "out"
    assert main(["ingest", "--input", det, "--stations", sta,
                 "--out", str(out)]) == 0
    assert (out / "ingest.json").read_text().count('"missing_field": 1') == 1


# clock strings next to the canonical HH:MM:SS form, which parse_csv reads
# as arrays; every other string goes through _clock_seconds
CLOCK_EDGES = ["00:00:00", "23:59:59", "09:05:07", "24:00:00", "23:60:00",
               "23:59:60", "99:99:99", " 1:02:03", "1:2:3", "+1:02:03",
               "-1:02:03", "\uff11\uff12:\uff10\uff10:\uff10\uff10",
               "\u0660\u0669:\u0660\u0660:\u0660\u0660", "12:00:00 ",
               " 12:00:00", "", "12:3a:00", "12-00-00", "12:00",
               "12:00:00:00", "1_:00:00", "12:00:0\x00", "12:00:00\n"]


def _clock_oracle(s):
    try:
        return _clock_seconds(s), True
    except ValueError:
        return 0, False


def test_clock_fast_path_matches_clock_seconds():
    every = ["%02d:%02d:%02d" % (h, m, s) for h in range(24)
             for m in range(60) for s in range(60)]
    wrong = ["%02d:%02d:%02d" % (h, m, s) for h in range(20, 100)
             for m in (0, 59, 60, 99) for s in (0, 59, 60, 99)]
    for strings in (CLOCK_EDGES, every + wrong + CLOCK_EDGES, [],
                    ["1:2:3"], ["12:00:00"]):
        # the column as the csv.reader tokeniser hands it over
        column, chars = _clock_column(strings, np.arange(len(strings)))
        values, ok = _decode_clocks(chars, *column)
        want = [_clock_oracle(s) for s in strings]
        assert values.tolist() == [v for v, _ in want]
        assert ok.tolist() == [k for _, k in want]


def test_parse_csv_clock_edges(tmp_path, station_map):
    clocks = [c for c in CLOCK_EDGES if "\x00" not in c and "\n" not in c]
    text = "fishid,receiver,station,lat,lon,date,time_sa\n" + "".join(
        "F1,R1,A,-34.0,21.0,2017-03-01,%s\n" % c for c in clocks)
    records, report = parse_csv(_write(tmp_path / "d.csv", text),
                                station_map)
    good = [c for c in clocks if _clock_oracle(c)[1]]
    assert records.timestamp.tolist() == [
        parse_timestamp("2017-03-01", c) for c in good]
    assert report.dropped == {"bad_timestamp": len(clocks) - len(good)}


def test_parse_csv_missing_column_is_fatal(tmp_path, station_map):
    path = _write(tmp_path / "d.csv", "fishid,receiver,station\nF1,R1,A\n")
    with pytest.raises(DataError):
        parse_csv(path, station_map)


def test_parse_serialize_parse_round_trip(tmp_path, station_map, csv_dataset):
    # bit-identical round trip on a real-sized file
    sm = load_station_map(csv_dataset["stations"])
    records, _ = parse_csv(csv_dataset["detections"], sm)
    out = tmp_path / "again.csv"
    write_detections_csv(records, str(out))
    records2, report2 = parse_csv(str(out), sm)
    assert report2.dropped == {}
    assert records2 == records


# -- dedup and grouping ------------------------------------------------------


def _rec(fish, station, ts, recv="R1"):
    return DetectionRecord(fish, recv, station, 0.0, 0.0, ts)


def test_deduplicate_keeps_first_and_is_idempotent():
    records = [_rec("F1", "A", 10), _rec("F1", "A", 10, recv="R9"),
               _rec("F1", "B", 10), _rec("F1", "A", 11)]
    out, n = deduplicate(Detections.from_records(records))
    assert n == 1
    assert out == Detections.from_records([records[0], records[2], records[3]])
    again, n2 = deduplicate(out)
    assert n2 == 0 and again == out


def test_group_tracks_sorts_and_conserves():
    records = [_rec("F2", "A", 30), _rec("F1", "B", 20), _rec("F1", "A", 10),
               _rec("F1", "A", 20)]
    tracks = group_tracks(Detections.from_records(records))
    assert list(tracks.fish_id) == ["F1", "F1", "F1", "F2"]
    assert list(tracks.timestamp[:3]) == [10, 20, 20]
    # ties broken by station id
    assert list(tracks.station_id[:3]) == ["A", "A", "B"]
    assert len(tracks) == len(records)


def test_group_tracks_independent_of_input_order(small_synth):
    records, _, _ = small_synth
    shuffled = list(records)
    np.random.default_rng(3).shuffle(shuffled)
    a = group_tracks(Detections.from_records(records))
    b = group_tracks(Detections.from_records(shuffled))
    assert a == b
