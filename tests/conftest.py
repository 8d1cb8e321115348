"""Shared fixtures: one small synthetic dataset generated once per session,
and a switch for the number of CPUs the package sees."""

import os

import pytest

from telanom.features import engineer_tracks
from telanom.ingest import (Detections, deduplicate, group_tracks,
                            write_detections_csv)
from telanom.labelling import label_all
from telanom.synthgen import SynthConfig, generate, write_station_csv


SMALL_CFG = SynthConfig(n_fish=6, span_days=200.0, seed=7)


@pytest.fixture(scope="session")
def small_synth():
    records, station_map, gt = generate(SMALL_CFG)
    return records, station_map, gt


@pytest.fixture(scope="session")
def small_table(small_synth):
    records, station_map, _gt = small_synth
    records, _ = deduplicate(Detections.from_records(records))
    tracks = group_tracks(records)
    table = engineer_tracks(tracks, station_map)
    labelled, report = label_all(table)
    return labelled, report


@pytest.fixture(scope="session")
def csv_dataset(small_synth, tmp_path_factory):
    """The small dataset written out as CSV files for ingest/CLI tests."""
    records, station_map, gt = small_synth
    root = tmp_path_factory.mktemp("data")
    det = os.path.join(root, "detections.csv")
    sta = os.path.join(root, "stations.csv")
    gtp = os.path.join(root, "ground_truth.csv")
    write_detections_csv(records, det)
    write_station_csv(station_map, sta)
    gt.save_csv(gtp)
    return {"detections": det, "stations": sta, "ground_truth": gtp,
            "dir": str(root)}


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes the package see ``n`` usable CPUs (child.usable_cpus)
    and returns the list that the pid of every fork it then makes is
    appended to."""
    fork, forks = os.fork, []

    def recorded():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def see(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)))
        monkeypatch.setattr(os, "fork", recorded)
        forks.clear()
        return forks
    return see
