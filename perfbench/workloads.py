"""Workload definitions: how each workload's inputs are generated from the
seed, which CLI calls make one operation, and how the outputs are checked.

A workload is one or more parts. A part is one input set, generated into its
own directory, and the CLI calls an operation runs on it; an operation runs
every part's calls in order.

Imported only by worker.py, after the BLAS/OpenMP thread count is pinned.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import time

import numpy as np

from telanom.ingest import format_timestamp, write_detections_csv
from telanom.labelling import CRIT_SINGLE_STATION, CRIT_SKIPPED, CRIT_STATIONARY
from telanom.synthgen import GroundTruth, SynthConfig, generate, write_station_csv
from telanom.tuning import DEFAULT_GRIDS

DROP_REASONS = ("missing_field", "bad_coordinate", "bad_timestamp",
                "unknown_station")
CRIT_BITS = {1: CRIT_SINGLE_STATION, 2: CRIT_STATIONARY, 3: CRIT_SKIPPED}

# The fixed grid spacing of study's parts. The automatic plan picks its
# interval from a sparse set of candidate gaps: on 8 fish with a 6,000-point
# budget the pool ran from 5.3k to 9.3k rows over seeds 0-9, and the
# O(pool^2) detector work with it. At a fixed interval it stays within 1%.
FIXED_INTERVAL = "43200"

# survey keeps the automatic plan. On 20 fish a 15,000-point budget lands in
# the sparse tail of the candidate gaps, and the pool ran from 13.9k to 21.0k
# rows over seeds 0-9; at 30,000 the candidates are dense and it ran from
# 33.4k to 36.2k rows over seeds 0-63.
SURVEY_MAX_POINTS = "30000"


@dataclasses.dataclass(frozen=True)
class Part:
    name: str            # the directory of its inputs and outputs
    synth: dict          # SynthConfig overrides; the seed comes from --seed
    calls: tuple         # CLI argv tails, run in order
    dirty: bool = False  # duplicate, malformed and receiver-ordered rows

    @property
    def tunes(self):
        return self.calls[0][0] == "tune"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple


# study is one analyst's session: the four-model run on an 8-fish study,
# then the LOF and DBSCAN grid searches on a 6-fish, 120-day pilot set. The
# searches are not a workload of their own: with two workloads each run can
# measure 56 s within the benchmark's time limit, and shorter runs were too
# noisy on a shared host.
WORKLOADS = {w.name: w for w in (
    Workload("study", (
        Part("run", {"n_fish": 8},
             (("run", "--resample-interval", FIXED_INTERVAL,
               "--models", "autoencoder,iforest,lof,dbscan"),)),
        Part("tune", {"n_fish": 6, "span_days": 120.0},
             (("tune", "--model", "lof",
               "--resample-interval", FIXED_INTERVAL),
              ("tune", "--model", "dbscan",
               "--resample-interval", FIXED_INTERVAL))))),
    Workload("survey", (
        Part("run", {"n_fish": 20, "fraction_stationary": 0.05},
             (("run", "--resample-interval", "auto",
               "--max-points", SURVEY_MAX_POINTS, "--models", "iforest"),),
             dirty=True),)),
)}


def argv_for(call, input_dir, out_dir, seed):
    return list(call) + [
        "--input", os.path.join(input_dir, "detections.csv"),
        "--stations", os.path.join(input_dir, "stations.csv"),
        "--out", out_dir, "--seed", str(seed)]


# ---------------------------------------------------------------------------
# inputs


def _corrupt(rec, reason, rng):
    """One CSV row copied from a real record with one field broken so that
    ingest drops it for ``reason``."""
    day, clock = format_timestamp(rec.timestamp)
    row = [rec.fish_id, rec.receiver_id, rec.station_id,
           repr(rec.lat), repr(rec.lon), day, clock]
    if reason == "missing_field":
        row[0] = ""
    elif reason == "bad_coordinate":
        row[3] = repr(90.0 + 1.0 + float(rng.random()))
    elif reason == "bad_timestamp":
        row[5] = day[:5] + "13" + day[7:]          # month 13
    else:
        row[2] = "X" + row[2]
    return row


def make_inputs(part, seed, input_dir):
    """Generate and write one part's CSVs; returns a description of what
    was written, with the time spent generating and writing."""
    t0 = time.perf_counter()
    records, station_map, truth = generate(
        SynthConfig(seed=seed, **part.synth))
    t1 = time.perf_counter()

    injected = {"duplicates": 0, "dropped": {}}
    rows = records
    bad_rows = []
    if part.dirty:
        rng = np.random.default_rng((seed, 7))
        n = len(records)
        dup_idx = rng.choice(n, size=n // 100, replace=False)
        # concatenated receiver downloads: each receiver's rows in time
        # order, with overlapping downloads repeating some rows verbatim
        rows = sorted(records + [records[i] for i in dup_idx],
                      key=lambda r: (r.receiver_id, r.timestamp))
        injected["duplicates"] = len(dup_idx)
        for reason in DROP_REASONS:
            picks = rng.choice(n, size=max(1, n // 2000), replace=False)
            bad_rows += [_corrupt(records[i], reason, rng) for i in picks]
            injected["dropped"][reason] = len(picks)

    t2 = time.perf_counter()
    path = os.path.join(input_dir, "detections.csv")
    write_detections_csv(rows, path)
    t3 = time.perf_counter()
    if bad_rows:
        with open(path, "a", newline="") as f:
            csv.writer(f).writerows(bad_rows)
    write_station_csv(station_map, os.path.join(input_dir, "stations.csv"))
    truth.save_csv(os.path.join(input_dir, "ground_truth.csv"))
    return {"detections": len(rows) + len(bad_rows),
            "unique_detections": len(records),
            "injected": injected,
            "generate_s": t1 - t0, "write_csv_s": t3 - t2}


# ---------------------------------------------------------------------------
# output check


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def observe(part, out_dir):
    """The outputs the reference pins: counts, never float bits."""
    if part.tunes:
        obs = {}
        for call in part.calls:
            model = call[call.index("--model") + 1]
            best = _read_json(os.path.join(out_dir, "tune_%s.json" % model))
            with open(os.path.join(out_dir, "tune_%s.csv" % model)) as f:
                rows = [{k: (None if v == "" else float(v))
                         for k, v in row.items()}
                        for row in csv.DictReader(f)]
            obs[model] = {"best_params": best["best_params"], "rows": rows}
        return obs
    report = _read_json(os.path.join(out_dir, "report.json"))
    obs = {"split": report["split"],
           "n_train_pool": report["n_train_pool"],
           "delta_t": report["resample_interval"],
           "confusion": {m: e["confusion"]
                         for m, e in sorted(report["models"].items())}}
    if "autoencoder" in report["models"]:
        obs["ae_percentile"] = report["models"]["autoencoder"]["threshold"][
            "percentile"]
    return obs


def _same(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) or isinstance(b, float):
        return (a is not None and b is not None
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12))
    return a == b


def check(part, input_dir, out_dir, inputs, reference):
    """Returns (observed outputs, list of failed checks). ``reference`` is
    the recorded observation for this (workload, seed, part), or None."""
    errors = []
    obs = observe(part, out_dir)
    if reference is not None and not _same(obs, reference):
        errors.append("outputs differ from the recorded reference")

    if part.tunes:
        for model, got in obs.items():
            grid = DEFAULT_GRIDS[model]
            if len(got["rows"]) != math.prod(len(v) for v in grid.values()):
                errors.append("%s: candidate rows != grid size" % model)
        return obs, errors

    report = _read_json(os.path.join(out_dir, "report.json"))
    n_test = obs["split"]["normal_test"] + obs["split"]["anomaly_test"]
    for model, cm in obs["confusion"].items():
        if sum(cm.values()) != n_test:
            errors.append("%s: confusion total != test rows" % model)
    if obs["confusion"].get("autoencoder", {}).get("fn"):
        errors.append("autoencoder FN != 0")

    # labels must equal the generator's ground truth row for row; the
    # injected rows only add to the real ones, so this still holds
    truth = GroundTruth.load_csv(os.path.join(input_dir, "ground_truth.csv"))
    with open(os.path.join(out_dir, "labels.csv")) as f:
        labels = list(csv.DictReader(f))
    crit = truth.mask_for([r["fish_id"] for r in labels],
                          [int(r["timestamp"]) for r in labels])
    label = np.array([int(r["label"]) for r in labels])
    mask = np.array([int(r["criterion_mask"]) for r in labels])
    if len(labels) != inputs["unique_detections"]:
        errors.append("labelled rows != unique detections")
    if not np.array_equal(label == 0, crit > 0):
        errors.append("labels differ from the ground truth")
    for c, bit in CRIT_BITS.items():
        if not np.all(mask[crit == c] & bit):
            errors.append("criterion %d rows lack their mask bit" % c)

    ingest = report["ingest"]
    injected = inputs["injected"]
    if ingest["rows_read"] != inputs["detections"]:
        errors.append("rows_read != rows written")
    if ingest["duplicates_removed"] != injected["duplicates"]:
        errors.append("duplicates_removed != injected duplicates")
    if ingest["rows_dropped"] != injected["dropped"]:
        errors.append("rows_dropped != injected malformed rows")
    return obs, errors
