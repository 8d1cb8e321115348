"""telanom benchmark.

    python3 perfbench/run.py --workload study|survey --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. One analyst runs one study at a time, so
the loop is closed: one operation at a time, one process each. A run first
sets up the workload three times (each a fresh process that imports the
package, generates the inputs from the seed with synthgen.generate and
writes the CSVs with ingest.write_detections_csv) and checks the three
agree; then it runs operations for S seconds. An operation is a fresh
process that calls telanom.cli.main in process on those CSVs and checks the
outputs. The program sees only the CSV files.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 operations alternate untraced and traced,
and the metrics are the per-layer ones, medians over the traced
operations. The lines before it record the environment and the inputs'
sizes. --workload all runs every workload and prints a table instead.

The end-to-end times (wall_s, detections_per_s, setup_s) are at one
reference speed: each measured time is scaled by worker.REFERENCE_S over
the time of worker.reference_s(), a fixed computation run around it in the
same process. On a shared host the raw time of the same work moved by 1.6x
between runs; the details line keeps the raw wall times and the reference
times beside the scaled ones. Per-layer times are raw.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from worker import HERE, REFERENCE_S, SRC, THREAD_VARS

WORKLOADS = ("study", "survey")
SETUPS = 3
MIN_OPS = 3
MIN_TRACED_OPS = 2
STEP_TIMEOUT_S = 120.0
WORK_ROOT = ".perfbench"


def step(role, workload, seed, work, *extra):
    """Runs one worker step in a fresh process; returns (seconds from
    start to exit, its JSON result or None, stderr tail)."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), role, workload,
         str(seed), work, repr(spawned)] + [str(a) for a in extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", "timed out after %.0f s" % STEP_TIMEOUT_S
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    elapsed = time.monotonic() - spawned
    lines = out.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return elapsed, result, err[-2000:]


def _median(values):
    return statistics.median(values) if values else 0.0


def _scaled(step, key):
    """``step[key]`` seconds at the reference speed (worker.reference_s)."""
    return step[key] * REFERENCE_S / step["reference_s"]


def environment(seed):
    import numpy  # numpy is a dependency of the package under test
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "nproc": os.cpu_count(), "seed": seed,
            "threads": {var: "1" for var in THREAD_VARS}}


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result line, details)."""
    work = os.path.abspath(os.path.join(
        WORK_ROOT, "%s-%d-%d" % (workload, seed, os.getpid())))
    os.makedirs(work, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, work):
    setups = []
    for _ in range(SETUPS):
        _elapsed, made, err = step("setup", workload, seed, work)
        if made is None:
            raise RuntimeError("set-up failed:\n" + err)
        setups.append(made)
    same_inputs = len({s["digest"] for s in setups}) == 1

    ops, traced = [], []
    start = time.monotonic()
    durations = []
    while True:
        tracing = bool(trace) and len(traced) < len(ops)
        elapsed, res, err = step("op", workload, seed, work, int(tracing))
        durations.append(elapsed)
        if res is None:
            res = {"errors": ["operation crashed: " + err]}
        (traced if tracing else ops).append(res)
        if tracing and res.get("layers"):
            os.replace(os.path.join(work, "spans.json"), os.path.join(
                WORK_ROOT, "spans-%s-%d.json" % (workload, seed)))
        done = time.monotonic() - start
        enough = (len(ops) >= MIN_OPS
                  and (not trace or len(traced) >= MIN_TRACED_OPS))
        # stop before an operation that would end past the deadline, and
        # short of the minimum counts once operations fail
        if (done + _median(durations) > seconds
                and (enough or res.get("errors"))):
            break

    all_ops = ops + traced
    failed = sum(1 for r in all_ops if r.get("errors"))
    good = [r for r in ops if not r.get("errors")]
    observed = next((r["observed"] for r in all_ops if "observed" in r), {})
    parts = {}
    for name, made in setups[0]["parts"].items():
        obs = observed.get(name, {})
        parts[name] = {"detections": made["detections"],
                       "unique_detections": made["unique_detections"],
                       "injected": made["injected"],
                       "pool_rows": obs.get("n_train_pool"),
                       "delta_t": obs.get("delta_t")}
    details = {
        "workload": workload,
        "wall_s_samples": [_scaled(r, "wall_s") for r in good],
        "unscaled_wall_s_samples": [r["wall_s"] for r in good],
        "reference_s_samples": [r["reference_s"] for r in good],
        "inputs": {"seed": seed, "detections": setups[0]["detections"],
                   "parts": parts},
        "errors": sorted({e for r in all_ops for e in r.get("errors", [])}),
        "reference": all(r.get("has_reference") for r in all_ops),
    }

    if trace:
        units = per_layer_units()
        traced = [r for r in traced if r.get("layers")]
        layers = [r["layers"] for r in traced]
        values = ({name: _median([l[name] for l in layers])
                   for name in layers[0]} if layers else {})
        plain = _median([_scaled(r, "wall_s") for r in good])
        values.update({
            "synthgen.generate_s": _median([s["generate_s"] for s in setups]),
            "ingest.write_csv_s": _median([s["write_csv_s"] for s in setups]),
            "process.trace_overhead": (
                (_median([_scaled(r, "wall_s") for r in traced]) - plain)
                / plain if layers and plain else 0.0),
        })
        if layers and values.keys() != units.keys():
            raise RuntimeError("per-layer metrics differ from BENCHMARK.json: "
                               "%s" % sorted(values.keys() ^ units.keys()))
        # a run whose traced operations all failed reports zeros
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {
            "wall_s": {"value": _median([_scaled(r, "wall_s")
                                         for r in good]),
                       "unit": "s"},
            "detections_per_s": {
                "value": _median([r["detections"] / _scaled(r, "wall_s")
                                  for r in good]),
                "unit": "1/s"},
            "setup_s": {"value": _median([_scaled(s, "setup_s")
                                          for s in setups]),
                        "unit": "s"},
            "peak_rss_mb": {"value": _median([r["peak_rss_mb"]
                                              for r in good]),
                            "unit": "MB"},
            "success_rate": {"value": 1.0 - failed / len(all_ops),
                             "unit": "fraction"},
        }
    line = {"correct": failed == 0 and same_inputs,
            "attempted": len(all_ops), "failed": failed, "metrics": metrics}
    return line, details


def per_layer_units():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _table(results):
    """The human-readable summary of --workload all."""
    print("%-8s %-18s %14s  %s" % ("workload", "metric", "value", "unit"))
    for workload, (line, details) in results:
        rows = [(name, m["value"], m["unit"])
                for name, m in line["metrics"].items()]
        rows.append(("error_rate", line["failed"] / line["attempted"],
                     "fraction (%d of %d operations failed)"
                     % (line["failed"], line["attempted"])))
        walls = sorted(details["wall_s_samples"])
        # the highest percentile with at least ten samples beyond it
        if len(walls) >= 20:
            rows.append(("wall_s_p%.0f" % (100.0 * (len(walls) - 10)
                                          / len(walls)),
                         walls[-11], "s"))
        for name, value, unit in rows:
            print("%-8s %-18s %14.4f  %s" % (workload, name, value, unit))
        print("%-8s wall_s is the median of %d operations%s" % (
            workload, len(walls), "" if len(walls) >= 20 else
            "; a tail percentile needs at least 20"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "telanom", "cli.py")):
        print("error: no telanom sources at %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    # before numpy loads here, and inherited by every worker
    os.environ.update({var: "1" for var in THREAD_VARS})
    print(json.dumps({"environment": environment(args.seed)}))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        line, details = run(name, args.seed, args.seconds, args.trace)
        print(json.dumps({"details": details}))
        results.append((name, (line, details)))
    if args.workload == "all":
        _table(results)
    else:
        print(json.dumps(results[0][1][0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
