"""One step of a benchmark run, in a fresh process.

    worker.py setup <workload> <seed> <dir> <spawned>
        generate the workload's inputs from the seed and write each part's
        CSVs under <dir>/inputs/<part>
    worker.py op <workload> <seed> <dir> <spawned> <trace>
        one operation: every part's telanom CLI calls, in process, on those
        inputs; then the output check

<spawned> is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so set-up time counts
interpreter start and imports. The result is one JSON line on stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE = os.path.join(HERE, "reference.json")

# The reference speed: reference_s() took a median of REFERENCE_S seconds
# over 120 calls on a shared 2-vCPU Intel Xeon VM at 2.1 GHz.
REFERENCE_LOOP = 600_000
REFERENCE_SORTS = 12
REFERENCE_S = 0.26

# BLAS/OpenMP pools read these once, when numpy is first imported. On two
# cores the autoencoder took 2.1-3.2 s with two threads, 1.6-2.2 s with one.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def reference_s():
    """Seconds a fixed reference computation takes in this process now.

    On a shared host the same operation took 2.7 s for minutes on end, then
    4.5 s, with every stage slowed alike, so raw times of two runs cannot be
    compared. The benchmark scales each timing by REFERENCE_S /
    reference_s(), taken around it in the same process, to one reference
    speed. The mix, dict updates in a Python loop and pairwise distances
    sorted in numpy, is that of telanom's own stages; none of it calls
    telanom, so no change to telanom can move it."""
    import numpy as np

    t0 = time.perf_counter()
    acc = {}
    for i in range(REFERENCE_LOOP):
        acc[i % 977] = acc.get(i % 977, 0) + i
    x = np.random.default_rng(0).random((400, 11))
    for _ in range(REFERENCE_SORTS):
        np.sort(((x[:, None, :] - x[None, :, :]) ** 2).sum(-1), axis=1)
    return time.perf_counter() - t0


def setup(workload, seed, work, spawned):
    from workloads import make_inputs

    inputs_dir = os.path.join(work, "inputs")
    parts = {}
    for part in workload.parts:
        part_dir = os.path.join(inputs_dir, part.name)
        os.makedirs(part_dir, exist_ok=True)
        parts[part.name] = make_inputs(part, seed, part_dir)
    made = {"parts": parts,
            "detections": sum(p["detections"] for p in parts.values()),
            "generate_s": sum(p["generate_s"] for p in parts.values()),
            "write_csv_s": sum(p["write_csv_s"] for p in parts.values())}
    setup_s = time.monotonic() - spawned
    with open(os.path.join(inputs_dir, "inputs.json"), "w") as f:
        json.dump(made, f)
    made["setup_s"] = setup_s
    made["reference_s"] = reference_s()
    digest = hashlib.sha256()
    for part in workload.parts:
        with open(os.path.join(inputs_dir, part.name, "detections.csv"),
                  "rb") as f:
            digest.update(f.read())
    made["digest"] = digest.hexdigest()
    return made


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _dirs, names in os.walk(path) for name in names)


def op(workload, seed, work, trace):
    from telanom import cli
    from workloads import argv_for, check

    inputs_dir = os.path.join(work, "inputs")
    out_dir = os.path.join(work, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    with open(os.path.join(inputs_dir, "inputs.json")) as f:
        inputs = json.load(f)
    tracer = None
    if trace:
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)

    # each call is timed between two reference computations; at the
    # reference speed it would have taken its wall time * REFERENCE_S / ref
    wall, scaled, codes, cpu_s = 0.0, 0.0, [], 0.0
    ref = reference_s()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for part in workload.parts:
            for call in part.calls:
                argv = argv_for(call, os.path.join(inputs_dir, part.name),
                                os.path.join(out_dir, part.name), seed)
                cpu0 = _cpu_s()
                t0 = time.perf_counter()
                codes.append(cli.main(argv))
                call_s = time.perf_counter() - t0
                cpu_s += _cpu_s() - cpu0
                ref_after = reference_s()
                wall += call_s
                scaled += call_s / ((ref + ref_after) / 2.0)
                ref = ref_after
    result = {"wall_s": wall, "codes": codes, "peak_rss_mb": _peak_rss_mb(),
              "cpu_s": cpu_s, "detections": inputs["detections"],
              # the one reference time that scales the sum as the calls'
              # own reference times scale each call
              "reference_s": wall / scaled}

    if any(codes):
        result["errors"] = ["exit codes %s" % codes]
        return result
    with open(REFERENCE) as f:
        reference = json.load(f).get(workload.name, {}).get(str(seed))
    observed, errors = {}, []
    for part in workload.parts:
        obs, part_errors = check(
            part, os.path.join(inputs_dir, part.name),
            os.path.join(out_dir, part.name), inputs["parts"][part.name],
            None if reference is None else reference.get(part.name, {}))
        observed[part.name] = obs
        errors += ["%s: %s" % (part.name, e) for e in part_errors]
    result.update(errors=errors, observed=observed,
                  has_reference=reference is not None)
    if tracer is not None:
        layers = tracer.layer_metrics(wall)
        layers.update({"pipeline.artifact_bytes": _dir_bytes(out_dir),
                       "process.cpu_s": cpu_s,
                       "process.rss_mb": result["peak_rss_mb"]})
        result["layers"] = layers
        tracer.save(os.path.join(work, "spans.json"))
    return result


def main(argv):
    role, name, seed, work, spawned = argv[:5]
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if role == "setup":
        out = setup(workload, int(seed), work, float(spawned))
    else:
        out = op(workload, int(seed), work, argv[5] == "1")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
