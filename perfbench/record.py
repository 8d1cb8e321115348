"""Records the reference outputs that the benchmark's output check compares
against, one entry per (workload, seed).

    python3 perfbench/record.py --seeds 0-63 [--workload study ...]

Run it from the root of a checkout of the commit whose outputs are the
reference. Seeds already in perfbench/reference.json are kept; delete an
entry to record it again. A seed whose operation fails any other check is
reported and not recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor, as_completed

import run
from worker import REFERENCE


def _seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record(workload, seed):
    """The observed outputs of one operation, or raises on a failed check."""
    work = os.path.abspath(os.path.join(
        run.WORK_ROOT, "record-%s-%d-%d" % (workload, seed, os.getpid())))
    try:
        _elapsed, made, err = run.step("setup", workload, seed, work)
        if made is None:
            raise RuntimeError("set-up failed:\n" + err)
        _elapsed, res, err = run.step("op", workload, seed, work, 0)
        if res is None:
            raise RuntimeError("operation crashed:\n" + err)
        if res["errors"]:
            raise RuntimeError("; ".join(res["errors"]))
        return res["observed"]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, required=True,
                    help="inclusive range such as 0-63")
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = ap.parse_args(argv)
    os.environ.update({var: "1" for var in run.THREAD_VARS})

    with open(REFERENCE) as f:
        reference = json.load(f)
    todo = [(w, seed) for seed in args.seeds
            for w in args.workload or run.WORKLOADS
            if str(seed) not in reference.get(w, {})]
    failed = 0
    # the steps are subprocesses; two threads keep two cores busy
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {pool.submit(record, w, seed): (w, seed) for w, seed in todo}
        for future in as_completed(futures):
            workload, seed = futures[future]
            try:
                observed = future.result()
            except RuntimeError as e:
                failed += 1
                print("%s seed %d: %s" % (workload, seed, e), file=sys.stderr)
                continue
            reference.setdefault(workload, {})[str(seed)] = observed
            # replaced whole: operations still running read this file
            with open(REFERENCE + ".tmp", "w") as f:
                json.dump(reference, f, sort_keys=True, separators=(",", ":"))
                f.write("\n")
            os.replace(REFERENCE + ".tmp", REFERENCE)
            print("%s seed %d recorded" % (workload, seed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
