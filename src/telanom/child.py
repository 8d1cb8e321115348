"""The package's one way to use more than one CPU: ``run_all`` runs jobs
in forked child processes (``_in_child``), each of which sends every
job's pickled outcome back as it ends and is killed once its outcomes are
no longer wanted."""

import contextlib
import os
import pickle
import select
import signal

# True in every child, and in run_all's caller while its dealt jobs run:
# every CPU is then taken, so usable_cpus() is 1 and nested work runs
# inline. It is a module global because the CPUs are the whole process's,
# and a forked child inherits it.
_all_taken = False


def usable_cpus():
    """How many CPUs this process may run on, or 1 where fork or CPU
    affinity is missing, or where every CPU is taken: then nothing runs in
    a child."""
    if _all_taken or not (hasattr(os, "fork")
                          and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


class _in_child:
    """``with _in_child(*jobs) as child``: the jobs start at once in a
    forked child, one after another, beside the caller's own work; each
    ``child()`` returns the next job's result, in job order, or raises
    what it raised.

    The child sends each job's pickled outcome as soon as the job ends,
    and stops at its first error; ``child()`` waits for the next outcome,
    and a child that ends without one is a RuntimeError. A child sees one
    usable CPU, so nothing it runs forks again. Leaving the block kills a
    child that still owes an outcome at once, even in a write
    (errors.whole_file leaves each file whole or absent), and reaps it, so
    none outlives the caller.

    The package starts no thread of its own (tests/test_hygiene.py), and
    OpenBLAS stops its thread pool before a fork and restarts it on its
    next call, so the child holds no lock another thread owned.
    """

    def __init__(self, *jobs):
        self.owed = len(jobs)
        read_end, write_end = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            _send_outcomes(jobs, read_end, write_end)
        os.close(write_end)
        self.fd = read_end
        self.reaped = False

    def fileno(self):
        return self.fd

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.close(self.fd)
        if not self.reaped:
            if self.owed:
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)

    def __call__(self):
        header = _read(self.fd, 8)
        size = int.from_bytes(header, "little")
        outcome = _read(self.fd, size) if len(header) == 8 else b""
        if not outcome or len(outcome) < size:
            self.owed = 0
            status = os.waitpid(self.pid, 0)[1]
            self.reaped = True
            raise RuntimeError("child process %d ended with wait status %d "
                               "and no result" % (self.pid, status))
        ok, value = pickle.loads(outcome)
        self.owed = self.owed - 1 if ok else 0
        if ok:
            return value
        raise value


def _send_outcomes(jobs, read_end, write_end):
    # the child: run the jobs on one CPU, send each one's outcome, length
    # first, and exit without returning into the caller's code, its
    # cleanups or its atexit handlers; an outcome that cannot be pickled
    # reaches the parent as no result
    global _all_taken
    try:
        _all_taken = True
        os.close(read_end)
        with os.fdopen(write_end, "wb") as pipe:
            for job in jobs:
                try:
                    outcome = (True, job())
                except BaseException as e:  # noqa: BLE001 - sent back
                    outcome = (False, e)
                data = pickle.dumps(outcome)
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
                pipe.flush()
                if not outcome[0]:
                    break
    finally:
        os._exit(0)


def _read(fd, size):
    """``size`` bytes from ``fd``, or fewer where it ends first."""
    data = bytearray(size)
    view, got = memoryview(data), 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if not n:
            break
        got += n
    return data[:got] if got < size else data


def run_all(jobs, apart=None):
    """``[job() for job in jobs]``, with some of the jobs run in child
    processes (``_in_child``); the results come back in job order.

    Without ``apart``, the jobs are dealt round robin over the usable
    CPUs: the first share runs in this process and each other share in a
    child. Every CPU is then taken, here while the jobs run as in the
    children, so usable_cpus() is 1 and a nested run_all or split sweep
    runs inline: no more processes run than there are CPUs. With
    ``apart``, a set of job indices, those jobs run in one child, in
    order, beside the others here, and this process keeps its CPUs. With
    one usable CPU, or no job to run in a child, the list comprehension
    itself runs.

    The error raised is the one the list comprehension would meet first.
    The children send each job's outcome as it ends. Before each of its
    own jobs this process takes the outcomes already sent; once its jobs
    are done, or one of them fails, it takes every outcome before that
    job, in job order. Leaving kills and reaps every child still running.
    The jobs must not print: a child's unflushed output is dropped when
    it exits.
    """
    global _all_taken
    jobs = list(jobs)
    cpus = usable_cpus()
    if apart is None:
        n = max(min(len(jobs), cpus), 1)
        share = [k % n for k in range(len(jobs))]
    else:
        share = [int(k in apart) for k in range(len(jobs))]
    if cpus < 2 or not any(share):
        return [job() for job in jobs]
    results = [None] * len(jobs)
    with contextlib.ExitStack() as stack:
        # each child, and the indices of the jobs it still owes, in the
        # order it sends their outcomes
        owed = {}
        for i in range(1, max(share) + 1):
            ks = [k for k in range(len(jobs)) if share[k] == i]
            owed[stack.enter_context(_in_child(*(jobs[k] for k in ks)))] = ks

        def take(upto, wait):
            # the children's outcomes of the jobs before upto: those
            # already sent, or with wait all of them, in job order; after
            # a failure, every outcome before the failed job. A loop, not
            # a recursive closure, which would hold the results in a
            # reference cycle after run_all returns
            error = None
            while True:
                live = [c for c, ks in owed.items() if ks and ks[0] < upto]
                if not wait:
                    live = select.select(live, [], [], 0)[0]
                if not live:
                    break
                child = min(live, key=lambda c: owed[c][0])
                k = owed[child].pop(0)
                try:
                    results[k] = child()
                except Exception as e:  # noqa: BLE001 - raised below
                    upto, wait, error = k, True, e
            if error is not None:
                raise error

        _all_taken = apart is None
        try:
            for k in range(len(jobs)):
                if share[k] == 0:
                    take(k, False)
                    try:
                        results[k] = jobs[k]()
                    except Exception:
                        take(k, True)
                        raise
            take(len(jobs), True)
        finally:
            _all_taken = False
    return results
