"""The package's one way to use more than one CPU: jobs run in a forked
child process, which sends each one's pickled outcome back as it ends and
is killed once its outcomes are no longer wanted; ``_in_child`` runs jobs
that way, and ``run_all`` deals a list of them across the CPUs."""

import contextlib
import os
import pickle
import select
import signal

# True in run_all's children, and in its caller while they run: every CPU
# is then taken, so usable_cpus() is 1 and nested work runs inline. It is
# a module global because the CPUs are the whole process's, and a forked
# child inherits it.
_all_taken = False


def usable_cpus():
    """How many CPUs this process may run on, or 1 where fork or CPU
    affinity is missing, or where run_all has taken every CPU: then
    nothing runs in a child."""
    if _all_taken or not (hasattr(os, "fork")
                          and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


class _in_child:
    """``with _in_child(*jobs) as child``: each ``child()`` returns the next
    job's result, in job order, or raises what it raised.

    Where fork exists, there are jobs, and this process may run on more
    than one CPU, the jobs start at once in a forked child, one after
    another, alongside the caller's own work. The child sends each job's
    pickled outcome as soon as the job ends, and stops at its first error;
    ``child()`` waits for the next outcome, and a child that ends without
    one is a RuntimeError. A child sees one usable CPU, so nothing it runs
    forks again. Elsewhere ``child()`` runs the next job itself. Leaving
    the block kills a child that still owes an outcome at once, even in
    a write (errors.whole_file leaves each file whole or absent), and
    reaps it, so none outlives the caller.

    The package starts no thread of its own (tests/test_hygiene.py), and
    OpenBLAS stops its thread pool before a fork and restarts it on its
    next call, so the child holds no lock another thread owned.
    """

    def __init__(self, *jobs):
        self.owed = len(jobs)
        self.pid = None
        if not jobs or usable_cpus() < 2:
            self._inline = iter(jobs)
            return
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
        if self.pid is None:
            return
        os.close(self.fd)
        if not self.reaped:
            if self.owed:
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)

    def __call__(self):
        if self.pid is None:
            self.owed -= 1
            return next(self._inline)()
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


@contextlib.contextmanager
def _taking_all_cpus():
    global _all_taken
    _all_taken = True
    try:
        yield
    finally:
        _all_taken = False


def run_all(jobs):
    """``[job() for job in jobs]``, with the jobs dealt round robin over
    the usable CPUs: the first share runs in this process, each other share
    in a child process (``_in_child``), and the results come back in job
    order. With one CPU or at most one job, the list comprehension itself
    runs.

    The error raised is the one the list comprehension would meet first.
    The children send each job's outcome as it ends: between its own jobs
    this process takes what they have sent, and stops its share once a job
    before its next one has failed; then it waits only for the children's
    jobs before the first failure, and kills and reaps every child still
    running. The jobs must not print: a child's unflushed output is
    dropped when it exits. Inside the children, and here while they run,
    usable_cpus() is 1, so a nested run_all or split sweep runs inline and
    no more processes run than there are CPUs.
    """
    jobs = list(jobs)
    n = min(len(jobs), usable_cpus())
    if n < 2:
        return [job() for job in jobs]
    results = [None] * len(jobs)
    failed, error = len(jobs), None
    with contextlib.ExitStack() as stack:
        shares = [None] + [stack.enter_context(_in_child(*jobs[i::n]))
                           for i in range(1, n)]

        def next_job(i):
            # share i holds jobs i, i + n, ..., and sends them in order
            return i + n * (len(range(i, len(jobs), n)) - shares[i].owed)

        def receive(i):
            nonlocal failed, error
            k = next_job(i)
            try:
                results[k] = shares[i]()
            except Exception as e:  # noqa: BLE001 - ranked with the others
                if k < failed:
                    failed, error = k, e

        with _taking_all_cpus():
            for k in range(0, len(jobs), n):
                while True:
                    ready = select.select([c for c in shares[1:] if c.owed],
                                          [], [], 0)[0]
                    if not ready:
                        break
                    for child in ready:
                        receive(shares.index(child))
                if failed < k:
                    break
                try:
                    results[k] = jobs[k]()
                except Exception as e:  # noqa: BLE001 - ranked as above
                    failed, error = k, e
                    break
        for k in range(len(jobs)):
            if k >= failed:
                break
            i = k % n
            if i and shares[i].owed and next_job(i) == k:
                receive(i)
        if error is not None:
            raise error
    return results
