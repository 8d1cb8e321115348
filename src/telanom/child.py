"""The package's one way to use more than one CPU: a function run in a
forked child process, whose pickled outcome the caller reads back."""

import contextlib
import os
import pickle
import signal


def usable_cpus():
    """How many CPUs this process may run on, or 1 where fork or CPU
    affinity is missing: then nothing runs in a child."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def _in_child(fn):
    """Yields a zero-argument callable that returns ``fn()`` or raises what
    it raised.

    Where fork exists and this process may run on more than one CPU, ``fn``
    starts at once in a forked child, alongside the caller's own work; the
    callable waits for the child's pickled outcome. Elsewhere the callable
    is ``fn`` itself. A child still running when the block exits is killed
    and reaped, so none outlives the caller.

    The package starts no thread of its own (tests/test_hygiene.py), and
    OpenBLAS stops its thread pool before a fork and restarts it on its
    next call, so the child holds no lock another thread owned.
    """
    if usable_cpus() < 2:
        yield fn
        return
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child: send the outcome and exit without returning into the
        # caller's code, its cleanups or its atexit handlers; an outcome
        # that cannot be pickled reaches the parent as no result
        try:
            os.close(read_end)
            try:
                outcome = (True, fn())
            except BaseException as e:  # noqa: BLE001 - sent to the parent
                outcome = (False, e)
            outcome = pickle.dumps(outcome)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(outcome)
        finally:
            os._exit(0)
    os.close(write_end)
    reaped = False

    def result():
        nonlocal reaped
        outcome = pipe.read()
        status = os.waitpid(pid, 0)[1]
        reaped = True
        if not outcome:
            raise RuntimeError("child process %d ended with wait status %d "
                               "and no result" % (pid, status))
        ok, value = pickle.loads(outcome)
        if ok:
            return value
        raise value

    with os.fdopen(read_end, "rb") as pipe:
        try:
            yield result
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
