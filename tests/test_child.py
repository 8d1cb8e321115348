"""run_all: independent jobs dealt round robin over the usable CPUs, the
first share in this process and each other share in a forked child."""

import functools
import os
import time

import numpy as np
import pytest

from telanom import detectors
from telanom.child import run_all, usable_cpus
from telanom.detectors import NeighbourPass
from telanom.errors import DataError, LeakageError

needs_fork = pytest.mark.skipif(not hasattr(os, "fork")
                                or not hasattr(os, "sched_getaffinity"),
                                reason="a child process needs fork")


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _job(i, fails=(), sleeps=()):
    """Job ``i``: (i, its process, the CPUs it sees), or an error."""
    if i in sleeps:
        time.sleep(60)
    if i in fails:
        raise DataError("job %d failed" % i)
    return i, os.getpid(), usable_cpus()


def _jobs(n, **kwargs):
    return [functools.partial(_job, i, **kwargs) for i in range(n)]


@needs_fork
@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize("n_jobs", [0, 1, 2, 5])
def test_results_come_back_in_job_order(cpus, n_jobs, n_cpus):
    forks = cpus(n_cpus)
    got = run_all(_jobs(n_jobs))
    dealt = min(n_jobs, n_cpus)
    assert [i for i, _, _ in got] == list(range(n_jobs))
    assert len(forks) == max(dealt - 1, 0)
    # job i ran in share i % dealt: the first here, the others in the
    # children, in fork order
    pids = [os.getpid()] + forks
    assert [pid for _, pid, _ in got] == [pids[i % dealt]
                                         for i in range(n_jobs)]
    # while the jobs are dealt every CPU is taken, here as in the children
    assert all(seen == (1 if dealt > 1 else n_cpus) for _, _, seen in got)
    assert usable_cpus() == n_cpus
    _assert_no_child()


@needs_fork
@pytest.mark.parametrize("n_cpus,fails,sleeps,raised", [
    # a child's job comes before a later failing job of this process's share
    (2, {1, 2}, (), 1),
    # this process's first job fails: a sleeping child is killed at once
    (2, {0, 1}, {1}, 0),
    # this process's second job fails before a child's later job
    (2, {2, 3}, (), 2),
    # the second child's failure comes before the first child's
    (3, {2, 4}, (), 2),
    # this process's second job fails: the child is killed in its next,
    # sleeping job, since its job before the failure is done
    (2, {2}, {3}, 2),
    # a child's failure and nothing else
    (3, {4}, (), 4),
])
def test_the_error_raised_is_the_first_in_job_order(cpus, n_cpus, fails,
                                                    sleeps, raised):
    forks = cpus(n_cpus)
    t0 = time.monotonic()
    with pytest.raises(DataError, match="^job %d failed$" % raised):
        run_all(_jobs(6, fails=fails, sleeps=sleeps))
    assert time.monotonic() - t0 < 30
    assert len(forks) == n_cpus - 1
    _assert_no_child()


@needs_fork
def test_a_childs_errors_keep_their_message_and_fields(cpus):
    cpus(2)

    def leaks():
        raise LeakageError("fit", [9, 3])
    with pytest.raises(LeakageError) as caught:
        run_all([lambda: None, leaks])
    assert (caught.value.stage, caught.value.uids) == ("fit", [3, 9])
    assert str(caught.value) == str(LeakageError("fit", [9, 3]))
    _assert_no_child()


@needs_fork
def test_a_child_ending_without_a_result_is_an_error(cpus):
    forks = cpus(2)
    with pytest.raises(RuntimeError, match="no result"):
        run_all([lambda: None, lambda: os._exit(1)])
    assert len(forks) == 1
    _assert_no_child()


@needs_fork
def test_nested_work_runs_inline(monkeypatch, cpus):
    """A run_all or a split sweep inside a job forks nothing, in a child or
    here, and gives what it gives on one CPU."""
    x = np.random.default_rng(3).normal(size=(300, 3))
    monkeypatch.setattr(detectors, "_BLOCK_FLOATS", 32 * len(x))
    monkeypatch.setattr(detectors, "_SPLIT_PAIRS", 1)

    def nested():
        # a child appends the forks it makes to its own copy of the list
        before = len(forks)
        counts = NeighbourPass(x, x, radii=[0.5]).counts(0.5)
        inner = run_all(_jobs(3))
        return counts, inner, len(forks) - before
    forks = cpus(1)
    want = nested()[0]
    forks = cpus(2)
    got = run_all([nested] * 3)
    assert len(forks) == 1
    for counts, inner, forked in got:
        assert np.array_equal(counts, want)
        assert [i for i, _, _ in inner] == [0, 1, 2]
        assert forked == 0
    assert usable_cpus() == 2
    _assert_no_child()


@needs_fork
def test_a_childs_failure_stops_this_processs_share(cpus, tmp_path):
    """Between its own jobs this process takes what the children have sent:
    once a child's job 1 has failed, its own job 2 never starts."""
    cpus(2)
    sent = tmp_path / "sent"

    def first():
        # wait until job 1 has failed in the child and had time to send it
        deadline = time.monotonic() + 20
        while not sent.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(1)

    def fails():
        sent.touch()
        raise DataError("job 1 failed")
    t0 = time.monotonic()
    with pytest.raises(DataError, match="^job 1 failed$"):
        run_all([first, fails, functools.partial(time.sleep, 60),
                 lambda: None])
    assert time.monotonic() - t0 < 30
    _assert_no_child()

