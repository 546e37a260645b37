import multiprocessing
import os
import time
from functools import partial

import pytest

from polylayer import fanout
from polylayer.errors import AnalysisError, ConfigError
from polylayer.fanout import cpus, fan_out


def _after(delay, value):
    time.sleep(delay)
    if isinstance(value, Exception):
        raise value
    return value


def test_results_in_input_order():
    # the later thunks finish first
    thunks = [partial(_after, 0.05 * (3 - i), i) for i in range(4)]
    assert fan_out(thunks) == [0, 1, 2, 3]
    assert fan_out([]) == []


def test_first_exception_in_input_order_is_raised():
    # the second thunk fails first; a serial run would raise the first's
    thunks = [
        partial(_after, 0.2, ConfigError("first")),
        partial(_after, 0.0, AnalysisError("second")),
    ]
    with pytest.raises(ConfigError, match="first"):
        fan_out(thunks)
    assert multiprocessing.active_children() == []


def test_tasks_run_in_workers_unless_one_cpu(monkeypatch):
    pids = fan_out([os.getpid] * 2)
    assert (os.getpid() in pids) == (cpus() < 2)
    monkeypatch.setattr(fanout, "_allowed", lambda: [None])
    assert fan_out([os.getpid] * 2) == [os.getpid()] * 2


@pytest.mark.skipif(cpus() < 2, reason="one CPU: thunks run in-process, no worker to pin")
def test_workers_pin_blas_to_one_thread(blas_threads):
    # a library caller is not pinned by the CLI; its workers pin themselves
    assert len(blas_threads()) == 2
    blas_threads(2)
    assert blas_threads() == [2, 2]
    assert fan_out([blas_threads] * 2) == [[1, 1]] * 2
    assert blas_threads() == [2, 2]


def _cpu_now():
    return int(open("/proc/self/stat").read().rsplit(")", 1)[1].split()[36])


def _placement_once_all_run(barrier, calls):
    # no worker returns before every task has started, so each task has its own
    barrier.wait(timeout=30)
    return calls, os.sched_getaffinity(0)


def _placements(workers, monkeypatch):
    """Per worker: the CPU sets its initializer set, each with the CPU it
    ran on right after the call, and the worker's affinity once it runs."""
    calls = []  # each forked worker appends to its own copy
    set_affinity = os.sched_setaffinity

    def recorded(pid, mask):
        set_affinity(pid, mask)
        calls.append((set(mask), _cpu_now()))

    monkeypatch.setattr(os, "sched_setaffinity", recorded)
    barrier = multiprocessing.get_context("fork").Barrier(workers)
    return fan_out([partial(_placement_once_all_run, barrier, calls)] * workers)


@pytest.mark.skipif(cpus() < 2, reason="one CPU: thunks run in-process, nothing to place")
def test_each_worker_is_placed_on_its_own_cpu_then_freed(monkeypatch):
    parent = os.sched_getaffinity(0)
    placed = []
    for calls, affinity in _placements(cpus(), monkeypatch):
        (own, cpu_then), (freed, _) = calls
        assert own == {cpu_then} and cpu_then in parent  # moved before the call returned
        assert freed == affinity == parent
        placed.append(cpu_then)
    assert sorted(placed) == sorted(parent)  # one worker per CPU
    assert os.sched_getaffinity(0) == parent
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(cpus() < 3, reason="needs a CPU set with a gap")
def test_workers_are_placed_inside_a_non_contiguous_cpu_set(monkeypatch):
    parent = os.sched_getaffinity(0)
    gapped = {min(parent), max(parent)}
    os.sched_setaffinity(0, gapped)
    try:
        placements = _placements(2, monkeypatch)
    finally:
        os.sched_setaffinity(0, parent)
    assert sorted(calls[0][1] for calls, _ in placements) == sorted(gapped)
    assert all(affinity == gapped for _, affinity in placements)
