import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from functools import partial

import pytest
from conftest import assert_no_child_left

from polylayer import fanout
from polylayer.errors import AnalysisError, ConfigError
from polylayer.fanout import cpus, fan_out


class _Interrupted(Exception):
    pass


def _interrupt(signum, frame):
    raise _Interrupted


@contextlib.contextmanager
def _alarm(seconds):
    """Raise ``_Interrupted`` in this process after ``seconds``, so that a
    fan-out that would block fails instead; a forked child inherits no timer."""
    previous = signal.signal(signal.SIGALRM, _interrupt)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
    assert_no_child_left()


def test_large_results_come_back_intact():
    # each result is larger than a pipe buffer: the caller reads as workers write
    big = [bytes(range(256)) * (5000 + i) for i in range(3)]
    with _alarm(60):
        assert fan_out([partial(bytes, b) for b in big]) == big
    assert_no_child_left()


def test_many_tasks_come_back_in_input_order():
    assert fan_out([partial(int, i) for i in range(200)]) == list(range(200))


def test_more_tasks_than_one_pipe_buffer_holds():
    # 4-byte indices beyond a default 64 KiB pipe: one write would block
    n = 16 * fanout._BATCH + 3
    with _alarm(60):
        assert fan_out([partial(int, i) for i in range(n)]) == list(range(n))


def _killed_once(marker):
    # the first task to create the marker is killed; the others run on
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        time.sleep(0.1)
        return "survived"
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.skipif(cpus() < 2, reason="one CPU: thunks run in-process, no worker to kill")
def test_killed_worker_raises_analysis_error(tmp_path):
    with pytest.raises(AnalysisError, match="worker process died"):
        fan_out([partial(_killed_once, str(tmp_path / "killed"))] * 4)
    assert_no_child_left()


@pytest.mark.skipif(cpus() < 2, reason="one CPU: thunks run in-process, no worker to kill")
def test_interrupted_caller_kills_its_workers():
    start = time.monotonic()
    with pytest.raises(_Interrupted), _alarm(0.3):
        fan_out([partial(time.sleep, 30)] * 2)
    assert time.monotonic() - start < 10  # killed, not waited for
    assert_no_child_left()


class _Unpicklable(Exception):
    def __init__(self, a, b):  # unpickling calls __init__ with args only
        super().__init__(f"{a} {b}")


def _raise(exc):
    raise exc


@pytest.mark.parametrize(
    "exc",
    [_Unpicklable("not", "sent"), AnalysisError(lambda: None)],
    ids=["fails-to-load", "fails-to-dump"],
)
def test_exception_that_cannot_be_pickled_still_reaches_the_caller(exc):
    with pytest.raises((type(exc), AnalysisError)) as info:
        fan_out([partial(_raise, exc), partial(int, 1)])
    if cpus() >= 2:  # sent back as an AnalysisError carrying its repr
        assert info.type is AnalysisError
        assert "could not send back" in str(info.value)
        assert "worker process died" not in str(info.value)
    assert_no_child_left()


def test_no_task_starts_after_a_failure(tmp_path):
    # task 0 fails at once while task 1 runs; tasks 2.. would leave markers
    thunks = [partial(_after, 0.0, ConfigError("first")), partial(time.sleep, 0.3)]
    thunks += [(tmp_path / f"task{i}").touch for i in range(2, 10)]
    with pytest.raises(ConfigError, match="first"):
        fan_out(thunks)
    assert list(tmp_path.iterdir()) == []


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
    return calls, os.sched_getaffinity(0), os.getpid()


def _placements(workers, monkeypatch):
    """Per worker: the CPU sets it set, each with the CPU it ran on right
    after the call, the worker's affinity once it runs, and its pid."""
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
    for calls, affinity, _ in _placements(cpus(), monkeypatch):
        (own, cpu_then), (freed, _) = calls
        assert own == {cpu_then} and cpu_then in parent  # moved before the call returned
        assert freed == affinity == parent
        placed.append(cpu_then)
    assert sorted(placed) == sorted(parent)  # one worker per CPU
    assert os.sched_getaffinity(0) == parent
    assert_no_child_left()


def test_placement_starts_after_the_callers_cpu(monkeypatch):
    assert fanout._caller_cpu() in os.sched_getaffinity(0)
    for caller, placed in ((2, [3, 5, 0]), (5, [0, 2, 3]), (4, [0, 2, 3]), (-1, [0, 2, 3])):
        monkeypatch.setattr(fanout, "_caller_cpu", lambda cpu=caller: cpu)
        assert fanout._placement([0, 2, 3, 5], 3) == placed


@pytest.mark.skipif(cpus() < 2, reason="one CPU: thunks run in-process, nothing to place")
def test_first_worker_is_placed_off_the_callers_cpu(monkeypatch):
    # the caller still forks the other workers: the first one goes to the next CPU
    allowed = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(fanout, "_caller_cpu", lambda: allowed[0])
    forked, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    placed = {pid: calls[0][1] for calls, _, pid in _placements(len(allowed), monkeypatch)}
    assert [placed[pid] for pid in forked] == allowed[1:] + allowed[:1]


@pytest.mark.skipif(cpus() < 3, reason="needs a CPU set with a gap")
def test_workers_are_placed_inside_a_non_contiguous_cpu_set(monkeypatch):
    parent = os.sched_getaffinity(0)
    gapped = {min(parent), max(parent)}
    os.sched_setaffinity(0, gapped)
    try:
        placements = _placements(2, monkeypatch)
    finally:
        os.sched_setaffinity(0, parent)
    assert sorted(calls[0][1] for calls, _, _ in placements) == sorted(gapped)
    assert all(affinity == gapped for _, affinity, _ in placements)


@pytest.mark.parametrize("preset", [None, "2"])
def test_import_defaults_openblas_to_one_thread(preset):
    # numpy reads the variable when it loads OpenBLAS, so a fresh process
    # imports polylayer first; a value the caller set is kept
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    script = (
        "import os, sys\n"
        "import polylayer\n"
        f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
        "from conftest import _openblas\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], *[get() for get in _openblas('get')])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True
    )
    value, *threads = proc.stdout.split()
    assert value == (preset or "1")
    assert len(threads) == 2
    if preset is None or cpus() >= 2:  # OpenBLAS takes no more threads than CPUs
        assert threads == [value] * 2
