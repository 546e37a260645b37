"""Independent solves run at the same time, one forked process per CPU.

``fan_out(thunks)`` calls every thunk and returns the results in input
order.  It uses ``min(len(thunks), cpus())`` worker processes, and runs the
thunks serially in-process when that is 1, off Linux, or inside a worker,
so a nested call never multiplies processes.  There is no setting: a serial
run of the whole program is ``taskset -c 0 polylayer ...``.

Each thunk runs exactly the code it runs serially, so results do not depend
on the CPU count.  The workers are forked with ``os.fork``, not spawned: a
spawned worker would import numpy and scipy afresh, and the thunks
(closures over meshes, layers and numerics) would have to be pickled.  A
forked worker inherits them in ``_TASKS``; only results are pickled.  There
is no pool, and no manager or feeder thread.  Before the fork the caller
writes every task index, 4 bytes each, into one task pipe and closes its
write end; each worker reads the next index when it is free, so tasks are
taken in input order, until the pipe is empty.  A worker pickles each
task's (index, ok, value) to a result pipe of its own; after a failed task
it empties the task pipe, since no later task can change which exception is
raised.  The caller reads every result pipe with ``select`` until each is
closed, so a result larger than a pipe buffer cannot block a worker, then
reaps every worker with ``waitpid``.  A worker that exits other than with
status 0 has died, whatever it wrote: ``AnalysisError``.  An exception in
the caller itself (an interrupt) kills the workers before it propagates.

The only threads at a fork are OpenBLAS's, which it stops before a fork.
Before its first task worker i moves itself to the i-th CPU of the caller's
affinity set, then takes that whole set back: left alone, workers start on
their parent's CPU and can stay there for a whole sub-second fan-out, each
waiting about as long as it runs.  Taking the set back lets the scheduler
move a worker off a CPU that other load keeps busy, or off the low CPUs
where the workers of concurrent runs are first placed; the caller's
affinity is never changed.  Each also pins OpenBLAS to one thread
(``pin_blas``), whoever the caller is: two workers that each ran one BLAS
thread per CPU would spin against each other.  Peak memory grows with the
number of tasks that run at once, each worker holding one task's meshes and
factors.

A dry run is the run itself, stopped where solving begins.  Every solve
starts in ``fan_out`` or in ``waveguide._solve_chain``; inside ``planning()``
both raise ``Planned`` on entry, so the block makes every check the run
makes before its first solve, and no more.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import pickle
import select
import signal
import sys

from .errors import AnalysisError

# numpy's and scipy's bundled OpenBLAS: (package, library glob, thread setter)
_OPENBLAS = (
    ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas*.so", "scipy_openblas_set_num_threads"),
)

_TASKS: list = []  # the running fan-out's thunks, inherited by its workers
_IN_WORKER = False
_BATCH = select.PIPE_BUF // 4  # task indices that fit in any pipe's buffer
_PLANNING = False  # set by ``planning()`` alone


class Planned(BaseException):
    """Where solving begins inside ``planning()``.  Control flow, not an
    error: no ``except Exception`` on the way out can take it for one."""


@contextlib.contextmanager
def planning():
    """Run the block up to its first solve, which ends it quietly."""
    global _PLANNING
    _PLANNING = True
    try:
        with contextlib.suppress(Planned):
            yield
    finally:
        _PLANNING = False


def begin_solving() -> None:
    """Raise ``Planned`` inside ``planning()``; called where solving begins."""
    if _PLANNING:
        raise Planned


def _allowed() -> list:
    """The CPUs a fan-out may use, in ascending order: the process's CPU
    affinity on Linux, one unnamed CPU elsewhere."""
    if not sys.platform.startswith("linux"):
        return [None]
    return sorted(os.sched_getaffinity(0))


def cpus() -> int:
    """The number of CPUs a fan-out may use."""
    return len(_allowed())


@functools.cache
def _blas_setters(libraries: tuple) -> tuple:
    """Per (package, library glob, setter name) of ``libraries``, the thread
    setters found, looked up once per process; ``fan_out`` looks up those
    of ``_OPENBLAS`` before it forks, so that a worker only calls them."""
    import ctypes
    import glob
    from importlib.util import find_spec

    found = []
    for package, pattern, setter in libraries:
        site = os.path.dirname(os.path.dirname(find_spec(package).origin))
        libs = [ctypes.CDLL(p) for p in glob.glob(os.path.join(site, f"{package}.libs", pattern))]
        setters = tuple(getattr(lib, setter) for lib in libs if hasattr(lib, setter))
        for set_threads in setters:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        found.append(setters)
    return tuple(found)


def pin_blas() -> bool:
    """Pin the bundled OpenBLAS of numpy and scipy to one thread, so that
    ARPACK's dense BLAS sums in one order and the payload bytes do not depend
    on the host's thread count.  True when both setters were found and
    called; False under another BLAS, which is left as it is."""
    setters = _blas_setters(_OPENBLAS)
    for set_threads in (f for library in setters for f in library):
        set_threads(1)
    return all(setters)


def _work(tasks: int, out: int, cpu, allowed) -> None:
    """A forked worker's life: placement, then tasks until the task pipe is
    empty, each result pickled to ``out``; it never returns."""
    global _IN_WORKER
    _IN_WORKER = True  # in a worker: nested fan-outs run serially
    code = 1
    try:
        os.sched_setaffinity(0, {cpu})  # returns once moved there
        os.sched_setaffinity(0, allowed)  # the scheduler may move it again
        pin_blas()
        with open(out, "wb") as sink:
            while index := os.read(tasks, 4):
                i = int.from_bytes(index, sys.byteorder)
                try:
                    ok, value = True, _TASKS[i]()
                except Exception as exc:
                    ok, value = False, exc
                try:
                    frame = pickle.dumps((i, ok, value))
                    if not ok:  # the caller must be able to raise it
                        pickle.loads(frame)
                except Exception as exc:
                    error = AnalysisError(f"task {i} could not send back {value!r}: {exc!r}")
                    ok, frame = False, pickle.dumps((i, False, error))
                sink.write(frame)
                if not ok:  # no task after it can change the outcome
                    while os.read(tasks, select.PIPE_BUF):
                        pass
        sys.stdout.flush()  # what the tasks printed
        sys.stderr.flush()
        code = 0
    finally:
        os._exit(code)


def fan_out(thunks) -> list:
    """``[thunk() for thunk in thunks]``, with the thunks run concurrently
    in forked workers when more than one CPU is available.  Inside
    ``planning()`` it raises ``Planned`` before calling any thunk.

    The first exception in input order is raised, as a serial run would
    raise it; a worker that dies raises ``AnalysisError``.  Every worker is
    reaped before this returns.
    """
    global _TASKS
    begin_solving()
    thunks = list(thunks)
    allowed = _allowed()
    workers = min(len(thunks), len(allowed))
    if workers <= 1 or _IN_WORKER:
        return [thunk() for thunk in thunks]
    if len(thunks) > _BATCH:  # more indices than one pipe buffer surely holds
        return fan_out(thunks[:_BATCH]) + fan_out(thunks[_BATCH:])

    _TASKS = thunks
    _blas_setters(_OPENBLAS)  # inherited by every worker
    pids, outputs = [], {}
    tasks, indices = os.pipe()
    try:
        # closed before the fork, so that a worker reads EOF once the pipe is empty
        with open(indices, "wb") as feed:
            feed.write(b"".join(i.to_bytes(4, sys.byteorder) for i in range(len(thunks))))
        sys.stdout.flush()  # or each worker would write the caller's buffer again
        sys.stderr.flush()
        for cpu in allowed[:workers]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(tasks, write, cpu, allowed)
            pids.append(pid)
            os.close(write)  # the worker holds the only write end
            outputs[read] = bytearray()
        waiting = list(outputs)
        while waiting:  # read as the workers write: a pipe holds only 64 KiB
            for fd in select.select(waiting, [], [])[0]:
                chunk = os.read(fd, 1 << 20)
                outputs[fd] += chunk
                if not chunk:
                    waiting.remove(fd)
        died = False
        while pids:
            died |= os.waitpid(pids[-1], 0)[1] != 0
            pids.pop()
    finally:  # on an exception in this process, kill the workers first
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in [tasks, *outputs]:
            os.close(fd)
        _TASKS = []

    if died:  # a worker that exits cleanly has a result for every task it took
        raise AnalysisError("a worker process died before returning its results")
    results = {}
    for data in outputs.values():
        stream = io.BytesIO(data)
        while stream.tell() < len(data):
            i, ok, value = pickle.load(stream)
            results[i] = ok, value
    failed = [i for i, (ok, _) in results.items() if not ok]
    if failed:  # every task before the first failure has a result
        raise results[min(failed)][1]
    return [results[i][1] for i in range(len(thunks))]
