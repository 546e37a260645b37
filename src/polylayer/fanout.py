"""Independent solves run at the same time, one forked process per CPU.

``fan_out(thunks)`` calls every thunk and returns the results in input
order.  It uses ``min(len(thunks), cpus())`` worker processes, and runs the
thunks serially in-process when that is 1, off Linux, or inside a worker,
so a nested call never multiplies processes.  There is no setting: a serial
run of the whole program is ``taskset -c 0 polylayer ...``.

Each thunk runs exactly the code it runs serially, so results do not depend
on the CPU count.  The workers are forked, not spawned: a spawned worker
would import numpy and scipy afresh, and the thunks (closures over meshes,
layers and numerics) would have to be pickled.  A forked worker inherits
them in ``_TASKS`` and receives only an index; only results are pickled.
The pool forks all of its workers on the first submit, before it starts
its manager thread; the only other threads are OpenBLAS's, which it stops
before a fork.  Peak memory grows with the number of tasks that
run at once, each worker holding one task's meshes and factors.
"""

from __future__ import annotations

import os
import sys

from .errors import AnalysisError

_TASKS: list = []  # the running fan-out's thunks, inherited by its workers
_IN_WORKER = False


def cpus() -> int:
    """The number of CPUs a fan-out may use: the process's CPU affinity on
    Linux, 1 elsewhere."""
    if not sys.platform.startswith("linux"):
        return 1
    return len(os.sched_getaffinity(0))


def _run(index: int):
    global _IN_WORKER
    _IN_WORKER = True  # in a worker: nested fan-outs run serially
    return _TASKS[index]()


def fan_out(thunks) -> list:
    """``[thunk() for thunk in thunks]``, with the thunks run concurrently
    in forked workers when more than one CPU is available.

    The first exception in input order is raised, as a serial run would
    raise it; a worker that dies raises ``AnalysisError``.  Every worker is
    joined before this returns.
    """
    global _TASKS
    thunks = list(thunks)
    workers = min(len(thunks), cpus())
    if workers <= 1 or _IN_WORKER:
        return [thunk() for thunk in thunks]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    _TASKS = thunks
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_run, i) for i in range(len(thunks))]
            try:
                return [f.result() for f in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    except BrokenProcessPool as exc:
        raise AnalysisError(f"a worker process died: {exc}") from None
    finally:
        _TASKS = []
