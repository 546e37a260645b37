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
before a fork.  Before its first task worker i moves itself to the i-th
CPU of the caller's affinity set, then takes that whole set back: left
alone, workers start on their parent's CPU and can stay there for a whole
sub-second fan-out, each waiting about as long as it runs.  Taking the set
back lets the scheduler move a worker off a CPU that other load keeps busy,
or off the low CPUs where the workers of concurrent runs are first placed;
the caller's affinity is never changed.  Each also pins OpenBLAS to
one thread (``pin_blas``), whoever the caller is: two workers that each ran
one BLAS thread per CPU would spin against each other.  Peak memory grows
with the number of tasks that run at once, each worker holding one task's
meshes and factors.
"""

from __future__ import annotations

import os
import sys

from .errors import AnalysisError

# numpy's and scipy's bundled OpenBLAS: (package, library glob, thread setter)
_OPENBLAS = (
    ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas*.so", "scipy_openblas_set_num_threads"),
)

_TASKS: list = []  # the running fan-out's thunks, inherited by its workers
_IN_WORKER = False


def _allowed() -> list:
    """The CPUs a fan-out may use, in ascending order: the process's CPU
    affinity on Linux, one unnamed CPU elsewhere."""
    if not sys.platform.startswith("linux"):
        return [None]
    return sorted(os.sched_getaffinity(0))


def cpus() -> int:
    """The number of CPUs a fan-out may use."""
    return len(_allowed())


def pin_blas() -> bool:
    """Pin the bundled OpenBLAS of numpy and scipy to one thread, so that
    ARPACK's dense BLAS sums in one order and the payload bytes do not depend
    on the host's thread count.  True when both setters were found and
    called; False under another BLAS, which is left as it is."""
    import ctypes
    import glob
    from importlib.util import find_spec

    pinned = []
    for package, pattern, setter in _OPENBLAS:
        site = os.path.dirname(os.path.dirname(find_spec(package).origin))
        libs = [ctypes.CDLL(p) for p in glob.glob(os.path.join(site, f"{package}.libs", pattern))]
        setters = [getattr(lib, setter) for lib in libs if hasattr(lib, setter)]
        for set_threads in setters:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
        pinned.append(bool(setters))
    return all(pinned)


def _place(cpu_ids, allowed) -> None:  # each worker's initializer
    os.sched_setaffinity(0, {cpu_ids.get()})  # returns once moved there
    os.sched_setaffinity(0, allowed)  # the scheduler may move it again
    pin_blas()


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
    allowed = _allowed()
    workers = min(len(thunks), len(allowed))
    if workers <= 1 or _IN_WORKER:
        return [thunk() for thunk in thunks]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    cpu_ids = context.SimpleQueue()  # the caller's CPUs, one per worker
    for cpu in allowed[:workers]:
        cpu_ids.put(cpu)
    _TASKS = thunks
    try:
        with ProcessPoolExecutor(
            workers, mp_context=context, initializer=_place, initargs=(cpu_ids, allowed)
        ) as pool:
            futures = [pool.submit(_run, i) for i in range(len(thunks))]
            try:
                return [f.result() for f in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    except BrokenProcessPool as exc:
        raise AnalysisError(f"a worker process died: {exc}") from None
    finally:  # every worker has been joined
        _TASKS = []
        cpu_ids.close()
