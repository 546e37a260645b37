import ctypes
import glob
import multiprocessing
import os
import time
from functools import partial
from importlib.util import find_spec

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
    monkeypatch.setattr(fanout, "cpus", lambda: 1)
    assert fan_out([os.getpid] * 2) == [os.getpid()] * 2


def _openblas(verb):
    """numpy's and scipy's bundled OpenBLAS ``get`` or ``set`` thread
    functions, found where ``fanout.pin_blas`` finds its setters."""
    funcs = []
    for package, pattern, setter in fanout._OPENBLAS:
        site = os.path.dirname(os.path.dirname(find_spec(package).origin))
        name = setter.replace("_set_", f"_{verb}_")
        for path in glob.glob(os.path.join(site, f"{package}.libs", pattern)):
            func = getattr(ctypes.CDLL(path), name)
            func.argtypes = [ctypes.c_int] if verb == "set" else []
            func.restype = None if verb == "set" else ctypes.c_int
            funcs.append(func)
    return funcs


def _blas_threads():
    return [get() for get in _openblas("get")]


@pytest.mark.skipif(cpus() < 2, reason="one CPU: thunks run in-process, no worker to pin")
def test_workers_pin_blas_to_one_thread():
    # a library caller is not pinned by the CLI; its workers pin themselves
    before = _blas_threads()
    assert len(before) == 2
    try:
        for set_threads in _openblas("set"):
            set_threads(2)
        assert _blas_threads() == [2, 2]
        assert fan_out([_blas_threads] * 2) == [[1, 1]] * 2
        assert _blas_threads() == [2, 2]
    finally:
        for set_threads, threads in zip(_openblas("set"), before):
            set_threads(threads)
