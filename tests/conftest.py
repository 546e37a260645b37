import ctypes
import glob
import os
from importlib.util import find_spec

import pytest

from polylayer import fanout

ACCEPTANCE_RESULTS: list = []


def record_acceptance(name: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((name, passed, detail))


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        line = f"{status}  {name}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


def assert_no_child_left():
    """Every child of this process has been reaped, forked by any means:
    ``multiprocessing.active_children`` sees only its own."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.fixture
def blas_threads():
    """The thread counts of numpy's and scipy's bundled OpenBLAS:
    ``blas_threads()`` lists them and ``blas_threads(n)`` sets every one to
    n.  The counts are restored after the test."""
    getters, setters = _openblas("get"), _openblas("set")
    before = [get() for get in getters]

    def threads(n=None):
        if n is None:
            return [get() for get in getters]
        for set_threads in setters:
            set_threads(n)

    yield threads
    for set_threads, n in zip(setters, before):
        set_threads(n)
