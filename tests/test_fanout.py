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
    monkeypatch.setattr(fanout, "cpus", lambda: 1)
    assert fan_out([os.getpid] * 2) == [os.getpid()] * 2
