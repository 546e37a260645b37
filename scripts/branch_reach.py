#!/usr/bin/env python3
"""The lines of ``src/polylayer`` that no test reaches.

    python3 scripts/branch_reach.py [extra pytest arguments]

Runs the tier-1 suite in this interpreter through ``pytest.main``, with a
line tracer (``sys.settrace`` and ``threading.settrace``) that records only
frames of files under ``src/polylayer``, then prints, per module, its
executable lines (those its compiled code objects list in ``co_lines``)
that no test ran, as line ranges.  Needs only the standard library and
pytest; the traced suite runs a few times slower than the plain one.

The process first pins itself to one CPU, so that ``fanout.fan_out`` runs
its tasks in this process, where the tracer sees them; tests skipped below
two CPUs stay skipped.  Code that tests run in a subprocess (the CLI runs
through ``python -m polylayer``) is invisible to the tracer, so a line that
only such a test reaches is listed as unreached.
"""

import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "polylayer") + os.sep

reached = defaultdict(set)  # file -> line numbers run


def _local(frame, event, arg):
    if event == "line":
        reached[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(PACKAGE) else None


def executable_lines(path: str) -> set:
    """The line numbers of every code object compiled from ``path``."""
    with open(path) as f:
        code = compile(f.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's entry
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """``[3, 4, 5, 9]`` as ``"3-5, 9"``."""
    runs = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv) -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    import pytest

    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total_exec = total_missed = 0
    print(f"\nlines of {os.path.relpath(PACKAGE, ROOT)} that no test ran "
          "(one CPU; subprocess runs not seen):")
    for dirpath, _, names in sorted(os.walk(PACKAGE)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(dirpath, name)
            lines = executable_lines(path)
            missed = lines - reached[path]
            total_exec += len(lines)
            total_missed += len(missed)
            rel = os.path.relpath(path, SRC)
            print(f"{rel}: {len(missed)}/{len(lines)}"
                  + (f"  {ranges(missed)}" if missed else ""))
    print(f"total: {total_missed} of {total_exec} executable lines not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
