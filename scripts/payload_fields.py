#!/usr/bin/env python3
"""Which payload fields moved between two checkouts, and by how much.

    python3 scripts/payload_fields.py OLD_SRC NEW_SRC

Runs every command of ``payload_digests.COMMANDS`` once with ``OLD_SRC`` and
once with ``NEW_SRC`` on ``PYTHONPATH`` (each in its own interpreter), then
prints, per command, every float field that moved with its largest relative
and its largest absolute change, and every other difference: exit code,
ints, booleans, strings, list lengths, keys, side-file bytes.  List indices
are folded to ``[*]``, so ``levels[*].upper_bound`` stands for the field in
every level, and its two largest changes may come from different levels.
The absolute change tells roundoff in a difference of near-equal values
(an error indicator, a margin) from a real move: such a field's relative
change can be 100-1000 times that of the eigenvalues it is computed from.
A command whose payload and side files keep every byte prints
``identical``.  The exit status is 0 when every command is identical and 1
otherwise, also when the payload bytes differ but every value is equal.
"""

import json
import os
import subprocess
import sys

from payload_digests import COMMANDS, digest, outputs


def dump():
    """Print one JSON object per command: exit code, payload, side files."""
    for command in COMMANDS:
        code, payload, files = outputs(command)
        record = {
            "command": command,
            "exit": code,
            "payload": None if payload is None else json.loads(payload),
            "payload_sha256": None if payload is None else digest(payload),
            "files": {name: digest(raw) for name, raw in files.items()},
        }
        print(json.dumps(record), flush=True)


def run_checkout(src: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump"],
        env=env, capture_output=True, text=True, check=True,
    )
    records = map(json.loads, proc.stdout.splitlines())
    return {r["command"]: r for r in records}


def compare(old, new, path, moved, other):
    """Collect float moves (path -> largest relative and largest absolute
    change) and other differences (path -> "old -> new") between two JSON
    values."""
    if isinstance(old, float) and isinstance(new, float):
        if old != new:
            change = abs(new - old)
            rel = change / abs(old) if old else float("inf")
            largest = moved.get(path, (0.0, 0.0))
            moved[path] = (max(largest[0], rel), max(largest[1], change))
    elif isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            sub = f"{path}.{key}" if path else key
            if key in old and key in new:
                compare(old[key], new[key], sub, moved, other)
            else:
                other[sub] = _change(old.get(key, "<absent>"), new.get(key, "<absent>"))
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            compare(a, b, f"{path}[*]", moved, other)
    elif old != new or type(old) is not type(new):
        other.setdefault(path or "payload", _change(old, new))


def _change(old, new) -> str:
    texts = [json.dumps(value) for value in (old, new)]
    return " -> ".join(t if len(t) <= 60 else t[:57] + "..." for t in texts)


def main() -> int:
    if sys.argv[1:] == ["--dump"]:
        dump()
        return 0
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (run_checkout(src) for src in sys.argv[1:])
    all_identical = True
    for command in COMMANDS:
        a, b = old[command], new[command]
        moved, other = {}, {}
        if a["exit"] != b["exit"]:
            other["exit"] = _change(a["exit"], b["exit"])
        compare(a["payload"], b["payload"], "", moved, other)
        for name in sorted(set(a["files"]) | set(b["files"])):
            if a["files"].get(name) != b["files"].get(name):
                other[name] = "bytes differ"
        print(command)
        same = not moved and not other and a["payload_sha256"] == b["payload_sha256"]
        all_identical &= same
        if same:
            print("    identical")
        elif not moved and not other:
            print("    payload bytes differ, every value equal")
        for path, (rel, change) in moved.items():
            print(f"    {path}  max rel. change {rel:.2e}, max abs. change {change:.2e}")
        for path, change in other.items():
            print(f"    {path}  {change}")
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
