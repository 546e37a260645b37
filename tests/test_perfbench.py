"""The benchmark's traced child runs on the program as it is: a change to
what ``perfbench/tracer.py`` reads of polylayer fails here."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_smoke_workload(tmp_path):
    result = tmp_path / "result.json"
    argv = [
        sys.executable, str(ROOT / "perfbench" / "child.py"),
        "--workload", "smoke", "--seed", "0", "--trace", "1",
        "--spawn", str(time.monotonic()), "--tmp", str(tmp_path), "--result", str(result),
    ]  # fmt: skip
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(argv, env=env, check=True, timeout=300)
    out = json.loads(result.read_text())
    assert [op["argv"][0] for op in out["ops"]] == [
        "waveguide", "certify", "certify-veps", "weyl",
    ]  # fmt: skip
    assert [op["problems"] for op in out["ops"]] == [[]] * 4
    assert out["counters"]["assembly.nnz_total"] > 0
