"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py          # smoke configurations, seconds
    python3 perfbench/selftest.py --full   # also the three workloads, minutes

Smoke: every traced layer is hit, payload bytes are identical with tracing
on and off, the inner-solve count the program reports equals the spans the
tracer recorded, a deliberately failing check is counted instead of aborting
the repetition, both seeds pass, BENCHMARK.json names exactly the metrics
the harness prints, and a directory holding only the benchmark refuses to
run.

Full: the span counts match the operation counts of each workload, the
largest self time sits where the workload is meant to stress, and every
check passes at the default and the second seed.
"""

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import PER_LAYER, layer_metrics, span_table  # noqa: E402
from workloads import BENCHMARK_WORKLOADS, WORKLOADS  # noqa: E402

# operation counts per workload, from its CLI configurations
EXPECTED_CALLS = {
    # 2D threshold chain (2 outlet-length + 3 levels) + 2 voxel levels
    "fichera-3d": {"eigensolve.calls": 7, "mesh2d.segment_quadrature.calls": 0,
                   "mesh2d.evaluate_batch.calls": 0},
    # 6 scan angles and 3 counts, each 2 outlet-length + 3 levels
    "waveguide-2d": {"eigensolve.calls": 45, "mesh2d.segment_quadrature.calls": 0,
                     "mesh2d.evaluate_batch.calls": 0},
    # V^eps mode (2 + 3 levels) + Weyl mode (2 levels, fixed R); 13 eps
    # terms, 1 coarse re-evaluation, T3(0) and the small-eps value
    "post-2d": {"eigensolve.calls": 7, "mesh2d.segment_quadrature.calls": 16,
                "mesh2d.evaluate_batch.calls": 4},
}

# the span whose self time must be the largest in each workload
LARGEST_SELF = {"fichera-3d": "eigensolve.factorize", "post-2d": "mesh2d.segment_quadrature"}

FAILURES = []


def check(ok, text):
    print(("ok   " if ok else "FAIL ") + text)
    if not ok:
        FAILURES.append(text)


def child(workload, seed, trace, tmp, tag):
    deadline = time.monotonic() + 600.0
    res = run.spawn(tmp, tag, workload, seed, deadline, trace)
    if res is None:
        raise RuntimeError(f"child {tag} of {workload} failed")
    return res


def run_cli(workload, seed, trace, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def test_smoke(tmp):
    traced = child("smoke", run.DEFAULT_SEED, 1, tmp, "traced")
    plain = child("smoke", run.DEFAULT_SEED, 0, tmp, "plain")
    for t, p in zip(traced["ops"], plain["ops"]):
        check(not t["problems"] and not p["problems"], f"smoke op passes: {t['argv'][0]}")
        same = t["payload_sha256"] is not None and t["payload_sha256"] == p["payload_sha256"]
        check(same, f"payload bytes identical traced/untraced: {t['argv'][0]}")

    table = span_table(traced["spans"])
    wanted = {src for _, (kind, src) in PER_LAYER.values() if kind != "counter"}
    missing = sorted(s for s in wanted if table[s]["calls"] == 0)
    check(not missing, f"every traced layer hit on smoke (missing: {missing})")
    metrics = layer_metrics(traced["spans"], traced["counters"])
    zero = sorted(k for k, v in metrics.items() if v <= 0)
    check(not zero, f"every per-layer metric nonzero on smoke (zero: {zero})")
    check(metrics["eigensolve.inner_solve.calls"] == table["eigensolve.inner_solve"]["calls"],
          "EigenResult.iterations total equals the inner-solve spans")

    # the first operation's check fails; the second still runs and passes
    res = child("smoke-fail", run.DEFAULT_SEED, 0, tmp, "fail")
    failures = []
    failed = run.check_ops([res], WORKLOADS["smoke-fail"], failures)
    check(failed == 1 and len(res["ops"]) == 2 and not res["ops"][1]["problems"],
          f"failing check counted, repetition completes: {failures}")

    # the default seed ran above (traced and plain)
    for trace in (0, 1):
        res = child("smoke", run.SECOND_SEED, trace, tmp, f"seed2-trace{trace}")
        failures = []
        failed = run.check_ops([res], WORKLOADS["smoke"], failures)
        check(failed == 0, f"smoke seed {run.SECOND_SEED} trace {trace}: {failures}")


def test_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(BENCHMARK_WORKLOADS),
          "BENCHMARK.json workloads match workloads.py")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(e2e == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end match run.py")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want = {k: unit for k, (unit, _) in PER_LAYER.items()} | run.TRACE_UNITS
    check(layer == want, "BENCHMARK.json per_layer match tracer.py")


def test_refuses_without_program(tmp):
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, res, _ = run_cli("fichera-3d", run.DEFAULT_SEED, 0, cwd=bare)
    check(code != 0 and res is None, f"refuses to run without src/ (exit {code})")


def test_full(tmp):
    for w in BENCHMARK_WORKLOADS:
        traced = child(w, run.DEFAULT_SEED, 1, tmp, f"{w}-traced")
        plain = child(w, run.DEFAULT_SEED, 0, tmp, f"{w}-plain")
        for t, p in zip(traced["ops"], plain["ops"]):
            check(not t["problems"] and not p["problems"], f"{w} op passes: {t['argv'][0]}")
            same = t["payload_sha256"] is not None and t["payload_sha256"] == p["payload_sha256"]
            check(same, f"{w} payload bytes identical traced/untraced: {' '.join(t['argv'][:3])}")
        metrics = layer_metrics(traced["spans"], traced["counters"])
        for name, want in EXPECTED_CALLS[w].items():
            check(metrics[name] == want, f"{w} {name} = {metrics[name]:g} (expected {want})")
        table = span_table(traced["spans"])
        top = max(table, key=lambda s: table[s]["self"])
        if w in LARGEST_SELF:
            check(top == LARGEST_SELF[w], f"{w} largest self time: {top}")
        overhead = 100.0 * (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
        print(f"     {w}: traced {traced['wall_s']:.2f} s, untraced {plain['wall_s']:.2f} s, "
              f"overhead {overhead:+.1f}% (one pair; noise included)")
        code, res, err = run_cli(w, run.SECOND_SEED, 0)
        check(code == 0 and res["correct"], f"{w} passes at seed {run.SECOND_SEED} {err[-300:]}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--full", action="store_true")
    args = p.parse_args()
    tmp = ROOT / ".perfbench_tmp" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        test_benchmark_json()
        test_smoke(tmp)
        test_refuses_without_program(tmp)
        if args.full:
            test_full(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
