"""polylayer benchmark: end-to-end and per-layer metrics of CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/polylayer`` must exist).
Each repetition runs the workload's CLI operations, in order, in a fresh
interpreter (``child.py``), so cold module caches are paid as a CLI user
pays them.  One client runs repetitions back to back (a closed loop) until
about ``--seconds`` have been spent: another one starts while its expected
end (from the median repetition so far) lies less than half a repetition
past ``--seconds``.  Every repetition samples set-up time once.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over repetitions); with ``--trace 1`` repetitions alternate
between traced and untraced, and it reports the per-layer metrics of the
traced ones plus the tracing overhead.  The line before it holds the
environment and, for every metric, its median, quartiles and sample count.
Every payload is checked on every repetition; failed operations are
counted in ``failed`` out of ``attempted``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER, layer_metrics  # noqa: E402
from workloads import BENCHMARK_WORKLOADS, WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
SECOND_SEED = 2  # the self-tests confirm the checks on a seed not tuned on
BUDGET_S = 170.0  # a run ends within this, whatever --seconds says

# BLAS/OpenMP thread caps for the program (never above the cores present);
# one thread keeps timings steady on a small shared machine
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# reported by --trace 1 next to tracer.PER_LAYER
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead_pct": "%"}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("POLYLAYER_OUTDIR", "POLYLAYER_THREADS_APPLIED", "PYTHONHOME"):
        env.pop(var, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = str(min(THREADS, os.cpu_count() or 1))
    return env


def spawn(tmp: Path, tag: str, workload: str, seed: int, deadline: float, trace: int):
    """Run one child to completion; returns its result dict, or None with
    the reason printed when it failed or ran past the deadline."""
    result = tmp / f"{tag}.json"
    work = tmp / tag
    work.mkdir()
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--tmp", str(work), "--result", str(result), "--trace", str(trace),
    ]
    t = time.monotonic()
    try:
        proc = subprocess.run(
            [*cmd, "--spawn", repr(t)],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=max(deadline - t, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {tag} killed at the {BUDGET_S:.0f} s budget", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not result.exists():
        tail = proc.stderr.decode(errors="replace")[-2000:]
        print(f"perfbench: {tag} exited {proc.returncode}\n{tail}", file=sys.stderr)
        return None
    with open(result) as f:
        return json.load(f)


def stats(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def environment(env_child: dict) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "thread_caps": {v: child_env()[v] for v in THREAD_VARS},
        "rss_method": "getrusage(RUSAGE_SELF).ru_maxrss of each repetition's process",
        "load": "closed loop, 1 client, repetitions back to back",
        **env_child,
    }


def check_ops(reps, ops, failures) -> int:
    """Count failed operations over all repetitions; an operation also fails
    when its payload differs from the first repetition's (same seed)."""
    failed = 0
    first = {}
    for r, rep in enumerate(reps):
        for i, rec in enumerate(rep["ops"]):
            problems = list(rec["problems"])
            digest = rec["payload_sha256"]
            if digest is not None:
                first.setdefault(i, digest)
                if digest != first[i]:
                    problems.append("payload bytes differ from the first repetition")
            if problems:
                failed += 1
                failures.append({"rep": r, "op": " ".join(ops[i].argv), "problems": problems})
    return failed


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=BENCHMARK_WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "polylayer" / "cli.py").is_file():
        print(f"perfbench: no polylayer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + BUDGET_S
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        ops = WORKLOADS[args.workload]
        reps, traced, untraced = [], [], []
        minimum = 2 if args.trace else 1  # a traced and an untraced one
        durations, aborted = [], 0
        while len(reps) < minimum or (
            time.monotonic() - started + statistics.median(durations) / 2 <= args.seconds
        ):
            t = time.monotonic()
            trace = int(args.trace and len(reps) % 2 == 0)
            res = spawn(tmp, f"rep{len(reps)}", args.workload, args.seed, deadline, trace)
            if res is None:
                aborted = 1
                break
            if not res["polylayer_file"].startswith(str(ROOT / "src")):
                print(f"perfbench: imported {res['polylayer_file']}, not this checkout",
                      file=sys.stderr)
                return 1
            reps.append(res)
            (traced if trace else untraced).append(res)
            durations.append(time.monotonic() - t)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    failures = []
    attempted = len(ops) * (len(reps) + aborted)
    failed = check_ops(reps, ops, failures) + len(ops) * aborted
    if not reps:
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1

    summary = {}
    if args.trace:
        per_rep = [layer_metrics(r["spans"], r["counters"]) for r in traced]
        for name, (unit, _) in PER_LAYER.items():
            summary[name] = {"unit": unit, **stats([m[name] for m in per_rep])}
        traced_wall = stats([r["wall_s"] for r in traced])
        summary["trace.wall_s"] = {"unit": TRACE_UNITS["trace.wall_s"], **traced_wall}
        if untraced:
            base = statistics.median(r["wall_s"] for r in untraced)
            overhead = 100.0 * (traced_wall["median"] - base) / base
            summary["trace.overhead_pct"] = {
                "unit": TRACE_UNITS["trace.overhead_pct"], "median": overhead, "n": len(untraced)}
    else:
        samples = {
            "wall_s": [r["wall_s"] for r in reps],
            "setup_s": [r["setup_s"] for r in reps],
            "peak_rss_mib": [r["peak_rss_mib"] for r in reps],
        }
        for name, values in samples.items():
            summary[name] = {"unit": END_TO_END_UNITS[name], **stats(values)}

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(reps),
        "fail_frac": failed / attempted,
        "failures": failures,
        "env": environment(reps[0]["env"]),
        "summary": summary,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["median"], "unit": v["unit"]} for k, v in summary.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
