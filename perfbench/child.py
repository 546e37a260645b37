"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1
        --spawn T --tmp DIR --result FILE

``--spawn`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start and the imports of
``polylayer.cli`` with the numpy/scipy modules the CLI loads.  The child
then runs the workload's operations in order through ``polylayer.cli.main``
(each writing into its own directory under ``--tmp``), checks every
payload, and writes one JSON result to ``--result``, with the environment
it ran in.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

# what the CLI loads for an operation: numpy, scipy.sparse.linalg and
# scipy.optimize come in through polylayer.analysis
import polylayer.analysis  # noqa: F401
import polylayer.cli
import polylayer.report  # noqa: F401

T_READY = time.monotonic()  # set-up ends here; tracing is not part of it

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PAYLOAD_MARK = b',\n"payload": '
BUNDLE_END = b"\n}\n"


def payload_bytes(bundle: bytes) -> bytes:
    """The payload section of a bundle as written by report.write_bundle."""
    start = bundle.index(PAYLOAD_MARK) + len(PAYLOAD_MARK)
    if not bundle.endswith(BUNDLE_END):
        raise ValueError("bundle does not end as report.write_bundle ends it")
    return bundle[start : -len(BUNDLE_END)]


def run_op(op, seed, out_dir):
    """Run one operation; returns its record (exit code, problems, digest)."""
    argv = [*op.argv, "--seed", str(seed), "--out", out_dir]
    rec = {"argv": argv, "code": None, "problems": [], "payload_sha256": None}
    try:
        rec["code"] = polylayer.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        rec["code"] = exc.code
    except Exception as exc:
        rec["problems"].append(f"raised {type(exc).__name__}: {exc}")
        return rec
    if rec["code"] != op.code:
        rec["problems"].append(f"exit code {rec['code']}, expected {op.code}")
        return rec
    try:
        with open(os.path.join(out_dir, f"{op.subcommand}.json"), "rb") as f:
            raw = payload_bytes(f.read())
        rec["payload_sha256"] = hashlib.sha256(raw).hexdigest()
        rec["problems"] += op.check(json.loads(raw))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        rec["problems"].append(f"payload unreadable: {type(exc).__name__}: {exc}")
    return rec


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "polylayer": polylayer.cli.__version__,
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawn", type=float, required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()

    result = {
        "setup_s": T_READY - args.spawn,
        "polylayer_file": polylayer.cli.__file__,
    }
    ops = WORKLOADS[args.workload]
    trace = tracer.Tracer()
    if args.trace:
        tracer.install(trace)
    records = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        records.append(run_op(op, args.seed, os.path.join(args.tmp, f"op{i}")))
    result["wall_s"] = time.perf_counter() - t0
    result["ops"] = records
    result["spans"] = trace.spans
    result["counters"] = dict(trace.counters)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    with open(args.result, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
