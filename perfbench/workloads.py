"""Workload definitions and payload checks for the polylayer benchmark.

A workload is an ordered list of CLI operations.  One repetition runs them
all, in order, inside one fresh interpreter (see ``child.py``).  Each
operation names the exit code it must return and a check that reads its
payload; an operation fails when the exit code differs, the CLI raises, or
the check reports a problem.

The configurations are scaled-down versions of the acceptance criteria's,
sized so that one repetition takes seconds rather than a minute; the
comments give the acceptance configuration each one stands for.
"""

from __future__ import annotations

import math

PI2 = math.pi**2

# frozen fine-mesh reference for the right-angle waveguide threshold
LAMBDA1_RIGHT_ANGLE_REF = 9.1719


class Op:
    """One CLI operation: its argv, the exit code it must return, and a
    payload check returning a list of problems (empty when correct)."""

    def __init__(self, argv, check, code=0):
        self.argv = list(argv)
        self.check = check
        self.code = code

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _require(problems, ok, text):
    if not ok:
        problems.append(text)


# --- fichera-3d --------------------------------------------------------------

# Rayleigh-quotient upper bound of this configuration at the default seed
# (9.14928111), rounded up in the fourth decimal
FICHERA_UPPER_BOUND_MAX = 9.1493


def check_fichera(p):
    problems = []
    ev = p["evidence"]
    _require(problems, p["verdict"] == "NONEMPTY", f"verdict {p['verdict']}")
    _require(
        problems,
        p["margin"] > ev["combined_indicator"],
        f"margin {p['margin']} <= combined indicator {ev['combined_indicator']}",
    )
    _require(
        problems,
        ev["upper_bound"] <= FICHERA_UPPER_BOUND_MAX,
        f"upper bound {ev['upper_bound']} > {FICHERA_UPPER_BOUND_MAX}",
    )
    _require(
        problems,
        abs(p["threshold"] - LAMBDA1_RIGHT_ANGLE_REF) < 5e-3,
        f"threshold {p['threshold']} not within 5e-3 of {LAMBDA1_RIGHT_ANGLE_REF}",
    )
    return problems


# --- waveguide-2d ------------------------------------------------------------

SCAN_THETAS = "0.3rad,0.82rad,1.34rad,1.86rad,2.38rad,2.9rad"  # linspace(0.3, 2.9, 6)


def check_scan(p):
    problems = []
    _require(problems, len(p["records"]) == 6, f"{len(p['records'])} scan records")
    _require(problems, p["strictly_increasing"], "scan not strictly increasing")
    _require(problems, p["inside_band"], "scan leaves (pi^2/4, pi^2)")
    return problems


def check_count(expected, at_least=False):
    def check(p):
        ok = p["count"] >= expected if at_least else p["count"] == expected
        rel = ">=" if at_least else "=="
        return [] if ok else [f"count {p['count']}, expected {rel} {expected}"]

    return check


# --- post-2d -----------------------------------------------------------------


def check_veps(p):
    problems = []
    ev = p["evidence"]
    _require(problems, p["verdict"] == "NONEMPTY", f"verdict {p['verdict']}")
    _require(problems, ev["best_value"] < 0.0, f"best value {ev['best_value']} >= 0")
    t3 = ev["T3_zero"]
    rel = abs(ev["value_at_small_eps"] - t3) / abs(t3)
    _require(problems, rel < 0.05, f"eps -> 0 limit off by {rel:.3g} of |T3(0)|")
    return problems


def check_weyl(count):
    def check(p):
        problems = []
        els = p["elements"]
        _require(problems, len(els) == count, f"{len(els)} Weyl elements")
        res = [e["residual"] for e in els]
        _require(
            problems,
            all(b < a for a, b in zip(res, res[1:])),
            f"residuals not strictly decreasing: {res}",
        )
        _require(
            problems,
            all(e["norm"] >= 0.9 for e in els),
            f"norm below 0.9: {[e['norm'] for e in els]}",
        )
        return problems

    return check


# --- smoke (self-tests only) -------------------------------------------------


def check_threshold_band(p):
    lam = p["extrapolated"]
    return [] if PI2 / 4.0 < lam < PI2 else [f"lambda1 {lam} outside (pi^2/4, pi^2)"]


def check_impossible(p):
    """Deliberately failing check: no waveguide eigenvalue lies below 1."""
    return check_threshold_band(p) + (
        [] if p["extrapolated"] < 1.0 else ["deliberate failure: lambda1 >= 1"]
    )


def check_verdict(verdict):
    def check(p):
        return [] if p["verdict"] == verdict else [f"verdict {p['verdict']}"]

    return check


FICHERA = ["--kind", "trihedral", "--alpha", "90deg,90deg,90deg"]

WORKLOADS = {
    # acceptance criterion 5 runs R=6, h=0.1, --thr-h 0.05 (80k 3D dofs,
    # ~60 s, 1.7 GB); the coarser threshold chain leaves the 3D solve (16k
    # dofs, a 12.7M-nonzero LU) the larger part
    "fichera-3d": [
        Op(["certify", *FICHERA, "--R", "4", "--h", "0.125", "--levels", "2",
            "--thr-h", "0.1"],
           check_fichera),
    ],
    # criteria 2 and 3 run a 12-angle scan at h=0.1 and the counts at
    # h=0.1 / 0.15 (~45 s together); the scan keeps its end points (at
    # h=0.2 the 2.9 rad value leaves the band)
    "waveguide-2d": [
        Op(["scan-theta", "--thetas", SCAN_THETAS, "--h", "0.15", "--levels", "3"],
           check_scan),
        Op(["count", "--theta", "90deg", "--h", "0.25", "--levels", "3"],
           check_count(1)),
        Op(["count", "--theta", "2.4rad", "--h", "0.25", "--levels", "3"],
           check_count(1)),
        Op(["count", "--theta", "0.15rad", "--h", "0.4", "--levels", "3"],
           check_count(2, at_least=True)),
    ],
    # criteria 6 and 9 run V^eps at h=0.05 and Weyl at h=0.04 (~30 s)
    "post-2d": [
        Op(["certify-veps", "--kind", "regular", "--n", "3", "--alpha", "60deg",
            "--h", "0.125", "--levels", "3"],
           check_veps),
        Op(["weyl", *FICHERA, "--indices", "2,3,4,5", "--h", "0.16"],
           check_weyl(4)),
    ],
    # tiny configurations touching every traced layer, for the self-tests
    "smoke": [
        Op(["waveguide", "--theta", "90deg", "--h", "0.25", "--levels", "2"],
           check_threshold_band),
        Op(["certify", *FICHERA, "--R", "3", "--h", "0.25", "--levels", "1",
            "--thr-h", "0.25", "--thr-levels", "2"],
           check_verdict("INCONCLUSIVE"), code=4),
        Op(["certify-veps", "--kind", "regular", "--n", "3", "--alpha", "60deg",
            "--h", "0.25", "--levels", "3"],
           check_verdict("NONEMPTY")),
        Op(["weyl", *FICHERA, "--indices", "2", "--h", "0.2"], check_weyl(1)),
    ],
    # the first operation's check cannot pass; the run must carry on
    "smoke-fail": [
        Op(["waveguide", "--theta", "90deg", "--h", "0.25", "--levels", "2"],
           check_impossible),
        Op(["waveguide", "--theta", "90deg", "--h", "0.25", "--levels", "2"],
           check_threshold_band),
    ],
}

# the workloads BENCHMARK.json lists; the others exist for the self-tests
BENCHMARK_WORKLOADS = ("fichera-3d", "waveguide-2d", "post-2d")
