#!/usr/bin/env python3
"""Absence experiment for trihedral layers with two right vertex angles and a
small third angle: no Rayleigh quotient should undercut the threshold."""

import argparse

from polylayer.analysis import WaveguideNumerics, absence_experiment, alpha_star


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--alpha", type=float, default=0.26)
    ap.add_argument("--R", type=float, default=4.0)
    ap.add_argument("--h", type=float, default=1.0 / 6.0)
    ap.add_argument("--levels", type=int, default=2)
    args = ap.parse_args()

    star = alpha_star()
    print(f"alpha_star in [{star.lo:.4f}, {star.hi:.4f}]")
    cert = absence_experiment(
        args.alpha,
        R=args.R,
        h=args.h,
        levels=args.levels,
        threshold_numerics=WaveguideNumerics(h=0.1, levels=3),
    )
    print(f"threshold {cert.threshold_value:.6f}  cutoff {cert.evidence['cutoff']:.6f}")
    for d in cert.evidence["levels"]:
        print(f"  h = {d['h']:.4f}  bound = {d['upper_bound']:.6f}")
    print(f"verdict: {cert.verdict}  (not a proof of absence)")


if __name__ == "__main__":
    main()
