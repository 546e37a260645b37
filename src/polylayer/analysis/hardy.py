"""Exact piecewise-polynomial verification of the Hardy-type inequality

    || v/z ; L2(2, inf) ||^2  <=  4 ||v'; L2(2, inf)||^2
                                + 2 ||v'; L2(1, 2)||^2 + 2 ||v; L2(1, 2)||^2

and of its rougher corollary with a free split point R0 >= 2:

    || v/z ; L2(R0, inf) ||^2 <= 4 ||v'; L2(1, inf)||^2 + 2 ||v; L2(1, R0)||^2.

Samples are piecewise-linear on [1, Z_max] with a zero tail, so every
integral has a closed form; nothing here is approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import PolylayerError


class HardyError(PolylayerError, ValueError):
    """Raised for malformed samples."""


@dataclass(frozen=True)
class HardySample:
    """Piecewise-linear v on [1, Z_max], decaying to 0 at Z_max (zero tail)."""

    breakpoints: np.ndarray
    values: np.ndarray
    r0: float = 2.0

    def __post_init__(self):
        z = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if z.ndim != 1 or z.shape != v.shape or z.size < 2:
            raise HardyError("breakpoints and values must be 1D of equal length >= 2")
        if abs(z[0] - 1.0) > 1e-12:
            raise HardyError("samples start at z = 1")
        if not (np.diff(z) > 0.0).all():
            raise HardyError("breakpoints must be strictly increasing")
        if z[-1] < 10.0:
            raise HardyError("Z_max must be >= 10")
        if v[-1] != 0.0:
            raise HardyError("v must decay to 0 at Z_max (zero-tail surrogate)")
        if self.r0 < 2.0:
            raise HardyError("R0 must be >= 2")
        object.__setattr__(self, "breakpoints", z)
        object.__setattr__(self, "values", v)


def _clipped(sample: HardySample, a: float, b: float):
    """(lo, hi, c0, c1): the segments v = c0 + c1 z that overlap [a, b],
    clipped to it (v = 0 beyond Z_max)."""
    z, v = sample.breakpoints, sample.values
    c1 = np.diff(v) / np.diff(z)
    c0 = v[:-1] - c1 * z[:-1]
    lo = np.maximum(z[:-1], a)
    hi = np.minimum(z[1:], b)
    mask = hi > lo
    return lo[mask], hi[mask], c0[mask], c1[mask]


def _int_v2(sample: HardySample, a: float, b: float) -> float:
    """Integral of v^2 over [a, b] (exact)."""
    lo, hi, c0, c1 = _clipped(sample, a, b)

    def anti(x):
        return c0 * c0 * x + c0 * c1 * x * x + c1 * c1 * x**3 / 3.0

    return float((anti(hi) - anti(lo)).sum())


def _int_dv2(sample: HardySample, a: float, b: float) -> float:
    lo, hi, _, c1 = _clipped(sample, a, b)
    return float((c1**2 * (hi - lo)).sum())


def _int_v2_over_z2(sample: HardySample, a: float, b: float) -> float:
    lo, hi, c0, c1 = _clipped(sample, a, b)

    def anti(x):
        return -c0 * c0 / x + 2.0 * c0 * c1 * np.log(x) + c1 * c1 * x

    return float((anti(hi) - anti(lo)).sum())


@dataclass(eq=False)
class HardyReport:
    lemma_lhs: float
    lemma_rhs: float
    lemma_holds: bool
    corollary_lhs: float
    corollary_rhs: float
    corollary_holds: bool
    r0: float

    def to_json(self) -> dict:
        return {
            "lemma": {
                "lhs": self.lemma_lhs,
                "rhs": self.lemma_rhs,
                "holds": self.lemma_holds,
            },
            "corollary": {
                "lhs": self.corollary_lhs,
                "rhs": self.corollary_rhs,
                "holds": self.corollary_holds,
                "r0": self.r0,
            },
        }


def hardy_check(sample: HardySample) -> HardyReport:
    """Evaluate both inequalities exactly for a piecewise-linear sample."""
    inf = float(sample.breakpoints[-1])  # v vanishes beyond Z_max
    lemma_lhs = _int_v2_over_z2(sample, 2.0, inf)
    lemma_rhs = (
        4.0 * _int_dv2(sample, 2.0, inf)
        + 2.0 * _int_dv2(sample, 1.0, 2.0)
        + 2.0 * _int_v2(sample, 1.0, 2.0)
    )
    cor_lhs = _int_v2_over_z2(sample, sample.r0, inf)
    cor_rhs = 4.0 * _int_dv2(sample, 1.0, inf) + 2.0 * _int_v2(sample, 1.0, sample.r0)
    return HardyReport(
        lemma_lhs=lemma_lhs,
        lemma_rhs=lemma_rhs,
        lemma_holds=lemma_lhs <= lemma_rhs + 1e-14 * max(1.0, lemma_rhs),
        corollary_lhs=cor_lhs,
        corollary_rhs=cor_rhs,
        corollary_holds=cor_lhs <= cor_rhs + 1e-14 * max(1.0, cor_rhs),
        r0=sample.r0,
    )


def sample_from_function(
    f: Callable[[np.ndarray], np.ndarray],
    z_max: float = 200.0,
    n: int = 20_000,
    taper: float = 2.0,
    r0: float = 2.0,
) -> HardySample:
    """Dense geometric sampling of a decaying function, with a long linear
    taper to zero appended so the zero-tail invariant holds without a jump."""
    z = np.geomspace(1.0, z_max, n)
    v = np.asarray(f(z), dtype=float)
    z_tail = z_max * taper
    z = np.append(z, z_tail)
    v = np.append(v, 0.0)
    return HardySample(breakpoints=z, values=v, r0=r0)


def random_decaying_sample(rng: np.random.Generator, r0: float = 2.0) -> HardySample:
    """Seeded random decaying piecewise-linear sample for property tests."""
    n = int(rng.integers(8, 60))
    z = np.concatenate([[1.0], np.sort(rng.uniform(1.0, 40.0, size=n)), [50.0]])
    z = np.unique(z)
    env = np.exp(-rng.uniform(0.05, 1.0) * (z - 1.0))
    bumps = 1.0 + 0.8 * rng.random(z.shape)
    v = rng.uniform(0.2, 3.0) * env * bumps
    v[-1] = 0.0
    return HardySample(breakpoints=z, values=v, r0=r0)
