"""Parameter scans: opening-angle monotonicity, truncation convergence with
its exponential-rate fit, and eigenvalue counting below the threshold.

The points of a scan are independent waveguide problems, solved
concurrently through ``fanout.fan_out``."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..extrapolate import richardson
from ..fanout import fan_out
from ..mesh2d import check_opening_angle
from .waveguide import (
    PI2,
    ThresholdResult,
    WaveguideNumerics,
    lambda1_waveguide,
    solve_waveguide_mode,
)

COUNT_PAIRS = 6  # eigenvalues a count examines unless its numerics name a number


def _record_json(res: ThresholdResult, parameter: float) -> dict:
    """The JSON record of one scan point: the waveguide ``res`` solved at
    ``parameter`` (its ``theta_used`` or ``R``)."""
    return {
        "parameter": parameter,
        "eigenvalues": res.extrapolated_all.tolist(),
        "error_indicators": res.error_indicators.tolist(),
        "R": res.R,
        "h": res.h,
        "levels": res.levels,
    }


@dataclass(eq=False)
class ThetaScan:
    records: list  # ThresholdResult per angle, ascending
    strictly_increasing: bool
    inside_band: bool

    def to_json(self) -> dict:
        return {
            "records": [_record_json(r, r.theta_used) for r in self.records],
            "strictly_increasing": self.strictly_increasing,
            "inside_band": self.inside_band,
        }


def scan_theta(
    theta_list, numerics: WaveguideNumerics = WaveguideNumerics()
) -> ThetaScan:
    """Extrapolated lambda_1 over an ascending list of opening angles.

    Reports whether the values are strictly increasing and whether every
    value lies inside (pi^2/4, pi^2).  The angles are solved concurrently.
    """
    thetas = [float(t) for t in theta_list]
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ConfigError("theta values must be strictly ascending")
    for theta in thetas:
        check_opening_angle(theta)
    records = fan_out(partial(lambda1_waveguide, theta, numerics) for theta in thetas)
    values = np.array([r.extrapolated for r in records])
    return ThetaScan(
        records=records,
        strictly_increasing=bool((np.diff(values) > 0.0).all()),
        inside_band=bool(((values > PI2 / 4.0) & (values < PI2)).all()),
    )


@dataclass(eq=False)
class DecayFit:
    """Least-squares fit of log(lambda_inf - lambda(R)) against R."""

    decay_exponent: float  # -slope, the fitted 2*nu
    amplitude: float
    r_squared: float
    points_used: list

    def to_json(self) -> dict:
        return {
            "decay_exponent": self.decay_exponent,
            "amplitude": self.amplitude,
            "r_squared": self.r_squared,
            "points_used": self.points_used,
        }


@dataclass(eq=False)
class TruncationScan:
    records: list  # ThresholdResult per outlet length, ascending
    asymptote: float
    asymptote_indicator: float
    nondecreasing: bool
    below_asymptote: bool
    fit: Optional[DecayFit]
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "records": [_record_json(r, r.R) for r in self.records],
            "asymptote": self.asymptote,
            "asymptote_indicator": self.asymptote_indicator,
            "nondecreasing": self.nondecreasing,
            "below_asymptote": self.below_asymptote,
            "fit": self.fit.to_json() if self.fit else None,
            "notes": self.notes,
        }


def _gap_indicators(records) -> np.ndarray:
    """Uncertainty of (lambda(R_max) - lambda(R)) per R.

    Compares the gap computed from the last two extrapolation orders; needs
    at least three levels, otherwise falls back to the per-R indicators.
    """
    # one column per record; every record has the same number of levels
    _, _, ext = richardson(np.stack([r.lambda1_estimates for r in records], axis=1))
    if len(ext) < 2:
        indicators = np.array([r.error_indicator for r in records])
        return np.maximum(indicators[:-1], indicators[-1])
    gap_last = ext[-1, -1] - ext[-1, :-1]
    gap_prev = ext[-2, -1] - ext[-2, :-1]
    return np.abs(gap_last - gap_prev)


def scan_truncation(
    theta: float, R_list, numerics: WaveguideNumerics = WaveguideNumerics()
) -> TruncationScan:
    """lambda_1 of the truncated waveguide over ascending outlet lengths.

    The mesh family is nested in R (extending an outlet adds elements without
    moving nodes), which requires every R to be an integer multiple of the
    axial spacing.  The largest-R extrapolation serves as the asymptote for
    the exponential-gap fit; fit points are restricted to gaps exceeding ten
    times the error indicator.  The outlet lengths are solved concurrently.
    """
    check_opening_angle(theta)  # before the fan-out, not in each worker
    Rs = [float(R) for R in R_list]
    if any(b <= a for a, b in zip(Rs, Rs[1:])):
        raise ConfigError("R values must be strictly ascending")
    # built first: each refuses a non-finite R before round() sees it
    per_R = [replace(numerics, R=R) for R in Rs]
    for R in Rs:
        ratio = R / numerics.h
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError(
                f"R = {R} is not an integer multiple of h = {numerics.h}; "
                "the outlet meshes would not be nested across R"
            )
    records = fan_out(partial(lambda1_waveguide, theta, n) for n in per_R)
    values = np.array([r.extrapolated for r in records])
    indicators = np.array([r.error_indicator for r in records])
    asymptote = float(values[-1])
    asym_ind = float(indicators[-1])

    notes: list = []
    gaps = asymptote - values[:-1]
    # Error indicator of each gap: the discretization bias is shared across
    # the nested-in-R family and cancels in differences, so the honest
    # uncertainty of a gap is its change across extrapolation orders, not
    # the absolute per-R indicator.
    gap_indicators = _gap_indicators(records)
    usable = [
        k
        for k in range(len(Rs) - 1)
        if gaps[k] > 10.0 * gap_indicators[k]
    ]
    fit = None
    if len(usable) >= 2:
        xs = np.array([Rs[k] for k in usable])
        ys = np.log(gaps[np.array(usable)])
        slope, intercept = np.polyfit(xs, ys, 1)
        pred = slope * xs + intercept
        ss_res = float(np.sum((ys - pred) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        fit = DecayFit(
            decay_exponent=float(-slope),
            amplitude=float(math.exp(intercept)),
            r_squared=r2,
            points_used=[Rs[k] for k in usable],
        )
    else:
        notes.append(
            "decay fit omitted: truncation gaps do not exceed the error bars"
        )

    return TruncationScan(
        records=records,
        asymptote=asymptote,
        asymptote_indicator=asym_ind,
        nondecreasing=bool((np.diff(values) >= -asym_ind).all()),
        below_asymptote=bool((values <= asymptote + indicators + asym_ind).all()),
        fit=fit,
        notes=notes,
    )


@dataclass(eq=False)
class CountResult:
    """Eigenvalues certified below the waveguide threshold pi^2.

    Values inside the guard band around pi^2 are reported separately, not
    counted: discretization bias is upward, so near-threshold values cannot
    be certified.
    """

    theta: float
    count: int
    certified: list
    near_threshold: list
    guard: float
    record: ThresholdResult

    def to_json(self) -> dict:
        return {
            "theta": self.theta,
            "count": self.count,
            "certified": self.certified,
            "near_threshold": self.near_threshold,
            "guard": self.guard,
            "record": _record_json(self.record, self.record.theta_used),
        }


def count_below_threshold(
    theta: float, numerics: WaveguideNumerics = WaveguideNumerics()
) -> CountResult:
    """Number of extrapolated eigenvalues below pi^2 minus the guard band,
    among the ``numerics.num_pairs`` smallest (``COUNT_PAIRS`` if None)."""
    pairs = numerics.num_pairs or COUNT_PAIRS
    res = solve_waveguide_mode(theta, replace(numerics, num_pairs=pairs)).threshold
    values = res.extrapolated_all
    guard = float(res.error_indicators.max())
    certified = [float(v) for v in values if v < PI2 - guard]
    near = [float(v) for v in values if PI2 - guard <= v <= PI2 + guard]
    return CountResult(
        theta=float(theta),
        count=len(certified),
        certified=certified,
        near_threshold=near,
        guard=guard,
        record=res,
    )
