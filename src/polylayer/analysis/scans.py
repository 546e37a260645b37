"""Parameter scans: opening-angle monotonicity, truncation convergence with
its exponential-rate fit, and eigenvalue counting below the threshold.

The points of a scan are independent waveguide problems: each scan hands
them to ``prefetch_lambda1`` at once, which solves the memo's misses
concurrently, and then reads every point back from the memo."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..extrapolate import richardson
from .waveguide import (
    PI2,
    WaveguideNumerics,
    lambda1_waveguide,
    prefetch_lambda1,
    solve_waveguide_mode,
)


@dataclass(eq=False)
class ScanRecord:
    """One scan point: parameter value, extrapolated eigenvalues, mesh data."""

    parameter: float
    eigenvalues: np.ndarray  # extrapolated, ascending
    error_indicators: np.ndarray
    level_estimates: np.ndarray  # per level x per pair
    R: float
    h: float
    levels: int

    def to_json(self) -> dict:
        return {
            "parameter": self.parameter,
            "eigenvalues": self.eigenvalues.tolist(),
            "error_indicators": self.error_indicators.tolist(),
            "R": self.R,
            "h": self.h,
            "levels": self.levels,
        }


@dataclass(eq=False)
class ThetaScan:
    records: list
    strictly_increasing: bool
    inside_band: bool

    def to_json(self) -> dict:
        return {
            "records": [r.to_json() for r in self.records],
            "strictly_increasing": self.strictly_increasing,
            "inside_band": self.inside_band,
        }


def scan_theta(
    theta_list, numerics: WaveguideNumerics = WaveguideNumerics()
) -> ThetaScan:
    """Extrapolated lambda_1 over an ascending list of opening angles.

    Reports whether the values are strictly increasing and whether every
    value lies inside (pi^2/4, pi^2).  The angles are independent problems,
    solved concurrently through ``prefetch_lambda1``.
    """
    thetas = [float(t) for t in theta_list]
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ConfigError("theta values must be strictly ascending")
    prefetch_lambda1([(theta, numerics) for theta in thetas])
    records = []
    for theta in thetas:
        res = lambda1_waveguide(theta, numerics)
        records.append(
            ScanRecord(
                parameter=theta,
                eigenvalues=np.array([res.extrapolated]),
                error_indicators=np.array([res.error_indicator]),
                level_estimates=res.lambda_estimates,
                R=res.R,
                h=res.h,
                levels=res.levels,
            )
        )
    values = np.array([r.eigenvalues[0] for r in records])
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
    records: list
    asymptote: float
    asymptote_indicator: float
    nondecreasing: bool
    below_asymptote: bool
    fit: Optional[DecayFit]
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "records": [r.to_json() for r in self.records],
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
    last = records[-1]
    out = np.empty(len(records) - 1)
    for k, rec in enumerate(records[:-1]):
        _, _, ext_r = richardson(rec.level_estimates[:, 0])
        _, _, ext_m = richardson(last.level_estimates[:, 0])
        if len(ext_r) >= 2 and len(ext_m) >= 2:
            gap_last = ext_m[-1] - ext_r[-1]
            gap_prev = ext_m[-2] - ext_r[-2]
            out[k] = abs(gap_last - gap_prev)
        else:
            out[k] = max(rec.error_indicators[0], last.error_indicators[0])
    return out


def scan_truncation(
    theta: float, R_list, numerics: WaveguideNumerics = WaveguideNumerics()
) -> TruncationScan:
    """lambda_1 of the truncated waveguide over ascending outlet lengths.

    The mesh family is nested in R (extending an outlet adds elements without
    moving nodes), which requires every R to be an integer multiple of the
    axial spacing.  The largest-R extrapolation serves as the asymptote for
    the exponential-gap fit; fit points are restricted to gaps exceeding ten
    times the error indicator.  The outlet lengths are independent problems,
    solved concurrently through ``prefetch_lambda1``.
    """
    Rs = [float(R) for R in R_list]
    if any(b <= a for a, b in zip(Rs, Rs[1:])):
        raise ConfigError("R values must be strictly ascending")
    for R in Rs:
        ratio = R / numerics.h
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError(
                f"R = {R} is not an integer multiple of h = {numerics.h}; "
                "the outlet meshes would not be nested across R"
            )
    prefetch_lambda1([(theta, replace(numerics, R=R)) for R in Rs])
    records = []
    for R in Rs:
        res = lambda1_waveguide(theta, replace(numerics, R=R))
        records.append(
            ScanRecord(
                parameter=R,
                eigenvalues=np.array([res.extrapolated]),
                error_indicators=np.array([res.error_indicator]),
                level_estimates=res.lambda_estimates,
                R=R,
                h=res.h,
                levels=res.levels,
            )
        )
    values = np.array([r.eigenvalues[0] for r in records])
    indicators = np.array([r.error_indicators[0] for r in records])
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
    record: ScanRecord

    def to_json(self) -> dict:
        return {
            "theta": self.theta,
            "count": self.count,
            "certified": self.certified,
            "near_threshold": self.near_threshold,
            "guard": self.guard,
            "record": self.record.to_json(),
        }


def count_below_threshold(
    theta: float, numerics: WaveguideNumerics = WaveguideNumerics(), num_pairs: int = 6
) -> CountResult:
    """Number of extrapolated eigenvalues below pi^2 minus the guard band."""
    mode = solve_waveguide_mode(theta, replace(numerics, num_pairs=num_pairs))
    res = mode.threshold
    values = res.extrapolated_all
    indicators = np.empty(num_pairs)
    for j in range(num_pairs):
        _, indicators[j], _ = richardson(res.lambda_estimates[:, j])
    guard = float(indicators.max())
    certified = [float(v) for v in values if v < PI2 - guard]
    near = [float(v) for v in values if PI2 - guard <= v <= PI2 + guard]
    record = ScanRecord(
        parameter=theta,
        eigenvalues=values,
        error_indicators=indicators,
        level_estimates=res.lambda_estimates,
        R=res.R,
        h=res.h,
        levels=res.levels,
    )
    return CountResult(
        theta=float(theta),
        count=len(certified),
        certified=certified,
        near_threshold=near,
        guard=guard,
        record=record,
    )
