"""Paper-facing analysis layer: thresholds, scans, counting, certificates,
the Hardy-type inequality check, and Weyl-sequence residuals."""

from ..errors import AnalysisError
from .certificates import (
    ABSENT_CONSISTENT,
    INCONCLUSIVE,
    NONEMPTY,
    AlphaStar,
    Certificate,
    absence_experiment,
    alpha_star,
    certify_discrete,
    veps_certificate,
)
from .hardy import HardyReport, HardySample, hardy_check, random_decaying_sample, sample_from_function
from .scans import (
    CountResult,
    DecayFit,
    ThetaScan,
    TruncationScan,
    count_below_threshold,
    scan_theta,
    scan_truncation,
)
from .waveguide import (
    ThresholdResult,
    WaveguideMode,
    WaveguideNumerics,
    lambda1_waveguide,
    solve_waveguide_mode,
    threshold,
)
from .weyl import WeylConfig, WeylElement, support_overlap, weyl_residual

__all__ = [
    "ABSENT_CONSISTENT",
    "INCONCLUSIVE",
    "NONEMPTY",
    "AlphaStar",
    "AnalysisError",
    "Certificate",
    "CountResult",
    "DecayFit",
    "HardyReport",
    "HardySample",
    "ThetaScan",
    "ThresholdResult",
    "TruncationScan",
    "WaveguideMode",
    "WaveguideNumerics",
    "WeylConfig",
    "WeylElement",
    "absence_experiment",
    "alpha_star",
    "certify_discrete",
    "count_below_threshold",
    "hardy_check",
    "lambda1_waveguide",
    "random_decaying_sample",
    "sample_from_function",
    "scan_theta",
    "scan_truncation",
    "solve_waveguide_mode",
    "support_overlap",
    "threshold",
    "veps_certificate",
    "weyl_residual",
]
