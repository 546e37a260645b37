"""First eigenvalues of truncated L-shaped waveguides and layer thresholds.

The mixed problem on the truncated waveguide (Dirichlet walls, Neumann end
cross-sections) is solved on a chain of nested refinements and Richardson-
extrapolated assuming O(h^2); the error indicator is the difference of the
last two extrapolants.  The coarsest level starts the eigensolver cold from
the seed; each refined level starts from the level before, prolonged, at a
shift just below its lambda_1.  The essential-spectrum threshold of a
polyhedral layer is the first eigenvalue of the waveguide at the smallest
dihedral angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..assembly import assemble_p1
from ..eigensolve import check_pairs, smallest_eigenpairs
from ..errors import AnalysisError, ConfigError
from ..extrapolate import richardson
from ..geometry import LayerGeometry
from ..mesh2d import TriMesh, mesh_lshape, mirrored, prolong, refine

PI2 = math.pi**2

R_CAP = 12.0  # longest outlet the automatic truncation rule selects
WARM_SHIFT = 0.97  # a refined level's shift, as a fraction of the last lambda_1


@dataclass(frozen=True)
class WaveguideNumerics:
    """Discretization knobs shared by the waveguide-based operations."""

    h: float = 0.1
    levels: int = 3
    R: Optional[float] = None  # None: auto-select from the threshold rule
    num_pairs: Optional[int] = None  # None: 1, or scans.COUNT_PAIRS in a count
    seed: int = 0

    def __post_init__(self):
        # checked here, so that a bad value stops a run before any solve
        if not 0.0 < self.h <= 0.5:
            raise ConfigError(
                f"h = {self.h} must lie in (0, 0.5] (at least two elements across the width)"
            )
        if self.levels < 2:
            raise ConfigError("extrapolation needs at least two refinement levels")
        if self.R is not None and not 0.0 < self.R < math.inf:
            raise ConfigError(f"R = {self.R} must be finite and > 0")
        if self.num_pairs is not None and self.num_pairs < 1:
            raise ConfigError("num_pairs must be >= 1")


@dataclass(eq=False)
class ThresholdResult:
    """Extrapolated first eigenvalue of the waveguide at ``theta_used``.

    ``lambda_estimates`` has one row per refinement level (columns are
    eigenvalue indices); ``extrapolated_all`` and ``error_indicators`` hold
    the Richardson value and indicator of each column.  The extrapolated
    value must land inside (pi^2/4, pi^2) and the per-level estimates
    decrease (nested meshes).
    """

    theta_used: float
    lambda_estimates: np.ndarray
    R: float
    h: float
    levels: int
    extrapolated_all: np.ndarray
    error_indicators: np.ndarray

    @property
    def extrapolated(self) -> float:
        return float(self.extrapolated_all[0])

    @property
    def error_indicator(self) -> float:
        return float(self.error_indicators[0])

    @property
    def lambda1_estimates(self) -> np.ndarray:
        return self.lambda_estimates[:, 0]

    def to_json(self) -> dict:
        return {
            "theta_used": self.theta_used,
            "lambda1_estimates": self.lambda1_estimates.tolist(),
            "lambda_estimates": self.lambda_estimates.tolist(),
            "extrapolated": self.extrapolated,
            "extrapolated_all": self.extrapolated_all.tolist(),
            "error_indicator": self.error_indicator,
            "R": self.R,
            "h": self.h,
            "levels": self.levels,
        }


@dataclass(eq=False)
class WaveguideMode:
    """The extrapolation record plus every level's mesh and nodal
    eigenfunctions (columns, M-normalized on the whole waveguide).  A
    single-pair mode lives on the half mesh y >= 0 (``_solve_chain``)."""

    threshold: ThresholdResult
    meshes: list
    values_per_level: list

    @property
    def mesh(self) -> TriMesh:
        """The finest mesh."""
        return self.meshes[-1]

    @property
    def values(self) -> np.ndarray:
        """The finest level's nodal eigenfunctions."""
        return self.values_per_level[-1]


def _solve_chain(theta: float, numerics: WaveguideNumerics):
    """Eigenvalues, meshes and nodal vectors of the nested levels, with the
    outlet length ``numerics.R`` (not None here).

    A single pair is solved on the half mesh with a natural (Neumann) axis
    (``mesh2d.mesh_lshape``).  No triangle crosses the axis, so its P1 space
    is the space of mirror-invariant functions, and the antisymmetric ones
    are that of the same half mesh with a Dirichlet axis, a subspace of it.
    The smallest antisymmetric eigenvalue is therefore no smaller than the
    smallest invariant one, and lambda_1 lies in the invariant sector.
    Perron-Frobenius does not give this, since the P1 stiffness can have
    positive off-diagonal entries (+3.05 at theta = 0.3, h = 0.25).  The
    stored half field is scaled by 1/sqrt(2): it is the M-normalized mode
    of the whole waveguide, restricted to the half.  More pairs are solved
    on the whole waveguide (``mesh2d.mirrored``).

    Level 0 starts cold from the seed.  Each later level starts from the
    sum of the last level's vectors, prolonged (nested P1 spaces keep the
    field), at the shift ``WARM_SHIFT * lambda_1`` of the last level, which
    the eigensolver lowers if it is not below this level's lambda_1.
    """
    num_pairs, seed = numerics.num_pairs or 1, numerics.seed
    mesh = mesh_lshape(theta, numerics.R, numerics.h)
    scale = math.sqrt(0.5)
    if num_pairs > 1:
        mesh, scale = mirrored(mesh), 1.0
    lams = []
    meshes = []
    vals_all = []
    start, shift = None, 0.0
    for lev in range(numerics.levels):
        problem = assemble_p1(mesh)
        result = smallest_eigenpairs(problem, num_pairs, seed, start, shift)
        lams.append(result.eigenvalues)
        meshes.append(mesh)
        nodal = np.zeros((mesh.num_nodes, num_pairs))
        nodal[problem.free_nodes] = scale * result.eigenvectors
        vals_all.append(nodal)
        if lev + 1 < numerics.levels:
            mesh = refine(mesh)
            start = prolong(mesh.parent, nodal).sum(axis=1)
            shift = WARM_SHIFT * float(result.eigenvalues[0])
    return np.array(lams), meshes, vals_all


def auto_outlet_length(theta: float, numerics: WaveguideNumerics) -> float:
    """Outlet length from the truncation rule R >= 4 / sqrt(pi^2 - lambda1),
    for numerics without an outlet length (``numerics.R`` is not read).

    A coarse solve at R = 4 estimates lambda1, and the length is at least
    4; the rule is capped at ``R_CAP`` since near-straight waveguides
    (lambda1 -> pi^2) would otherwise demand unbounded outlets while their
    truncation error is already negligible against the spectral gap.
    """
    base = 4.0
    coarse = replace(numerics, R=base, h=max(numerics.h, 0.2), levels=2, num_pairs=1)
    lams, _, _ = _solve_chain(theta, coarse)
    lam_coarse, _, _ = richardson(lams[:, 0])
    # a gap at or below 1e-6 (upward bias may overshoot pi^2) gives the cap
    rule = 4.0 / math.sqrt(max(PI2 - lam_coarse, 1e-6))
    return float(min(max(base, rule), R_CAP))


def check_pair_count(theta: float, numerics: WaveguideNumerics) -> None:
    """Refuse more pairs than level 0 gives at the longest outlet the run
    could use (``numerics.R``, else ``R_CAP``), before any solve."""
    if (numerics.num_pairs or 1) > 1:
        mesh = mirrored(mesh_lshape(theta, numerics.R or R_CAP, numerics.h))
        check_pairs(numerics.num_pairs, mesh.num_nodes - len(mesh.dirichlet_nodes()))


def solve_waveguide_mode(
    theta: float, numerics: WaveguideNumerics = WaveguideNumerics()
) -> WaveguideMode:
    """Solve the truncated waveguide across nested refinements.

    Returns the Richardson-extrapolated eigenvalues together with the
    finest-level eigenfunctions (M-normalized nodal fields).
    """
    check_pair_count(theta, numerics)
    R = numerics.R if numerics.R is not None else auto_outlet_length(theta, numerics)
    lams, meshes, vals = _solve_chain(theta, replace(numerics, R=R))
    ext_all, ind_all, _ = richardson(lams)
    result = ThresholdResult(
        theta_used=float(theta),
        lambda_estimates=lams,
        R=float(R),
        h=float(numerics.h),
        levels=int(numerics.levels),
        extrapolated_all=ext_all,
        error_indicators=ind_all,
    )
    _validate_threshold(result)
    return WaveguideMode(threshold=result, meshes=meshes, values_per_level=vals)


def _validate_threshold(result: ThresholdResult) -> None:
    # The exact value lies in (pi^2/4, pi^2); discretization bias is upward,
    # so near-straight openings may extrapolate to pi^2 within the error
    # indicator.  Violations beyond the indicator mean broken numerics.
    lam = result.extrapolated
    if not PI2 / 4.0 < lam < PI2 + result.error_indicator:
        raise AnalysisError(
            f"extrapolated lambda1 = {lam:.6f} escapes (pi^2/4, pi^2) by more "
            "than the error indicator; refine the numerics"
        )
    lam1 = result.lambda1_estimates
    if not (np.diff(lam1) <= 1e-10).all():
        raise AnalysisError("per-level estimates are not monotone nonincreasing")


def lambda1_waveguide(
    theta: float, numerics: WaveguideNumerics = WaveguideNumerics()
) -> ThresholdResult:
    """Extrapolated first waveguide eigenvalue (deterministic)."""
    return solve_waveguide_mode(theta, numerics).threshold


def threshold(
    layer: LayerGeometry, numerics: WaveguideNumerics = WaveguideNumerics()
) -> ThresholdResult:
    """Essential-spectrum threshold of the layer: lambda1 at the smallest
    dihedral angle."""
    return lambda1_waveguide(layer.beta_min, numerics)
