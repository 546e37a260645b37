"""First eigenvalues of truncated L-shaped waveguides and layer thresholds.

The mixed problem on the truncated waveguide (Dirichlet walls, Neumann end
cross-sections) is solved on a chain of nested refinements and Richardson-
extrapolated assuming O(h^2); the error indicator is the difference of the
last two extrapolants.  The essential-spectrum threshold of a polyhedral
layer is the first eigenvalue of the waveguide at the smallest dihedral
angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from ..assembly import assemble_p1
from ..eigensolve import SolverConfig, invariant_ground_state, smallest_eigenpairs
from ..errors import AnalysisError, ConfigError
from ..extrapolate import richardson
from ..fanout import fan_out
from ..geometry import GeometryError, LayerGeometry, lshape_profile
from ..mesh2d import TriMesh, free_node_orbits, mesh_lshape, refine

PI2 = math.pi**2

R_CAP = 12.0  # longest outlet the automatic truncation rule selects


@dataclass(frozen=True)
class WaveguideNumerics:
    """Discretization knobs shared by the waveguide-based operations."""

    h: float = 0.1
    levels: int = 3
    R: Optional[float] = None  # None: auto-select from the threshold rule
    num_pairs: int = 1
    tol: float = 1e-8
    seed: int = 0


@dataclass(eq=False)
class ThresholdResult:
    """Extrapolated first eigenvalue of the waveguide at ``theta_used``.

    ``lambda_estimates`` has one row per refinement level (columns are
    eigenvalue indices); the extrapolated value must land inside
    (pi^2/4, pi^2) and the per-level estimates decrease (nested meshes).
    """

    theta_used: float
    lambda_estimates: np.ndarray
    extrapolated: float
    error_indicator: float
    R: float
    h: float
    levels: int
    extrapolated_all: np.ndarray

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
    """Finest-level eigenpairs plus the extrapolation record."""

    threshold: ThresholdResult
    mesh: TriMesh
    values: np.ndarray  # nodal eigenfunctions, columns, M-normalized
    eigenvalues: np.ndarray  # finest-level eigenvalues
    meshes: list
    values_per_level: list


def _solve_chain(theta, R, h, levels, num_pairs, tol, seed):
    """Eigenvalues, meshes and nodal vectors of the nested levels.

    A single pair is solved on the mirror-invariant functions
    (``mesh2d.free_node_orbits``), about half the equations.  Perron-
    Frobenius does not apply here, since the P1 stiffness can have positive
    off-diagonal entries (+3.05 at theta = 0.3, h = 0.25); inclusion does.
    No triangle crosses the axis, so the invariant functions are the P1
    space of the half mesh with a natural (Neumann) axis, and the
    antisymmetric ones are that of the same half mesh with a Dirichlet
    axis, a subspace of it.  The smallest antisymmetric eigenvalue is
    therefore no smaller than the smallest invariant one, and lambda_1 lies
    in the invariant sector.  The lifted vector is audited on the full mesh.
    """
    profile = lshape_profile(theta, R)
    mesh = mesh_lshape(profile, h=h)
    lams = []
    meshes = []
    vals_all = []
    config = SolverConfig(num_pairs=num_pairs, tol=tol, seed=seed)
    for lev in range(levels):
        problem = assemble_p1(mesh)
        at = f"level {lev} (theta={theta})"
        if num_pairs == 1:
            labels, _ = free_node_orbits(mesh)
            result = invariant_ground_state(problem, labels, "mesh", at, tol, seed)
        else:
            result = smallest_eigenpairs(problem, config)
            if not result.all_converged:
                raise AnalysisError(f"eigensolver did not converge at {at}")
        lams.append(result.eigenvalues)
        meshes.append(mesh)
        nodal = np.zeros((mesh.num_nodes, num_pairs))
        nodal[problem.free_nodes] = result.eigenvectors
        vals_all.append(nodal)
        if lev + 1 < levels:
            mesh = refine(mesh)
    return np.array(lams), meshes, vals_all


def auto_outlet_length(theta: float, numerics: WaveguideNumerics) -> float:
    """Outlet length from the truncation rule R >= 4 / sqrt(pi^2 - lambda1).

    A coarse solve estimates lambda1; the rule is capped at ``R_CAP`` since
    near-straight waveguides (lambda1 -> pi^2) would otherwise demand
    unbounded outlets while their truncation error is already negligible
    against the spectral gap.
    """
    base = max(4.0, numerics.R or 0.0)
    lams, _, _ = _solve_chain(
        theta, base, max(numerics.h, 0.2), 2, 1, numerics.tol, numerics.seed
    )
    lam_coarse, _, _ = richardson(lams[:, 0])
    gap = PI2 - lam_coarse
    if gap <= 1e-6:
        return R_CAP
    rule = 4.0 / math.sqrt(gap)
    return float(min(max(base, rule), R_CAP))


def solve_waveguide_mode(
    theta: float, numerics: WaveguideNumerics = WaveguideNumerics()
) -> WaveguideMode:
    """Solve the truncated waveguide across nested refinements.

    Returns the Richardson-extrapolated eigenvalues together with the
    finest-level eigenfunctions (M-normalized nodal fields).
    """
    if not 0.0 < theta < math.pi:
        raise GeometryError(f"opening angle theta = {theta} not in (0, pi)")
    if numerics.levels < 2:
        raise ConfigError("extrapolation needs at least two refinement levels")
    R = numerics.R if numerics.R is not None else auto_outlet_length(theta, numerics)
    lams, meshes, vals = _solve_chain(
        theta,
        R,
        numerics.h,
        numerics.levels,
        numerics.num_pairs,
        numerics.tol,
        numerics.seed,
    )
    ext_all = np.empty(numerics.num_pairs)
    ind_all = np.empty(numerics.num_pairs)
    for j in range(numerics.num_pairs):
        ext_all[j], ind_all[j], _ = richardson(lams[:, j])
    result = ThresholdResult(
        theta_used=float(theta),
        lambda_estimates=lams,
        extrapolated=float(ext_all[0]),
        error_indicator=float(ind_all[0]),
        R=float(R),
        h=float(numerics.h),
        levels=int(numerics.levels),
        extrapolated_all=ext_all,
    )
    _validate_threshold(result)
    return WaveguideMode(
        threshold=result,
        mesh=meshes[-1],
        values=vals[-1],
        eigenvalues=lams[-1],
        meshes=meshes,
        values_per_level=vals,
    )


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


# the package's only result memo; scans, thresholds and the alpha_star
# bisection share it.  ``prefetch_lambda1`` fills it, solving its misses
# concurrently; ``lambda1_waveguide`` reads it.
_WAVEGUIDE_CACHE: dict = {}


def _cache_key(theta: float, numerics: WaveguideNumerics) -> tuple:
    return (round(float(theta), 14), numerics)


def _solved_threshold(theta: float, numerics: WaveguideNumerics) -> ThresholdResult:
    return solve_waveguide_mode(theta, numerics).threshold


def prefetch_lambda1(pairs, alongside=()) -> list:
    """Put ``lambda1_waveguide(theta, numerics)`` of every (theta, numerics)
    pair in the memo, and return the results of the ``alongside`` thunks.

    The pairs the memo lacks are solved at the same time as each other and
    as the thunks (``fanout.fan_out``); each solve runs the code a single
    ``lambda1_waveguide`` call runs, so the memo's contents do not depend on
    the CPU count.  The stored arrays are read-only.
    """
    misses: dict = {}
    for theta, numerics in pairs:
        key = _cache_key(theta, numerics)
        if key not in _WAVEGUIDE_CACHE:
            misses.setdefault(key, partial(_solved_threshold, theta, numerics))
    results = fan_out([*misses.values(), *alongside])
    for key, hit in zip(misses, results):
        hit.lambda_estimates.flags.writeable = False
        hit.extrapolated_all.flags.writeable = False
        _WAVEGUIDE_CACHE[key] = hit
    return results[len(misses) :]


def lambda1_waveguide(
    theta: float, numerics: WaveguideNumerics = WaveguideNumerics()
) -> ThresholdResult:
    """Extrapolated first waveguide eigenvalue (cached, deterministic).

    Every caller of one key shares the cached result, so its arrays are
    read-only.  Callers with several keys at hand pass them to
    ``prefetch_lambda1`` first, so that the misses are solved concurrently.
    """
    prefetch_lambda1([(theta, numerics)])
    return _WAVEGUIDE_CACHE[_cache_key(theta, numerics)]


def threshold(
    layer: LayerGeometry, numerics: WaveguideNumerics = WaveguideNumerics()
) -> ThresholdResult:
    """Essential-spectrum threshold of the layer: lambda1 at the smallest
    dihedral angle."""
    return lambda1_waveguide(layer.beta_min, numerics)
