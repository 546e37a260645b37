"""Variational certificates: discrete-spectrum existence via Rayleigh-quotient
upper bounds on inscribed voxel domains, the exponential trial-function
certificate for regular layers, absence experiments, and the critical angle
where the waveguide eigenvalue crosses pi^2/2.

Verdicts are one-sided: NONEMPTY requires an upper bound below the threshold
by more than the combined error indicator; ABSENT_CONSISTENT is explicitly a
non-proof (conforming computations only ever bound eigenvalues from above).

A run fans out at most once, as its last solving step: ``certify_discrete``
solves its threshold and each voxel level as a task of its own, and
``absence_experiment`` the alpha_star bisection beside those.  Every
check that reads no solve runs before the fan-out.  ``alpha_star`` runs
serially: a fan-out of its two bracket ends costs more to start than it
saves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ..assembly import assemble_q1
from ..eigensolve import invariant_ground_state
from ..errors import ABSENT_CONSISTENT, INCONCLUSIVE, NONEMPTY, AnalysisError, ConfigError
from ..fanout import fan_out
from ..geometry import GeometryError, LayerGeometry, build_trihedral, make_layer
from ..grid3d import check_plan, free_node_orbits, voxelize
from ..mesh2d import axis_rule
from .waveguide import (
    PI2,
    WaveguideNumerics,
    lambda1_waveguide,
    solve_waveguide_mode,
    threshold,
)


@dataclass(eq=False)
class Certificate:
    """Outcome of a spectral certificate run.

    ``margin`` is the distance between the evidence and the threshold after
    subtracting nothing: verdicts already account for the combined error
    indicator.  ABSENT_CONSISTENT never claims a proof.
    """

    kind: str  # upper_bound | veps | absence_scan
    threshold_value: float
    threshold_indicator: float
    evidence: dict
    margin: float
    verdict: str
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "threshold": self.threshold_value,
            "threshold_indicator": self.threshold_indicator,
            "evidence": self.evidence,
            "margin": self.margin,
            "verdict": self.verdict,
            "notes": self.notes,
        }


# threshold numerics precise enough for certificate margins at desk scale
THRESHOLD_NUMERICS = WaveguideNumerics(h=0.05, levels=3)


def voxel_upper_bounds(
    layer: LayerGeometry, R: float, h: float, levels: int, seed: int
) -> list:
    """Rayleigh-quotient upper bounds on ``levels`` inscribed voxel grids,
    one ``voxel_level`` record per level, coarsest first.

    The grids approach the stated cell size from above (h * 2^(levels-1),
    ..., 2h, h), all with Dirichlet conditions; the active sets are nested,
    so the per-level bounds are monotone nonincreasing.  The recomputed
    Rayleigh quotient of the first discrete eigenvector is an upper bound
    for lambda_1 of the full layer by extension by zero.
    """
    return [voxel_level(layer, R, h, levels, lev, seed) for lev in range(levels)]


def voxel_level(
    layer: LayerGeometry, R: float, h: float, levels: int, lev: int, seed: int
) -> dict:
    """Level ``lev`` of ``voxel_upper_bounds``, at cell size
    h * 2^(levels-1-lev); every level is cold-started from ``seed`` and reads
    no other, so the levels can be solved in any order or at once.

    The level is solved on the functions invariant under the grid's
    symmetry group.  The Q1 stiffness has no positive off-diagonal entry,
    so by Perron-Frobenius the discrete ground state is simple, positive and
    invariant: the reduced lambda_1 is the full one.  The reduced pencil is
    assembled from one cell per cell orbit, weighted by the orbit's size;
    this is exact, since the Q1 element matrices are invariant under the
    cube's signed axis permutations, so every cell of an orbit adds the same
    entries.  The lifted vector is audited with the full grid's cell-wise
    products.  ``dofs`` counts the full grid's equations, ``sector_dofs``
    the ones solved, and ``group_order`` the symmetries.
    """
    h_lev = h * 2 ** (levels - 1 - lev)
    grid = voxelize(layer, R=R, h=h_lev)
    orbits = free_node_orbits(grid)
    sector = assemble_q1(grid, orbits)
    result = invariant_ground_state(sector, grid, orbits.labels, f"level {lev}", seed)
    return {
        "h": h_lev,
        "upper_bound": float(result.eigenvalues[0]),
        "residual": float(result.residuals[0]),
        "cells": grid.num_active_cells,
        "volume": grid.volume,
        "dofs": len(orbits.labels),
        "sector_dofs": sector.n,
        "group_order": orbits.order,
    }


def _voxel_tasks(layer: LayerGeometry, R: float, h: float, levels: int, seed: int) -> list:
    """One fan-out task per ``voxel_level``, finest first: the finest takes
    longest, so it starts first."""
    return [partial(voxel_level, layer, R, h, levels, lev, seed) for lev in range(levels)][::-1]


def certify_discrete(
    layer: LayerGeometry,
    R: float = 6.0,
    h: float = 0.1,
    levels: int = 2,
    threshold_numerics: WaveguideNumerics = THRESHOLD_NUMERICS,
) -> Certificate:
    """Existence certificate from inscribed-domain Rayleigh quotients.

    The bounds come from ``voxel_level``, each level solved at the same time
    as the threshold and the other levels, from the threshold's seed.
    Verdict NONEMPTY iff the best bound undercuts the threshold by more than
    the combined error indicator.
    INCONCLUSIVE is a valid outcome, not an error.
    """
    check_plan(R, h, levels)  # before any solve, which would run in vain
    tasks = _voxel_tasks(layer, R, h, levels, threshold_numerics.seed)
    tasks.insert(1, partial(threshold, layer, threshold_numerics))  # beside the finest
    finest, thr, *coarser = fan_out(tasks)
    details = [*reversed(coarser), finest]
    best = float(min(d["upper_bound"] for d in details))
    solver_slack = 1e-9 * abs(best)
    combined = thr.error_indicator + solver_slack
    margin = thr.extrapolated - best
    verdict = NONEMPTY if margin > combined else INCONCLUSIVE
    return Certificate(
        kind="upper_bound",
        threshold_value=thr.extrapolated,
        threshold_indicator=thr.error_indicator,
        evidence={
            "upper_bound": best,
            "levels": details,
            "combined_indicator": combined,
        },
        margin=float(margin),
        verdict=verdict,
        notes=[
            "upper bound is the Rayleigh quotient of an admissible "
            "extension-by-zero trial function on an inscribed voxel domain"
        ],
    )


def _regular_layer_angles(layer: LayerGeometry) -> tuple:
    a = layer.angle.vertex_angles
    b = layer.angle.dihedral_angles
    if np.ptp(a) > 1e-9 or np.ptp(b) > 1e-9:
        raise GeometryError("certificate requires a regular polyhedral layer")
    return float(a[0]), float(b[0])


# Radon's 7-point triangle rule, exact for degree 5: weights 9/40 and
# (155 +- sqrt(15))/1200 (they sum to 1), nodes in barycentric coordinates
_TRI_W = np.array(
    [
        0.225,
        0.13239415278850616,
        0.13239415278850616,
        0.13239415278850616,
        0.12593918054482717,
        0.12593918054482717,
        0.12593918054482717,
    ]
)
_TRI_A1, _TRI_B1 = 0.0597158717897698, 0.4701420641051151
_TRI_A2, _TRI_B2 = 0.7974269853530873, 0.1012865073234563
_TRI_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [_TRI_A1, _TRI_B1, _TRI_B1],
        [_TRI_B1, _TRI_A1, _TRI_B1],
        [_TRI_B1, _TRI_B1, _TRI_A1],
        [_TRI_A2, _TRI_B2, _TRI_B2],
        [_TRI_B2, _TRI_A2, _TRI_B2],
        [_TRI_B2, _TRI_B2, _TRI_A2],
    ]
)


def _veps_terms(mesh, v: np.ndarray, alpha: float, beta: float):
    """``terms(eps)``: the three terms of the trial-function energy at one
    epsilon, with the epsilon-independent arrays built once per (mesh, v).

    Coordinates (x, y) live in the cross-section frame anchored at the inner
    vertex, x along one outer face.  T1 conservatively dominates
    eps^2 ||V^eps||^2 including the pocket of the wedge below the inner
    vertex (depth cot(alpha/2) * cot(beta/2) along the wedge axis); T2 is a
    2D quadrature over the half-waveguide, the half mesh y >= 0 ``mesh``;
    T3 is the boundary integral along the symmetry segment gamma_0 from O'
    to O, which the mesh's own axis edges cover (``mesh2d.axis_rule``), with
    the single-counted coefficient cot(alpha/2) sin(beta/2) (verified
    against the 3D wedge energy).
    """
    half = beta / 2.0
    cot_a = 1.0 / math.tan(alpha / 2.0)
    cot_b = 1.0 / math.tan(half)
    L = 1.0 / math.sin(half)
    inner = np.array([L, 0.0])
    d1 = np.array([math.cos(half), math.sin(half)])

    pocket = cot_a * cot_b

    qp = np.einsum("qk,tkd->tqd", _TRI_BARY, mesh.nodes[mesh.triangles])
    vq2 = np.einsum("qk,tk->tq", _TRI_BARY, v[mesh.triangles]) ** 2
    area = np.abs(mesh.signed_areas())
    x_dag = (qp - inner) @ d1
    gamma0 = axis_rule(mesh, v, L)

    def terms(eps: float) -> dict:
        t1 = 0.5 * eps * math.exp(2.0 * eps * pocket)  # ||v||_{L2} = 1 (M-normalized)
        w = np.exp(-2.0 * eps * cot_a * x_dag)
        t2 = 2.0 * eps * cot_a**2 * float(
            ((vq2 * w) @ _TRI_W * area).sum()
        )

        def wfun(x):
            return np.exp(-2.0 * eps * cot_a * (x - L) * math.cos(half))

        t3 = float(-cot_a * math.sin(half) * gamma0(wfun))
        return {"eps": float(eps), "T1": t1, "T2": t2, "T3": t3, "value": t1 + t2 + t3}

    return terms


def veps_plan(layer: LayerGeometry, eps_grid, numerics: WaveguideNumerics) -> tuple:
    """(alpha, beta, eps grid) of a V^eps certificate: the vertex and
    dihedral angle of the regular ``layer`` and ``eps_grid`` (None: the
    default grid), once every eps is found finite and > 0 and ``numerics``
    has at least 3 levels; no solve."""
    alpha, beta = _regular_layer_angles(layer)
    if eps_grid is None:
        eps_grid = np.geomspace(1e-3, 1.0, 13)
    # V^eps is in L^2 only for eps > 0; negated, so that NaN fails it
    bad = [float(e) for e in eps_grid if not 0.0 < e < math.inf]
    if bad:
        raise ConfigError(f"eps must be finite and > 0, got {bad}")
    if numerics.levels < 3:
        raise ConfigError("the 2D eigenfunction needs at least 3 levels")
    return alpha, beta, eps_grid


def veps_certificate(
    layer: LayerGeometry,
    eps_grid=None,
    numerics: WaveguideNumerics = THRESHOLD_NUMERICS,
) -> Certificate:
    """Existence certificate for regular layers via the exponential trial
    function: value(eps) = T1 + T2 + T3 must turn negative for small eps.

    T1 >= eps^2 ||V^eps||^2 is a conservative overestimate, so a negative
    total still certifies a negative true energy.  The quadrature error is
    estimated by re-evaluating the terms on the previous refinement level;
    NONEMPTY requires the best value to be negative beyond that estimate.
    """
    alpha, beta, eps_grid = veps_plan(layer, eps_grid, numerics)
    # one pair: the mode on the half mesh, over which T2 integrates
    mode = solve_waveguide_mode(beta, replace(numerics, num_pairs=1))

    terms = _veps_terms(mode.mesh, mode.values[:, 0], alpha, beta)
    rows = [terms(float(e)) for e in eps_grid]
    values = np.array([r["value"] for r in rows])
    best_idx = int(np.argmin(values))
    best = float(values[best_idx])

    # quadrature error estimated where the verdict is decided: re-evaluate
    # the winning value (and the smallest eps) on the previous mesh level
    coarse = _veps_terms(mode.meshes[-2], mode.values_per_level[-2][:, 0], alpha, beta)
    quad_err = max(
        abs(coarse(float(eps_grid[k]))["value"] - values[k]) for k in {0, best_idx}
    )

    t3_zero = terms(0.0)["T3"]
    small_eps = 1e-4  # continuity check: value(eps) -> T3(0) as eps -> 0
    value_small = terms(small_eps)["value"]
    verdict = NONEMPTY if best < 0.0 and abs(best) > quad_err else INCONCLUSIVE
    thr = mode.threshold
    return Certificate(
        kind="veps",
        threshold_value=thr.extrapolated,
        threshold_indicator=thr.error_indicator,
        evidence={
            "terms": rows,
            "best_value": best,
            "best_eps": float(eps_grid[best_idx]),
            "T3_zero": t3_zero,
            "small_eps": small_eps,
            "value_at_small_eps": value_small,
            "quadrature_error": float(quad_err),
            "alpha": alpha,
            "beta": beta,
        },
        margin=-best,
        verdict=verdict,
        notes=[
            "T1 uses the conservative bound eps/2 * exp(2 eps cot(alpha/2) "
            "cot(beta/2)) * ||v||^2, which dominates eps^2 ||V^eps||^2 for "
            "either reading of the energy display",
            "T3 coefficient is cot(alpha/2) sin(beta/2): single-counted "
            "boundary term, verified against the 3D wedge energy",
        ],
    )


@dataclass(eq=False)
class AlphaStar:
    """Bracketing interval for the angle where lambda_1(omega(alpha)) crosses
    pi^2 / 2."""

    lo: float
    hi: float
    evaluations: list

    @property
    def value(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def to_json(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "value": self.value,
            "evaluations": self.evaluations,
        }


# the bisection's default numerics and bracket; alpha_star lies inside the
# bracket, or ``alpha_star`` raises
STAR_NUMERICS = WaveguideNumerics(h=0.1, levels=3)
STAR_BRACKET = (0.2, 1.4)


def alpha_star(
    tol: float = 5e-3,
    numerics: WaveguideNumerics = STAR_NUMERICS,
    bracket=STAR_BRACKET,
) -> AlphaStar:
    """Bisection for lambda_1(omega(alpha)) = pi^2 / 2 on the monotone curve.

    Every angle is solved in turn, in this process; ``evaluations`` lists lo,
    hi, then the midpoints in bisection order.
    """
    check_star_tol(tol)
    target = PI2 / 2.0
    lo, hi = (float(b) for b in bracket)
    evals = []

    def f(a: float) -> float:
        val = lambda1_waveguide(a, numerics).extrapolated - target
        evals.append({"alpha": a, "lambda1": val + target})
        return val

    if f(lo) >= 0.0 or f(hi) <= 0.0:
        raise AnalysisError("bracket does not straddle pi^2/2; widen it")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return AlphaStar(lo=lo, hi=hi, evaluations=evals)


def absence_experiment(
    alpha: float,
    R: float = 4.0,
    h: float = 1.0 / 6.0,
    levels: int = 2,
    threshold_numerics: WaveguideNumerics = THRESHOLD_NUMERICS,
    star_tol: float = 5e-3,
) -> Certificate:
    """Consistency scan for the no-trapped-waves regime of trihedral layers
    with two right vertex angles and a small third angle.

    Requires alpha < alpha_star - 0.05 (the regime lambda_1(omega(alpha)) <=
    pi^2/2 driving the proof); alpha_star is bisected on ``STAR_NUMERICS``
    with the seed of ``threshold_numerics``.  If no Rayleigh quotient across
    refinements drops below 0.999 * threshold, the verdict is
    ABSENT_CONSISTENT, which is explicitly not a proof of absence.

    The bisection, the threshold and each voxel level are independent and
    solved concurrently, in one fan-out.  An alpha refused by
    ``STAR_BRACKET`` is refused before any solve; one refused only by the
    bisected bracket therefore also pays for the threshold and the bounds,
    and exits with the same code and message.
    """
    # before any solve, which would run in vain
    layer = make_layer(build_trihedral((math.pi / 2, alpha, math.pi / 2)))
    check_plan(R, h, levels)
    check_below_star(alpha)
    check_star_tol(star_tol)
    seed = threshold_numerics.seed
    star, thr, *bounds = fan_out(
        [
            partial(alpha_star, star_tol, replace(STAR_NUMERICS, seed=seed)),
            partial(threshold, layer, threshold_numerics),
            *_voxel_tasks(layer, R, h, levels, seed),
        ]
    )
    check_below_star(alpha, star.lo, f"alpha_star in [{star.lo:.4f}, {star.hi:.4f}]")
    cutoff = 0.999 * thr.extrapolated
    details = [{key: d[key] for key in ("h", "upper_bound", "cells")} for d in reversed(bounds)]
    dipped = any(d["upper_bound"] < cutoff for d in details)
    verdict = NONEMPTY if dipped else ABSENT_CONSISTENT
    margin = min(d["upper_bound"] for d in details) - thr.extrapolated
    return Certificate(
        kind="absence_scan",
        threshold_value=thr.extrapolated,
        threshold_indicator=thr.error_indicator,
        evidence={
            "levels": details,
            "cutoff": cutoff,
            "alpha": alpha,
            "alpha_star_bracket": [star.lo, star.hi],
        },
        margin=float(margin),
        verdict=verdict,
        notes=[
            "ABSENT_CONSISTENT is not a proof: conforming discretizations "
            "produce only upper bounds, never lower bounds"
        ],
    )


def check_star_tol(tol: float) -> None:
    """Refuse a bisection tolerance ``alpha_star`` does not support."""
    if not tol >= 1e-3:  # negated, so that NaN fails it
        raise ConfigError(f"alpha_star tolerance {tol} is not supported: give >= 1e-3")


def check_below_star(alpha: float, lo=STAR_BRACKET[1], what=f"alpha_star < {STAR_BRACKET[1]}"):
    """Refuse an alpha not below ``lo`` - 0.05: the bisected bracket's lower
    end, or by default ``STAR_BRACKET[1]``, above alpha_star, so that an
    alpha refused there needs no bisection."""
    if not alpha < lo - 0.05:
        raise ConfigError(f"alpha = {alpha} is not below alpha_star - 0.05 ({what})")
