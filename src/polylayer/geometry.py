"""Exact geometry of polyhedral angles and unit-width layers.

All angles are in radians.  Degree conversion happens only at the CLI
boundary.  Every object here is immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PolylayerError

TWO_PI = 2.0 * math.pi

# Feasibility tolerance for the inscribed-ball residual: distinguishes exact
# symmetric constructions from perturbed ones at double precision.
INSCRIBED_BALL_TOL = 1e-8


class GeometryError(PolylayerError, ValueError):
    """Raised for infeasible or out-of-scope geometric input."""


def _unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise GeometryError("zero vector cannot be normalized")
    return v / nrm


def vector_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between two vectors via atan2 (stable for tiny and near-pi angles)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return math.atan2(np.linalg.norm(np.cross(u, v)), float(np.dot(u, v)))


def trihedral_dihedrals_lawcos(alphas) -> np.ndarray:
    """Dihedral angles of a trihedral angle from its vertex angles.

    Spherical law of cosines: the dihedral at edge j is the spherical-triangle
    angle at vertex j, whose adjacent sides are alpha_j and alpha_{j-1} and
    whose opposite side is alpha_{j+1}.
    """
    a = np.asarray(alphas, dtype=float)
    if a.shape != (3,):
        raise GeometryError("law-of-cosines oracle is for trihedral angles only")
    betas = np.empty(3)
    for j in range(3):
        adj1, adj2, opp = a[j], a[(j - 1) % 3], a[(j + 1) % 3]
        c = (math.cos(opp) - math.cos(adj1) * math.cos(adj2)) / (
            math.sin(adj1) * math.sin(adj2)
        )
        betas[j] = math.acos(min(1.0, max(-1.0, c)))
    return betas


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PolyhedralAngle:
    """A solid convex polyhedral angle with n >= 3 faces.

    ``rays[j]`` is the unit direction of edge j; face j is spanned by rays j
    and j+1 (indices mod n) and carries the inward unit normal ``normals[j]``.
    ``vertex_angles[j]`` is the planar angle of face j; ``dihedral_angles[j]``
    is the inner dihedral angle along edge j.
    """

    rays: np.ndarray
    normals: np.ndarray
    vertex_angles: np.ndarray
    dihedral_angles: np.ndarray

    @property
    def n(self) -> int:
        return self.rays.shape[0]

    @property
    def beta_min(self) -> float:
        return float(self.dihedral_angles.min())

    def to_report(self) -> dict:
        return {
            "n": self.n,
            "rays": self.rays.tolist(),
            "normals": self.normals.tolist(),
            "vertex_angles": self.vertex_angles.tolist(),
            "dihedral_angles": self.dihedral_angles.tolist(),
        }


def from_rays(rays) -> PolyhedralAngle:
    """Build a PolyhedralAngle from edge ray directions (cyclic order).

    Validates unit length, convexity (every ray on the inner side of every
    face plane) and solidity (an interior direction with strictly positive
    dot product against every inward normal).
    """
    rays = np.asarray(rays, dtype=float)
    if rays.ndim != 2 or rays.shape[1] != 3 or rays.shape[0] < 3:
        raise GeometryError("need at least 3 rays in R^3")
    n = rays.shape[0]
    rays = np.array([_unit(r) for r in rays])

    interior = _unit(rays.sum(axis=0))
    normals = np.empty_like(rays)
    for j in range(n):
        nj = np.cross(rays[j], rays[(j + 1) % n])
        nrm = np.linalg.norm(nj)
        if nrm < 1e-14:
            raise GeometryError(f"rays {j} and {(j + 1) % n} are collinear")
        nj = nj / nrm
        if np.dot(nj, interior) < 0.0:
            nj = -nj
        normals[j] = nj

    dots = normals @ rays.T
    if dots.min() < -1e-12:
        i, k = np.unravel_index(np.argmin(dots), dots.shape)
        raise GeometryError(
            f"not a convex polyhedral angle: ray {k} lies outside face {i}"
        )
    if (normals @ interior).min() <= 1e-12:
        raise GeometryError("degenerate (non-solid) polyhedral angle")

    vertex_angles = np.array(
        [vector_angle(rays[j], rays[(j + 1) % n]) for j in range(n)]
    )
    dihedral_angles = np.array(
        [math.pi - vector_angle(normals[j - 1], normals[j]) for j in range(n)]
    )
    if np.any(dihedral_angles <= 0.0) or np.any(dihedral_angles >= math.pi):
        raise GeometryError("dihedral angles must lie in (0, pi)")

    if n == 3:
        ref = trihedral_dihedrals_lawcos(vertex_angles)
        if np.max(np.abs(ref - dihedral_angles)) > 1e-10:
            raise GeometryError("dihedral angles fail the spherical-law cross-check")

    return PolyhedralAngle(
        rays=_readonly(rays),
        normals=_readonly(normals),
        vertex_angles=_readonly(vertex_angles),
        dihedral_angles=_readonly(dihedral_angles),
    )


def build_trihedral(alphas) -> PolyhedralAngle:
    """Trihedral angle realizing the given vertex angles (a1, a2, a3).

    a1 is the angle between rays 1 and 2, a2 between rays 2 and 3, a3 between
    rays 3 and 1.  Rejects infeasible spherical triangles, naming the violated
    inequality.
    """
    a = np.asarray(alphas, dtype=float)
    if a.shape != (3,):
        raise GeometryError("build_trihedral needs exactly 3 vertex angles")
    for j, aj in enumerate(a):
        if not 0.0 < aj < math.pi:
            raise GeometryError(f"vertex angle alpha_{j + 1} = {aj} not in (0, pi)")
    for j in range(3):
        if a[j] >= a[(j + 1) % 3] + a[(j + 2) % 3]:
            raise GeometryError(
                "infeasible spherical triangle: "
                f"alpha_{j + 1} >= alpha_{(j + 1) % 3 + 1} + alpha_{(j + 2) % 3 + 1}"
            )
    if a.sum() >= TWO_PI:
        raise GeometryError(
            "infeasible spherical triangle: alpha_1 + alpha_2 + alpha_3 >= 2*pi"
        )

    a1, a2, a3 = (float(x) for x in a)
    u1 = np.array([1.0, 0.0, 0.0])
    u2 = np.array([math.cos(a1), math.sin(a1), 0.0])
    x = math.cos(a3)
    y = (math.cos(a2) - math.cos(a3) * math.cos(a1)) / math.sin(a1)
    z2 = 1.0 - x * x - y * y
    if z2 <= 1e-14:
        raise GeometryError("infeasible spherical triangle: degenerate third ray")
    u3 = np.array([x, y, math.sqrt(z2)])
    return from_rays([u1, u2, u3])


def build_regular(n: int, alpha: float) -> PolyhedralAngle:
    """Regular polyhedral angle: n equal vertex angles alpha about a common axis.

    Feasible iff cos(alpha) > cos(2*pi/n), i.e. alpha < 2*pi/n.
    """
    if n < 3:
        raise GeometryError("regular polyhedral angle needs n >= 3 faces")
    if not 0.0 < alpha < math.pi:
        raise GeometryError(f"vertex angle alpha = {alpha} not in (0, pi)")
    c = math.cos(TWO_PI / n)
    if math.cos(alpha) <= c + 1e-14:
        raise GeometryError(
            f"infeasible regular angle: alpha must satisfy alpha < 2*pi/n = {TWO_PI / n}"
        )
    cos_phi = math.sqrt((math.cos(alpha) - c) / (1.0 - c))
    sin_phi = math.sqrt(1.0 - cos_phi * cos_phi)
    js = np.arange(n)
    rays = np.stack(
        [
            sin_phi * np.cos(TWO_PI * js / n),
            sin_phi * np.sin(TWO_PI * js / n),
            np.full(n, cos_phi),
        ],
        axis=1,
    )
    angle = from_rays(rays)
    if np.ptp(angle.dihedral_angles) > 1e-10:
        raise GeometryError("regular construction produced unequal dihedral angles")
    return angle


def fichera_angle() -> PolyhedralAngle:
    """The coordinate octant: trihedral angle with three right vertex angles."""
    return build_trihedral((math.pi / 2, math.pi / 2, math.pi / 2))


@dataclass(frozen=True)
class LayerGeometry:
    """Unit-width layer over a polyhedral angle satisfying the inscribed-ball
    condition: a shift t with n_i . t = 1 for every inward face normal.

    Membership: x is inside the layer iff n_i . x > 0 for all i and
    min_i n_i . x < 1.  Partition planes pass through the vertex-angle
    bisectors of the inner boundary (anchored at the shifted vertex t),
    perpendicular to the face planes.
    """

    angle: PolyhedralAngle
    shift: np.ndarray
    beta_min: float
    partition_normals: np.ndarray
    inscribed_ball_residual: float

    @property
    def n(self) -> int:
        return self.angle.n

    def to_report(self) -> dict:
        rep = self.angle.to_report()
        rep.update(
            {
                "shift": self.shift.tolist(),
                "beta_min": self.beta_min,
                "inscribed_ball_residual": self.inscribed_ball_residual,
                "partition_normals": self.partition_normals.tolist(),
            }
        )
        return rep


def make_layer(angle: PolyhedralAngle) -> LayerGeometry:
    """Unit-width layer over ``angle``; rejects non-inscribed-ball angles.

    The shift t solves n_i . t = 1 (least squares for n > 3); a residual above
    1e-8 means the inner boundary is not a translate of the outer one, which
    is out of scope.
    """
    A = angle.normals
    rhs = np.ones(angle.n)
    t, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    residual = float(np.max(np.abs(A @ t - rhs)))
    if residual > INSCRIBED_BALL_TOL:
        raise GeometryError(
            f"not inscribed-ball (residual {residual:.3e}); out of scope"
        )

    n = angle.n
    rays = angle.rays
    normals_m = np.empty_like(A)
    for j in range(n):
        b = _unit(rays[j] + rays[(j + 1) % n])
        m = _unit(np.cross(b, angle.normals[j]))
        if np.dot(m, rays[(j + 1) % n]) < 0.0:
            m = -m
        normals_m[j] = m

    return LayerGeometry(
        angle=angle,
        shift=_readonly(t),
        beta_min=angle.beta_min,
        partition_normals=_readonly(normals_m),
        inscribed_ball_residual=residual,
    )
