"""Structured conforming triangulations of truncated L-shaped waveguides.

The hexagonal domain is covered by three mapped quad blocks: the corner kite
(O', foot, O, foot) and the two outlet rectangles.  Quads are split into
triangles with a single global diagonal rule, so nested refinement keeps the
parent nodes as a prefix of the child nodes.  Boundary edges carry
'dirichlet' tags on the walls shared with the infinite waveguide and
'neumann' tags on the two end cross-sections.

Meshes are treated as immutable after construction; evaluation and
quadrature are read-only and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import PolylayerError
from .geometry import LShapeProfile

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


class MeshError(PolylayerError, ValueError):
    """Raised for invalid meshing input or broken mesh structure."""


@dataclass(eq=False)
class TriMesh:
    """Conforming triangle mesh with tagged boundary edges.

    nodes: (N, 2) coordinates; triangles: (T, 3) node indices, positively
    oriented; boundary_edges: (E, 2) node pairs with per-edge tags in
    {'dirichlet', 'neumann'}.  ``parent`` points to the coarser mesh this one
    refines (node indices of the parent are a prefix of this mesh's).
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray
    h: float
    theta: Optional[float] = None
    outlet_length: Optional[float] = None
    parent: Optional["TriMesh"] = None
    quality_min_angle: Optional[float] = None  # reported at build time
    _locator: Optional["_TriangleLocator"] = field(default=None, repr=False)

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    def signed_areas(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    @property
    def total_area(self) -> float:
        return float(self.signed_areas().sum())

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles (radians)."""
        p = self.nodes[self.triangles]
        angles = []
        for k in range(3):
            a = p[:, (k + 1) % 3] - p[:, k]
            b = p[:, (k + 2) % 3] - p[:, k]
            cross = np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
            dot = (a * b).sum(axis=1)
            angles.append(np.arctan2(cross, dot))
        return float(np.min(angles))

    def dirichlet_nodes(self) -> np.ndarray:
        mask = self.boundary_tags == DIRICHLET
        return np.unique(self.boundary_edges[mask])

    def boundary_length(self, tag: str) -> float:
        mask = self.boundary_tags == tag
        e = self.boundary_edges[mask]
        return float(
            np.linalg.norm(self.nodes[e[:, 1]] - self.nodes[e[:, 0]], axis=1).sum()
        )

    def locator(self) -> "_TriangleLocator":
        if self._locator is None:
            self._locator = _TriangleLocator(self)
        return self._locator


def _edge_key(a: int, b: int) -> tuple:
    return (a, b) if a < b else (b, a)


def check_conforming(mesh: TriMesh) -> None:
    """Raise MeshError unless every interior edge is shared by exactly two
    triangles, boundary edges by exactly one, and tagged edges coincide with
    the topological boundary."""
    counts: dict[tuple, int] = {}
    for tri in mesh.triangles:
        for k in range(3):
            key = _edge_key(int(tri[k]), int(tri[(k + 1) % 3]))
            counts[key] = counts.get(key, 0) + 1
    if any(c > 2 for c in counts.values()):
        raise MeshError("non-conforming: an edge is shared by more than two triangles")
    boundary = {k for k, c in counts.items() if c == 1}
    tagged = {_edge_key(int(a), int(b)) for a, b in mesh.boundary_edges}
    if boundary != tagged:
        raise MeshError("tagged boundary edges do not match the topological boundary")


def _block_quads(node_id, n1: int, n2: int) -> list:
    """Triangles for an (n1 x n2)-quad block; node_id(i, j) gives global ids.

    Every quad splits along the same local diagonal (v00, v11), which keeps
    the split deterministic and aligned with the kite symmetry axis.
    """
    tris = []
    for i in range(n1):
        for j in range(n2):
            v00 = node_id(i, j)
            v10 = node_id(i + 1, j)
            v01 = node_id(i, j + 1)
            v11 = node_id(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return tris


def mesh_lshape(profile: LShapeProfile, h: float) -> TriMesh:
    """Structured triangulation of the truncated waveguide with size target h.

    The kite subdivision count is graded by cot(theta/2) so that sharp
    openings do not produce oversized elements; the cross-width count matches
    it so the block interfaces conform.  Node count and tags are
    deterministic functions of (theta, R, h).
    """
    if h > 0.5:
        raise MeshError("h must be <= 0.5 (at least two elements across the width)")
    if h <= 0.0:
        raise MeshError("h must be positive")
    theta = profile.theta
    R = profile.outlet_length
    half = theta / 2.0
    cot = 1.0 / math.tan(half)

    n_c = max(2, int(math.ceil(max(1.0, cot) / h - 1e-9)))
    n_a = max(1, int(math.ceil(R / h - 1e-9)))

    Op = np.zeros(2)
    O = profile.inner_vertex
    f1, f2 = profile.feet
    d1 = np.array([math.cos(half), math.sin(half)])
    d2 = np.array([math.cos(half), -math.sin(half)])

    nodes: list[np.ndarray] = []

    def kite_id(i: int, j: int) -> int:
        return i * (n_c + 1) + j

    for i in range(n_c + 1):
        xi = i / n_c
        for j in range(n_c + 1):
            eta = j / n_c
            nodes.append(
                Op * ((1 - xi) * (1 - eta))
                + f1 * (xi * (1 - eta))
                + O * (xi * eta)
                + f2 * ((1 - xi) * eta)
            )

    next_id = len(nodes)
    rect1_ids = np.empty((n_a + 1, n_c + 1), dtype=np.int64)
    rect1_ids[0, :] = [kite_id(n_c, k) for k in range(n_c + 1)]
    w1 = O - f1
    for a in range(1, n_a + 1):
        for k in range(n_c + 1):
            nodes.append(f1 + (a * R / n_a) * d1 + (k / n_c) * w1)
            rect1_ids[a, k] = next_id
            next_id += 1

    rect2_ids = np.empty((n_a + 1, n_c + 1), dtype=np.int64)
    rect2_ids[0, :] = [kite_id(k, n_c) for k in range(n_c + 1)]
    w2 = O - f2
    for a in range(1, n_a + 1):
        for k in range(n_c + 1):
            nodes.append(f2 + (a * R / n_a) * d2 + (k / n_c) * w2)
            rect2_ids[a, k] = next_id
            next_id += 1

    tris = _block_quads(kite_id, n_c, n_c)
    tris += _block_quads(lambda a, k: rect1_ids[a, k], n_a, n_c)
    tris += _block_quads(lambda a, k: rect2_ids[a, k], n_a, n_c)

    edges = []
    tags = []
    for i in range(n_c):  # outer walls of the kite
        edges.append((kite_id(i, 0), kite_id(i + 1, 0)))
        tags.append(DIRICHLET)
        edges.append((kite_id(0, i), kite_id(0, i + 1)))
        tags.append(DIRICHLET)
    for ids in (rect1_ids, rect2_ids):
        for a in range(n_a):  # outlet walls
            edges.append((ids[a, 0], ids[a + 1, 0]))
            tags.append(DIRICHLET)
            edges.append((ids[a, n_c], ids[a + 1, n_c]))
            tags.append(DIRICHLET)
        for k in range(n_c):  # end cross-section
            edges.append((ids[n_a, k], ids[n_a, k + 1]))
            tags.append(NEUMANN)

    mesh = TriMesh(
        nodes=np.asarray(nodes, dtype=float),
        triangles=_orient(np.asarray(tris, dtype=np.int64), np.asarray(nodes)),
        boundary_edges=np.asarray(edges, dtype=np.int64),
        boundary_tags=np.asarray(tags),
        h=float(h),
        theta=float(theta),
        outlet_length=float(R),
    )
    if abs(mesh.total_area - profile.area) > 1e-10 * max(1.0, profile.area):
        raise MeshError("triangle areas do not sum to the profile area")
    # uniform refinement splits triangles into similar ones, so this bound is
    # inherited by the whole nested family (theta-dependent, never silent)
    mesh.quality_min_angle = mesh.min_angle()
    return mesh


def mesh_rectangle(
    lx: float,
    ly: float,
    h: float,
    tags: Optional[dict] = None,
) -> TriMesh:
    """Uniform right-triangle mesh of (0, lx) x (0, ly).

    ``tags`` maps sides 'left', 'right', 'bottom', 'top' to 'dirichlet' or
    'neumann'; all sides default to 'dirichlet'.
    """
    if h <= 0.0:
        raise MeshError("h must be positive")
    side_tags = {"left": DIRICHLET, "right": DIRICHLET, "bottom": DIRICHLET, "top": DIRICHLET}
    if tags:
        unknown = set(tags) - set(side_tags)
        if unknown:
            raise MeshError(f"unknown rectangle sides: {sorted(unknown)}")
        side_tags.update(tags)
    nx = max(1, int(math.ceil(lx / h - 1e-9)))
    ny = max(1, int(math.ceil(ly / h - 1e-9)))
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    nodes = np.array([[x, y] for x in xs for y in ys])

    def nid(i, j):
        return i * (ny + 1) + j

    tris = _block_quads(nid, nx, ny)
    edges, tags_out = [], []
    for j in range(ny):
        edges.append((nid(0, j), nid(0, j + 1)))
        tags_out.append(side_tags["left"])
        edges.append((nid(nx, j), nid(nx, j + 1)))
        tags_out.append(side_tags["right"])
    for i in range(nx):
        edges.append((nid(i, 0), nid(i + 1, 0)))
        tags_out.append(side_tags["bottom"])
        edges.append((nid(i, ny), nid(i + 1, ny)))
        tags_out.append(side_tags["top"])
    return TriMesh(
        nodes=nodes,
        triangles=_orient(np.asarray(tris, dtype=np.int64), nodes),
        boundary_edges=np.asarray(edges, dtype=np.int64),
        boundary_tags=np.asarray(tags_out),
        h=float(h),
    )


def _orient(tris: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    p = nodes[tris]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    neg = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) < 0.0
    tris = tris.copy()
    tris[neg] = tris[neg][:, [0, 2, 1]]
    return tris


def refine(mesh: TriMesh) -> TriMesh:
    """Uniform 4-split by edge midpoints; parent nodes keep their indices."""
    tris = mesh.triangles
    raw = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    raw.sort(axis=1)
    edges_unique, inverse = np.unique(raw, axis=0, return_inverse=True)
    mid_ids = mesh.num_nodes + np.arange(len(edges_unique))
    mid_coords = 0.5 * (mesh.nodes[edges_unique[:, 0]] + mesh.nodes[edges_unique[:, 1]])

    n_tri = mesh.num_triangles
    m01 = mid_ids[inverse[:n_tri]]
    m12 = mid_ids[inverse[n_tri : 2 * n_tri]]
    m20 = mid_ids[inverse[2 * n_tri :]]
    v0, v1, v2 = tris[:, 0], tris[:, 1], tris[:, 2]
    children = np.empty((4 * n_tri, 3), dtype=np.int64)
    children[0::4] = np.stack([v0, m01, m20], axis=1)
    children[1::4] = np.stack([v1, m12, m01], axis=1)
    children[2::4] = np.stack([v2, m20, m12], axis=1)
    children[3::4] = np.stack([m01, m12, m20], axis=1)

    be = np.sort(mesh.boundary_edges, axis=1)
    lookup = np.searchsorted(
        edges_unique[:, 0] * (mesh.num_nodes + 1) + edges_unique[:, 1],
        be[:, 0] * (mesh.num_nodes + 1) + be[:, 1],
    )
    bmid = mid_ids[lookup]
    edges = np.empty((2 * len(be), 2), dtype=np.int64)
    edges[0::2] = np.stack([mesh.boundary_edges[:, 0], bmid], axis=1)
    edges[1::2] = np.stack([bmid, mesh.boundary_edges[:, 1]], axis=1)
    tags = np.repeat(mesh.boundary_tags, 2)

    all_nodes = np.vstack([mesh.nodes, mid_coords])
    return TriMesh(
        nodes=all_nodes,
        triangles=_orient(children, all_nodes),
        boundary_edges=edges,
        boundary_tags=tags,
        h=mesh.h / 2.0,
        theta=mesh.theta,
        outlet_length=mesh.outlet_length,
        parent=mesh,
        quality_min_angle=mesh.quality_min_angle,
    )


class _TriangleLocator:
    """Uniform-bin point locator over triangle bounding boxes."""

    def __init__(self, mesh: TriMesh, tol: float = 1e-12):
        self.mesh = mesh
        self.tol = tol
        pts = mesh.nodes[mesh.triangles]
        lo = pts.min(axis=(0, 1))
        hi = pts.max(axis=(0, 1))
        span = np.maximum(hi - lo, 1e-30)
        n_bins = max(1, int(math.sqrt(mesh.num_triangles)))
        self.lo = lo
        self.cell = span / n_bins
        self.n_bins = n_bins
        buckets: dict[tuple, list] = {}
        tlo = np.floor((pts.min(axis=1) - lo) / self.cell).astype(int)
        thi = np.floor((pts.max(axis=1) - lo) / self.cell).astype(int)
        tlo = np.clip(tlo, 0, n_bins - 1)
        thi = np.clip(thi, 0, n_bins - 1)
        for t in range(mesh.num_triangles):
            for i in range(tlo[t, 0], thi[t, 0] + 1):
                for j in range(tlo[t, 1], thi[t, 1] + 1):
                    buckets.setdefault((i, j), []).append(t)
        self.buckets = {k: np.asarray(v, dtype=np.int64) for k, v in buckets.items()}

        p = mesh.nodes[mesh.triangles]
        self._p0 = p[:, 0]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        self._inv = np.stack(
            [d2[:, 1] / det, -d2[:, 0] / det, -d1[:, 1] / det, d1[:, 0] / det], axis=1
        )

    def _bary(self, tri_idx: np.ndarray, pts: np.ndarray) -> np.ndarray:
        rel = pts - self._p0[tri_idx]
        inv = self._inv[tri_idx]
        l1 = inv[:, 0] * rel[:, 0] + inv[:, 1] * rel[:, 1]
        l2 = inv[:, 2] * rel[:, 0] + inv[:, 3] * rel[:, 1]
        return np.stack([1.0 - l1 - l2, l1, l2], axis=1)

    def locate(self, pts: np.ndarray) -> tuple:
        """Triangle index and barycentric coordinates per point (-1 outside)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = len(pts)
        out_tri = np.full(n, -1, dtype=np.int64)
        out_bary = np.zeros((n, 3))
        cells = np.floor((pts - self.lo) / self.cell).astype(int)
        cells = np.clip(cells, 0, self.n_bins - 1)
        order = np.lexsort((cells[:, 1], cells[:, 0]))
        sorted_cells = cells[order]
        boundaries = np.flatnonzero(
            np.any(np.diff(sorted_cells, axis=0) != 0, axis=1)
        )
        starts = np.concatenate([[0], boundaries + 1])
        ends = np.concatenate([boundaries + 1, [n]])
        for s, e in zip(starts, ends):
            key = (int(sorted_cells[s, 0]), int(sorted_cells[s, 1]))
            cand = self.buckets.get(key)
            if cand is None:
                continue
            idx = order[s:e]
            block = pts[idx]
            for t in cand:
                todo = out_tri[idx] < 0
                if not todo.any():
                    break
                sub = idx[todo]
                bary = self._bary(np.full(len(sub), t), block[todo])
                ok = (bary >= -self.tol).all(axis=1)
                hit = sub[ok]
                out_tri[hit] = t
                out_bary[hit] = bary[ok]
        return out_tri, out_bary


def evaluate(mesh: TriMesh, nodal_values: np.ndarray, point) -> float:
    """P1 interpolation of a nodal field at one interior point."""
    tri, bary = mesh.locator().locate(np.asarray(point, dtype=float))
    if tri[0] < 0:
        raise MeshError(f"point {point} is outside the meshed region")
    verts = mesh.triangles[tri[0]]
    return float(np.dot(bary[0], np.asarray(nodal_values)[verts]))


def evaluate_batch(mesh: TriMesh, nodal_values: np.ndarray, points: np.ndarray):
    """Vectorized P1 interpolation; returns (values, inside_mask).

    Points outside the mesh get value 0 and inside=False.
    """
    points = np.asarray(points, dtype=float)
    values = np.zeros(len(points))
    inside = np.zeros(len(points), dtype=bool)
    vals = np.asarray(nodal_values, dtype=float)
    chunk = 200_000
    for s in range(0, len(points), chunk):
        block = points[s : s + chunk]
        tri, bary = mesh.locator().locate(block)
        ok = tri >= 0
        verts = mesh.triangles[tri[ok]]
        values[s : s + chunk][ok] = np.einsum("ij,ij->i", bary[ok], vals[verts])
        inside[s : s + chunk] = ok
    return values, inside


def segment_quadrature(
    mesh: TriMesh,
    nodal_values: np.ndarray,
    p0,
    p1,
    weight: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    order: int = 4,
) -> float:
    """Integral of u(gamma(tau))^2 * weight(tau) along the segment p0 -> p1.

    tau is arclength measured from p0.  The segment is split at its crossings
    with mesh edges and a Gauss-Legendre rule of the given order is applied on
    each piece (order >= 3 required).  Raises if any piece leaves the mesh.
    """
    if order < 3:
        raise MeshError("segment quadrature needs a Gauss rule of order >= 3")
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    seg = p1 - p0
    length = float(np.linalg.norm(seg))
    if length == 0.0:
        return 0.0

    ts = {0.0, 1.0}
    edges = _all_edges(mesh)
    ea = mesh.nodes[edges[:, 0]]
    eb = mesh.nodes[edges[:, 1]]
    d = eb - ea
    denom = seg[0] * (-d[:, 1]) - seg[1] * (-d[:, 0])
    rhs = ea - p0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rhs[:, 0] * (-d[:, 1]) - rhs[:, 1] * (-d[:, 0])) / denom
        s = (seg[0] * rhs[:, 1] - seg[1] * rhs[:, 0]) / denom
    ok = (np.abs(denom) > 1e-14) & (t >= -1e-12) & (t <= 1 + 1e-12)
    ok &= (s >= -1e-12) & (s <= 1 + 1e-12)
    ts.update(np.clip(t[ok], 0.0, 1.0).tolist())
    # collinear edges: project their endpoints onto the segment
    col = np.abs(denom) <= 1e-14
    if col.any():
        for q in np.vstack([ea[col], eb[col]]):
            tq = float(np.dot(q - p0, seg) / (length * length))
            if -1e-12 <= tq <= 1 + 1e-12:
                perp = q - (p0 + np.clip(tq, 0, 1) * seg)
                if np.linalg.norm(perp) <= 1e-12:
                    ts.add(float(np.clip(tq, 0.0, 1.0)))

    cuts = np.array(sorted(ts))
    keep = np.concatenate([[True], np.diff(cuts) > 1e-13])
    cuts = cuts[keep]

    gauss_x, gauss_w = np.polynomial.legendre.leggauss(order)
    vals = np.asarray(nodal_values, dtype=float)
    total = 0.0
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        tm = 0.5 * (t0 + t1)
        mid = p0 + tm * seg
        tri, _ = mesh.locator().locate(mid)
        if tri[0] < 0:
            raise MeshError("segment exits the meshed region")
        tq = 0.5 * (t1 - t0) * gauss_x + 0.5 * (t0 + t1)
        pts = p0[None, :] + tq[:, None] * seg[None, :]
        tris, bary = mesh.locator().locate(pts)
        if (tris < 0).any():
            raise MeshError("segment exits the meshed region")
        u = np.einsum("ij,ij->i", bary, vals[mesh.triangles[tris]])
        w = np.ones_like(u) if weight is None else np.asarray(weight(tq * length))
        total += 0.5 * (t1 - t0) * length * float(np.dot(gauss_w, u * u * w))
    return float(total)


def _all_edges(mesh: TriMesh) -> np.ndarray:
    e = np.vstack(
        [
            mesh.triangles[:, [0, 1]],
            mesh.triangles[:, [1, 2]],
            mesh.triangles[:, [2, 0]],
        ]
    )
    e.sort(axis=1)
    return np.unique(e, axis=0)


def dump_mesh(mesh: TriMesh, path) -> None:
    """Line-oriented text dump: header, node table, triangle table, edge table."""
    with open(path, "w") as f:
        f.write("# polylayer trimesh\n")
        f.write(
            f"# theta = {mesh.theta}  R = {mesh.outlet_length}  h = {mesh.h}\n"
        )
        f.write(f"nodes {mesh.num_nodes}\n")
        for x, y in mesh.nodes:
            f.write(f"{x!r} {y!r}\n")
        f.write(f"triangles {mesh.num_triangles}\n")
        for a, b, c in mesh.triangles:
            f.write(f"{a} {b} {c}\n")
        f.write(f"edges {len(mesh.boundary_edges)}\n")
        for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
            f.write(f"{a} {b} {tag}\n")
