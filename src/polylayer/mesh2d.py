"""Conforming triangulations of truncated L-shaped waveguides.

The waveguide is symmetric about its bisector, the x axis, and no triangle
crosses that axis, so ``mesh_lshape`` meshes only the half y >= 0, in rows
across the strip, each graded to its own width.  Every waveguide solve runs
on it: the whole waveguide's modes are its two mirror sectors.  The nodes on
the axis have y = 0 exactly, so the axis from O' to O is a chain of mesh
edges on every level (``axis_rule``).  Nested refinement keeps the parent
nodes as a prefix of the child nodes.  Boundary edges carry 'dirichlet'
tags on the walls shared with the infinite waveguide and 'neumann' tags on
the end cross-sections and on the half mesh's axis.

Meshes are treated as immutable after construction; what a mesh stores
later is derived data: its edge table (``_edges``), which ``refine`` hands
to the child it builds, and its P1 element data (``assembly``), which a
refined level takes from its parent.
``sample_grid`` reads a P1 field on a tensor grid of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import PolylayerError
from .geometry import GeometryError

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
    parent: Optional["TriMesh"] = None
    _edge_table: Optional[tuple] = field(default=None, repr=False)
    _elements: Optional[tuple] = field(default=None, repr=False)

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    def signed_areas(self) -> np.ndarray:
        return _signed_areas(self.nodes, self.triangles)

    @property
    def total_area(self) -> float:
        return float(self.signed_areas().sum())

    def dirichlet_nodes(self) -> np.ndarray:
        mask = self.boundary_tags == DIRICHLET
        return np.unique(self.boundary_edges[mask])

    def edges(self) -> np.ndarray:
        """Unique node pairs (smaller index first) of all triangle sides."""
        return _edges(self)[0]


def _signed_areas(nodes: np.ndarray, tris: np.ndarray) -> np.ndarray:
    # one coordinate at a time: several times faster than nodes[tris]
    x, y = nodes[:, 0][tris], nodes[:, 1][tris]
    return 0.5 * (
        (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0])
    )


def _edge_keys(pairs: np.ndarray, num_nodes: int) -> np.ndarray:
    """One int64 per node pair (a, b), a <= b, ordered as the pairs are."""
    return pairs[..., 0] * (num_nodes + 1) + pairs[..., 1]


def _edges(mesh: TriMesh) -> tuple:
    """(unique, inverse): the sorted unique node pairs of the triangle sides,
    and for every side (all 0-1 sides, then 1-2, then 2-0) its row there.
    Computed once per mesh, for ``refine`` and ``assembly.assemble_p1``,
    unless ``refine`` made the mesh: it builds the table with it."""
    if mesh._edge_table is None:
        a, b = mesh.triangles.T.ravel(), mesh.triangles[:, [1, 2, 0]].T.ravel()
        sides = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
        keys, inverse = np.unique(_edge_keys(sides, mesh.num_nodes), return_inverse=True)
        mesh._edge_table = np.stack(np.divmod(keys, mesh.num_nodes + 1), axis=1), inverse
    return mesh._edge_table


def _sides(*paths) -> tuple:
    """(edges, tags) along (node-id path, tag) pairs of equal length,
    interleaved: edge k of every path, then edge k + 1 of every path."""
    ids = np.stack([path for path, _ in paths])
    edges = np.stack([ids[:, :-1], ids[:, 1:]], axis=-1).swapaxes(0, 1).reshape(-1, 2)
    return edges, np.tile([tag for _, tag in paths], ids.shape[1] - 1)


def _cells(counts: np.ndarray) -> tuple:
    """``(row, k)`` for k = 0..counts[row] - 1 of every row, rows in order."""
    row = np.repeat(np.arange(len(counts)), counts)
    return row, np.arange(len(row)) - (np.cumsum(counts) - counts)[row]


def check_opening_angle(theta: float) -> None:
    """Refuse a waveguide opening angle outside (0, pi)."""
    if not 0.0 < theta < math.pi:
        raise GeometryError(f"opening angle theta = {theta} not in (0, pi)")


def mesh_lshape(theta: float, R: float, h: float) -> TriMesh:
    """Triangulation of the half y >= 0 of the truncated waveguide with
    size target h.

    The unit-width strip is bent at the opening angle ``theta``; each outlet
    runs a length ``R`` from the interior vertex O, so the whole waveguide
    has the area cot(theta/2) + 2R and the half one half of it.  The
    bisector is the +x axis, the outer vertex O' is the origin and outlet 1,
    the one meshed, points along (cos(theta/2), sin(theta/2)).  The axis
    edges from O' to O are tagged 'neumann'.

    In wall coordinates (t along the outer wall from O', s toward the inner
    wall) the half is 0 <= s <= min(1, t / cot(theta/2)): n_k rows up to
    t = cot (where the axis y = 0 bounds them) and n_a rows over the outlet.
    Row i spans the width w_i = W_i / n_k in m_i = ceil(w_i / h) equal
    cells, so the node count grows with the area, (cot + 2R) / h^2, not
    with cot^2.  One rule joins consecutive rows; on two equal rows it
    splits every quad along the (v00, v11) diagonal.  Node
    count and tags are deterministic functions of (theta, R, h).
    """
    check_opening_angle(theta)
    if not 0.0 < R < math.inf:
        raise GeometryError(f"outlet length must be positive and finite, got R = {R}")
    if h > 0.5:
        raise MeshError("h must be <= 0.5 (at least two elements across the width)")
    if not h > 0.0:
        raise MeshError("h must be positive")
    theta, R = float(theta), float(R)
    half = theta / 2.0
    cot = 1.0 / math.tan(half)

    n_k = int(math.ceil(max(1.0, cot) / h - 1e-9))
    n_a = max(1, int(math.ceil(R / h - 1e-9)))
    i = np.arange(n_k + n_a + 1)
    W = np.minimum(i, n_k)
    m = np.ceil(W / (n_k * h) - 1e-9).astype(np.int64)  # row 0 is O' alone
    t = np.where(i <= n_k, cot * (i / n_k), cot + (i - n_k) * R / n_a)
    start = np.cumsum(m + 1) - (m + 1)  # node id of each row's s = 0 end

    row, k = _cells(m + 1)
    s = (k * W[row]) / (n_k * np.maximum(m[row], 1))
    c, sn = math.cos(half), math.sin(half)
    nodes = np.stack([t[row] * c + s * sn, t[row] * sn - s * c], axis=1)
    axis = start[: n_k + 1] + m[: n_k + 1]  # rows 0..n_k end on the axis
    nodes[axis, 1] = 0.0

    # strip j joins rows j and j + 1: their cells are taken in order of their
    # far ends ((k + 1) W_j / (n_k m_j) for row j's cell k, compared as
    # integers), row j + 1's first on a tie.  Each cell makes one triangle
    # with the other row's node reached so far; its slot counts the cells
    # taken before it
    first = np.cumsum(m[:-1] + m[1:]) - (m[:-1] + m[1:])
    tris = np.empty((first[-1] + m[-2] + m[-1], 3), dtype=np.int64)
    j, k = _cells(m[:-1])  # row j's cell k, from its node k to k + 1
    q = np.minimum(m[j + 1], (k + 1) * W[j] * m[j + 1] // (W[j + 1] * m[j]))
    tris[first[j] + k + q] = np.stack(
        [start[j] + k, start[j] + k + 1, start[j + 1] + q], axis=1
    )
    j, k = _cells(m[1:])  # row j + 1's cell k
    p = ((k + 1) * W[j + 1] * m[j] - 1) // np.maximum(W[j] * m[j + 1], 1)
    p = np.clip(p, 0, m[j])
    tris[first[j] + k + p] = np.stack(
        [start[j] + p, start[j + 1] + k + 1, start[j + 1] + k], axis=1
    )

    wall, inner = start, start[n_k:] + m[n_k:]
    end = start[-1] + np.arange(m[-1] + 1)
    edges, edge_tags = zip(*(
        _sides((path, tag))
        for path, tag in ((wall, DIRICHLET), (inner, DIRICHLET), (end, NEUMANN), (axis, NEUMANN))
    ))
    mesh = TriMesh(
        nodes=nodes,
        triangles=tris,
        boundary_edges=np.concatenate(edges),
        boundary_tags=np.concatenate(edge_tags),
    )
    area = 0.5 * (cot + 2.0 * R)
    if abs(mesh.total_area - area) > 1e-10 * max(1.0, area):
        raise MeshError("triangle areas do not sum to (cot(theta/2) + 2R) / 2")
    return mesh


# ``refine``'s child 4t + j of triangle t: its vertex i, and its side i (from
# vertex i to i + 1), are the half-scale images of the parent's vertex and
# side CHILD_VERTICES[j][i]
CHILD_VERTICES = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1], [2, 0, 1]])


def refine(mesh: TriMesh) -> TriMesh:
    """Uniform 4-split by edge midpoints; parent nodes keep their indices.

    The children of parent triangle (v0, v1, v2), with m01 the midpoint of
    v0 v1 and so on, are (v0, m01, m20), (v1, m12, m01), (v2, m20, m12) and
    (m01, m12, m20).  Each is positively oriented as its parent is: a
    corner child is the parent scaled by 1/2 about its corner, and the
    middle child is the parent's point reflection, scaled by 1/2.  Child
    vertex i is the image of parent vertex ``CHILD_VERTICES[j][i]``:
    (0, 1, 2), (1, 2, 0) and (2, 0, 1) for the corners, and (2, 0, 1) for
    the middle child.  The midpoint of parent edge e (``_edges`` order) is
    node ``num_nodes + e``.

    The child's edge table is built here, not by ``_edges``: the two halves
    of every parent edge and the three edges inside every parent triangle,
    all distinct, sorted once.
    """
    tris = mesh.triangles
    edges_unique, inverse = _edges(mesh)
    n, num_edges = mesh.num_nodes, len(edges_unique)
    mid_ids = n + np.arange(num_edges)
    mid_coords = 0.5 * (mesh.nodes[edges_unique[:, 0]] + mesh.nodes[edges_unique[:, 1]])

    e01, e12, e20 = inverse.reshape(3, mesh.num_triangles)
    m01, m12, m20 = mid_ids[e01], mid_ids[e12], mid_ids[e20]
    v0, v1, v2 = tris.T
    # four children per parent, consecutive: one per corner, then the middle
    children = np.stack(
        [v0, m01, m20, v1, m12, m01, v2, m20, m12, m01, m12, m20], axis=1
    ).reshape(-1, 3)

    lookup = np.searchsorted(
        _edge_keys(edges_unique, n), _edge_keys(np.sort(mesh.boundary_edges, axis=1), n)
    )
    a, b = mesh.boundary_edges.T
    edges = np.stack([a, mid_ids[lookup], mid_ids[lookup], b], axis=1).reshape(-1, 2)

    # the child's edges: row 2e + k is the half of parent edge e at its end
    # k, (edges_unique[e, k], m_e); row 2E + 3t + s joins the midpoints of
    # parent t's sides s and s + 1
    mids = np.stack([m01, m12, m20], axis=1)
    ahead = mids[:, [1, 2, 0]]
    pairs = np.concatenate([
        np.column_stack([edges_unique.ravel(), np.repeat(mid_ids, 2)]),
        np.column_stack([np.minimum(mids, ahead).ravel(), np.maximum(mids, ahead).ravel()]),
    ])
    order = np.argsort(_edge_keys(pairs, n + num_edges))
    row = np.empty_like(order)
    row[order] = np.arange(len(order))

    def half(e, v, w):  # the half at v of the parent edge e from v to w
        return 2 * e + (v > w)

    inner = 2 * num_edges + 3 * np.arange(mesh.num_triangles)
    sides = np.array([  # [child side][child j][t], child sides 0-1, 1-2, 2-0
        [half(e01, v0, v1), half(e12, v1, v2), half(e20, v2, v0), inner],
        [inner + 2, inner, inner + 1, inner + 1],
        [half(e20, v0, v2), half(e01, v1, v0), half(e12, v2, v1), inner + 2],
    ])

    # np.take: several times faster than pairs[order] on the rows
    table = np.take(pairs, order, axis=0), row[sides.transpose(0, 2, 1).ravel()]
    return TriMesh(
        nodes=np.vstack([mesh.nodes, mid_coords]),
        triangles=children,
        boundary_edges=edges,
        boundary_tags=np.repeat(mesh.boundary_tags, 2),
        parent=mesh,
        _edge_table=table,
    )


def prolong(mesh: TriMesh, nodal: np.ndarray) -> np.ndarray:
    """The P1 field ``nodal`` (nodes along axis 0) on ``refine(mesh)``:
    parent nodes keep their values, and each midpoint takes the mean of
    its edge's, in the order ``refine`` numbers them."""
    a, b = mesh.edges().T
    return np.concatenate([nodal, 0.5 * (nodal[a] + nodal[b])])


def _box(grid: np.ndarray, corners: np.ndarray, pad: float) -> tuple:
    """(first, count) of the ascending ``grid`` values in [min - pad, max + pad]
    of each row of ``corners`` (the chained np.minimum beats .min(axis=1) 10x)."""
    lo = np.minimum(np.minimum(corners[:, 0], corners[:, 1]), corners[:, 2])
    hi = np.maximum(np.maximum(corners[:, 0], corners[:, 1]), corners[:, 2])
    first = np.searchsorted(grid, lo - pad)
    return first, np.searchsorted(grid, hi + pad, side="right") - first


def sample_grid(mesh: TriMesh, nodal_values: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """P1 interpolation on the tensor grid of the ascending ``xs`` and
    ``ys``; returns (values, inside), both of shape (len(xs), len(ys)).

    Every triangle is tested against the grid points in its bounding box,
    padded by 1e-9 of the coordinate scale, in one vectorized pass.  A point
    is inside a triangle if its barycentric coordinates are all >= -1e-12,
    and takes the lowest-index triangle it is inside.  Points outside the
    mesh get value 0 and inside=False.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    pad = 1e-9 * np.abs(mesh.nodes).max()
    i0, nx = _box(xs, mesh.nodes[:, 0][mesh.triangles], pad)
    j0, ny = _box(ys, mesh.nodes[:, 1][mesh.triangles], pad)
    # one (triangle, grid point) pair per point of each box, triangles ascending
    tri, k = _cells(nx * ny)
    i, j = i0[tri] + k // ny[tri], j0[tri] + k % ny[tri]

    verts = mesh.triangles[tri]
    p = mesh.nodes[verts]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    det = 2.0 * _signed_areas(mesh.nodes, verts)
    rx, ry = xs[i] - p[:, 0, 0], ys[j] - p[:, 0, 1]
    l1 = d2[:, 1] / det * rx - d2[:, 0] / det * ry
    l2 = d1[:, 0] / det * ry - d1[:, 1] / det * rx
    bary = np.stack([1.0 - l1 - l2, l1, l2], axis=-1)
    hit = np.flatnonzero((bary >= -1e-12).all(axis=1))
    # a point's first hit is its lowest-index triangle
    hit = hit[np.unique(i[hit] * len(ys) + j[hit], return_index=True)[1]]

    values = np.zeros((len(xs), len(ys)))
    inside = np.zeros(values.shape, dtype=bool)
    values[i[hit], j[hit]] = np.einsum(
        "ij,ij->i", bary[hit], np.asarray(nodal_values, dtype=float)[verts[hit]]
    )
    inside[i[hit], j[hit]] = True
    return values, inside


def axis_rule(mesh: TriMesh, nodal_values: np.ndarray, length: float) -> Callable:
    """``integrate(weight=None)``: the integral of u(x, 0)^2 * weight(x)
    over 0 <= x <= length, with the weight-independent part (Gauss points,
    u^2 there) computed once; ``weight`` acts elementwise on an array of x.

    The segment is read off the mesh edges on the axis y = 0 that lie in
    [0, length].  u is linear on each, so a 4-point Gauss rule, exact for
    u^2 times a cubic, takes u from the edge's two nodal values.  Raises
    MeshError unless those edges chain from 0 to ``length`` (to 1e-12
    relative), so that the whole segment is integrated.
    """
    slack = 1e-12 * length
    a, b = mesh.edges().T
    (xa, ya), (xb, yb) = mesh.nodes[a].T, mesh.nodes[b].T
    lo, hi = np.minimum(xa, xb), np.maximum(xa, xb)
    on = (ya == 0.0) & (yb == 0.0) & (lo >= -slack) & (hi <= length + slack)
    a, b, lo, hi = (v[on][np.argsort(lo[on])] for v in (a, b, lo, hi))
    gaps = np.append(lo, length) - np.append(0.0, hi)
    if not (np.abs(gaps) <= slack).all():
        raise MeshError(f"the mesh edges on y = 0 do not cover 0 <= x <= {length}")

    gauss_x, gauss_w = np.polynomial.legendre.leggauss(4)
    t = 0.5 * (gauss_x + 1.0)  # the Gauss points on [0, 1], from a to b
    xa, xb = mesh.nodes[a, 0], mesh.nodes[b, 0]
    ua, ub = nodal_values[a], nodal_values[b]
    x = xa[:, None] + (xb - xa)[:, None] * t
    u2 = (ua[:, None] + (ub - ua)[:, None] * t) ** 2
    scale = 0.5 * (hi - lo)  # per edge

    def integrate(weight: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> float:
        f = u2 if weight is None else u2 * np.asarray(weight(x))
        return float(scale @ (f @ gauss_w))

    return integrate
