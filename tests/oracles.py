"""Reference implementations and test fixtures that the package itself never
calls: a uniform rectangle mesh and an all-active box grid with known
spectra, exact membership and partition oracles for the layer, mesh
conformity and shape checks, the whole waveguide mesh that a half mesh
mirrors, plain node and corner tables of a voxel grid, and the Rayleigh
quotient of a vector on an assembled pencil."""

import math
from typing import Optional

import numpy as np

from polylayer.assembly import DiscreteProblem, _quotient
from polylayer.geometry import LayerGeometry
from polylayer.grid3d import GridError, VoxelGrid, _number_nodes
from polylayer.mesh2d import DIRICHLET, MeshError, TriMesh, _edges, _sides


def rayleigh_quotient(problem: DiscreteProblem, vec: np.ndarray) -> float:
    """(v' K v) / (v' M v) with compensated summation of the products."""
    vec = np.asarray(vec, dtype=float)
    return _quotient(vec, problem.K.full @ vec, problem.M.full @ vec)


def box_grid(extent, h: float, dirichlet_boundary: bool = True) -> VoxelGrid:
    """All-active grid over the box (0, lx) x (0, ly) x (0, lz).

    A test oracle for the Q1 assembly and the eigensolver: every boundary
    node is Dirichlet by default.
    """
    extent = np.asarray(extent, dtype=float)
    n_cells = np.round(extent / h).astype(int)
    if not np.allclose(n_cells * h, extent, atol=1e-12):
        raise GridError("box extents must be integer multiples of h")
    active = np.ones(tuple(int(v) for v in n_cells), dtype=bool)
    node_of_cell, node_ids = _number_nodes(active)
    dirichlet = (node_of_cell < 8)[node_ids >= 0] & dirichlet_boundary
    return VoxelGrid(
        h=float(h),
        origin=np.zeros(3),
        active=active,
        node_ids=node_ids,
        dirichlet=dirichlet,
    )


def outer_distances(layer: LayerGeometry, x) -> np.ndarray:
    """Signed distances n_i . x to all outer face planes; shape (..., n)."""
    x = np.asarray(x, dtype=float)
    return x @ layer.angle.normals.T


def contains(layer: LayerGeometry, x) -> np.ndarray:
    """Vectorized membership oracle for the open layer."""
    d = outer_distances(layer, x)
    return (d.min(axis=-1) > 0.0) & (d.min(axis=-1) < 1.0)


def truncated_layer_contains(layer: LayerGeometry, R: float, pts) -> np.ndarray:
    """Exact membership oracle for the truncated layer (cuts u_j . x <= R)."""
    pts = np.asarray(pts, dtype=float)
    inside = contains(layer, pts)
    cuts = (pts @ layer.angle.rays.T <= R).all(axis=-1)
    return inside & cuts


def classify_partition(layer: LayerGeometry, x, tol: float = 0.0) -> list:
    """Indices j of the partition pieces of ``layer`` claiming the point.

    Piece j lies between the bisector planes j-1 and j; points on a cut
    plane (within ``tol``) may be claimed by two pieces.
    """
    x = np.asarray(x, dtype=float)
    s = layer.partition_normals @ (x - layer.shift)
    n = layer.n
    return [j for j in range(n) if s[(j - 1) % n] >= -tol and s[j] <= tol]


def node_positions(grid: VoxelGrid) -> np.ndarray:
    """Coordinates of the grid's numbered nodes, indexed by node id."""
    idx = np.argwhere(grid.node_ids >= 0)
    ids = grid.node_ids[idx[:, 0], idx[:, 1], idx[:, 2]]
    pos = grid.origin + grid.h * idx
    out = np.empty((grid.num_nodes, 3))
    out[ids] = pos
    return out


def active_cell_corners(grid: VoxelGrid) -> np.ndarray:
    """(n_cells, 8) node ids per active cell, z fastest (kron order), in the
    order of ``VoxelGrid.cell_equations``."""
    return grid._at_corners(grid.node_ids)


def min_angle(mesh: TriMesh) -> float:
    """Smallest interior angle over all triangles (radians)."""
    p = mesh.nodes[mesh.triangles]
    cross = 2.0 * np.abs(mesh.signed_areas())
    angles = []
    for k in range(3):
        a = p[:, (k + 1) % 3] - p[:, k]
        b = p[:, (k + 2) % 3] - p[:, k]
        angles.append(np.arctan2(cross, (a * b).sum(axis=1)))
    return float(np.min(angles))


def boundary_length(mesh: TriMesh, tag: str) -> float:
    """Total length of the boundary edges tagged ``tag``."""
    e = mesh.boundary_edges[mesh.boundary_tags == tag]
    return float(np.linalg.norm(mesh.nodes[e[:, 1]] - mesh.nodes[e[:, 0]], axis=1).sum())


def check_conforming(mesh: TriMesh) -> None:
    """Raise MeshError unless every interior edge is shared by exactly two
    triangles, boundary edges by exactly one, and tagged edges coincide with
    the topological boundary."""
    edges, inverse = _edges(mesh)
    counts = np.bincount(inverse.ravel(), minlength=len(edges))
    if (counts > 2).any():
        raise MeshError("non-conforming: an edge is shared by more than two triangles")
    tagged = np.unique(np.sort(mesh.boundary_edges, axis=1), axis=0)
    if not np.array_equal(edges[counts == 1], tagged):
        raise MeshError("tagged boundary edges do not match the topological boundary")


def _block_quads(ids: np.ndarray) -> np.ndarray:
    """Triangles of the quad block whose (n1+1, n2+1) node ids are ``ids``.

    Every quad splits along the same local diagonal (v00, v11), so the split
    is deterministic and every triangle is positively oriented when the ids
    run along x first and y second.
    """
    v00, v10 = ids[:-1, :-1].ravel(), ids[1:, :-1].ravel()
    v01, v11 = ids[:-1, 1:].ravel(), ids[1:, 1:].ravel()
    return np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)


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
    nodes = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    ids = np.arange(len(nodes)).reshape(nx + 1, ny + 1)
    edges, edge_tags = zip(
        _sides((ids[0], side_tags["left"]), (ids[nx], side_tags["right"])),
        _sides((ids[:, 0], side_tags["bottom"]), (ids[:, ny], side_tags["top"])),
    )
    return TriMesh(
        nodes=nodes,
        triangles=_block_quads(ids),
        boundary_edges=np.concatenate(edges),
        boundary_tags=np.concatenate(edge_tags),
    )


def mirrored(mesh: TriMesh) -> TriMesh:
    """The half mesh together with its reflection y -> -y across the axis.

    The axis nodes are those with y == 0 exactly; the images of the other
    nodes are appended in order, the reflected triangles follow the
    triangles, and every boundary edge off the axis is followed by its
    image.  The axis edges are interior edges of the result and drop out.
    """
    off = np.flatnonzero(mesh.nodes[:, 1] != 0.0)
    image = np.arange(mesh.num_nodes)
    image[off] = mesh.num_nodes + np.arange(len(off))
    keep = (mesh.nodes[mesh.boundary_edges, 1] != 0.0).any(axis=1)
    edges = mesh.boundary_edges[keep]
    return TriMesh(
        nodes=np.vstack([mesh.nodes, mesh.nodes[off] * [1.0, -1.0]]),
        triangles=np.vstack([mesh.triangles, image[mesh.triangles][:, [0, 2, 1]]]),
        boundary_edges=np.stack([edges, image[edges]], axis=1).reshape(-1, 2),
        boundary_tags=np.repeat(mesh.boundary_tags[keep], 2),
    )
