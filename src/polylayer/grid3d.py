"""Conservative inscribed voxelization of truncated 3D polyhedral layers.

A cell enters the active set only if all eight corners lie in the closed
cone, some single face separates the cell from the open shifted inner cone,
and the cell respects the truncation cuts along the edge rays.  The active
region is therefore an inscribed polyhedral subdomain of the truncated
layer: with Dirichlet conditions everywhere, any Rayleigh quotient on it
upper-bounds the first eigenvalue of the full layer by extension by zero.

The per-cell predicate is pure, so the outcome is independent of evaluation
order; grids are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations, product
from typing import NamedTuple

import numpy as np

from .errors import PolylayerError
from .geometry import LayerGeometry

# Corner tests run against the closed cone and the open shifted cone, with a
# one-ulp-scale slack so grid-aligned boundaries (the Fichera case) are kept
# exactly.  Extension by zero stays admissible: active cells lie in the
# closure of the layer and the discrete field vanishes on the active
# region's boundary.
BOUNDARY_TOL = 1e-12


class GridError(PolylayerError, ValueError):
    """Raised for invalid voxelization input or empty active sets."""


@dataclass(eq=False)
class VoxelGrid:
    """Axis-aligned voxel grid with an active-cell mask and node numbering.

    ``active`` has cell shape (nx, ny, nz); nodes live on the (nx+1, ny+1,
    nz+1) lattice ``origin + h * index``.  ``node_ids`` maps lattice nodes of
    active cells to contiguous ids (-1 elsewhere); ``dirichlet`` flags
    constrained node ids.
    """

    h: float
    origin: np.ndarray
    active: np.ndarray
    node_ids: np.ndarray
    dirichlet: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(self.dirichlet.shape[0])

    @property
    def num_active_cells(self) -> int:
        return int(self.active.sum())

    @property
    def volume(self) -> float:
        return self.h**3 * self.num_active_cells

    def node_positions(self) -> np.ndarray:
        """Coordinates of numbered nodes, indexed by node id."""
        idx = np.argwhere(self.node_ids >= 0)
        ids = self.node_ids[idx[:, 0], idx[:, 1], idx[:, 2]]
        pos = self.origin + self.h * idx
        out = np.empty((self.num_nodes, 3))
        out[ids] = pos
        return out

    def active_cell_corners(self) -> np.ndarray:
        """(n_cells, 8) node ids per active cell, z fastest (kron order)."""
        corners = _corner_views(self.node_ids, self.active.shape)
        return np.stack([ids[self.active] for ids in corners], axis=1)


# the corner offsets (dx, dy, dz) of a cell, z fastest (kron order)
_CORNERS = tuple(product((0, 1), repeat=3))


def _corner_views(node_values: np.ndarray, cells: tuple) -> list:
    """One view of the lattice array ``node_values`` per corner in
    ``_CORNERS`` order: entry (i, j, k) of view c is the value at corner c of
    cell (i, j, k), for the ``cells`` = (nx, ny, nz) cells."""
    nx, ny, nz = cells
    return [node_values[dx : nx + dx, dy : ny + dy, dz : nz + dz] for dx, dy, dz in _CORNERS]


def _coordinate_bounds(layer: LayerGeometry, R: float) -> tuple:
    """Tight per-axis bounds of the truncated layer {n_i . x >= 0, u_j . x <= R}.

    A pointed cone cut across each of its edge rays is a bounded polytope, so
    each coordinate takes its extremes at vertices: the points where three
    bounding planes meet and every constraint holds.
    """
    G = np.vstack([-layer.angle.normals, layer.angle.rays])  # G x <= g
    g = np.concatenate([np.zeros(layer.n), np.full(layer.n, R)])
    triples = np.array(list(combinations(range(len(g)), 3)))
    A, b = G[triples], g[triples]
    meet = np.abs(np.linalg.det(A)) > 1e-12  # the three planes meet in a point
    x = np.linalg.solve(A[meet], b[meet][..., None])[..., 0]
    vertices = x[(x @ G.T <= g + 1e-9 * R).all(axis=1)]
    return vertices.min(axis=0), vertices.max(axis=0)


def _number_nodes(active: np.ndarray) -> tuple:
    """Active cells per lattice node, and contiguous ids (C order) of the
    nodes touched by an active cell, -1 elsewhere."""
    node_of_cell = np.zeros(tuple(n + 1 for n in active.shape), dtype=np.int32)
    for corner in _corner_views(node_of_cell, active.shape):
        corner += active
    used = node_of_cell > 0
    node_ids = np.full(used.shape, -1, dtype=np.int64)
    node_ids[used] = np.arange(int(used.sum()))
    return node_of_cell, node_ids


def check_plan(R: float, h: float, levels: int = 1) -> None:
    """Raise GridError unless ``voxelize`` accepts every grid of the cell
    sizes h * 2^(levels-1), ..., 2h, h at truncation R, with levels >= 1."""
    if levels < 1:
        raise GridError(f"levels = {levels}: the voxel bounds need levels >= 1")
    # negated comparisons, so that NaN fails them
    if not 0.0 < h * 2 ** (levels - 1) <= 1.0 / 3.0 + 1e-12:
        raise GridError(
            f"coarsest cell size h * 2^(levels-1) = {h * 2 ** (levels - 1):g}: "
            "h must be > 0 and h must be <= 1/3 (three cells across the unit wall)"
        )
    if not 3.0 <= R < np.inf:
        raise GridError(f"truncation radius R = {R}: R must be >= 3 and finite")


def voxelize(layer: LayerGeometry, R: float, h: float) -> VoxelGrid:
    """Inscribed voxelization of the layer truncated by the cuts u_j . x <= R,
    with Dirichlet conditions on the whole boundary of the active region.

    Activation of a cell requires (a) all corners inside the closed cone,
    (b) one face plane separating the whole cell from the open shifted inner
    cone (conservative single-face test), (c) all corners within every
    truncation cut.  For the Fichera layer with h dividing 1 and integer R
    the active region reproduces the truncated layer exactly.
    """
    check_plan(R, h)

    lo, hi = _coordinate_bounds(layer, R)
    origin = np.floor(lo / h - 1.0) * h
    n_cells = np.ceil((hi - origin) / h + 1.0).astype(int)
    cells = tuple(int(v) for v in n_cells)

    xs, ys, zs = (origin[k] + h * np.arange(cells[k] + 1) for k in range(3))
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    pts = np.stack([X, Y, Z], axis=-1)
    face_vals = pts @ layer.angle.normals.T  # (nx+1, ny+1, nz+1, nfaces)
    cut_vals = pts @ layer.angle.rays.T

    # per cell, reduced over its eight corners
    cone_min = reduce(np.minimum, _corner_views(face_vals.min(axis=-1), cells))
    face_max = reduce(np.maximum, _corner_views(face_vals, cells))  # per face
    cut_max = reduce(np.maximum, _corner_views(cut_vals.max(axis=-1), cells))

    active = (
        (cone_min >= -BOUNDARY_TOL)
        & (face_max <= 1.0 + BOUNDARY_TOL).any(axis=-1)
        & (cut_max <= R + BOUNDARY_TOL)
    )
    if not active.any():
        raise GridError("voxelization produced an empty active set")

    node_of_cell, node_ids = _number_nodes(active)
    used = node_ids >= 0
    dirichlet = np.zeros(int(used.sum()), dtype=bool)
    dirichlet[node_ids[used & (node_of_cell < 8)]] = True
    return VoxelGrid(
        h=float(h), origin=origin, active=active, node_ids=node_ids, dirichlet=dirichlet
    )


class Orbits(NamedTuple):
    """A voxel grid's symmetry orbits (``free_node_orbits``)."""

    labels: np.ndarray  # the orbit of each free equation
    order: int  # the group's order
    cells: np.ndarray  # one active cell per cell orbit, its least index
    sizes: np.ndarray  # the number of cells in each of those orbits


def free_node_orbits(grid: VoxelGrid) -> Orbits:
    """The orbits of the free equations and of the active cells under the
    grid's symmetry group, and the group's order.

    The group is the signed axis permutations about the apex (lattice point
    0) that keep the active cells and the free nodes, read from the mask and
    the Dirichlet flags, never from matrix entries.  Equation orbits are
    numbered in order of first appearance; cells are indexed as the rows of
    ``active_cell_corners``.
    """
    shift = np.rint(grid.origin / grid.h).astype(np.int64)
    cells = np.argwhere(grid.active) + shift  # absolute lattice indices
    nodes = np.argwhere(grid.node_ids >= 0)[~grid.dirichlet] + shift  # equation order
    m = int(np.abs(cells).max()) + 1  # cells, nodes and their images lie in [-m, m]
    cell_at = np.full((2 * m + 1,) * 3, -1, dtype=np.int64)
    cell_at[tuple((cells + m).T)] = np.arange(len(cells))
    eq_at = np.full(cell_at.shape, -1, dtype=np.int64)
    eq_at[tuple((nodes + m).T)] = np.arange(len(nodes))
    box = np.array([cells.min(axis=0), cells.max(axis=0)])
    node_images, cell_images = [], []
    for perm in map(list, permutations(range(3))):
        for signs in product((1, -1), repeat=3):
            flip = np.array(signs) < 0
            if not np.array_equal(np.where(flip, -1 - box[::-1, perm], box[:, perm]), box):
                continue  # the cells' bounding box must map onto itself
            image = np.where(flip, -1 - cells[:, perm], cells[:, perm])  # cell k -> -k-1
            cell_img = cell_at[tuple((image + m).T)]
            node_img = eq_at[tuple((np.where(flip, -nodes[:, perm], nodes[:, perm]) + m).T)]
            # a one-to-one image inside the set is the whole set
            if (cell_img >= 0).all() and (node_img >= 0).all():
                node_images.append(node_img)
                cell_images.append(cell_img)
    # the symmetries form a group, so an orbit is named by its least member
    labels = np.unique(np.min(node_images, axis=0), return_inverse=True)[1]
    reps, sizes = np.unique(np.min(cell_images, axis=0), return_counts=True)
    return Orbits(labels, len(node_images), reps, sizes)


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
    dirichlet = np.zeros(node_ids.size, dtype=bool)
    if dirichlet_boundary:
        dirichlet[node_ids[node_of_cell < 8]] = True
    return VoxelGrid(
        h=float(h),
        origin=np.zeros(3),
        active=active,
        node_ids=node_ids,
        dirichlet=dirichlet,
    )


def truncated_layer_contains(layer: LayerGeometry, R: float, pts) -> np.ndarray:
    """Exact membership oracle for the truncated layer (cuts u_j . x <= R)."""
    pts = np.asarray(pts, dtype=float)
    inside = layer.contains(pts)
    cuts = (pts @ layer.angle.rays.T <= R).all(axis=-1)
    return inside & cuts

