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
from itertools import combinations, permutations, product
from typing import Optional

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
    constrained node ids.  ``cut_bc`` records the boundary condition applied
    on the truncation planes.
    """

    h: float
    origin: np.ndarray
    active: np.ndarray
    node_ids: np.ndarray
    dirichlet: np.ndarray
    cut_bc: str
    R: Optional[float] = None
    layer: Optional[LayerGeometry] = None

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
        cells = np.argwhere(self.active)
        out = np.empty((len(cells), 8), dtype=np.int64)
        k = 0
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    out[:, k] = self.node_ids[
                        cells[:, 0] + dx, cells[:, 1] + dy, cells[:, 2] + dz
                    ]
                    k += 1
        return out

    def summary(self) -> dict:
        return {
            "h": self.h,
            "R": self.R,
            "cut_bc": self.cut_bc,
            "active_cells": self.num_active_cells,
            "nodes": self.num_nodes,
            "dirichlet_nodes": int(self.dirichlet.sum()),
            "volume": self.volume,
        }


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
    nx, ny, nz = active.shape
    node_of_cell = np.zeros((nx + 1, ny + 1, nz + 1), dtype=np.int32)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                node_of_cell[dx : nx + dx, dy : ny + dy, dz : nz + dz] += active
    used = node_of_cell > 0
    node_ids = np.full(used.shape, -1, dtype=np.int64)
    node_ids[used] = np.arange(int(used.sum()))
    return node_of_cell, node_ids


def voxelize(
    layer: LayerGeometry, R: float, h: float, cut_bc: str = "dirichlet"
) -> VoxelGrid:
    """Inscribed voxelization of the layer truncated by the cuts u_j . x <= R.

    Activation of a cell requires (a) all corners inside the closed cone,
    (b) one face plane separating the whole cell from the open shifted inner
    cone (conservative single-face test), (c) all corners within every
    truncation cut.  For the Fichera layer with h dividing 1 and integer R
    the active region reproduces the truncated layer exactly.
    """
    if cut_bc not in ("dirichlet", "neumann"):
        raise GridError("cut_bc must be 'dirichlet' or 'neumann'")
    if h > 1.0 / 3.0 + 1e-12:
        raise GridError("h must be <= 1/3 (three cells across the unit wall)")
    if R < 3.0:
        raise GridError("truncation radius R must be >= 3")

    lo, hi = _coordinate_bounds(layer, R)
    origin = np.floor(lo / h - 1.0) * h
    n_cells = np.ceil((hi - origin) / h + 1.0).astype(int)
    nx, ny, nz = (int(v) for v in n_cells)

    xs = origin[0] + h * np.arange(nx + 1)
    ys = origin[1] + h * np.arange(ny + 1)
    zs = origin[2] + h * np.arange(nz + 1)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    pts = np.stack([X, Y, Z], axis=-1)

    normals = layer.angle.normals
    rays = layer.angle.rays
    face_vals = pts @ normals.T  # (nx+1, ny+1, nz+1, nfaces)
    cut_vals = pts @ rays.T

    def cell_reduce(vals, op):
        """Reduce node values over the 8 corners of each cell."""
        acc = None
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    sl = vals[dx : nx + dx, dy : ny + dy, dz : nz + dz]
                    acc = sl if acc is None else op(acc, sl)
        return acc

    cone_min = cell_reduce(face_vals.min(axis=-1), np.minimum)
    face_max = cell_reduce(face_vals, np.maximum)  # per-face max over corners
    cut_max = cell_reduce(cut_vals.max(axis=-1), np.maximum)

    active = (
        (cone_min >= -BOUNDARY_TOL)
        & (face_max <= 1.0 + BOUNDARY_TOL).any(axis=-1)
        & (cut_max <= R + BOUNDARY_TOL)
    )
    if not active.any():
        raise GridError("voxelization produced an empty active set")

    node_of_cell, node_ids = _number_nodes(active)
    used = node_ids >= 0
    boundary = used & (node_of_cell < 8)
    if cut_bc == "neumann":
        on_cut = np.zeros_like(used)
        for j in range(rays.shape[0]):
            on_cut |= np.abs(cut_vals[..., j] - R) <= 1e-9
        interior_wall = (face_vals.min(axis=-1) > 1e-9) & (
            face_vals.min(axis=-1) < 1.0 - 1e-9
        )
        boundary &= ~(on_cut & interior_wall)

    dirichlet = np.zeros(int(used.sum()), dtype=bool)
    dirichlet[node_ids[boundary]] = True

    return VoxelGrid(
        h=float(h),
        origin=origin,
        active=active,
        node_ids=node_ids,
        dirichlet=dirichlet,
        cut_bc=cut_bc,
        R=float(R),
        layer=layer,
    )


def free_node_orbits(grid: VoxelGrid) -> tuple:
    """``(labels, order)``: the orbit of each free equation (numbered in
    order of first appearance) under the grid's symmetry group, and the
    group's order.  The group is the signed axis permutations about the apex
    (lattice point 0) that keep the active cells and the free nodes, read
    from the mask and the Dirichlet flags, never from matrix entries.
    """
    shift = np.rint(grid.origin / grid.h).astype(np.int64)
    cells = np.argwhere(grid.active) + shift  # absolute lattice indices
    nodes = np.argwhere(grid.node_ids >= 0)[~grid.dirichlet] + shift  # equation order
    m = int(np.abs(cells).max()) + 1  # cells, nodes and their images lie in [-m, m]
    is_cell = np.zeros((2 * m + 1,) * 3, dtype=bool)
    is_cell[tuple((cells + m).T)] = True
    eq_at = np.full(is_cell.shape, -1, dtype=np.int64)
    eq_at[tuple((nodes + m).T)] = np.arange(len(nodes))
    box = np.array([cells.min(axis=0), cells.max(axis=0)])
    images = []
    for perm in map(list, permutations(range(3))):
        for signs in product((1, -1), repeat=3):
            flip = np.array(signs) < 0
            if not np.array_equal(np.where(flip, -1 - box[::-1, perm], box[:, perm]), box):
                continue  # the cells' bounding box must map onto itself
            cell_img = np.where(flip, -1 - cells[:, perm], cells[:, perm])  # cell k -> -k-1
            node_img = eq_at[tuple((np.where(flip, -nodes[:, perm], nodes[:, perm]) + m).T)]
            # a one-to-one image inside the set is the whole set
            if is_cell[tuple((cell_img + m).T)].all() and (node_img >= 0).all():
                images.append(node_img)
    # the symmetries form a group, so an orbit is named by its least equation
    labels = np.unique(np.min(images, axis=0), return_inverse=True)[1]
    return labels, len(images)


def box_grid(extent, h: float, dirichlet_boundary: bool = True) -> VoxelGrid:
    """All-active grid over the box (0, lx) x (0, ly) x (0, lz).

    Benchmark helper: every boundary node is Dirichlet by default.
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
        cut_bc="dirichlet",
    )


def truncated_layer_contains(layer: LayerGeometry, R: float, pts) -> np.ndarray:
    """Exact membership oracle for the truncated layer (cuts u_j . x <= R)."""
    pts = np.asarray(pts, dtype=float)
    inside = layer.contains(pts)
    cuts = (pts @ layer.angle.rays.T <= R).all(axis=-1)
    return inside & cuts

