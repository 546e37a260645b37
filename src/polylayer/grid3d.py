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
from functools import cached_property, reduce
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

    @cached_property
    def equations(self) -> np.ndarray:
        """The equation of each lattice node, -1 on Dirichlet and unused
        nodes: free nodes are numbered in node order, which is C order.
        Built once and shared, so read-only."""
        index = np.int32 if self.node_ids.size < 2**31 else np.int64
        eq = np.full(self.node_ids.shape, -1, dtype=index)
        eq.flat[np.flatnonzero(self.node_ids >= 0)[~self.dirichlet]] = np.arange(
            self.num_nodes - int(self.dirichlet.sum())
        )
        eq.flags.writeable = False
        return eq

    @cached_property
    def cell_equations(self) -> np.ndarray:
        """(n_cells, 8) equations per active cell (-1 on a Dirichlet
        corner), cells in C order, corners z fastest (kron order); built
        once, for the assembly and the cell-wise products; read-only."""
        cells = self._at_corners(self.equations)
        cells.flags.writeable = False
        return cells

    def _at_corners(self, lattice: np.ndarray) -> np.ndarray:
        """(n_cells, 8) values of the node lattice array ``lattice`` at the
        corners of each active cell, cells in C order: a cell's corners lie
        at fixed offsets of its first corner's flat index."""
        first = np.zeros(lattice.shape, dtype=bool)
        first[:-1, :-1, :-1] = self.active
        _, sy, sz = lattice.shape
        offsets = [(dx * sy + dy) * sz + dz for dx, dy, dz in _CORNERS]
        return lattice.ravel()[np.flatnonzero(first)[:, None] + offsets]


# the corner offsets (dx, dy, dz) of a cell, z fastest (kron order)
_CORNERS = tuple(product((0, 1), repeat=3))


def _over_corners(op, lattice: np.ndarray) -> np.ndarray:
    """The ufunc ``op`` (``np.minimum`` or ``np.maximum``) reduced over the
    eight corners of each cell of the node lattice array ``lattice``: one
    pass per axis, since both are associative and exact."""
    lattice = op(lattice[:-1], lattice[1:])
    lattice = op(lattice[:, :-1], lattice[:, 1:])
    return op(lattice[:, :, :-1], lattice[:, :, 1:])


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
    padded = np.zeros(tuple(n + 2 for n in active.shape), dtype=np.int8)
    padded[1:-1, 1:-1, 1:-1] = active
    node_of_cell = padded[:-1] + padded[1:]  # summed over the cells at a node
    node_of_cell = node_of_cell[:, :-1] + node_of_cell[:, 1:]
    node_of_cell = node_of_cell[:, :, :-1] + node_of_cell[:, :, 1:]
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

    nodes = tuple(n + 1 for n in cells)
    pts = np.empty((*nodes, 3))
    pts[..., 0] = (origin[0] + h * np.arange(nodes[0]))[:, None, None]
    pts[..., 1] = (origin[1] + h * np.arange(nodes[1]))[:, None]
    pts[..., 2] = origin[2] + h * np.arange(nodes[2])
    face_vals = pts @ layer.angle.normals.T  # (nx+1, ny+1, nz+1, nfaces)
    cut_vals = pts @ layer.angle.rays.T
    faces = [face_vals[..., f] for f in range(layer.n)]
    cuts = [cut_vals[..., f] for f in range(layer.n)]

    # per cell, reduced over its eight corners, and over the faces or cuts
    # with one exact ufunc pass each
    cone_min = _over_corners(np.minimum, reduce(np.minimum, faces))
    one_face = reduce(
        np.logical_or, [_over_corners(np.maximum, f) <= 1.0 + BOUNDARY_TOL for f in faces]
    )
    cut_max = _over_corners(np.maximum, reduce(np.maximum, cuts))

    active = (cone_min >= -BOUNDARY_TOL) & one_face & (cut_max <= R + BOUNDARY_TOL)
    if not active.any():
        raise GridError("voxelization produced an empty active set")

    node_of_cell, node_ids = _number_nodes(active)
    dirichlet = (node_of_cell < 8)[node_ids >= 0]
    return VoxelGrid(
        h=float(h), origin=origin, active=active, node_ids=node_ids, dirichlet=dirichlet
    )


class Orbits(NamedTuple):
    """A voxel grid's symmetry orbits (``free_node_orbits``)."""

    labels: np.ndarray  # the orbit of each free equation
    order: int  # the group's order
    cells: np.ndarray  # one active cell per cell orbit, its least index
    sizes: np.ndarray  # the number of cells in each of those orbits


def _flat(index: list, strides, at: int) -> np.ndarray:
    """The flat lattice indices ``at + sum(index[a] * strides[a])``."""
    x, y, z = index
    return x * strides[0] + y * strides[1] + z * strides[2] + at


def free_node_orbits(grid: VoxelGrid) -> Orbits:
    """The orbits of the free equations and of the active cells under the
    grid's symmetry group, and the group's order.

    The group is the signed axis permutations about the apex (lattice point
    0) that keep the active cells and the free nodes, read from the mask and
    the Dirichlet flags, never from matrix entries.  Equation orbits are
    numbered in order of first appearance; cells are indexed as the rows of
    ``VoxelGrid.cell_equations``.

    A candidate must first map the cells' bounding box [lo, hi] onto itself.
    Then it maps every cell into that box and every node of a cell into
    [lo, hi + 1], since a flipped axis takes cell k to -k - 1 and its nodes
    k and k + 1 to -k and -k - 1.  Both boxes lie in the grid's node
    lattice, so the images are looked up there, by flat index: a cell by
    its first corner in a table of cell indices, a node in
    ``VoxelGrid.equations``.
    """
    shift = np.rint(grid.origin / grid.h).astype(int).tolist()  # lattice point 0 is the apex
    eq_at = grid.equations
    _, sy, sz = eq_at.shape
    strides = (sy * sz, sz, 1)
    index = np.int32 if 8 * eq_at.size < 2**31 else np.int64  # holds every partial sum
    cells = [k.astype(index) for k in np.nonzero(grid.active)]
    nodes = [k.astype(index) for k in np.nonzero(eq_at >= 0)]  # in equation order
    cell_at = np.full(eq_at.size, -1, dtype=index)  # by first corner
    cell_at[_flat(cells, strides, 0)] = np.arange(len(cells[0]))
    eq_at = eq_at.ravel()
    lo = [int(k.min()) + d for k, d in zip(cells, shift)]
    hi = [int(k.max()) + d for k, d in zip(cells, shift)]
    least_eq, least_cell = np.arange(len(nodes[0])), np.arange(len(cells[0]))
    order = 0
    # axis a of an image is axis perm[a] of its preimage, negated where flip[a]
    for perm, flip in product(permutations(range(3)), product((False, True), repeat=3)):
        box = [(-1 - hi[p], -1 - lo[p]) if f else (lo[p], hi[p]) for p, f in zip(perm, flip)]
        if box != list(zip(lo, hi)):
            continue  # the cells' bounding box must map onto itself
        # index a of the image of node k is sign[a] (k[perm[a]] + shift[perm[a]])
        # - shift[a], less one for a cell on a flipped axis
        sign = [-1 if f else 1 for f in flip]
        coef = [g * s for g, s in zip(sign, strides)]
        at = sum(s * (g * shift[p] - d) for s, g, p, d in zip(strides, sign, perm, shift))
        flipped = sum(s for s, f in zip(strides, flip) if f)
        cell_img = cell_at[_flat([cells[p] for p in perm], coef, at - flipped)]
        node_img = eq_at[_flat([nodes[p] for p in perm], coef, at)]
        # a one-to-one image inside the set is the whole set
        if cell_img.min(initial=0) >= 0 and node_img.min(initial=0) >= 0:
            order += 1
            np.minimum(least_eq, node_img, out=least_eq)
            np.minimum(least_cell, cell_img, out=least_cell)
    # the symmetries form a group, so an orbit is named by its least member
    first = least_eq == np.arange(len(least_eq))
    reps = np.flatnonzero(least_cell == np.arange(len(least_cell)))
    return Orbits((np.cumsum(first) - 1)[least_eq], order, reps, np.bincount(least_cell)[reps])
