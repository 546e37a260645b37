"""Finite-element assembly: P1 on triangles, trilinear Q1 on voxel cells.

Element matrices are closed-form (no quadrature knob).  Dirichlet nodes are
eliminated as the entries are gathered: each upper-triangle entry (row <=
col) goes to its pair of free equations, and an entry on a Dirichlet node
drops out, which keeps the reduced stiffness positive definite.  One
builder lays stiffness and mass out as full CSR matrices on one shared
pattern, from their diagonals and their sums on the unique pairs i < j:
each off-diagonal sum is stored at (i, j) and at (j, i), so symmetry is
exact by construction, and K - sigma M is one array expression on the
stored values.  P1 sums per edge and per node; only Q1, whose cells
repeat pairs, sorts its entries to sum them.  A refined triangle mesh takes
its element data from its parent.

Sums run in a fixed order of the element entries, so the matrices are
bit-identical across runs regardless of thread counts used by the
underlying BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import PolylayerError
from .grid3d import GridError, Orbits, VoxelGrid
from .mesh2d import CHILD_VERTICES, TriMesh, _edges


class AssemblyError(PolylayerError, ValueError):
    """Raised for degenerate elements or empty problems."""


@dataclass(eq=False)
class SparseSymmetric:
    """Symmetric sparse matrix in full CSR: (i, j) and (j, i) hold one sum."""

    full: sp.csr_matrix

    @property
    def upper(self) -> sp.csr_matrix:
        """The stored entries with row <= col, copied out (the benchmark's
        tracer counts them)."""
        return sp.triu(self.full, format="csr")


@dataclass(eq=False)
class DiscreteProblem:
    """Reduced SPD pencil (K, M) with the node <-> equation bookkeeping.

    ``free_nodes[eq]`` is the mesh/grid node behind equation ``eq``.  K and
    M share one ``indptr``/``indices``.
    """

    K: SparseSymmetric
    M: SparseSymmetric
    free_nodes: np.ndarray

    @property
    def n(self) -> int:
        return self.K.full.shape[0]


def _summed(n: int, rows, cols, k_vals, m_vals) -> tuple:
    """``_pencil``'s arguments after ``n`` from upper triplets (rows <= cols)
    that repeat pairs, the values summed per pair in triplet order.  Every
    equation has a diagonal triplet."""
    keys = rows * n + cols
    # stable: the sorted runs of the input (one per local entry) merge in
    # linear passes
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.r_[True, keys[1:] != keys[:-1]]
    slot = np.empty_like(order)
    slot[order] = np.cumsum(first) - 1
    keys = keys[first]
    k = np.bincount(slot, k_vals, len(keys))
    m = np.bincount(slot, m_vals, len(keys))
    rows, cols = np.divmod(keys, n)
    off = rows != cols
    return k[~off], m[~off], rows[off], cols[off], k[off], m[off]


def _pencil(n: int, k_diagonal, m_diagonal, rows, cols, k, m) -> tuple:
    """(K, M) of order n as full CSR on one shared pattern, from their
    diagonals and the values ``k`` and ``m`` of the unique pairs rows <
    cols, given in row-major order.

    Row i holds the mirrored entries (i, j) of the pairs (j, i), then its
    diagonal, then its own pairs, so its columns ascend.  An entry's place
    is its rank among the entries of its kind plus the number of the other
    kinds' entries before it; one stable sort ranks the mirrored entries.
    """
    ids, pairs = np.arange(n), np.arange(len(rows))
    mirror = np.argsort(cols, kind="stable")
    owned = np.bincount(rows, minlength=n)
    mirrored_to = np.cumsum(np.bincount(cols, minlength=n))  # in rows <= i
    owned_before = np.cumsum(owned) - owned  # in rows < i
    at = np.concatenate([
        ids + mirrored_to + owned_before,
        pairs + (ids + 1 + mirrored_to)[rows],
        pairs + (ids + owned_before)[cols[mirror]],
    ])
    index = np.int32 if len(at) < 2**31 else np.int64
    indptr = np.r_[0, ids + 1 + mirrored_to + owned_before + owned].astype(index)
    indices = np.empty(len(at), dtype=index)
    indices[at] = np.concatenate([ids, cols, rows[mirror]])

    def stored(diagonal, upper):
        data = np.empty(len(at))
        data[at] = np.concatenate([diagonal, upper, upper[mirror]])
        return data

    return tuple(
        SparseSymmetric(sp.csr_matrix((stored(d, v), indices, indptr), (n, n)))
        for d, v in ((k_diagonal, k), (m_diagonal, m))
    )


def _equations(fixed: np.ndarray) -> tuple:
    """``(free, eq)``: the free nodes, ascending, and each node's equation
    (-1 on a fixed node).  Equations keep node order, so a pair a <= b of
    free nodes has eq[a] <= eq[b]."""
    free = np.flatnonzero(~fixed)
    if len(free) == 0:
        raise AssemblyError("all nodes are Dirichlet: empty problem")
    return free, np.where(fixed, -1, np.cumsum(~fixed) - 1)


def _elements(mesh: TriMesh) -> tuple:
    """``(area, k_side, k_corner)`` per triangle: the area, the stiffness
    entry of each side (column s for the side from vertex s to s + 1) and of
    each corner.  Stored on the mesh.

    A mesh without a parent computes them from its coordinates and refuses
    a degenerate triangle.  A refined mesh takes them from its parent: P1
    stiffness is invariant under scaling and point reflection, so child j
    of parent triangle t has the parent's entries in the vertex order
    ``mesh2d.CHILD_VERTICES[j]``, and a quarter of its area.
    """
    if mesh._elements is not None:
        return mesh._elements
    if mesh.parent is not None:
        area, k_side, k_corner = _elements(mesh.parent)
        mesh._elements = (
            np.repeat(0.25 * area, 4),
            k_side[:, CHILD_VERTICES].reshape(-1, 3),
            k_corner[:, CHILD_VERTICES].reshape(-1, 3),
        )
        return mesh._elements
    tris = mesh.triangles
    x, y = mesh.nodes[:, 0][tris], mesh.nodes[:, 1][tris]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = mesh.signed_areas()
    bad = area <= 1e-14 * np.maximum(1.0, np.abs(x).max())
    if bad.any():
        raise AssemblyError(f"degenerate triangle at index {int(np.argmax(bad))}")
    p, q = [0, 1, 2], [1, 2, 0]  # the sides in ``_edges`` order
    four_area = 4.0 * area[:, None]
    k_side = (b[:, p] * b[:, q] + c[:, p] * c[:, q]) / four_area
    mesh._elements = area, k_side, (b * b + c * c) / four_area
    return mesh._elements


def assemble_p1(mesh: TriMesh) -> DiscreteProblem:
    """Exact P1 stiffness and consistent mass on a triangle mesh.

    Dirichlet-tagged boundary nodes are eliminated; Neumann sides are
    natural.  The sides' entries are summed per edge and the corners' per
    node before the free ones go to the pencil builder with no sort: one
    pair per edge, in row-major order already, since ``_edges`` sorts its
    pairs and equations keep node order.
    """
    area, k_side, k_corner = _elements(mesh)
    tris = mesh.triangles
    n = mesh.num_nodes
    edges, side_edge = _edges(mesh)
    k_edge = np.bincount(side_edge, k_side.T.ravel(), len(edges))
    m_edge = np.bincount(side_edge, np.tile(area * (1.0 / 12.0), 3), len(edges))
    k_node = np.bincount(tris.ravel(), k_corner.ravel(), n)
    m_node = np.bincount(tris.ravel(), np.repeat(area * (2.0 / 12.0), 3), n)

    fixed = np.zeros(n, dtype=bool)
    fixed[mesh.dirichlet_nodes()] = True
    free, eq = _equations(fixed)
    ea, eb = eq[edges[:, 0]], eq[edges[:, 1]]
    inner = (ea >= 0) & (eb >= 0)
    K, M = _pencil(
        len(free), k_node[free], m_node[free], ea[inner], eb[inner], k_edge[inner], m_edge[inner]
    )
    return DiscreteProblem(K=K, M=M, free_nodes=free)


def q1_element_matrices(h: float):
    """Closed-form 8x8 trilinear stiffness/mass for a cube of side h.

    Local node order follows the Kronecker convention: index = 4*ix + 2*iy
    + iz over corner offsets (ix, iy, iz).
    """
    s1 = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    m1 = h * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    K8 = (
        np.kron(np.kron(s1, m1), m1)
        + np.kron(np.kron(m1, s1), m1)
        + np.kron(np.kron(m1, m1), s1)
    )
    M8 = np.kron(np.kron(m1, m1), m1)
    return K8, M8


def _q1_cells(grid: VoxelGrid) -> tuple:
    """``(cells, K8, M8, free, eq)``: the active cells' corner nodes, the
    element matrices and ``_equations`` of the grid's Dirichlet flags."""
    cells = grid.active_cell_corners()
    if len(cells) == 0:
        raise GridError("no active cells to assemble")
    return (cells, *q1_element_matrices(grid.h), *_equations(grid.dirichlet))


def assemble_q1(grid: VoxelGrid, orbits: Optional[Orbits] = None) -> DiscreteProblem:
    """Trilinear stiffness and consistent mass on the active voxel cells, or,
    with the grid's ``orbits`` (``grid3d.free_node_orbits``), the pencil
    (P' K P, P' M P) on the vectors constant on each equation orbit.

    P is the 0/1 equation-to-orbit matrix.  One cell per cell orbit is
    visited, its entries weighted by the orbit's size: a symmetry maps a
    cell's corners onto its image's by a signed axis permutation of the
    cube, which keeps the element matrices and each corner's orbit, so every
    cell of an orbit adds the same entries.  A local entry (p, q), p <= q,
    lands on its orbit pair in ascending order, and counts twice when p < q
    share an orbit, for (q, p).  Sector equation ``o`` stands for the first
    node of orbit ``o``.  With one orbit per equation and per cell the
    pencil keeps every bit of the full one.
    """
    cells, K8, M8, free, eq = _q1_cells(grid)
    sizes = 1
    if orbits is not None:
        cells, sizes = cells[orbits.cells], orbits.sizes
        eq = np.where(eq >= 0, orbits.labels[eq], -1)
        free = free[np.unique(orbits.labels, return_index=True)[1]]
    ii, jj = np.triu_indices(8)
    # element matrices symmetric: entry (a, b) with a <= b locally covers
    # both; one row per local entry, over the cells
    e = eq[cells.T]
    rows, cols = np.minimum(e[ii], e[jj]), np.maximum(e[ii], e[jj])
    weight = sizes * np.where((ii < jj)[:, None] & (rows == cols), 2.0, 1.0)
    keep = rows >= 0
    local = np.broadcast_to(np.arange(len(ii))[:, None], keep.shape)[keep]
    weight, n = weight[keep], len(free)
    k, m = K8[ii, jj][local] * weight, M8[ii, jj][local] * weight
    K, M = _pencil(n, *_summed(n, rows[keep], cols[keep], k, m))
    return DiscreteProblem(K=K, M=M, free_nodes=free)


def q1_products(grid: VoxelGrid, vec: np.ndarray) -> tuple:
    """``(K x, M x)`` of ``assemble_q1(grid)`` for the equation vector
    ``vec``, summed cell by cell, without assembling K or M."""
    cells, K8, M8, free, eq = _q1_cells(grid)
    e = eq[cells]
    x = np.append(vec, 0.0)[e]  # a Dirichlet corner (e = -1) holds 0
    keep = e >= 0
    # K8 and M8 are symmetric: row c of x @ K8 is K8 times cell c's values
    return tuple(np.bincount(e[keep], (x @ A)[keep], len(free)) for A in (K8, M8))


def rayleigh_quotient(problem: DiscreteProblem, vec: np.ndarray) -> float:
    """(v' K v) / (v' M v) with compensated summation of the products."""
    vec = np.asarray(vec, dtype=float)
    return _quotient(vec, problem.K.full @ vec, problem.M.full @ vec)


def _quotient(vec: np.ndarray, Kv: np.ndarray, Mv: np.ndarray) -> float:
    """The Rayleigh quotient from the products K v and M v."""
    num = fsum((vec * Kv).tolist())
    den = fsum((vec * Mv).tolist())
    if den <= 0.0:
        raise AssemblyError("vector has zero M-norm")
    return num / den
