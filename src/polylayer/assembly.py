"""Finite-element assembly: P1 on triangles, trilinear Q1 on voxel cells.

Element matrices are closed-form (no quadrature knob).  Stiffness and mass
are stored upper-triangular and mirrored, so symmetry is exact in storage.
Dirichlet conditions are imposed by row/column elimination, keeping the
reduced stiffness positive definite.

Assembly accumulates element contributions in a fixed element order, so the
matrices are bit-identical across runs regardless of thread counts used by
the underlying BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import PolylayerError
from .grid3d import GridError, VoxelGrid
from .mesh2d import TriMesh


class AssemblyError(PolylayerError, ValueError):
    """Raised for degenerate elements or empty problems."""


@dataclass(eq=False)
class SparseSymmetric:
    """Symmetric sparse matrix stored as its upper triangle.

    The mirrored full matrix reuses the stored floats, so the symmetry
    defect is exactly zero.
    """

    n: int
    upper: sp.csr_matrix

    _full: Optional[sp.csr_matrix] = None

    @classmethod
    def from_upper_coo(cls, n, rows, cols, vals) -> "SparseSymmetric":
        upper = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        upper.sum_duplicates()
        return cls(n=n, upper=upper)

    @property
    def full(self) -> sp.csr_matrix:
        if self._full is None:
            diag = sp.diags(self.upper.diagonal())
            full = (self.upper + self.upper.T - diag).tocsr()
            full.sum_duplicates()
            self._full = full
        return self._full

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.full @ x

    def symmetry_defect(self) -> float:
        d = self.full - self.full.T
        return float(np.abs(d.data).max()) if d.nnz else 0.0

    def submatrix(self, keep: np.ndarray) -> "SparseSymmetric":
        sub = self.upper[keep][:, keep].tocsr()
        return SparseSymmetric(n=int(len(keep)), upper=sub)

    def entries_sum(self) -> float:
        diag = self.upper.diagonal().sum()
        return float(2.0 * self.upper.sum() - diag)


@dataclass(eq=False)
class DiscreteProblem:
    """Reduced SPD pencil (K, M) with the node <-> equation bookkeeping.

    ``free_nodes[eq]`` is the mesh/grid node behind equation ``eq``.
    ``K_raw`` and ``M_raw`` keep the pre-elimination matrices for audits.
    """

    K: SparseSymmetric
    M: SparseSymmetric
    free_nodes: np.ndarray
    K_raw: SparseSymmetric
    M_raw: SparseSymmetric

    @property
    def n(self) -> int:
        return self.K.n


def _emit_upper_varying(global_ids: np.ndarray, elements: np.ndarray):
    """COO triplets of per-element matrices (n_elements, n_loc, n_loc) mapped
    to the global upper triangle; (rows, cols, vals) with rows <= cols.

    A matrix shared by every element is passed as a broadcast view, which
    the indexing below reads without copying it out in full.
    """
    n_loc = elements.shape[1]
    ii, jj = np.triu_indices(n_loc)
    # element matrices symmetric: entry (a, b) with a <= b locally covers both
    ga = global_ids[:, ii]
    gb = global_ids[:, jj]
    rows = np.minimum(ga, gb).ravel()
    cols = np.maximum(ga, gb).ravel()
    vals = elements[:, ii, jj].ravel()
    return rows, cols, vals


def assemble_p1(mesh: TriMesh) -> DiscreteProblem:
    """Exact P1 stiffness and consistent mass on a triangle mesh.

    Dirichlet-tagged boundary nodes are eliminated; Neumann sides are natural.
    """
    tris = mesh.triangles
    pts = mesh.nodes[tris]
    x = pts[..., 0]
    y = pts[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = mesh.signed_areas()
    bad = area <= 1e-14 * np.maximum(1.0, np.abs(x).max())
    if bad.any():
        raise AssemblyError(f"degenerate triangle at index {int(np.argmax(bad))}")

    Ke = (
        b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    ) / (4.0 * area[:, None, None])
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    Me = area[:, None, None] * base[None, :, :]

    n = mesh.num_nodes
    rk = _emit_upper_varying(tris, Ke)
    rm = _emit_upper_varying(tris, Me)
    K_raw = SparseSymmetric.from_upper_coo(n, *rk)
    M_raw = SparseSymmetric.from_upper_coo(n, *rm)

    fixed = np.zeros(n, dtype=bool)
    fixed[mesh.dirichlet_nodes()] = True
    return _reduce(K_raw, M_raw, fixed)


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


def assemble_q1(grid: VoxelGrid) -> DiscreteProblem:
    """Trilinear stiffness and consistent mass on the active voxel cells."""
    cells = grid.active_cell_corners()
    if len(cells) == 0:
        raise GridError("no active cells to assemble")
    K8, M8 = q1_element_matrices(grid.h)
    n = grid.num_nodes
    shape = (len(cells), 8, 8)
    K_raw = SparseSymmetric.from_upper_coo(
        n, *_emit_upper_varying(cells, np.broadcast_to(K8, shape))
    )
    M_raw = SparseSymmetric.from_upper_coo(
        n, *_emit_upper_varying(cells, np.broadcast_to(M8, shape))
    )
    return _reduce(K_raw, M_raw, grid.dirichlet)


def _reduce(
    K_raw: SparseSymmetric, M_raw: SparseSymmetric, fixed: np.ndarray
) -> DiscreteProblem:
    free = np.flatnonzero(~fixed)
    if len(free) == 0:
        raise AssemblyError("all nodes are Dirichlet: empty problem")
    return DiscreteProblem(
        K=K_raw.submatrix(free),
        M=M_raw.submatrix(free),
        free_nodes=free,
        K_raw=K_raw,
        M_raw=M_raw,
    )


def symmetric_subproblem(problem: DiscreteProblem, labels: np.ndarray) -> DiscreteProblem:
    """The pencil (P' K P, P' M P) on the vectors constant on each orbit.

    P is the 0/1 equation-to-orbit matrix, ``labels[eq]`` the orbit of
    equation ``eq`` (orbits numbered in order of first appearance).  Each
    stored entry K_ij lands on its orbit pair, twice for i != j in one
    orbit (K_ij and K_ji).  Equation ``o`` stands for the first node of
    orbit ``o``; with one orbit per equation the pencil keeps every bit.
    """
    n = int(labels.max()) + 1

    def project(A: SparseSymmetric) -> SparseSymmetric:
        upper = A.upper.tocoo()
        a, b = labels[upper.row], labels[upper.col]
        twice = (a == b) & (upper.row != upper.col)
        vals = np.where(twice, 2.0 * upper.data, upper.data)
        return SparseSymmetric.from_upper_coo(n, np.minimum(a, b), np.maximum(a, b), vals)

    return DiscreteProblem(
        K=project(problem.K),
        M=project(problem.M),
        free_nodes=problem.free_nodes[np.unique(labels, return_index=True)[1]],
        K_raw=problem.K_raw,
        M_raw=problem.M_raw,
    )


def rayleigh_quotient(problem: DiscreteProblem, vec: np.ndarray) -> float:
    """(v' K v) / (v' M v) with compensated summation of the products."""
    vec = np.asarray(vec, dtype=float)
    return _quotient(vec, problem.K.matvec(vec), problem.M.matvec(vec))


def _quotient(vec: np.ndarray, Kv: np.ndarray, Mv: np.ndarray) -> float:
    """The Rayleigh quotient from the products K v and M v."""
    num = fsum((vec * Kv).tolist())
    den = fsum((vec * Mv).tolist())
    if den <= 0.0:
        raise AssemblyError("vector has zero M-norm")
    return num / den

