"""The voxel path against a plain reference: the grid, its symmetry orbits,
the orbit-sector pencil and the cell-wise products must keep every bit of
the straightforward implementations kept here (corner views over the
lattice, orbit lookups in a cube around the apex, node-id corner tables)."""

from functools import reduce
from itertools import permutations, product

import numpy as np
import pytest
from oracles import active_cell_corners, box_grid
from test_grid3d import BOUND_ANGLES

from polylayer.assembly import (
    AssemblyError,
    _equations,
    _pencil,
    assemble_q1,
    q1_element_matrices,
    q1_products,
)
from polylayer.geometry import make_layer
from polylayer.grid3d import (
    _CORNERS,
    BOUNDARY_TOL,
    _coordinate_bounds,
    free_node_orbits,
    voxelize,
)


def _corner_views(node_values, cells):
    nx, ny, nz = cells
    return [node_values[dx : nx + dx, dy : ny + dy, dz : nz + dz] for dx, dy, dz in _CORNERS]


def _number_nodes(active):
    node_of_cell = np.zeros(tuple(n + 1 for n in active.shape), dtype=np.int32)
    for corner in _corner_views(node_of_cell, active.shape):
        corner += active
    used = node_of_cell > 0
    node_ids = np.full(used.shape, -1, dtype=np.int64)
    node_ids[used] = np.arange(int(used.sum()))
    return node_of_cell, node_ids


def voxelize_reference(layer, R, h):
    """``(origin, active, node_ids, dirichlet)`` of ``voxelize``."""
    lo, hi = _coordinate_bounds(layer, R)
    origin = np.floor(lo / h - 1.0) * h
    cells = tuple(int(v) for v in np.ceil((hi - origin) / h + 1.0).astype(int))
    xs, ys, zs = (origin[k] + h * np.arange(cells[k] + 1) for k in range(3))
    pts = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1)
    face_vals = pts @ layer.angle.normals.T
    cut_vals = pts @ layer.angle.rays.T
    cone_min = reduce(np.minimum, _corner_views(face_vals.min(axis=-1), cells))
    face_max = reduce(np.maximum, _corner_views(face_vals, cells))
    cut_max = reduce(np.maximum, _corner_views(cut_vals.max(axis=-1), cells))
    active = (
        (cone_min >= -BOUNDARY_TOL)
        & (face_max <= 1.0 + BOUNDARY_TOL).any(axis=-1)
        & (cut_max <= R + BOUNDARY_TOL)
    )
    node_of_cell, node_ids = _number_nodes(active)
    used = node_ids >= 0
    dirichlet = np.zeros(int(used.sum()), dtype=bool)
    dirichlet[node_ids[used & (node_of_cell < 8)]] = True
    return origin, active, node_ids, dirichlet


def corners_reference(grid):
    corners = _corner_views(grid.node_ids, grid.active.shape)
    return np.stack([ids[grid.active] for ids in corners], axis=1)


def orbits_reference(grid):
    """``free_node_orbits`` from lookups in the cube [-m, m]^3."""
    shift = np.rint(grid.origin / grid.h).astype(np.int64)
    cells = np.argwhere(grid.active) + shift
    nodes = np.argwhere(grid.node_ids >= 0)[~grid.dirichlet] + shift
    m = int(np.abs(cells).max()) + 1
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
                continue
            image = np.where(flip, -1 - cells[:, perm], cells[:, perm])
            cell_img = cell_at[tuple((image + m).T)]
            node_img = eq_at[tuple((np.where(flip, -nodes[:, perm], nodes[:, perm]) + m).T)]
            if (cell_img >= 0).all() and (node_img >= 0).all():
                node_images.append(node_img)
                cell_images.append(cell_img)
    labels = np.unique(np.min(node_images, axis=0), return_inverse=True)[1]
    reps, sizes = np.unique(np.min(cell_images, axis=0), return_counts=True)
    return labels, len(node_images), reps, sizes


def _summed_reference(n, rows, cols, k_vals, m_vals):
    keys = rows * n + cols
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


def sector_reference(grid, orbits):
    """(K, M, free nodes) of ``assemble_q1(grid, orbits)``."""
    cells = corners_reference(grid)
    K8, M8 = q1_element_matrices(grid.h)
    free, eq = _equations(grid.dirichlet)
    cells, sizes = cells[orbits.cells], orbits.sizes
    eq = np.where(eq >= 0, orbits.labels[eq], -1)
    free = free[np.unique(orbits.labels, return_index=True)[1]]
    ii, jj = np.triu_indices(8)
    e = eq[cells.T]
    rows, cols = np.minimum(e[ii], e[jj]), np.maximum(e[ii], e[jj])
    weight = sizes * np.where((ii < jj)[:, None] & (rows == cols), 2.0, 1.0)
    keep = rows >= 0
    local = np.broadcast_to(np.arange(len(ii))[:, None], keep.shape)[keep]
    weight, n = weight[keep], len(free)
    k, m = K8[ii, jj][local] * weight, M8[ii, jj][local] * weight
    K, M = _pencil(n, *_summed_reference(n, rows[keep], cols[keep], k, m))
    return K.full, M.full, free


def products_reference(grid, vec):
    K8, M8 = q1_element_matrices(grid.h)
    free, eq = _equations(grid.dirichlet)
    e = eq[corners_reference(grid)]
    x = np.append(vec, 0.0)[e]
    keep = e >= 0
    return tuple(np.bincount(e[keep], (x @ A)[keep], len(free)) for A in (K8, M8))


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind == "f":
        return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
    return np.array_equal(a, b)


def _check_products(grid):
    x = np.random.default_rng(7).standard_normal(int((~grid.dirichlet).sum()))
    for got, want in zip(q1_products(grid, x), products_reference(grid, x)):
        assert _same(got, want)


@pytest.mark.parametrize("h", (0.1, 0.125, 0.2, 0.25, 1.0 / 3.0), ids=lambda h: f"h{h:.3g}")
@pytest.mark.parametrize("R", (3.0, 4.0, 6.0), ids=lambda R: f"R{R:g}")
@pytest.mark.parametrize("name", BOUND_ANGLES)
def test_voxel_path_keeps_every_bit_of_the_reference(name, R, h):
    layer = make_layer(BOUND_ANGLES[name]())
    grid = voxelize(layer, R, h)
    for got, want in zip(
        (grid.origin, grid.active, grid.node_ids, grid.dirichlet, active_cell_corners(grid)),
        (*voxelize_reference(layer, R, h), corners_reference(grid)),
    ):
        assert _same(got, want)
    orbits = free_node_orbits(grid)
    want = orbits_reference(grid)
    assert orbits.order == want[1]
    for got, ref in zip((orbits.labels, orbits.cells, orbits.sizes), (want[0], *want[2:])):
        assert _same(got, ref)
    if grid.dirichlet.all():
        with pytest.raises(AssemblyError, match="all nodes are Dirichlet"):
            assemble_q1(grid, orbits)
        return
    sector = assemble_q1(grid, orbits)
    K, M, free = sector_reference(grid, orbits)
    assert _same(sector.free_nodes, free)
    for got, ref in ((sector.K.full, K), (sector.M.full, M)):
        assert _same(got.indptr, ref.indptr) and _same(got.indices, ref.indices)
        assert _same(got.data, ref.data)
    _check_products(grid)


@pytest.mark.parametrize("dirichlet_boundary", (True, False))
def test_box_grid_products_keep_every_bit_of_the_reference(dirichlet_boundary):
    grid = box_grid((1.0, 0.5, 0.75), 0.25, dirichlet_boundary=dirichlet_boundary)
    node_of_cell, node_ids = _number_nodes(grid.active)
    assert _same(grid.node_ids, node_ids)
    dirichlet = np.zeros(node_ids.size, dtype=bool)
    if dirichlet_boundary:
        dirichlet[node_ids[node_of_cell < 8]] = True
    assert _same(grid.dirichlet, dirichlet)
    assert _same(active_cell_corners(grid), corners_reference(grid))
    _check_products(grid)
