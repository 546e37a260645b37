import math
from itertools import product

import numpy as np
import pytest
from oracles import active_cell_corners, box_grid, truncated_layer_contains
from scipy.optimize import linprog

from polylayer import grid3d
from polylayer.geometry import build_regular, build_trihedral, fichera_angle, make_layer
from polylayer.grid3d import (
    GridError,
    VoxelGrid,
    check_plan,
    free_node_orbits,
    voxelize,
)

PI = math.pi


@pytest.fixture(scope="module")
def fichera_layer():
    return make_layer(fichera_angle())


def test_fichera_volume_exact(fichera_layer):
    grid = voxelize(fichera_layer, R=4.0, h=0.25)
    assert grid.volume == pytest.approx(4.0**3 - 3.0**3, abs=1e-12)


def test_fichera_exactness_across_h(fichera_layer):
    for h in (1.0 / 3.0, 0.25, 0.125):
        grid = voxelize(fichera_layer, R=4.0, h=h)
        assert grid.volume == pytest.approx(37.0, abs=1e-12)


def test_volume_is_cell_count_times_h3(fichera_layer):
    grid = voxelize(fichera_layer, R=4.0, h=0.25)
    assert grid.volume == pytest.approx(grid.h**3 * grid.num_active_cells, abs=0.0)


def test_preconditions(fichera_layer):
    with pytest.raises(GridError):
        voxelize(fichera_layer, R=4.0, h=0.4)
    with pytest.raises(GridError):
        voxelize(fichera_layer, R=2.0, h=0.25)
    # the coarsest of the levels h * 2^(levels-1), ..., h must fit the wall
    check_plan(R=3.0, h=1.0 / 6.0, levels=2)
    with pytest.raises(GridError, match="coarsest cell size"):
        check_plan(R=3.0, h=0.25, levels=2)
    with pytest.raises(GridError, match="levels >= 1"):
        check_plan(R=3.0, h=0.25, levels=0)
    with pytest.raises(GridError, match="R must be >= 3"):
        check_plan(R=2.0, h=0.25, levels=1)
    # negated bounds: NaN, infinities and h <= 0 fail them
    for R in (math.nan, math.inf):
        with pytest.raises(GridError, match="R must be >= 3 and finite"):
            check_plan(R=R, h=0.25, levels=1)
    for h in (math.nan, 0.0, -0.25):
        with pytest.raises(GridError, match="h must be > 0"):
            check_plan(R=3.0, h=h, levels=1)


@pytest.fixture(scope="module")
def regular_layer():
    return make_layer(build_regular(3, PI / 3))


def test_conservative_volume_and_monotone_refinement(regular_layer):
    g1 = voxelize(regular_layer, R=4.0, h=0.2)
    g2 = voxelize(regular_layer, R=4.0, h=0.1)
    # Monte Carlo volume of the truncated layer as an independent oracle
    rng = np.random.default_rng(42)
    lo = g2.origin
    hi = g2.origin + g2.h * np.array(g2.active.shape)
    pts = rng.uniform(lo, hi, size=(1_000_000, 3))
    frac = truncated_layer_contains(regular_layer, 4.0, pts).mean()
    mc_volume = frac * float(np.prod(hi - lo))
    assert g1.volume <= mc_volume * 1.01
    assert g2.volume <= mc_volume * 1.01
    assert g2.volume > g1.volume


def test_inscribed_property_random_points(regular_layer):
    grid = voxelize(regular_layer, R=4.0, h=0.2)
    rng = np.random.default_rng(3)
    cells = np.argwhere(grid.active)
    pick = rng.integers(0, len(cells), size=100_000)
    offsets = rng.uniform(0.0, 1.0, size=(100_000, 3))
    pts = grid.origin + grid.h * (cells[pick] + offsets)
    assert truncated_layer_contains(regular_layer, 4.0, pts).all()


def test_monotone_inclusion_under_halving(regular_layer):
    g1 = voxelize(regular_layer, R=4.0, h=0.2)
    g2 = voxelize(regular_layer, R=4.0, h=0.1)
    # each active coarse cell must be covered by 8 active fine cells
    coarse = np.argwhere(g1.active)
    base1 = np.round((g1.origin - g2.origin) / g2.h).astype(int)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                idx = 2 * coarse + base1 + np.array([dx, dy, dz])
                assert g2.active[idx[:, 0], idx[:, 1], idx[:, 2]].all()


def test_cell_corners_and_node_counts_in_kron_order(fichera_layer):
    grid = voxelize(fichera_layer, R=3.0, h=0.25)
    cells = np.argwhere(grid.active)
    offsets = list(product((0, 1), repeat=3))  # z fastest
    want = np.stack([grid.node_ids[tuple((cells + d).T)] for d in offsets], axis=1)
    assert np.array_equal(active_cell_corners(grid), want)
    node_of_cell, node_ids = grid3d._number_nodes(grid.active)
    assert np.array_equal(node_ids, grid.node_ids)
    assert np.array_equal(np.bincount(want.ravel()), node_of_cell[node_ids >= 0])


def test_empty_active_set_is_an_error():
    # a needle cone: the truncated region is thinner than a grid cell
    needle = make_layer(build_trihedral((0.08, 0.08, 0.08)))
    with pytest.raises(GridError):
        voxelize(needle, R=3.0, h=1.0 / 3.0)


def test_box_grid_benchmark_helper():
    grid = box_grid((1.0, 1.0, 1.0), h=0.25)
    assert grid.volume == pytest.approx(1.0, abs=1e-12)
    assert grid.num_nodes == 5**3
    # all boundary nodes fixed, interior free
    assert int((~grid.dirichlet).sum()) == 3**3
    with pytest.raises(GridError):
        box_grid((1.0, 1.0, 1.0), h=0.3)


def _lp_bounds(layer, R):
    """Per-axis bounds of the truncated layer from six LPs (the oracle)."""
    A_ub = np.vstack([-layer.angle.normals, layer.angle.rays])
    b_ub = np.concatenate([np.zeros(layer.n), np.full(layer.n, R)])
    lo, hi = np.empty(3), np.empty(3)
    for k in range(3):
        for sign, out in ((1.0, lo), (-1.0, hi)):
            res = linprog(sign * np.eye(3)[k], A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * 3)
            assert res.success
            out[k] = res.x[k]
    return lo, hi


BOUND_ANGLES = {
    "fichera": fichera_angle,
    "tri-90-60-90": lambda: build_trihedral((PI / 2, PI / 3, PI / 2)),
    "tri-90-0.26-90": lambda: build_trihedral((PI / 2, 0.26, PI / 2)),
    "regular-3": lambda: build_regular(3, PI / 3),
    "regular-4": lambda: build_regular(4, PI / 3),
    "regular-5": lambda: build_regular(5, PI / 3),
}


@pytest.mark.parametrize("h", (0.1, 0.125, 0.2, 0.25, 1.0 / 3.0), ids=lambda h: f"h{h:.3g}")
@pytest.mark.parametrize("R", (3.0, 4.0, 6.0), ids=lambda R: f"R{R:g}")
@pytest.mark.parametrize("name", BOUND_ANGLES)
def test_closed_form_bounds_match_lp_grids(name, R, h, monkeypatch):
    # the closed-form vertex bounds equal the LP's, and the grid built on
    # them has the LP grid's cells, Dirichlet flags and corner ids; the
    # padded box may shift by whole cells
    layer = make_layer(BOUND_ANGLES[name]())
    lp = _lp_bounds(layer, R)
    closed = grid3d._coordinate_bounds(layer, R)
    for a, b in zip(closed, lp):
        assert np.abs(a - b).max() <= 1e-12
    grid = voxelize(layer, R, h)
    monkeypatch.setattr(grid3d, "_coordinate_bounds", lambda layer, R: lp)
    ref = voxelize(layer, R, h)

    def cells(g):
        return np.argwhere(g.active) + np.rint(g.origin / h).astype(int)

    assert np.array_equal(cells(grid), cells(ref))
    assert np.array_equal(grid.dirichlet, ref.dirichlet)
    assert np.array_equal(active_cell_corners(grid), active_cell_corners(ref))


SYMMETRY_ORDERS = {
    "fichera": 6,
    "regular-4": 8,
    "regular-3": 2,
    "tri-90-60-90": 1,
    "tri-90-0.26-90": 1,
}


@pytest.mark.parametrize("R, h", ((3.0, 0.25), (4.0, 0.125)), ids=("R3-h0.25", "R4-h0.125"))
@pytest.mark.parametrize("name", SYMMETRY_ORDERS)
def test_symmetry_group_orders(name, R, h):
    grid = voxelize(make_layer(BOUND_ANGLES[name]()), R, h)
    labels, order, cells, sizes = free_node_orbits(grid)
    assert order == SYMMETRY_ORDERS[name]
    assert len(labels) == int((~grid.dirichlet).sum())
    # orbits are numbered in order of first appearance, each orbit at most
    # as large as the group
    first = np.unique(labels, return_index=True)[1]
    assert np.array_equal(first, np.sort(first))
    assert np.bincount(labels).max() <= order
    # the cell orbits partition the active cells, each orbit's size divides
    # the group's order
    assert sizes.sum() == grid.num_active_cells
    assert np.array_equal(cells, np.unique(cells))
    assert (order % sizes == 0).all()
    if order == 1:
        assert np.array_equal(labels, np.arange(len(labels)))
        assert np.array_equal(cells, np.arange(grid.num_active_cells))


def test_symmetry_read_from_the_mask_at_h_0_1(fichera_layer):
    # the Q1 matrices of this grid are symmetric only to the last bit, so a
    # comparison of matrix entries finds 2 of the 6 symmetries; the mask and
    # the Dirichlet flags find all of them
    assert free_node_orbits(voxelize(fichera_layer, R=4.0, h=0.1)).order == 6


def test_one_cell_off_breaks_the_symmetry(fichera_layer):
    grid = voxelize(fichera_layer, R=3.0, h=0.25)
    active = grid.active.copy()
    cells = np.argwhere(active)
    # a cell on the outer face whose three indices differ: no axis
    # permutation fixes it
    outer = cells[(cells == cells.max()).any(axis=1)]
    cell = next(c for c in outer if len(set(c)) == 3)
    active[tuple(cell)] = False
    node_of_cell, node_ids = grid3d._number_nodes(active)
    dirichlet = np.zeros(int((node_ids >= 0).sum()), dtype=bool)
    dirichlet[node_ids[(node_ids >= 0) & (node_of_cell < 8)]] = True
    cut = VoxelGrid(
        h=grid.h,
        origin=grid.origin,
        active=active,
        node_ids=node_ids,
        dirichlet=dirichlet,
    )
    labels, order, cells, sizes = free_node_orbits(cut)
    assert order == 1
    assert np.array_equal(labels, np.arange(len(labels)))
    assert (sizes == 1).all()
