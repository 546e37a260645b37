import math

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import (
    active_cell_corners,
    box_grid,
    mesh_rectangle,
    mirrored,
    node_positions,
    rayleigh_quotient,
)

from polylayer.assembly import (
    AssemblyError,
    assemble_p1,
    assemble_q1,
    exact_sum,
    q1_element_matrices,
    q1_products,
)
from polylayer.geometry import build_regular, fichera_angle, make_layer
from polylayer.grid3d import GridError, Orbits, free_node_orbits, voxelize
from polylayer.mesh2d import NEUMANN, TriMesh, mesh_lshape, refine

PI = math.pi
ALL_NEUMANN = dict.fromkeys(("left", "right", "bottom", "top"), NEUMANN)


@pytest.fixture(scope="module")
def square_problem():
    return assemble_p1(mesh_rectangle(1.0, 1.0, h=0.125))


@pytest.fixture(scope="module")
def neumann_square():
    # no Dirichlet node: every node is an equation, in node order
    mesh = mesh_rectangle(1.0, 1.0, h=0.125, tags=ALL_NEUMANN)
    prob = assemble_p1(mesh)
    assert np.array_equal(prob.free_nodes, np.arange(mesh.num_nodes))
    return mesh, prob


def test_p1_mass_sum_equals_area(neumann_square):
    _, prob = neumann_square
    assert prob.M.full.sum() == pytest.approx(1.0, abs=1e-10)
    strip = assemble_p1(mesh_rectangle(3.0, 1.5, h=0.25, tags=ALL_NEUMANN))
    assert strip.M.full.sum() == pytest.approx(4.5, abs=1e-10)


def test_p1_stiffness_annihilates_constants(neumann_square):
    _, prob = neumann_square
    assert np.max(np.abs(prob.K.full @ np.ones(prob.n))) < 1e-10


def test_p1_five_point_stencil(neumann_square):
    # uniform right-triangle grid over a square: the interior stiffness row is
    # the classical 5-point Laplacian stencil (4 on the diagonal, -1 sides)
    _, prob = neumann_square
    n_side = int(round(math.sqrt(prob.n)))
    interior = (n_side // 2) * n_side + n_side // 2
    row = prob.K.full.getrow(interior).toarray().ravel()
    assert row[interior] == pytest.approx(4.0, abs=1e-12)
    assert sorted(np.round(row[row != 0.0], 12).tolist()) == pytest.approx(
        [-1.0, -1.0, -1.0, -1.0, 4.0]
    )


def test_p1_symmetry_exact(square_problem):
    for A in (square_problem.K.full, square_problem.M.full):
        assert (A != A.T).nnz == 0


def test_p1_patch_test_linear_energy(neumann_square):
    mesh, prob = neumann_square
    f = 2.0 * mesh.nodes[:, 0] - 0.7 * mesh.nodes[:, 1]
    energy = float(f @ (prob.K.full @ f))
    assert energy == pytest.approx((4.0 + 0.49) * 1.0, abs=1e-10)


def test_p1_degenerate_triangle_named():
    mesh = mesh_rectangle(1.0, 1.0, h=0.5)
    mesh.nodes.setflags(write=True)
    mesh.nodes[mesh.triangles[3][2]] = mesh.nodes[mesh.triangles[3][1]]
    with pytest.raises(AssemblyError, match="triangle"):
        assemble_p1(mesh)


def test_p1_degenerate_triangle_refused_on_refined_levels():
    # a refined level takes its element data from level 0, which refuses it
    mesh = mesh_rectangle(1.0, 1.0, h=0.5)
    mesh.nodes.setflags(write=True)
    mesh.nodes[mesh.triangles[3][2]] = mesh.nodes[mesh.triangles[3][1]]
    with pytest.raises(AssemblyError, match="degenerate triangle at index 3"):
        assemble_p1(refine(refine(mesh)))


def _parentless(mesh):
    return TriMesh(mesh.nodes, mesh.triangles, mesh.boundary_edges, mesh.boundary_tags)


def test_refined_levels_inherit_their_parents_element_data(monkeypatch):
    # no geometry on a refined level, and the pencil of a parent-less copy,
    # computed from the coordinates, to roundoff
    for theta in (0.15, 1.0, 2.9):
        half = mesh_lshape(theta, 2.0, h=0.25)
        for mesh in (half, mirrored(half)):
            levels = [mesh]
            for _ in range(3):
                levels.append(refine(levels[-1]))
            assemble_p1(mesh)
            with monkeypatch.context() as m:
                m.setattr(TriMesh, "signed_areas", None)  # a parent-less mesh's first step
                inherited = [assemble_p1(level) for level in levels[1:]]
            for level, got in zip(levels[1:], inherited):
                ref = assemble_p1(_parentless(level))
                assert np.array_equal(got.free_nodes, ref.free_nodes)
                for A, B in ((got.K.full, ref.K.full), (got.M.full, ref.M.full)):
                    assert np.array_equal(A.indptr, B.indptr)
                    assert np.array_equal(A.indices, B.indices)
                    assert np.abs(A.data - B.data).max() <= 1e-13 * np.abs(B.data).max()


def _dense_p1(mesh):
    """K, M on the free nodes, summed triangle by triangle in Python."""
    n = mesh.num_nodes
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    for tri in mesh.triangles:
        (x0, y0), (x1, y1), (x2, y2) = mesh.nodes[tri]
        area = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        b = (y1 - y2, y2 - y0, y0 - y1)
        c = (x2 - x1, x0 - x2, x1 - x0)
        for p in range(3):
            for q in range(3):
                K[tri[p], tri[q]] += (b[p] * b[q] + c[p] * c[q]) / (4.0 * area)
                M[tri[p], tri[q]] += area * (2.0 if p == q else 1.0) / 12.0
    free = np.setdiff1d(np.arange(n), mesh.dirichlet_nodes())
    return K[np.ix_(free, free)], M[np.ix_(free, free)], free


def _dense_q1(grid):
    """K, M on the free nodes, summed cell by cell in Python."""
    K8, M8 = q1_element_matrices(grid.h)
    n = grid.num_nodes
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    for corners in active_cell_corners(grid):
        for a in range(8):
            for b in range(8):
                K[corners[a], corners[b]] += K8[a, b]
                M[corners[a], corners[b]] += M8[a, b]
    free = np.flatnonzero(~grid.dirichlet)
    return K[np.ix_(free, free)], M[np.ix_(free, free)], free


def _fichera_grid():
    return voxelize(make_layer(fichera_angle()), R=3.0, h=0.25)


def _coarse_lshape():
    return mesh_lshape(0.3, 4.0, h=0.4)


PENCILS = [(_coarse_lshape, assemble_p1, _dense_p1), (_fichera_grid, assemble_q1, _dense_q1)]


@pytest.mark.parametrize("domain,assemble,reference", PENCILS, ids=("p1", "q1"))
def test_pencil_matches_dense_reference(domain, assemble, reference):
    prob = assemble(domain())
    K_ref, M_ref, free = reference(domain())
    assert np.array_equal(prob.free_nodes, free)
    for A, ref in ((prob.K.full, K_ref), (prob.M.full, M_ref)):
        assert np.abs(A.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("domain,assemble,_", PENCILS, ids=("p1", "q1"))
def test_pencil_shares_one_symmetric_pattern(domain, assemble, _):
    prob = assemble(domain())
    K, M = prob.K.full, prob.M.full
    assert np.shares_memory(K.indptr, M.indptr) and np.shares_memory(K.indices, M.indices)
    assert K.has_canonical_format and M.has_canonical_format
    for A in (K, M):
        assert (A != A.T).nnz == 0
    # the upper triangle holds the diagonal and one of each mirrored pair
    assert prob.K.upper.nnz == prob.M.upper.nnz == (K.nnz + prob.n) // 2


@pytest.mark.parametrize("domain,assemble,_", PENCILS, ids=("p1", "q1"))
def test_shifted_pencil_matches_sparse_subtraction(domain, assemble, _):
    prob = assemble(domain())
    K, M = prob.K.full, prob.M.full
    sigma = 7.3
    ours = sp.csr_matrix((K.data - sigma * M.data, K.indices, K.indptr), K.shape)
    scipy_diff = (K - sigma * M).tocsr()
    scipy_diff.sort_indices()
    assert np.array_equal(ours.indptr, scipy_diff.indptr)
    assert np.array_equal(ours.indices, scipy_diff.indices)
    assert np.array_equal(ours.data.view(np.int64), scipy_diff.data.view(np.int64))


@pytest.fixture(scope="module")
def fichera_problem():
    layer = make_layer(fichera_angle())
    grid = voxelize(layer, R=4.0, h=0.25)
    return assemble_q1(grid), grid


def test_q1_mass_sum_equals_volume(fichera_problem):
    _, grid = fichera_problem
    h = grid.h
    _, M8 = q1_element_matrices(h)
    assert M8.sum() == pytest.approx(h**3, rel=1e-14)
    assert grid.num_active_cells * h**3 == pytest.approx(grid.volume, rel=1e-14)
    box = assemble_q1(box_grid((1.0, 0.5, 0.75), h=0.25, dirichlet_boundary=False))
    assert box.M.full.sum() == pytest.approx(0.375, abs=1e-12)


def test_q1_stiffness_annihilates_constants(fichera_problem):
    _, grid = fichera_problem
    K8, _ = q1_element_matrices(grid.h)
    assert np.max(np.abs(K8 @ np.ones(8))) < 1e-14
    box = assemble_q1(box_grid((1.0, 0.5, 0.75), h=0.25, dirichlet_boundary=False))
    assert np.max(np.abs(box.K.full @ np.ones(box.n))) < 1e-12


def test_q1_symmetry_exact(fichera_problem):
    prob, _ = fichera_problem
    for A in (prob.K.full, prob.M.full):
        assert (A != A.T).nnz == 0


def test_q1_patch_test_linear_energy():
    grid = box_grid((1.0, 1.0, 1.0), h=0.25, dirichlet_boundary=False)
    prob = assemble_q1(grid)
    pos = node_positions(grid)[prob.free_nodes]
    f = 1.5 * pos[:, 0] - 0.5 * pos[:, 1] + 2.0 * pos[:, 2]
    energy = float(f @ (prob.K.full @ f))
    assert energy == pytest.approx(1.5**2 + 0.5**2 + 2.0**2, abs=1e-10)


def test_q1_single_cell_all_dirichlet_rejected():
    grid = box_grid((1.0, 1.0, 1.0), h=1.0)
    with pytest.raises(AssemblyError, match="empty problem"):
        assemble_q1(grid)


def test_q1_flat_box_has_no_active_cells():
    with pytest.raises(GridError, match="no active cells"):
        assemble_q1(box_grid((0.0, 1.0, 1.0), 0.25))


def test_rayleigh_quotient_contracts(square_problem):
    from polylayer.eigensolve import smallest_eigenpairs

    res = smallest_eigenpairs(square_problem, num_pairs=1)
    lam1 = res.eigenvalues[0]
    x = res.eigenvectors[:, 0]
    assert rayleigh_quotient(square_problem, x) == pytest.approx(lam1, abs=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.standard_normal(square_problem.n)
        assert rayleigh_quotient(square_problem, v) >= lam1 - 1e-10
    with pytest.raises(AssemblyError):
        rayleigh_quotient(square_problem, np.zeros(square_problem.n))


SECTOR_GRIDS = {
    "fichera-R4-h0.25": (fichera_angle, 4.0, 0.25),
    "fichera-R4-h0.125": (fichera_angle, 4.0, 0.125),
    "regular-4-R3-h0.25": (lambda: build_regular(4, PI / 3), 3.0, 0.25),
}


@pytest.mark.parametrize("name", SECTOR_GRIDS)
def test_orbit_sector_is_projected_pencil(name):
    angle, R, h = SECTOR_GRIDS[name]
    grid = voxelize(make_layer(angle()), R=R, h=h)
    prob = assemble_q1(grid)
    orbits = free_node_orbits(grid)
    assert orbits.order > 1
    sub = assemble_q1(grid, orbits)
    P = sp.csr_matrix((np.ones(prob.n), (np.arange(prob.n), orbits.labels)), (prob.n, sub.n))
    for full, reduced in ((prob.K, sub.K), (prob.M, sub.M)):
        dense = (P.T @ full.full @ P).toarray()
        got = reduced.full.toarray()
        # entry by entry: the Q1 stiffness's zero entries stay exact zeros
        assert (np.abs(got - dense) <= 1e-13 * np.abs(dense)).all()
        assert (reduced.full != reduced.full.T).nnz == 0
    # equation o stands for the first node of orbit o
    first = np.searchsorted(prob.free_nodes, sub.free_nodes)
    assert np.array_equal(first, [np.flatnonzero(orbits.labels == o)[0] for o in range(sub.n)])


def test_trivial_orbits_keep_every_bit():
    grid = voxelize(make_layer(fichera_angle()), R=3.0, h=0.25)
    prob = assemble_q1(grid)
    cells = np.arange(grid.num_active_cells)
    trivial = Orbits(np.arange(prob.n), 1, cells, np.ones_like(cells))
    sub = assemble_q1(grid, trivial)
    assert np.array_equal(sub.free_nodes, prob.free_nodes)
    for full, reduced in ((prob.K, sub.K), (prob.M, sub.M)):
        assert np.array_equal(full.full.indptr, reduced.full.indptr)
        assert np.array_equal(full.full.indices, reduced.full.indices)
        assert np.array_equal(full.full.data.view(np.int64), reduced.full.data.view(np.int64))


@pytest.mark.parametrize(
    "grid",
    (
        voxelize(make_layer(fichera_angle()), R=3.0, h=0.25),
        box_grid((1.0, 0.5, 0.75), h=0.25),
    ),
    ids=("fichera", "box"),
)
def test_cell_wise_products_match_assembled_pencil(grid):
    assert grid.dirichlet.any()
    prob = assemble_q1(grid)
    x = np.random.default_rng(3).standard_normal(prob.n)
    for product, full in zip(q1_products(grid, x), (prob.K.full, prob.M.full)):
        ref = full @ x
        assert np.linalg.norm(product - ref) <= 1e-14 * np.linalg.norm(ref)


def _terms(rng, kind, n):
    """n float terms of one of six kinds: plain, a 1e+-300 spread, exact
    cancellation, subnormals, exponents at the subnormal edge, few values."""
    if kind == 0:
        return rng.standard_normal(n)
    if kind == 1:
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
    if kind == 2:
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-20, 20, n)
        return rng.permutation(np.concatenate([y, -y, [1e-300]]))
    if kind == 3:
        return rng.standard_normal(n) * 5e-324 * rng.integers(1, 2**40, n)
    if kind == 4:
        mantissas = rng.integers(-(2**53), 2**53, n).astype(float)
        return np.ldexp(mantissas, rng.integers(-1100, -1000, n))
    return rng.choice([1.0, -1.0, 2.0**-53, -(2.0**-53), 3 * 2.0**-54, 1e16, -1e16, 0.5, -0.0], n)


def _fsum_outcome(total, x):
    """``total(x)``'s bits, or the type of the error it raised."""
    try:
        return np.float64(total(x)).view(np.int64)
    except (ValueError, OverflowError) as exc:
        return type(exc)


def test_exact_sum_is_math_fsum_bit_for_bit():
    rng = np.random.default_rng(11)
    cases = [_terms(rng, t % 6, int(rng.integers(0, 400))) for t in range(3000)]
    big = 2.0**1023
    cases += [
        np.array([]),
        np.array([-0.0]),
        np.array([-0.0, -0.0]),
        np.array([0.0, -0.0]),
        np.array([1e-320, -1e-320, -0.0]),
        np.array([1.0, math.inf]),
        np.array([1.0, -math.inf, 2.0]),
        np.array([math.inf, -math.inf]),
        np.array([1.0, math.nan]),
        np.array([big, big]),  # overflows
        np.array([big, big, -big]),  # the exact sum is finite
        np.array([2.0**960, -(2.0**960), 1.0]),
        rng.standard_normal(20_000) * 10.0 ** rng.uniform(-30, 30, 20_000),
    ]
    for x in cases:
        assert _fsum_outcome(exact_sum, x) == _fsum_outcome(lambda x: math.fsum(x.tolist()), x)
