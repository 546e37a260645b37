import math

import numpy as np
import pytest

from polylayer.assembly import (
    AssemblyError,
    assemble_p1,
    assemble_q1,
    rayleigh_quotient,
    symmetric_subproblem,
)
from polylayer.geometry import fichera_angle, lshape_profile, make_layer
from polylayer.grid3d import box_grid, free_node_orbits, voxelize
from polylayer.mesh2d import mesh_lshape, mesh_rectangle

PI = math.pi


@pytest.fixture(scope="module")
def square_problem():
    return assemble_p1(mesh_rectangle(1.0, 1.0, h=0.125))


def test_p1_mass_sum_equals_area(square_problem):
    assert square_problem.M_raw.entries_sum() == pytest.approx(1.0, abs=1e-10)
    mesh = mesh_lshape(lshape_profile(PI / 2, 4.0), h=0.25)
    prob = assemble_p1(mesh)
    assert prob.M_raw.entries_sum() == pytest.approx(9.0, abs=1e-10)


def test_p1_stiffness_annihilates_constants(square_problem):
    ones = np.ones(square_problem.K_raw.n)
    assert np.max(np.abs(square_problem.K_raw.matvec(ones))) < 1e-10


def test_p1_five_point_stencil(square_problem):
    # uniform right-triangle grid over a square: the interior stiffness row is
    # the classical 5-point Laplacian stencil (4 on the diagonal, -1 sides)
    K = square_problem.K_raw.full.tocsr()
    n_side = int(round(math.sqrt(square_problem.K_raw.n)))
    interior = (n_side // 2) * n_side + n_side // 2
    row = K.getrow(interior).toarray().ravel()
    assert row[interior] == pytest.approx(4.0, abs=1e-12)
    assert sorted(np.round(row[row != 0.0], 12).tolist()) == pytest.approx(
        [-1.0, -1.0, -1.0, -1.0, 4.0]
    )


def test_p1_symmetry_exact(square_problem):
    assert square_problem.K.symmetry_defect() == 0.0
    assert square_problem.M.symmetry_defect() == 0.0


def test_p1_patch_test_linear_energy(square_problem):
    mesh = mesh_rectangle(1.0, 1.0, h=0.125)
    prob = square_problem
    f = 2.0 * mesh.nodes[:, 0] - 0.7 * mesh.nodes[:, 1]
    energy = float(f @ prob.K_raw.matvec(f))
    assert energy == pytest.approx((4.0 + 0.49) * 1.0, abs=1e-10)


def test_p1_degenerate_triangle_named():
    mesh = mesh_rectangle(1.0, 1.0, h=0.5)
    mesh.nodes.setflags(write=True)
    mesh.nodes[mesh.triangles[3][2]] = mesh.nodes[mesh.triangles[3][1]]
    with pytest.raises(AssemblyError, match="triangle"):
        assemble_p1(mesh)


@pytest.fixture(scope="module")
def fichera_problem():
    layer = make_layer(fichera_angle())
    grid = voxelize(layer, R=4.0, h=0.25)
    return assemble_q1(grid), grid


def test_q1_mass_sum_equals_volume(fichera_problem):
    prob, grid = fichera_problem
    assert prob.M_raw.entries_sum() == pytest.approx(grid.volume, abs=1e-10)


def test_q1_stiffness_annihilates_constants(fichera_problem):
    prob, _ = fichera_problem
    ones = np.ones(prob.K_raw.n)
    assert np.max(np.abs(prob.K_raw.matvec(ones))) < 1e-10


def test_q1_symmetry_exact(fichera_problem):
    prob, _ = fichera_problem
    assert prob.K.symmetry_defect() == 0.0
    assert prob.M.symmetry_defect() == 0.0


def test_q1_patch_test_linear_energy():
    grid = box_grid((1.0, 1.0, 1.0), h=0.25)
    prob = assemble_q1(grid)
    pos = grid.node_positions()
    f = 1.5 * pos[:, 0] - 0.5 * pos[:, 1] + 2.0 * pos[:, 2]
    energy = float(f @ prob.K_raw.matvec(f))
    assert energy == pytest.approx(1.5**2 + 0.5**2 + 2.0**2, abs=1e-10)


def test_q1_single_cell_all_dirichlet_rejected():
    grid = box_grid((1.0, 1.0, 1.0), h=1.0)
    with pytest.raises(AssemblyError, match="empty problem"):
        assemble_q1(grid)


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


def test_symmetric_subproblem_is_projected_pencil():
    grid = voxelize(make_layer(fichera_angle()), R=3.0, h=0.25)
    prob = assemble_q1(grid)
    labels, order = free_node_orbits(grid)
    assert order == 6
    sub = symmetric_subproblem(prob, labels)
    P = np.zeros((prob.n, sub.n))
    P[np.arange(prob.n), labels] = 1.0
    for full, reduced in ((prob.K, sub.K), (prob.M, sub.M)):
        dense = P.T @ full.full.toarray() @ P
        assert np.allclose(reduced.full.toarray(), dense, rtol=0.0, atol=1e-14)
        assert reduced.symmetry_defect() == 0.0
    # equation o stands for the first node of orbit o
    first = np.searchsorted(prob.free_nodes, sub.free_nodes)
    assert np.array_equal(first, [np.flatnonzero(labels == o)[0] for o in range(sub.n)])


def test_symmetric_subproblem_trivial_orbits_keep_every_bit():
    prob = assemble_q1(voxelize(make_layer(fichera_angle()), R=3.0, h=0.25))
    sub = symmetric_subproblem(prob, np.arange(prob.n))
    for full, reduced in ((prob.K, sub.K), (prob.M, sub.M)):
        assert (full.upper != reduced.upper).nnz == 0
        assert np.array_equal(full.upper.indptr, reduced.upper.indptr)
        assert np.array_equal(full.upper.indices, reduced.upper.indices)
