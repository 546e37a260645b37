import math

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.blas import dtbmv
from scipy.linalg.lapack import dtbtrs

import polylayer.eigensolve as es
from polylayer.assembly import assemble_p1, assemble_q1
from polylayer.analysis import WaveguideNumerics
from polylayer.cli import EXIT_NONCONVERGED, main
from polylayer.eigensolve import band_cholesky, smallest_eigenpairs
from polylayer.errors import AnalysisError, ConfigError
from polylayer.extrapolate import richardson
from polylayer.geometry import fichera_angle, make_layer
from polylayer.grid3d import box_grid, voxelize
from polylayer.mesh2d import mesh_lshape, mesh_rectangle, refine

PI = math.pi


def _square_lambdas(h0, levels, k=1):
    mesh = mesh_rectangle(1.0, 1.0, h=h0)
    out = []
    for _ in range(levels):
        prob = assemble_p1(mesh)
        res = smallest_eigenpairs(prob, num_pairs=k)
        out.append(res.eigenvalues)
        mesh = refine(mesh)
    return np.array(out)


def test_unit_square_first_eigenvalue():
    lams = _square_lambdas(0.25, 3)[:, 0]
    value, _, _ = richardson(lams)
    assert abs(value - 2 * PI**2) / (2 * PI**2) < 0.002


def test_richardson_needs_two_levels():
    with pytest.raises(ValueError, match="at least two mesh levels"):
        richardson([9.2])
    # exact on an O(h^2) sequence; two values: the correction bounds the error
    value, indicator, ext = richardson([5.0 + 4.0, 5.0 + 1.0])
    assert (value, indicator, ext.tolist()) == (5.0, 1.0, [5.0])


def test_richardson_table_is_per_column():
    # one call on the (levels x pairs) table gives every column's own result
    table = np.array([[9.5, 20.0, 41.0], [9.3, 19.5, 40.2], [9.25, 19.4, 40.05]])
    value, indicator, ext = richardson(table)
    for j in range(3):
        v, i, e = richardson(table[:, j])
        assert (value[j], indicator[j]) == (v, i)
        assert np.array_equal(ext[:, j], e)
    value, indicator, _ = richardson(table[:2])
    assert np.array_equal(indicator, np.abs(value - table[1]))


def test_nested_refinement_monotone_upper_bounds():
    lams = _square_lambdas(0.125, 3, k=3)
    # Rayleigh-Ritz on nested spaces: eigenvalues decrease with refinement
    assert (np.diff(lams, axis=0) <= 1e-10).all()


def test_square_first_three_eigenvalues_pattern():
    lams = _square_lambdas(0.125, 3, k=3)
    ext = [richardson(lams[:, j])[0] for j in range(3)]
    target = np.array([2.0, 5.0, 5.0]) * PI**2
    assert np.allclose(ext, target, rtol=0.01)


def test_mixed_strip_constant_longitudinal_mode():
    mesh = mesh_rectangle(
        3.0, 1.0, h=0.125, tags={"left": "neumann", "right": "neumann"}
    )
    lams = []
    for _ in range(3):
        prob = assemble_p1(mesh)
        res = smallest_eigenpairs(prob)
        lams.append(res.eigenvalues[0])
        mesh = refine(mesh)
    value, _, _ = richardson(lams)
    assert abs(value - PI**2) / PI**2 < 0.005


def test_unit_cube_q1():
    lams = []
    for h in (0.25, 0.125, 0.0625):
        prob = assemble_q1(box_grid((1.0, 1.0, 1.0), h=h))
        res = smallest_eigenpairs(prob)
        lams.append(res.eigenvalues[0])
    value, _, _ = richardson(lams)
    assert abs(value - 3 * PI**2) / (3 * PI**2) < 0.01


def test_residual_and_orthonormality_contracts():
    prob = assemble_p1(mesh_rectangle(1.0, 1.0, h=0.0625))
    res = smallest_eigenpairs(prob, num_pairs=4)
    assert (res.residuals <= 1e-8).all()
    assert res.ortho_defect <= 1e-8
    assert (np.diff(res.eigenvalues) >= -1e-10).all()
    M = prob.M.full
    gram = res.eigenvectors.T @ (M @ res.eigenvectors)
    assert np.abs(gram - np.eye(4)).max() <= 1e-8


def test_determinism_same_seed():
    prob = assemble_p1(mesh_rectangle(1.0, 1.0, h=0.0625))
    r1 = smallest_eigenpairs(prob, num_pairs=2, seed=11)
    r2 = smallest_eigenpairs(prob, num_pairs=2, seed=11)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.max(np.abs(r1.eigenvalues - r2.eigenvalues)) < 1e-12


def test_num_pairs_guard():
    prob = assemble_p1(mesh_rectangle(1.0, 1.0, h=0.5))
    with pytest.raises(ConfigError):
        smallest_eigenpairs(prob, num_pairs=2)


def test_waveguide_numerics_validation():
    # the only way outside input reaches the mesh size and the solver's num_pairs
    for h in (-1.0, 0.0, 0.6, math.nan):
        with pytest.raises(ConfigError, match=r"must lie in \(0, 0.5\]"):
            WaveguideNumerics(h=h)
    WaveguideNumerics(h=0.5)
    with pytest.raises(ConfigError, match="num_pairs"):
        WaveguideNumerics(num_pairs=0)


def test_arpack_no_convergence_raises(monkeypatch):
    # no partial result: the eigensolver itself raises (CLI exit 3)
    def no_convergence(*args, **kwargs):
        raise es.sla.ArpackNoConvergence("forced", np.empty(0), np.empty((0, 0)))

    prob = assemble_p1(mesh_rectangle(1.0, 1.0, h=0.125))
    monkeypatch.setattr(es.sla, "eigsh", no_convergence)
    with pytest.raises(AnalysisError, match="did not converge"):
        smallest_eigenpairs(prob, num_pairs=2)


def test_residual_above_tol_raises(monkeypatch):
    prob = assemble_p1(mesh_rectangle(1.0, 1.0, h=0.125))
    assert smallest_eigenpairs(prob).residuals[0] > 1e-20
    monkeypatch.setattr(es, "RESIDUAL_TOL", 1e-20)
    with pytest.raises(AnalysisError, match="above 1.0e-20"):
        smallest_eigenpairs(prob)


def test_non_orthonormal_arpack_vectors_are_reorthonormalized(monkeypatch):
    # eigenvalues 2-4 of the cube are one degenerate eigenvalue (6 pi^2), so
    # any mix of their vectors is an eigenbasis, just not an M-orthonormal one
    prob = assemble_q1(box_grid((1.0, 1.0, 1.0), h=0.125))
    ref = smallest_eigenpairs(prob, num_pairs=4)
    mix = np.eye(4)
    mix[1:, 1:] = [[1.0, 0.5, 0.0], [0.0, 1.0, 0.5], [0.3, 0.0, 1.0]]
    vecs = ref.eigenvectors @ mix
    assert es._verify(prob, vecs)[2] > 1e-10
    calls = []
    orthonormalize = es._m_orthonormalize

    def reorthonormalize(M, v):
        calls.append(v.shape)
        return orthonormalize(M, v)

    # ARPACK returns nu = 1 / (lambda - sigma) and y = U x[perm], where
    # U^T U is the band factor of K - sigma M in the order perm
    factors = []
    shifted_inverse = es._shifted_inverse

    def recording(K, M, shift):
        factors.append(shifted_inverse(K, M, shift))
        return factors[-1]

    def mixed_eigsh(*args, **kwargs):
        sigma, (U, perm) = factors[-1]
        ys = np.column_stack([dtbmv(U.shape[0] - 1, U, x[perm]) for x in vecs.T])
        return 1.0 / (ref.eigenvalues - sigma), ys

    monkeypatch.setattr(es, "_shifted_inverse", recording)
    monkeypatch.setattr(es.sla, "eigsh", mixed_eigsh)
    monkeypatch.setattr(es, "_m_orthonormalize", reorthonormalize)
    res = smallest_eigenpairs(prob, num_pairs=4)
    assert calls == [vecs.shape]
    assert res.ortho_defect <= 1e-10
    assert np.allclose(res.eigenvalues, ref.eigenvalues, rtol=1e-12, atol=0.0)


def _waveguide_mesh():
    return mesh_lshape(PI / 2, 4.0, h=0.25)


def _waveguide_pencil():
    return assemble_p1(_waveguide_mesh())


def _fichera_pencil():
    return assemble_q1(voxelize(make_layer(fichera_angle()), R=3.0, h=0.25))


@pytest.mark.parametrize("pencil", (_waveguide_pencil, _fichera_pencil), ids=("p1", "q1"))
def test_band_cholesky_matches_dense_solve(pencil):
    K = pencil().K.full
    b = np.random.default_rng(5).standard_normal(K.shape[0])
    dense = np.linalg.solve(K.toarray(), b)
    U, perm = band_cholesky(K)(K.data)  # K[perm][:, perm] = U^T U
    x = np.empty_like(b)
    x[perm] = dtbtrs(U, dtbtrs(U, b[perm], trans="T")[0])[0]
    assert np.linalg.norm(x - dense) <= 1e-12 * np.linalg.norm(dense)


def test_indefinite_stiffness_raises(tmp_path, capsys, monkeypatch):
    # 20 lies above the waveguide's first eigenvalues (about 9.2 and up)
    prob = _waveguide_pencil()
    with pytest.raises(AnalysisError, match="not positive definite") as exc:
        band_cholesky(prob.K.full)(prob.K.full.data - 20.0 * prob.M.full.data)
    assert exc.value.exit_code == EXIT_NONCONVERGED
    # the CLI reports a failed factor as a numerical failure
    monkeypatch.setattr(es, "dpbtrf", lambda ab, **kw: (ab, 1))
    argv = ["waveguide", "--theta", "90deg", "--h", "0.25", "--levels", "2"]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_NONCONVERGED
    assert capsys.readouterr().err.startswith("numerical failure: stiffness not positive")


@pytest.mark.parametrize("above", (1.02, 3.0), ids=("lowered", "to-zero"))
def test_shift_above_lambda1_backs_off(above, monkeypatch):
    # a shift above the smallest eigenvalues has no factor (Sylvester), so
    # it is lowered, and the pairs nearest the shift are the smallest ones
    mesh = _waveguide_mesh()
    prob = assemble_p1(mesh)
    cold = smallest_eigenpairs(prob, num_pairs=3)
    shifts = []
    shifted_inverse = es._shifted_inverse

    def recording(K, M, shift):
        sigma, solve = shifted_inverse(K, M, shift)
        shifts.append(sigma)
        return sigma, solve

    monkeypatch.setattr(es, "_shifted_inverse", recording)
    start = np.ones(mesh.num_nodes)  # nodal
    warm = smallest_eigenpairs(prob, num_pairs=3, start=start, shift=above * cold.eigenvalues[2])
    assert 0.0 <= shifts[0] < cold.eigenvalues[0]
    assert (shifts[0] == 0.0) == (above == 3.0)
    assert np.allclose(warm.eigenvalues, cold.eigenvalues, rtol=1e-12, atol=0.0)
    assert (warm.residuals <= 1e-8).all()


def test_band_allocation_failure_raises(tmp_path, capsys, monkeypatch):
    # a band that cannot be allocated is a numerical failure (exit 3)
    zeros = np.zeros

    def no_band(shape, *args, order="C", **kwargs):
        if order == "F":
            raise MemoryError
        return zeros(shape, *args, order=order, **kwargs)

    monkeypatch.setattr(es.np, "zeros", no_band)
    with pytest.raises(AnalysisError, match="out of memory for the band factor") as exc:
        smallest_eigenpairs(_waveguide_pencil())
    assert exc.value.exit_code == EXIT_NONCONVERGED
    argv = ["waveguide", "--theta", "90deg", "--h", "0.25", "--levels", "2"]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_NONCONVERGED
    assert capsys.readouterr().err.startswith("numerical failure: out of memory")


def test_lanczos_runs_on_the_reduced_standard_problem(monkeypatch):
    # ARPACK gets the operator U^{-T} M U^{-1} and no M: one application is
    # one inner solve, and the pairs are those of the pencil (K, M)
    mesh = refine(_waveguide_mesh())
    prob = assemble_p1(mesh)
    dense = scipy.linalg.eigh(prob.K.full.toarray(), prob.M.full.toarray(), eigvals_only=True)
    eigsh = es.sla.eigsh
    applied = []

    def counting(A, **kwargs):
        assert kwargs.get("M") is None and kwargs.get("sigma") is None
        assert kwargs["tol"] == es.LANCZOS_TOL == 1e-12  # not machine precision
        op = es.sla.LinearOperator(
            A.shape, matvec=lambda y: (applied.append(1), A.matvec(y))[1], dtype=A.dtype
        )
        return eigsh(op, **kwargs)

    monkeypatch.setattr(es.sla, "eigsh", counting)
    start = np.ones(mesh.num_nodes)  # nodal
    for k in (1, 3, 6):
        for warm in (False, True):
            applied.clear()
            if warm:
                res = smallest_eigenpairs(prob, k, start=start, shift=0.97 * dense[0])
            else:
                res = smallest_eigenpairs(prob, k)
            assert res.iterations == len(applied) > 0
            assert np.allclose(res.eigenvalues, dense[:k], rtol=1e-13, atol=0.0)
            assert (res.residuals <= 1e-8).all()


def test_degenerate_cube_triple_is_m_orthonormal_without_gram_schmidt(monkeypatch):
    # the cube's 6 pi^2 is a triple eigenvalue; orthonormal Lanczos vectors
    # y give M-orthonormal x = P U^{-1} y with no second pass
    def must_not_run(M, vecs):
        raise AssertionError("_m_orthonormalize called")

    monkeypatch.setattr(es, "_m_orthonormalize", must_not_run)
    prob = assemble_q1(box_grid((1.0, 1.0, 1.0), h=0.125))
    res = smallest_eigenpairs(prob, num_pairs=4)
    assert np.ptp(res.eigenvalues[1:]) <= 1e-10 * res.eigenvalues[1]
    gram = res.eigenvectors.T @ (prob.M.full @ res.eigenvectors)
    assert np.abs(gram - np.eye(4)).max() <= 1e-10
    assert res.ortho_defect <= 1e-10
