import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylayer.analysis import (
    HardySample,
    WaveguideNumerics,
    WeylConfig,
    count_below_threshold,
    hardy_check,
    lambda1_waveguide,
    random_decaying_sample,
    sample_from_function,
    scan_theta,
    scan_truncation,
    solve_waveguide_mode,
    support_overlap,
    threshold,
)
from polylayer.analysis import waveguide
from polylayer.analysis.hardy import HardyError
from polylayer.assembly import assemble_p1
from polylayer.eigensolve import SolverConfig, _verify, smallest_eigenpairs
from polylayer.errors import AnalysisError, ConfigError
from polylayer.geometry import build_regular, build_trihedral, fichera_angle, make_layer

PI = math.pi
PI2 = PI**2

COARSE = WaveguideNumerics(h=0.2, levels=2, R=4.0)
MEDIUM = WaveguideNumerics(h=0.1, levels=3, R=6.0)


@pytest.fixture(scope="module")
def lam_right_angle():
    return lambda1_waveguide(PI / 2, MEDIUM)


def test_lambda1_in_band_and_monotone_levels(lam_right_angle):
    res = lam_right_angle
    assert PI2 / 4 < res.extrapolated < PI2
    assert (np.diff(res.lambda1_estimates) < 0).all()
    # the right-angle waveguide value is a known quantity: ~0.93 pi^2
    assert 0.92 * PI2 < res.extrapolated < 0.94 * PI2


def test_lambda1_determinism():
    a = solve_waveguide_mode(1.0, COARSE).threshold
    b = solve_waveguide_mode(1.0, COARSE).threshold
    assert a.extrapolated == b.extrapolated
    assert np.array_equal(a.lambda_estimates, b.lambda_estimates)


def test_threshold_uses_smallest_dihedral(lam_right_angle):
    fichera = make_layer(fichera_angle())
    thr = threshold(fichera, MEDIUM)
    assert thr.extrapolated == lam_right_angle.extrapolated
    with pytest.raises(ValueError, match="read-only"):  # shared cached result
        thr.lambda_estimates[0, 0] = 0.0
    assert thr.theta_used == pytest.approx(PI / 2, abs=1e-12)

    alpha = 0.8
    lay = make_layer(build_trihedral((PI / 2, alpha, PI / 2)))
    thr2 = threshold(lay, COARSE)
    assert thr2.theta_used == pytest.approx(alpha, abs=1e-12)
    assert thr2.extrapolated == lambda1_waveguide(alpha, COARSE).extrapolated


def test_threshold_regular_layer_face_invariance():
    lay = make_layer(build_regular(4, PI / 3))
    # all dihedral angles equal: any face picks the same threshold angle
    assert np.ptp(lay.angle.dihedral_angles) < 1e-10
    assert lay.beta_min == pytest.approx(float(lay.angle.dihedral_angles[0]), abs=1e-12)


def test_scan_theta_monotone_and_banded():
    scan = scan_theta((0.5, 0.9, 1.4, 2.0, 2.6), COARSE)
    assert scan.strictly_increasing
    assert scan.inside_band
    values = [r.eigenvalues[0] for r in scan.records]
    assert values == sorted(values)


def test_scan_theta_fills_the_memo(monkeypatch):
    # the scan's angles are solved concurrently, their results stored in the
    # memo; reading them back solves nothing again
    monkeypatch.setattr(waveguide, "_WAVEGUIDE_CACHE", {})
    thetas = (0.6, 1.1, 1.7)
    scan = scan_theta(thetas, COARSE)

    def must_not_run(*args, **kwargs):
        raise AssertionError("solved again")

    monkeypatch.setattr(waveguide, "solve_waveguide_mode", must_not_run)
    assert len(waveguide._WAVEGUIDE_CACHE) == len(thetas)
    for theta, rec in zip(thetas, scan.records):
        res = lambda1_waveguide(theta, COARSE)
        assert res is waveguide._WAVEGUIDE_CACHE[(theta, COARSE)]
        assert res.extrapolated == rec.eigenvalues[0]
        for arr in (res.lambda_estimates, res.extrapolated_all):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


def test_scan_theta_requires_ascending():
    with pytest.raises(ConfigError):
        scan_theta((1.0, 0.5), COARSE)


def test_scan_truncation_structure():
    scan = scan_truncation(PI / 2, (2.0, 3.0, 4.0, 5.0), WaveguideNumerics(h=0.25, levels=2))
    values = np.array([r.eigenvalues[0] for r in scan.records])
    assert scan.nondecreasing
    assert scan.below_asymptote
    assert scan.asymptote == pytest.approx(values[-1])
    if scan.fit is not None:
        assert scan.fit.decay_exponent > 0


def test_scan_truncation_rejects_non_nested():
    with pytest.raises(ConfigError, match="integer multiple"):
        scan_truncation(PI / 2, (2.0, 2.5), WaveguideNumerics(h=0.3, levels=2))
    with pytest.raises(ConfigError, match="ascending"):
        scan_truncation(PI / 2, (3.0, 2.0), WaveguideNumerics(h=0.25, levels=2))


def test_count_below_threshold_right_angle():
    result = count_below_threshold(PI / 2, WaveguideNumerics(h=0.15, levels=3, R=6.0))
    assert result.count == 1
    assert len(result.certified) == 1
    assert result.certified[0] < PI2 - result.guard


def test_count_below_threshold_sharp_angle():
    # inertia checks on fine meshes (conforming P1 with Dirichlet ends for
    # the lower count, Crouzeix-Raviart eigenvalue lower bounds for the
    # upper) bracket the count at theta = 0.15 to [5, 5]; the coarse chain
    # must find all five with a narrow guard band
    result = count_below_threshold(0.15, WaveguideNumerics(h=0.4, levels=3))
    assert result.count == 5
    assert result.guard < 0.05


def test_auto_outlet_rule():
    res = lambda1_waveguide(0.9, WaveguideNumerics(h=0.2, levels=2))
    gap = PI2 - res.extrapolated
    assert res.R >= min(4.0 / math.sqrt(gap), 12.0) - 1e-9
    assert res.R >= 4.0


# ---------------------------------------------------------------- hardy ----


def test_hardy_exponential_case_matches_closed_form():
    from scipy.special import exp1

    sample = sample_from_function(lambda z: np.exp(1.0 - z), z_max=30.0, n=30_000)
    rep = hardy_check(sample)
    lhs_exact = math.e**2 * (math.exp(-4.0) / 2.0 - 2.0 * exp1(4.0))
    rhs_exact = 2.0 * math.exp(-2.0) + 2.0 * (1.0 - math.exp(-2.0))
    assert rep.lemma_lhs == pytest.approx(lhs_exact, abs=1e-6)
    assert rep.lemma_rhs == pytest.approx(rhs_exact, abs=1e-6)
    assert rep.lemma_holds and rep.corollary_holds


def test_hardy_inverse_case_matches_closed_form():
    sample = sample_from_function(lambda z: 1.0 / z, z_max=500.0, n=200_000, taper=3.0)
    rep = hardy_check(sample)
    assert rep.lemma_lhs == pytest.approx(1.0 / 24.0, abs=1e-6)
    assert rep.lemma_rhs == pytest.approx(1.75, abs=1e-6)
    assert rep.lemma_holds


def test_hardy_zero_function():
    z = np.linspace(1.0, 20.0, 40)
    rep = hardy_check(HardySample(breakpoints=z, values=np.zeros_like(z)))
    assert rep.lemma_lhs == 0.0 and rep.lemma_rhs == 0.0
    assert rep.lemma_holds and rep.corollary_holds


def test_hardy_corollary_with_larger_r0():
    sample = sample_from_function(
        lambda z: np.exp(1.0 - z), z_max=30.0, n=10_000, r0=5.0
    )
    rep = hardy_check(sample)
    assert rep.corollary_holds
    assert rep.corollary_lhs < rep.lemma_lhs  # smaller integration range


def test_hardy_sample_validation():
    with pytest.raises(HardyError):
        HardySample(breakpoints=np.array([1.0, 5.0]), values=np.array([1.0, 0.1]))
    with pytest.raises(HardyError):
        HardySample(breakpoints=np.array([1.5, 20.0]), values=np.array([1.0, 0.0]))
    with pytest.raises(HardyError):
        HardySample(
            breakpoints=np.array([1.0, 20.0]), values=np.array([1.0, 0.0]), r0=1.0
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_hardy_holds_on_random_decaying_samples(seed):
    rng = np.random.default_rng(seed)
    rep = hardy_check(random_decaying_sample(rng))
    assert rep.lemma_holds
    assert rep.corollary_holds


# ----------------------------------------------------------------- weyl ----


def test_weyl_config_guards():
    with pytest.raises(ConfigError):
        WeylConfig(index=0)
    with pytest.raises(ConfigError):
        WeylConfig(index=2, kappa=-1.0)
    from polylayer.analysis import weyl_residual

    lay = make_layer(fichera_angle())
    with pytest.raises(ConfigError, match="too coarse"):
        weyl_residual(lay, WeylConfig(index=2, h_grid=0.3))


def test_weyl_window_supports_disjoint():
    assert support_overlap(2, 3, 0.35) == 0.0
    assert support_overlap(3, 4, 0.35) == 0.0
    assert support_overlap(2, 2, 0.35) > 0.0


@pytest.mark.parametrize("theta", [0.3, PI / 2, 2.9])
def test_single_pair_chain_solved_on_mirror_sector(theta):
    # lambda_1 of the mirror-invariant sector is the full lambda_1; the
    # lifted vector is an M-normalized eigenvector of the full mesh
    lams, meshes, vals = waveguide._solve_chain(theta, 2.3, 0.25, 3, 1, 1e-8, 0)
    for lev, mesh in enumerate(meshes):
        problem = assemble_p1(mesh)
        full = smallest_eigenpairs(problem, SolverConfig(num_pairs=1, seed=0))
        assert lams[lev, 0] == pytest.approx(full.eigenvalues[0], rel=1e-12, abs=0.0)
        rq, residual, defect = _verify(problem, vals[lev][problem.free_nodes])
        assert rq[0] == lams[lev, 0]
        assert residual[0] <= 1e-8
        assert defect <= 1e-12


def test_single_pair_chain_refuses_orbits_that_are_no_symmetry(monkeypatch):
    def pairs(mesh):
        n = mesh.num_nodes - len(mesh.dirichlet_nodes())
        return np.arange(n) // 2, 1

    monkeypatch.setattr(waveguide, "free_node_orbits", pairs)
    with pytest.raises(AnalysisError, match="full-mesh residual"):
        waveguide._solve_chain(PI / 2, 2.0, 0.25, 2, 1, 1e-8, 0)
