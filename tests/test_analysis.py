import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import mirrored

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
from polylayer import eigensolve as es
from polylayer.analysis import waveguide, weyl
from polylayer.analysis.hardy import HardyError
from polylayer.assembly import assemble_p1
from polylayer.eigensolve import _verify, smallest_eigenpairs
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
    # each layer's threshold is solved at its own beta_min, which need not
    # be the angle it approximates (Fichera: one ulp below pi/2)
    fichera = make_layer(fichera_angle())
    thr = threshold(fichera, MEDIUM)
    assert thr.theta_used == fichera.beta_min
    assert thr.extrapolated == pytest.approx(lam_right_angle.extrapolated, rel=1e-12)

    lay = make_layer(build_trihedral((PI / 2, 0.8, PI / 2)))
    thr2 = threshold(lay, COARSE)
    assert thr2.theta_used == lay.beta_min == pytest.approx(0.8, abs=1e-12)
    same = lambda1_waveguide(lay.beta_min, COARSE)
    assert thr2.extrapolated == same.extrapolated
    assert np.array_equal(thr2.lambda_estimates, same.lambda_estimates)


def test_threshold_regular_layer_face_invariance():
    lay = make_layer(build_regular(4, PI / 3))
    # all dihedral angles equal: any face picks the same threshold angle
    assert np.ptp(lay.angle.dihedral_angles) < 1e-10
    assert lay.beta_min == pytest.approx(float(lay.angle.dihedral_angles[0]), abs=1e-12)


def test_scan_theta_monotone_and_banded():
    scan = scan_theta((0.5, 0.9, 1.4, 2.0, 2.6), COARSE)
    assert scan.strictly_increasing
    assert scan.inside_band
    values = [r.extrapolated for r in scan.records]
    assert values == sorted(values)


def test_scan_records_are_the_solves_at_their_parameters():
    # the scan points are solved concurrently; each record is the solve at
    # its own parameter, bit for bit, in input order
    thetas = (0.6, 1.1, 1.7)
    Rs = (2.0, 3.0)
    num = WaveguideNumerics(h=0.25, levels=2)
    cases = [
        (scan_theta(thetas, COARSE).records, "theta_used", thetas, [(t, COARSE) for t in thetas]),
        (scan_truncation(1.1, Rs, num).records, "R", Rs, [(1.1, replace(num, R=R)) for R in Rs]),
    ]
    for records, name, parameters, solves in cases:
        assert [getattr(r, name) for r in records] == list(parameters)
        for rec, (theta, numerics) in zip(records, solves):
            res = lambda1_waveguide(theta, numerics)
            assert np.array_equal(rec.extrapolated_all, res.extrapolated_all)
            assert np.array_equal(rec.error_indicators, res.error_indicators)
            assert np.array_equal(rec.lambda_estimates, res.lambda_estimates)
            assert (rec.theta_used, rec.R) == (res.theta_used, res.R)


def test_scan_theta_requires_ascending():
    with pytest.raises(ConfigError):
        scan_theta((1.0, 0.5), COARSE)


def test_scan_truncation_structure():
    scan = scan_truncation(PI / 2, (2.0, 3.0, 4.0, 5.0), WaveguideNumerics(h=0.25, levels=2))
    values = np.array([r.extrapolated for r in scan.records])
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


def test_count_examines_the_pairs_its_numerics_name():
    num = WaveguideNumerics(h=0.25, levels=2, R=4.0)
    for pairs, examined in ((3, 3), (None, 6)):  # None: COUNT_PAIRS
        record = count_below_threshold(PI / 2, replace(num, num_pairs=pairs)).record
        assert len(record.extrapolated_all) == examined


def test_auto_outlet_rule():
    res = lambda1_waveguide(0.9, WaveguideNumerics(h=0.2, levels=2))
    gap = PI2 - res.extrapolated
    assert res.R >= min(4.0 / math.sqrt(gap), 12.0) - 1e-9
    assert res.R >= 4.0


@pytest.mark.parametrize("gap", (0.05, 1e-9, 0.0, -1e-3))
def test_auto_outlet_caps_a_vanishing_gap(gap, monkeypatch):
    # near-straight waveguides, whose coarse lambda_1 may even overshoot
    # pi^2 (the bias is upward), take the longest outlet
    monkeypatch.setattr(waveguide, "richardson", lambda values: (PI2 - gap, 0.0, None))
    assert waveguide.auto_outlet_length(3.0, COARSE) == waveguide.R_CAP


def _crafted_threshold(extrapolated, lambda1_levels):
    lams = np.array(lambda1_levels)[:, None]
    return waveguide.ThresholdResult(
        theta_used=1.0,
        lambda_estimates=lams,
        R=4.0,
        h=0.2,
        levels=len(lams),
        extrapolated_all=np.array([extrapolated]),
        error_indicators=np.array([1e-3]),
    )


@pytest.mark.parametrize(
    "extrapolated,levels,message",
    [
        (PI2 / 4, [2.6, 2.5], "escapes"),
        (PI2 + 2e-3, [9.9, 9.88], "escapes"),
        (9.0, [9.3, 9.35], "not monotone"),
    ],
    ids=["below-band", "above-band-beyond-indicator", "rising-levels"],
)
def test_validate_threshold_rejects_broken_numerics(extrapolated, levels, message):
    waveguide._validate_threshold(_crafted_threshold(9.0, [9.4, 9.2]))  # a sound result
    waveguide._validate_threshold(_crafted_threshold(PI2 + 5e-4, [9.9, 9.88]))  # within 1e-3
    with pytest.raises(AnalysisError, match=message):
        waveguide._validate_threshold(_crafted_threshold(extrapolated, levels))


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
    for breakpoints, values, r0, message in [
        ([1.0, 20.0], [1.0, 0.5, 0.0], 2.0, "equal length"),
        ([1.5, 20.0], [1.0, 0.0], 2.0, "start at z = 1"),
        ([1.0, 5.0, 5.0, 20.0], [1.0, 0.5, 0.2, 0.0], 2.0, "strictly increasing"),
        ([1.0, 5.0], [1.0, 0.1], 2.0, "Z_max"),
        ([1.0, 20.0], [1.0, 0.1], 2.0, "decay to 0"),
        ([1.0, 20.0], [1.0, 0.0], 1.0, "R0"),
    ]:
        with pytest.raises(HardyError, match=message):
            HardySample(
                breakpoints=np.array(breakpoints), values=np.array(values), r0=r0
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
    WeylConfig(index=1022)
    with pytest.raises(ConfigError, match="must lie in"):
        WeylConfig(index=1023)  # 2^(n+1) would overflow
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
    with pytest.raises(ConfigError, match="meet"):
        support_overlap(1, 1, 1.5)  # transitions wider than half the block


def test_weyl_residual_finite_at_the_largest_index():
    # I2 ~ 2^1022 times the transverse sums would overflow to inf; the two
    # windows see the same transverse field, uncut at outlet lengths >= 2^20
    from polylayer.analysis import weyl_residual

    layer = make_layer(fichera_angle())
    mode = solve_waveguide_mode(layer.beta_min, WaveguideNumerics(h=0.25, levels=2, R=4.0))
    far, last = (weyl_residual(layer, WeylConfig(index=n), mode) for n in (20, 1022))
    assert math.isfinite(last.residual)
    assert last.residual == pytest.approx(far.residual, rel=1e-5)


@pytest.mark.parametrize("n", [1, 2, 5, 14, 40])
def test_window_integrals_match_a_resolved_quadrature(n):
    # 8-point Gauss-Legendre on each transition, in its own coordinate s =
    # z - 2^n (or 2^(n+1) - z), where no rounding of z blurs the 0.35-wide
    # step; exact for the polynomial integrands.  X is 1 between them.
    from numpy.polynomial import Polynomial

    w, length = weyl.Z_WIDTH, 2.0**n
    S = Polynomial([0, 0, 0, 10, -15, 6])
    nodes, weights = np.polynomial.legendre.leggauss(8)
    s, ds = w * (nodes + 1) / 2, w * weights / 2
    assert np.all((length - s) / w >= 1.0)  # the other factor, S(b), is 1 here
    X, X1, X2 = S(s / w), S.deriv(1)(s / w) / w, S.deriv(2)(s / w) / w**2
    reference = {  # both transitions alike, by symmetry
        "I2": (length - 2 * w) + 2 * (X * X) @ ds,
        "I1": 2 * (X1 * X1) @ ds,
        "I11": 2 * (X * X2) @ ds,
        "I22": 2 * (X2 * X2) @ ds,
    }
    got = weyl._window_integrals(n, w)
    for key, value in reference.items():
        assert got[key] == pytest.approx(value, rel=1e-12), key


@pytest.mark.parametrize("theta", [0.3, PI / 2, 2.9])
def test_single_pair_chain_solved_on_mirror_sector(theta):
    # the half mesh with a Neumann axis is the mirror-invariant sector: its
    # vector, lifted onto the whole waveguide, is an M-normalized
    # eigenvector of the full pencil, and its lambda_1 is the full one
    lams, meshes, vals = waveguide._solve_chain(theta, WaveguideNumerics(h=0.25, levels=3, R=2.3))
    for lev, half in enumerate(meshes):
        off = np.flatnonzero(half.nodes[:, 1] != 0.0)
        nodal = np.concatenate([vals[lev][:, 0], vals[lev][off, 0]])  # mirrored's numbering
        problem = assemble_p1(mirrored(half))
        x = nodal[problem.free_nodes][:, None]
        rq, residual, _ = _verify(problem, x)
        assert residual[0] <= 1e-8
        assert rq[0] == pytest.approx(lams[lev, 0], rel=1e-12, abs=0.0)
        assert float(x[:, 0] @ (problem.M.full @ x[:, 0])) == pytest.approx(1.0, abs=1e-12)
        full = smallest_eigenpairs(problem, num_pairs=1, seed=0)
        assert lams[lev, 0] == pytest.approx(full.eigenvalues[0], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("pairs", [2, 6])
@pytest.mark.parametrize("theta", [0.15, PI / 2, 2.4])
def test_multi_pair_chain_merges_the_whole_mesh_pairs(theta, pairs):
    # the two mirror sectors' merged pairs are the whole waveguide's: each
    # column, extended by its sector's parity (odd ones vanish on the axis),
    # is an audited, M-orthonormal eigenvector of the full pencil
    numerics = WaveguideNumerics(h=0.25, levels=3, R=2.3, num_pairs=pairs)
    lams, meshes, vals = waveguide._solve_chain(theta, numerics)
    odd_columns = 0
    for lev, half in enumerate(meshes):
        axis = half.nodes[:, 1] == 0.0
        odd = (vals[lev][axis] == 0.0).all(axis=0)
        odd_columns += odd.sum()
        nodal = np.vstack([vals[lev], np.where(odd, -1.0, 1.0) * vals[lev][~axis]])
        problem = assemble_p1(mirrored(half))
        rq, residuals, defect = _verify(problem, nodal[problem.free_nodes])
        assert (residuals <= 1e-8).all()
        assert defect <= 1e-8
        assert rq == pytest.approx(lams[lev], rel=1e-12, abs=0.0)
        full = smallest_eigenpairs(problem, num_pairs=pairs, seed=0)
        assert lams[lev] == pytest.approx(full.eigenvalues, rel=1e-12, abs=0.0)
    assert odd_columns > 0 or pairs == 2  # six pairs reach both sectors at every angle


def _recorded_solves(monkeypatch):
    """A list that collects (problem, start, shift, result) of every
    eigensolve a chain makes, and the unrecorded eigensolver."""
    calls = []
    solve = es.smallest_eigenpairs

    def recording(problem, num_pairs, seed, start, shift):
        result = solve(problem, num_pairs, seed, start, shift)
        calls.append((problem, start, shift, result))
        return result

    monkeypatch.setattr(es, "smallest_eigenpairs", recording)
    monkeypatch.setattr(waveguide, "smallest_eigenpairs", recording)
    return calls, solve


@pytest.mark.parametrize("num_pairs", [1, 6])
def test_warm_levels_match_cold_solves_in_fewer_inner_solves(num_pairs, monkeypatch):
    # the half-mesh chain and a six-pair chain: each refined level starts
    # from the last level's vectors, prolonged, at a shift below lambda_1
    calls, solve = _recorded_solves(monkeypatch)
    # the two sectors of a multi-pair chain in this process, where they are recorded
    monkeypatch.setattr(waveguide, "fan_out", lambda thunks: [thunk() for thunk in thunks])
    numerics = WaveguideNumerics(h=0.15, levels=3, R=4.0, num_pairs=num_pairs)
    waveguide._solve_chain(0.3, numerics)
    sectors = 1 if num_pairs == 1 else 2
    assert [start is None for _, start, _, _ in calls] == [True, False, False] * sectors
    for problem, start, shift, warm in calls:
        cold = solve(problem, len(warm.eigenvalues))  # the antisymmetric sector solves half
        assert 0.0 <= shift < cold.eigenvalues[0]
        assert np.allclose(warm.eigenvalues, cold.eigenvalues, rtol=1e-12, atol=0.0)
        if start is not None:
            assert warm.iterations < cold.iterations


def test_chain_backs_off_a_shift_above_the_next_lambda1(monkeypatch):
    # the auto-R rule's coarse chain at a right angle drops by 4 % from
    # h = 0.2 to 0.1, so 0.97 lambda_1 of level 0 lies above level 1's
    calls, solve = _recorded_solves(monkeypatch)
    sigmas = []
    shifted_inverse = es._shifted_inverse

    def recording(K, M, shift):
        sigma, inverse = shifted_inverse(K, M, shift)
        sigmas.append(sigma)
        return sigma, inverse

    monkeypatch.setattr(es, "_shifted_inverse", recording)
    lams, _, _ = waveguide._solve_chain(PI / 2, WaveguideNumerics(h=0.2, levels=2, R=4.0))
    problem, _, shift, warm = calls[1]
    assert shift > lams[1, 0] > sigmas[1] > 0.0
    cold = solve(problem, 1)
    assert warm.eigenvalues[0] == pytest.approx(cold.eigenvalues[0], rel=1e-12, abs=0.0)
