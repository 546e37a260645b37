"""Acceptance suite: one test per criterion, each printing a pass/fail line
in the terminal summary.  Tolerances are pinned here, not tuned at runtime.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_acceptance
from polylayer.analysis import (
    ABSENT_CONSISTENT,
    NONEMPTY,
    WaveguideNumerics,
    WeylConfig,
    absence_experiment,
    certify_discrete,
    count_below_threshold,
    hardy_check,
    lambda1_waveguide,
    random_decaying_sample,
    sample_from_function,
    scan_theta,
    scan_truncation,
    solve_waveguide_mode,
    support_overlap,
    veps_certificate,
    weyl_residual,
)
from polylayer.analysis.weyl import Z_WIDTH
from polylayer.assembly import assemble_p1, assemble_q1
from polylayer.eigensolve import smallest_eigenpairs
from polylayer.extrapolate import richardson
from polylayer.geometry import build_regular, fichera_angle, make_layer
from polylayer.grid3d import box_grid, voxelize
from polylayer.mesh2d import mesh_rectangle, refine

PI = math.pi
PI2 = PI**2

# frozen fine-mesh self-convergence reference for the right-angle waveguide
# (computed at h = 0.04, 3 nested levels to h = 0.01, R = 10)
LAMBDA1_RIGHT_ANGLE_REF = 9.1719


def _criterion(name):
    def wrap(fn):
        def inner(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                record_acceptance(name, False)
                raise
            record_acceptance(name, True, detail or "")

        inner.__name__ = fn.__name__
        return inner

    return wrap


@_criterion("1. analytic benchmarks (square 2pi^2, cube 3pi^2, strip pi^2)")
def test_criterion_1_analytic_benchmarks():
    t0 = time.time()
    mesh = mesh_rectangle(1.0, 1.0, h=0.25)
    lams = []
    for _ in range(3):
        res = smallest_eigenpairs(assemble_p1(mesh))
        lams.append(res.eigenvalues[0])
        mesh = refine(mesh)
    square, _, _ = richardson(lams)
    square_time = time.time() - t0
    assert abs(square - 2 * PI2) / (2 * PI2) < 0.002
    assert square_time < 30.0

    t0 = time.time()
    lams = []
    for h in (0.125, 0.0625):
        res = smallest_eigenpairs(assemble_q1(box_grid((1.0, 1.0, 1.0), h=h)))
        lams.append(res.eigenvalues[0])
    cube, _, _ = richardson(lams)
    cube_time = time.time() - t0
    assert abs(cube - 3 * PI2) / (3 * PI2) < 0.01
    assert cube_time < 180.0

    mesh = mesh_rectangle(3.0, 1.0, h=0.25, tags={"left": "neumann", "right": "neumann"})
    lams = []
    for _ in range(3):
        res = smallest_eigenpairs(assemble_p1(mesh))
        lams.append(res.eigenvalues[0])
        mesh = refine(mesh)
    strip, _, _ = richardson(lams)
    assert abs(strip - PI2) / PI2 < 0.005
    return (
        f"square {square:.4f} cube {cube:.4f} strip {strip:.4f}, "
        f"{square_time:.0f}s/{cube_time:.0f}s"
    )


@_criterion("2. theta-scan strictly increasing in (pi^2/4, pi^2); endpoint bands")
def test_criterion_2_theta_scan():
    t0 = time.time()
    thetas = np.linspace(0.3, 2.9, 12)
    scan = scan_theta(thetas, WaveguideNumerics(h=0.1, levels=3))
    assert scan.strictly_increasing
    assert scan.inside_band
    hi = lambda1_waveguide(3.1, WaveguideNumerics(h=0.08, levels=3))
    assert hi.extrapolated > 0.95 * PI2
    lo = lambda1_waveguide(0.1, WaveguideNumerics(h=0.2, levels=3))
    assert lo.extrapolated < 0.35 * PI2
    elapsed = time.time() - t0
    assert elapsed < 900.0
    return f"12 points + endpoints in {elapsed:.0f}s"


@_criterion("3. eigenvalue counts: theta=pi/2 -> 1, theta=2.4 -> 1, theta=0.15 -> >=2")
def test_criterion_3_counts():
    c1 = count_below_threshold(PI / 2, WaveguideNumerics(h=0.1, levels=3))
    assert c1.count == 1
    c2 = count_below_threshold(2.4, WaveguideNumerics(h=0.1, levels=3))
    assert c2.count == 1
    c3 = count_below_threshold(0.15, WaveguideNumerics(h=0.15, levels=3))
    assert c3.count >= 2
    return f"counts {c1.count}/{c2.count}/{c3.count}"


@_criterion("4. R-scan: nondecreasing, below asymptote, R^2 >= 0.98, exponent 30%")
def test_criterion_4_truncation_scan():
    scan = scan_truncation(
        PI / 2, (2.0, 3.0, 4.0, 5.0, 6.0), WaveguideNumerics(h=0.125, levels=3)
    )
    assert scan.nondecreasing
    assert scan.below_asymptote
    assert scan.fit is not None
    assert scan.fit.r_squared >= 0.98
    target = 2.0 * math.sqrt(PI2 - scan.asymptote)
    assert abs(scan.fit.decay_exponent - target) / target <= 0.30
    return (
        f"fitted exponent {scan.fit.decay_exponent:.3f} vs 2*nu = {target:.3f}, "
        f"R^2 = {scan.fit.r_squared:.4f}"
    )


@_criterion("5. Fichera layer certificate: NONEMPTY with margin (R=6, h=0.1)")
def test_criterion_5_fichera_certificate():
    t0 = time.time()
    layer = make_layer(fichera_angle())
    cert = certify_discrete(layer, R=6.0, h=0.1, levels=2)
    elapsed = time.time() - t0
    assert cert.verdict == NONEMPTY
    assert cert.margin > cert.evidence["combined_indicator"]
    assert elapsed < 600.0
    return (
        f"bound {cert.evidence['upper_bound']:.4f} < threshold "
        f"{cert.threshold_value:.4f}, margin {cert.margin:.4f}, {elapsed:.0f}s"
    )


@_criterion("6. V^eps certificate negative for regular layers; eps -> 0 limit")
def test_criterion_6_veps():
    details = []
    for n, alpha in ((3, PI / 3), (3, PI / 2), (4, PI / 3)):
        layer = make_layer(build_regular(n, alpha))
        cert = veps_certificate(layer, eps_grid=np.geomspace(1e-3, 1.0, 13))
        assert cert.verdict == NONEMPTY
        assert cert.evidence["best_value"] < 0.0
        t3_zero = cert.evidence["T3_zero"]
        tiny = cert.evidence["value_at_small_eps"]
        assert abs(tiny - t3_zero) / abs(t3_zero) < 0.05
        details.append(f"({n},{alpha:.2f}): min {cert.evidence['best_value']:.3f}")
    return "; ".join(details)


@_criterion("7. absence experiment at alpha = 0.26: ABSENT_CONSISTENT, non-proof")
def test_criterion_7_absence():
    cert = absence_experiment(
        0.26,
        R=4.0,
        h=1.0 / 6.0,
        levels=2,
        threshold_numerics=WaveguideNumerics(h=0.1, levels=3),
    )
    assert cert.verdict == ABSENT_CONSISTENT
    cutoff = cert.evidence["cutoff"]
    assert all(d["upper_bound"] >= cutoff for d in cert.evidence["levels"])
    assert any("not a proof" in note for note in cert.notes)
    return (
        f"min bound {min(d['upper_bound'] for d in cert.evidence['levels']):.3f} "
        f">= 0.999 * {cert.threshold_value:.3f}"
    )


@_criterion("8. Hardy inequality: 1000 random samples + closed forms to 1e-6")
def test_criterion_8_hardy():
    from scipy.special import exp1

    rng = np.random.default_rng(2024)
    for _ in range(1000):
        rep = hardy_check(random_decaying_sample(rng))
        assert rep.lemma_holds and rep.corollary_holds

    rep = hardy_check(sample_from_function(lambda z: np.exp(1.0 - z), z_max=30.0, n=30_000))
    lhs_exact = math.e**2 * (math.exp(-4.0) / 2.0 - 2.0 * exp1(4.0))
    rhs_exact = 2.0 * math.exp(-2.0) + 2.0 * (1.0 - math.exp(-2.0))
    assert rep.lemma_lhs == pytest.approx(lhs_exact, abs=1e-6)
    assert rep.lemma_rhs == pytest.approx(rhs_exact, abs=1e-6)
    assert rep.lemma_holds

    rep = hardy_check(
        sample_from_function(lambda z: 1.0 / z, z_max=500.0, n=200_000, taper=3.0)
    )
    assert rep.lemma_lhs == pytest.approx(1.0 / 24.0, abs=1e-6)
    assert rep.lemma_rhs == pytest.approx(1.75, abs=1e-6)
    assert rep.lemma_holds
    return "1000 random + exp(1-z), 1/z closed forms"


@_criterion("9. Weyl residuals strictly decreasing (n = 2..5, kappa = 0, 1)")
def test_criterion_9_weyl():
    layer = make_layer(fichera_angle())
    mode = solve_waveguide_mode(layer.beta_min, WaveguideNumerics(h=0.04, levels=2, R=16.0))
    details = []
    for kappa in (0.0, 1.0):
        residuals = []
        for n in (2, 3, 4, 5):
            el = weyl_residual(
                layer, WeylConfig(index=n, kappa=kappa), mode=mode
            )
            residuals.append(el.residual)
            assert el.norm >= 0.9
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        details.append(
            "kappa=%g: %s" % (kappa, "/".join(f"{r:.2f}" for r in residuals))
        )
    for n in (2, 3, 4):
        assert support_overlap(n, n + 1, Z_WIDTH) == 0.0
    return "; ".join(details)


@_criterion("10. solver contracts: residuals <= 1e-8, M-orthonormal, monotone")
def test_criterion_10_solver_contracts():
    chains = []

    mesh = mesh_rectangle(1.0, 1.0, h=0.125)
    chain = []
    for _ in range(3):
        prob = assemble_p1(mesh)
        res = smallest_eigenpairs(prob, num_pairs=3)
        _assert_contracts(res)
        chain.append(res.eigenvalues)
        mesh = refine(mesh)
    chains.append(np.array(chain))

    mesh = mesh_rectangle(3.0, 1.0, h=0.25, tags={"left": "neumann", "right": "neumann"})
    chain = []
    for _ in range(3):
        res = smallest_eigenpairs(assemble_p1(mesh))
        _assert_contracts(res)
        chain.append(res.eigenvalues)
        mesh = refine(mesh)
    chains.append(np.array(chain))

    chain = []
    for h in (0.125, 0.0625):
        res = smallest_eigenpairs(assemble_q1(box_grid((1.0, 1.0, 1.0), h=h)))
        _assert_contracts(res)
        chain.append(res.eigenvalues)
    chains.append(np.array(chain))

    mode = solve_waveguide_mode(
        PI / 2, WaveguideNumerics(h=0.2, levels=3, R=6.0, num_pairs=3)
    )
    chains.append(mode.threshold.lambda_estimates)

    layer = make_layer(fichera_angle())
    chain = []
    for h in (1.0 / 3.0, 1.0 / 6.0):
        prob = assemble_q1(voxelize(layer, R=4.0, h=h))
        res = smallest_eigenpairs(prob)
        _assert_contracts(res)
        chain.append(res.eigenvalues)
    chains.append(np.array(chain))

    for chain in chains:
        assert (np.diff(chain, axis=0) <= 1e-9).all()
    return f"{len(chains)} nested families, all monotone"


def _assert_contracts(res):
    assert (res.residuals <= 1e-8).all()
    assert res.ortho_defect <= 1e-8


@_criterion("ref. right-angle waveguide reference value (h <= 0.01, R >= 8)")
def test_reference_value_right_angle():
    # fine-mesh self-convergence oracle: h = 0.04 refined to 0.01, R = 10
    mode = solve_waveguide_mode(PI / 2, WaveguideNumerics(h=0.04, levels=3, R=10.0))
    res = mode.threshold
    a, b = res.lambda1_estimates[-2:]
    # stable to 3 significant digits across the last two levels (relative
    # agreement below 1e-3)
    assert abs(a - b) / abs(b) < 1e-3
    assert abs(res.extrapolated - LAMBDA1_RIGHT_ANGLE_REF) < 5e-3
    return f"lambda1 = {res.extrapolated:.5f} (frozen {LAMBDA1_RIGHT_ANGLE_REF})"
