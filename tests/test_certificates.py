import math

import numpy as np
import pytest

from polylayer.analysis import (
    INCONCLUSIVE,
    NONEMPTY,
    AnalysisError,
    WaveguideNumerics,
    alpha_star,
    certify_discrete,
    veps_certificate,
)
from polylayer.analysis import certificates
from polylayer.assembly import assemble_q1, rayleigh_quotient
from polylayer.eigensolve import smallest_eigenpairs
from polylayer.geometry import (
    GeometryError,
    build_regular,
    build_trihedral,
    fichera_angle,
    make_layer,
)
from polylayer.errors import ConfigError
from polylayer.grid3d import Orbits, free_node_orbits, voxelize
from polylayer.mesh2d import axis_rule

PI = math.pi

LIGHT_THRESHOLD = WaveguideNumerics(h=0.1, levels=2, R=6.0)


@pytest.fixture(scope="module")
def fichera_layer():
    return make_layer(fichera_angle())


def test_certify_discrete_structure(fichera_layer):
    cert = certify_discrete(
        fichera_layer,
        R=4.0,
        h=1.0 / 6.0,
        levels=2,
        threshold_numerics=LIGHT_THRESHOLD,
    )
    assert cert.kind == "upper_bound"
    levels = cert.evidence["levels"]
    assert len(levels) == 2
    assert levels[0]["h"] == pytest.approx(1.0 / 3.0)
    assert levels[1]["h"] == pytest.approx(1.0 / 6.0)
    # nested voxel spaces: bounds monotone nonincreasing
    assert levels[1]["upper_bound"] <= levels[0]["upper_bound"] + 1e-10
    assert cert.evidence["upper_bound"] == pytest.approx(
        min(l["upper_bound"] for l in levels)
    )
    # verdict semantics
    if cert.verdict == NONEMPTY:
        assert cert.margin > cert.evidence["combined_indicator"]
    else:
        assert cert.verdict == INCONCLUSIVE
        assert cert.margin <= cert.evidence["combined_indicator"]
    for lev in levels:
        assert lev["residual"] <= 1e-8


@pytest.mark.parametrize(
    "layer_name, R, h",
    (("fichera", 4.0, 0.25), ("fichera", 4.0, 0.125), ("regular-4", 3.0, 0.25)),
)
def test_symmetric_subspace_bound_matches_full_solve(layer_name, R, h):
    # the ground state is invariant under the grid's symmetries, so the
    # bound from the reduced pencil is the full pencil's Rayleigh quotient
    angle = fichera_angle() if layer_name == "fichera" else build_regular(4, PI / 3)
    layer = make_layer(angle)
    (rec,) = certificates.voxel_upper_bounds(layer, R, h, levels=1, seed=0)
    problem = assemble_q1(voxelize(layer, R=R, h=h))
    full = smallest_eigenpairs(problem, num_pairs=1, seed=0)
    ref = rayleigh_quotient(problem, full.eigenvectors[:, 0])
    assert rec["upper_bound"] == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert rec["residual"] <= 1e-8
    assert rec["dofs"] == problem.n


def test_voxel_bounds_assemble_only_the_sector(fichera_layer, monkeypatch):
    # the full grid's pencil is never built: its products are summed cell
    # by cell for the audit
    from polylayer import assembly

    orders = []
    pencil = assembly._pencil

    def recording(n, *args):
        orders.append(n)
        return pencil(n, *args)

    monkeypatch.setattr(assembly, "_pencil", recording)
    recs = certificates.voxel_upper_bounds(fichera_layer, 3.0, 0.125, levels=2, seed=0)
    assert orders == [rec["sector_dofs"] for rec in recs]
    # the records state the sector solved beside the full grid
    orbits = free_node_orbits(voxelize(fichera_layer, R=3.0, h=0.125))
    assert recs[-1]["group_order"] == orbits.order == 6
    assert recs[-1]["sector_dofs"] == orbits.labels.max() + 1
    assert recs[-1]["dofs"] == len(orbits.labels) > recs[-1]["sector_dofs"]


def test_lifted_vector_audited_on_full_grid(fichera_layer, monkeypatch):
    # orbits that are no symmetry of the grid give a lifted vector that is
    # no eigenvector of the full pencil: the audit must refuse it
    def pairs(grid):
        n = int((~grid.dirichlet).sum())
        cells = np.arange(grid.num_active_cells)
        return Orbits(np.arange(n) // 2, 1, cells, np.ones_like(cells))

    monkeypatch.setattr(certificates, "free_node_orbits", pairs)
    with pytest.raises(AnalysisError, match="full-grid residual"):
        certificates.voxel_upper_bounds(fichera_layer, 3.0, 0.25, levels=1, seed=0)


def test_certify_discrete_indicator_never_overstated(fichera_layer):
    # coarse grid alone cannot undercut the threshold: INCONCLUSIVE, not error
    cert = certify_discrete(
        fichera_layer,
        R=3.0,
        h=1.0 / 3.0,
        levels=1,
        threshold_numerics=LIGHT_THRESHOLD,
    )
    assert cert.verdict in (NONEMPTY, INCONCLUSIVE)


def test_veps_requires_regular_layer():
    lay = make_layer(build_trihedral((PI / 2, 0.8, PI / 2)))
    with pytest.raises(GeometryError, match="regular"):
        veps_certificate(lay)


def test_veps_requires_three_levels(fichera_layer):
    with pytest.raises(ConfigError, match="3 levels"):
        veps_certificate(
            fichera_layer, numerics=WaveguideNumerics(h=0.2, levels=2, R=4.0)
        )


def test_veps_fichera_light(fichera_layer):
    cert = veps_certificate(
        fichera_layer,
        eps_grid=np.array([1e-3, 1e-2, 0.05, 0.3, 1.0, 10.0]),
        numerics=WaveguideNumerics(h=0.15, levels=3, R=6.0),
    )
    rows = {r["eps"]: r for r in cert.evidence["terms"]}
    assert rows[0.05]["value"] < 0.0  # small eps: boundary term wins
    assert rows[10.0]["value"] > 0.0  # large eps: T1 dominates
    assert rows[10.0]["T1"] > abs(rows[10.0]["T3"])
    assert cert.verdict == NONEMPTY
    assert cert.evidence["T3_zero"] < 0.0


def test_veps_gamma0_rule_matches_segment_quadrature():
    # T3 from the rule built once per (mesh, v) keeps every bit of a rule
    # built afresh at every epsilon
    alpha, beta = certificates._regular_layer_angles(make_layer(build_regular(3, PI / 3)))
    mode = certificates.solve_waveguide_mode(beta, WaveguideNumerics(h=0.25, levels=2))
    mesh, v = mode.mesh, mode.values[:, 0]
    terms = certificates._veps_terms(mesh, v, alpha, beta)
    half = beta / 2.0
    cot_a = 1.0 / math.tan(alpha / 2.0)
    L = 1.0 / math.sin(half)
    for eps in [*np.geomspace(1e-3, 1.0, 13), 0.0, 1e-4]:

        def wfun(x):
            return np.exp(-2.0 * eps * cot_a * (x - L) * math.cos(half))

        g0 = axis_rule(mesh, v, L)(wfun)
        assert terms(float(eps))["T3"] == float(-cot_a * math.sin(half) * g0)


def test_alpha_star_tol_guard():
    with pytest.raises(ConfigError):
        alpha_star(tol=1e-4)


def test_alpha_star_bad_bracket():
    with pytest.raises(AnalysisError, match="bracket"):
        alpha_star(
            tol=5e-2,
            numerics=WaveguideNumerics(h=0.2, levels=2),
            bracket=(0.9, 1.4),  # lambda1 > pi^2/2 on the whole bracket
        )
