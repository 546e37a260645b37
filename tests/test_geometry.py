import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylayer import geometry
from polylayer.geometry import (
    GeometryError,
    build_regular,
    build_trihedral,
    fichera_angle,
    from_rays,
    make_layer,
    trihedral_dihedrals_lawcos,
    vector_angle,
)

PI = math.pi


def feasible_triple(a1, a2, a3):
    a = (a1, a2, a3)
    if sum(a) >= 2 * PI - 1e-3:
        return False
    for j in range(3):
        if a[j] >= a[(j + 1) % 3] + a[(j + 2) % 3] - 1e-3:
            return False
    return True


def test_octant_dihedrals():
    a = build_trihedral((PI / 2, PI / 2, PI / 2))
    assert np.allclose(a.dihedral_angles, PI / 2, atol=1e-12)


def test_two_right_vertex_angles_min_dihedral_is_alpha():
    for alpha in (0.26, 0.5, 1.0, 1.3):
        a = build_trihedral((PI / 2, alpha, PI / 2))
        assert a.beta_min == pytest.approx(alpha, abs=1e-12)
        assert a.dihedral_angles[0] == pytest.approx(alpha, abs=1e-12)


def test_equilateral_trihedral_against_lawcos_oracle():
    a = build_trihedral((PI / 3, PI / 3, PI / 3))
    assert np.allclose(a.dihedral_angles, math.acos(1.0 / 3.0), atol=1e-12)


def test_infeasible_triples_rejected_with_named_inequality():
    with pytest.raises(GeometryError, match="alpha_1 >= alpha_2 \\+ alpha_3"):
        build_trihedral((2.0, 0.5, 0.5))
    with pytest.raises(GeometryError, match="2\\*pi"):
        build_trihedral((2.5, 2.5, 2.0))
    with pytest.raises(GeometryError, match="not in \\(0, pi\\)"):
        build_trihedral((0.0, 1.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.2, 2.6),
    st.floats(0.2, 2.6),
    st.floats(0.2, 2.6),
)
def test_trihedral_dihedrals_match_lawcos_and_angles_roundtrip(a1, a2, a3):
    if not feasible_triple(a1, a2, a3):
        return
    angle = build_trihedral((a1, a2, a3))
    # vertex angles recomputed from rays reproduce the inputs
    assert np.allclose(angle.vertex_angles, (a1, a2, a3), atol=1e-12)
    # normal-based dihedrals agree with the spherical law of cosines
    ref = trihedral_dihedrals_lawcos((a1, a2, a3))
    assert np.max(np.abs(ref - angle.dihedral_angles)) < 1e-10


def test_regular_octant_equivalence():
    reg = build_regular(3, PI / 2)
    assert np.allclose(reg.vertex_angles, PI / 2, atol=1e-12)
    assert np.allclose(reg.dihedral_angles, PI / 2, atol=1e-10)


def test_regular_four_faces_equal_dihedrals_and_inscribed():
    reg = build_regular(4, PI / 3)
    assert np.ptp(reg.dihedral_angles) < 1e-10
    layer = make_layer(reg)
    assert layer.inscribed_ball_residual <= 1e-10


def test_regular_infeasible_alpha_names_bound():
    with pytest.raises(GeometryError, match="2\\*pi/n"):
        build_regular(4, PI / 2)  # alpha must be < pi/2 for n = 4


def test_trihedral_dihedrals_cross_checked(monkeypatch):
    # a law-of-cosines oracle that disagrees by more than 1e-10 is refused
    lawcos = geometry.trihedral_dihedrals_lawcos
    monkeypatch.setattr(geometry, "trihedral_dihedrals_lawcos", lambda a: lawcos(a) + 1e-9)
    with pytest.raises(GeometryError, match="spherical-law cross-check"):
        build_trihedral((PI / 2, PI / 3, PI / 2))


def test_regular_construction_checks_equal_dihedrals(monkeypatch):
    def tilted(rays):
        rays = np.array(rays, dtype=float)
        rays[0, 2] += 0.1  # one ray off the cone: the angle is no longer regular
        return from_rays(rays)

    monkeypatch.setattr(geometry, "from_rays", tilted)
    with pytest.raises(GeometryError, match="unequal dihedral angles"):
        build_regular(4, PI / 3)


def test_regular_equilateral_matches_trihedral_oracle():
    reg = build_regular(3, PI / 3)
    assert np.allclose(reg.dihedral_angles, math.acos(1.0 / 3.0), atol=1e-10)


def test_fichera_layer_shift_and_membership():
    layer = make_layer(fichera_angle())
    assert np.allclose(sorted(layer.shift), [1.0, 1.0, 1.0], atol=1e-12)
    assert bool(layer.contains(np.array([0.5, 2.0, 3.0])))
    assert not bool(layer.contains(np.array([2.0, 2.0, 2.0])))
    assert not bool(layer.contains(np.array([-0.1, 2.0, 3.0])))


def test_membership_matches_direct_face_distances():
    rng = np.random.default_rng(7)
    layer = make_layer(build_trihedral((PI / 2, 0.9, PI / 2)))
    pts = rng.uniform(-1.0, 6.0, size=(10_000, 3))
    d = layer.outer_distances(pts)
    expected = (d > 0.0).all(axis=1) & (d.min(axis=1) < 1.0)
    assert np.array_equal(layer.contains(pts), expected)


def test_perturbed_four_gonal_angle_rejected_as_layer():
    reg = build_regular(4, PI / 3)
    rays = reg.rays.copy()
    # azimuthal twist of one ray by 0.1 rad: still a convex solid angle,
    # but no common inscribed ball
    c, s = math.cos(0.1), math.sin(0.1)
    rot_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    rays[0] = rot_z @ rays[0]
    perturbed = from_rays(rays)
    with pytest.raises(GeometryError, match="not inscribed-ball"):
        make_layer(perturbed)


def _sample_inside(layer, rng, count, box=6.0):
    pts = rng.uniform(-box, box, size=(count * 12, 3))
    pts = pts[layer.contains(pts)]
    return pts[:count]


@pytest.mark.parametrize(
    "angle",
    [
        fichera_angle(),
        build_regular(4, PI / 3),
        build_trihedral((PI / 2, 0.8, PI / 2)),
        build_trihedral((1.2, 0.9, 1.0)),
    ],
)
def test_partition_covers_layer_with_measure_zero_overlap(angle):
    layer = make_layer(angle)
    rng = np.random.default_rng(11)
    pts = _sample_inside(layer, rng, 4000)
    assert len(pts) > 1000
    n_claims = np.array([len(layer.classify_partition(p)) for p in pts])
    assert (n_claims >= 1).all()
    # overlap only on the cut planes: generic samples land in exactly one piece
    assert np.mean(n_claims == 1) > 0.999


def test_vector_angle_stability():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([math.cos(1e-8), math.sin(1e-8), 0.0])
    assert vector_angle(u, v) == pytest.approx(1e-8, rel=1e-6)


@pytest.mark.parametrize(
    "rays,message",
    [
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], "zero vector"),
        ([[1, 0, 0], [0, 1, 0]], "at least 3 rays"),
        ([[1, 0, 0], [2, 0, 0], [0, 1, 0]], "rays 0 and 1 are collinear"),
        ([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0.3, 0.3, 1]], "not a convex polyhedral angle"),
        ([[1, 0, 0], [0, 1, 0], [-1, -1, 0]], "non-solid"),
        # ray 1 lies in the plane of rays 0 and 2: a dihedral angle of pi
        ([[1, 0, 1], [0.5, 0.5, 1], [0, 1, 1], [-1, -1, 1]], r"dihedral angles .* \(0, pi\)"),
    ],
    ids=["zero-ray", "two-rays", "collinear", "non-convex", "coplanar", "flat-edge"],
)
def test_from_rays_rejects_with_named_reason(rays, message):
    with pytest.raises(GeometryError, match=message):
        from_rays(rays)


def test_from_rays_clockwise_order_keeps_inward_normals():
    # reversed order: every cross product of consecutive rays points out
    # and is flipped
    angle = from_rays(np.eye(3)[::-1])
    assert np.allclose(angle.dihedral_angles, PI / 2, atol=1e-12)
    assert (angle.normals @ angle.rays.T >= -1e-12).all()
    assert (angle.normals @ np.ones(3) > 0.0).all()


def test_constructors_reject_malformed_input():
    with pytest.raises(GeometryError, match="trihedral angles only"):
        trihedral_dihedrals_lawcos((1.0, 1.0))
    with pytest.raises(GeometryError, match="exactly 3 vertex angles"):
        build_trihedral((1.0, 1.0))
    # feasible by the strict inequalities, flat to rounding
    with pytest.raises(GeometryError, match="degenerate third ray"):
        build_trihedral((1.0, 0.5, 0.5 + 1e-15))
    with pytest.raises(GeometryError, match="n >= 3 faces"):
        build_regular(2, 1.0)
    for alpha in (0.0, math.nan):
        with pytest.raises(GeometryError, match=r"not in \(0, pi\)"):
            build_regular(3, alpha)
