import hashlib
import math

import numpy as np
import pytest

from polylayer import mesh2d
from polylayer.geometry import GeometryError
from polylayer.mesh2d import (
    NEUMANN,
    MeshError,
    TriMesh,
    _edges,
    axis_rule,
    check_conforming,
    mesh_lshape,
    mesh_rectangle,
    mirrored,
    prolong,
    refine,
    sample_grid,
)
from polylayer.report import sha256_of_arrays

PI = math.pi


@pytest.fixture(scope="module")
def half_right_angle():
    return mesh_lshape(PI / 2, 4.0, h=0.25)


@pytest.fixture(scope="module")
def mesh_right_angle(half_right_angle):
    return mirrored(half_right_angle)


def test_lshape_area_exact(mesh_right_angle):
    assert mesh_right_angle.total_area == pytest.approx(9.0, abs=1e-10)
    assert (mesh_right_angle.signed_areas() > 0.0).all()


def test_half_mesh_has_a_neumann_axis(half_right_angle):
    half = half_right_angle
    check_conforming(half)
    assert half.total_area == pytest.approx(4.5, abs=1e-10)
    assert (half.signed_areas() > 0.0).all() and (half.nodes[:, 1] >= 0.0).all()
    # Neumann: the end cross-section (1) and the axis O'O (sqrt 2);
    # Dirichlet: the outer wall (cot + R) and the inner wall (R)
    assert half.boundary_length("neumann") == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)
    assert half.boundary_length("dirichlet") == pytest.approx(9.0, abs=1e-10)
    on_axis = (half.nodes[half.boundary_edges, 1] == 0.0).all(axis=1)
    assert (half.boundary_tags[on_axis] == NEUMANN).all() and on_axis.sum() == 4
    # O' and O, the axis ends, lie on the walls
    dirichlet = half.nodes[half.dirichlet_nodes()]
    assert (dirichlet[:, 1] == 0.0).sum() == 2


def test_lshape_conformity(mesh_right_angle):
    check_conforming(mesh_right_angle)


def test_neumann_boundary_length_is_two(mesh_right_angle):
    assert mesh_right_angle.boundary_length("neumann") == pytest.approx(2.0, abs=1e-12)


def test_dirichlet_covers_walls(mesh_right_angle):
    # dirichlet length = outer boundary (2*(cot + R)) + inner walls (2*R)
    cot = 1.0
    expected = 2.0 * (cot + 4.0) + 2.0 * 4.0
    assert mesh_right_angle.boundary_length("dirichlet") == pytest.approx(
        expected, abs=1e-10
    )


def test_h_too_large_rejected():
    with pytest.raises(MeshError):
        mesh_lshape(PI / 2, 4.0, h=0.6)


@pytest.mark.parametrize("h", (0.0, -0.1, math.nan))
def test_h_not_positive_rejected(h):
    with pytest.raises(MeshError, match="positive"):
        mesh_lshape(PI / 2, 4.0, h=h)


def test_mesh_lshape_rejects_theta_and_R():
    # checked before h
    for theta in (PI, -0.1, math.nan):
        with pytest.raises(GeometryError, match=r"opening angle .* not in \(0, pi\)"):
            mesh_lshape(theta, 2.0, h=0.6)
    for R in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(GeometryError, match="outlet length must be positive"):
            mesh_lshape(PI / 2, R, h=0.6)


def test_mesh_lshape_checks_its_area(monkeypatch):
    # the triangles must tile the half waveguide; halved areas do not
    signed_areas = mesh2d._signed_areas
    monkeypatch.setattr(mesh2d, "_signed_areas", lambda *a: 0.5 * signed_areas(*a))
    with pytest.raises(MeshError, match="triangle areas do not sum"):
        mesh_lshape(PI / 2, 2.0, h=0.5)


@pytest.mark.parametrize("theta,R", [(0.1, 3.0), (0.4, 3.0), (2.6, 2.0), (3.1, 2.0)])
def test_meshes_across_angles(theta, R):
    half = mesh_lshape(theta, R, h=0.2)
    for mesh, fraction in ((half, 0.5), (mirrored(half), 1.0)):
        check_conforming(mesh)
        assert mesh.total_area == pytest.approx(
            fraction * (1.0 / math.tan(theta / 2) + 2 * R), rel=1e-12
        )
        assert mesh.min_angle() > 0.0


def _broken(mesh, triangles=None, boundary=slice(None)):
    return TriMesh(
        nodes=mesh.nodes,
        triangles=mesh.triangles if triangles is None else triangles,
        boundary_edges=mesh.boundary_edges[boundary],
        boundary_tags=mesh.boundary_tags[boundary],
    )


def test_check_conforming_rejects_an_edge_of_three_triangles(mesh_right_angle):
    # the first triangle twice: its interior sides then have three triangles
    tris = mesh_right_angle.triangles
    broken = _broken(mesh_right_angle, triangles=np.vstack([tris, tris[:1]]))
    with pytest.raises(MeshError, match="more than two"):
        check_conforming(broken)


def test_check_conforming_rejects_an_untagged_boundary_edge(mesh_right_angle):
    broken = _broken(mesh_right_angle, boundary=slice(1, None))
    with pytest.raises(MeshError, match="topological boundary"):
        check_conforming(broken)


# sha256 of (nodes, triangles, boundary_edges, boundary_tags) of the whole
# waveguide, ``mirrored(mesh_lshape(...))``, and of a rectangle: node and
# triangle order enter the payloads (``mesh_sha256``, the solves' sums)
MESH_DIGESTS = {
    0.3: "4a165e22ccaeb7910b93ac2be0a1b006aa9284c2008f9ab7cdc7347d5c2ed0dc",
    PI / 2: "e4dd99a3cda72f7bc716f36cffffde3c5439cc1f412983c9bc095c1542378ffa",
    2.6: "12b230b78f2ebfc0880a99818a410a0207098a9f8d34ea48505b8ba30291f0a1",
    "refine": "bfbfd35a97b466a7ba699f03480770513fb60c10f4b2b17652f2f4de6d368cc3",
    "rectangle": "0544e30c8a2f9c3abf948e16f037bda1136641fc36b8fdf2c9ca2d6fb6a7c867",
}


def _mesh_digest(mesh):
    return sha256_of_arrays(
        mesh.nodes, mesh.triangles, mesh.boundary_edges, mesh.boundary_tags
    )


@pytest.mark.parametrize("key", list(MESH_DIGESTS), ids=str)
def test_mesh_arrays_pinned(key):
    if key == "rectangle":
        mesh = mesh_rectangle(2.0, 1.0, 0.25, tags={"left": "neumann", "right": "neumann"})
    elif key == "refine":
        mesh = refine(mirrored(mesh_lshape(PI / 2, 2.0, h=0.25)))
    else:
        mesh = mirrored(mesh_lshape(key, 2.0, h=0.25))
    assert _mesh_digest(mesh) == MESH_DIGESTS[key]


def _triangle_set_digest(mesh):
    """sha256 of the triangles as sorted vertex-coordinate triples, rounded
    and sorted: blind to node, triangle and vertex order (+ 0.0 folds -0.0)."""
    corners = np.round(mesh.nodes[mesh.triangles], 9) + 0.0
    rows = sorted(tuple(sorted(map(tuple, tri))) for tri in corners.tolist())
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# the right-angle triangle sets of the kite-and-outlets construction; h = 0.1
# and h = 0.16 put row widths at float near-ties of whole cell counts
RIGHT_ANGLE_TRIANGLE_SETS = {
    (4.0, 0.25): "ceb811467f3fd50866536885475ca6e3c511ec5638b0f22bbeaf324bea4495e6",
    (4.0, 0.1): "46596df1b4ef7ebeeb60b21ff0e076089e2ac89d139bb30aecdbfaae506f1de8",
    (4.97, 0.25): "94a610a9a32db3a2480b2e34eb03afa2921ffa0ff55e7a493e4434c4a32d53b4",
    (4.0, 0.16): "8ec0381edbf8ee12e416cc21435791590f777d673e1817f880a99b32f84cf0b4",
}


@pytest.mark.parametrize("R,h", list(RIGHT_ANGLE_TRIANGLE_SETS))
def test_right_angle_triangle_set_pinned(R, h):
    mesh = mirrored(mesh_lshape(PI / 2, R, h))
    assert _triangle_set_digest(mesh) == RIGHT_ANGLE_TRIANGLE_SETS[(R, h)]


# smallest min_angle() of the kite-and-outlets construction over
# R in {2, 4, 12} and h in {0.5, 0.25, 0.15, 0.1}, per theta
KITE_MIN_ANGLE = {
    0.1: 0.049710256769215956,
    0.15: 0.07393903765793852,
    0.3: 0.141897054604163,
    0.82: 0.3805063771123596,
    1.34: 0.5880026035475651,
    PI / 2: 0.7610127542247166,
    2.4: 0.3707963267948961,
    2.9: 0.12079632679489648,
    3.1: 0.020796326794896527,
}
NODES_PER_AREA = 3.0  # num_nodes * h^2 / area, on every mesh of the grid


@pytest.mark.parametrize("theta", list(KITE_MIN_ANGLE))
def test_node_count_grows_with_area_not_cot_squared(theta):
    cot = 1.0 / math.tan(theta / 2)
    for R in (2.0, 4.0, 12.0):
        for h in (0.5, 0.25, 0.15, 0.1):
            mesh = mirrored(mesh_lshape(theta, R, h))
            # the kite construction: n_c cells along both kite sides and
            # across both outlets, n_a along them
            n_c = max(2, math.ceil(max(1.0, cot) / h - 1e-9))
            n_a = max(1, math.ceil(R / h - 1e-9))
            assert mesh.num_nodes <= (n_c + 1) ** 2 + 2 * n_a * (n_c + 1)
            assert mesh.num_nodes <= NODES_PER_AREA * (cot + 2 * R) / h**2
            # equal triangles can differ by coordinate rounding: allow 1e-12
            assert mesh.min_angle() >= KITE_MIN_ANGLE[theta] - 1e-12


def _sample_reference(mesh, nodal, xs, ys):
    """Point by point over all triangles: the lowest-index triangle whose
    barycentric coordinates are all >= -1e-12, interpolated there."""
    p = mesh.nodes[mesh.triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    det = 2.0 * mesh.signed_areas()
    rows, tris, points = [], [], []
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            rx, ry = x - p[:, 0, 0], y - p[:, 0, 1]
            l1 = d2[:, 1] / det * rx + -d2[:, 0] / det * ry
            l2 = -d1[:, 1] / det * rx + d1[:, 0] / det * ry
            bary = np.stack([1.0 - l1 - l2, l1, l2], axis=1)
            hits = np.flatnonzero((bary >= -1e-12).all(axis=1))
            if len(hits):
                rows.append(bary[hits[0]])
                tris.append(hits[0])
                points.append((a, b))
    values = np.zeros((len(xs), len(ys)))
    inside = np.zeros((len(xs), len(ys)), dtype=bool)
    if points:
        a, b = np.array(points).T
        values[a, b] = np.einsum("ij,ij->i", np.array(rows), nodal[mesh.triangles[tris]])
        inside[a, b] = True
    return values, inside


def test_locate_tie_rule_pinned():
    # nodes and edge midpoints lie in several triangles at once; each takes
    # the lowest-index one, bit for bit.  The points 1e-14 outside the
    # rectangle pass the barycentric test, though they lie outside every
    # triangle's bounding box
    mesh = mesh_rectangle(2.0, 1.0, h=0.25)
    nodal = np.random.default_rng(4).normal(size=mesh.num_nodes)
    xs = np.concatenate([[-1e-14], np.linspace(0.0, 2.0, 17), [2.0 + 1e-14]])  # spacing h / 2
    ys = np.concatenate([[-1e-14], np.linspace(0.0, 1.0, 9), [1.0 + 1e-14]])
    values, inside = sample_grid(mesh, nodal, xs, ys)
    ref_values, ref_inside = _sample_reference(mesh, nodal, xs, ys)
    assert inside.all() and ref_inside.all()
    assert values.tobytes() == ref_values.tobytes()
    # two triangles over the same ground, with different nodal values: the
    # first one's values are read wherever both contain a point
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for order in ([0, 1], [1, 0]):
        twins = TriMesh(
            nodes=np.vstack([corners, corners]),
            triangles=np.array([[0, 1, 2], [3, 4, 5]])[order],
            boundary_edges=np.empty((0, 2), dtype=np.int64),
            boundary_tags=np.empty(0, dtype=str),
        )
        values, inside = sample_grid(twins, np.repeat([1.0, 2.0], 3), [0.0, 0.25, 0.5], [0.0, 0.5])
        assert inside.all() and (values == 1.0 + order[0]).all()


def test_locate_no_points(mesh_right_angle):
    nodal = np.ones(mesh_right_angle.num_nodes)
    for xs, ys in (([], [0.5, 1.0]), ([0.5, 1.0], []), ([], [])):
        values, inside = sample_grid(mesh_right_angle, nodal, xs, ys)
        assert values.shape == inside.shape == (len(xs), len(ys))


@pytest.mark.parametrize("theta", [0.3, PI / 2, 2.6])
def test_locate_matches_reference(theta):
    mesh = refine(mesh_lshape(theta, 2.0, h=0.25))
    rng = np.random.default_rng(11)
    nodal = rng.normal(size=mesh.num_nodes)
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    xs, ys = (np.sort(rng.uniform(lo[k] - 0.5, hi[k] + 0.5, 40)) for k in (0, 1))
    values, inside = sample_grid(mesh, nodal, xs, ys)
    ref_values, ref_inside = _sample_reference(mesh, nodal, xs, ys)
    assert inside.any() and not inside.all()
    assert np.array_equal(inside, ref_inside)
    assert values.tobytes() == ref_values.tobytes()


def test_sample_grid_outside_is_flagged_zero(mesh_right_angle):
    xs, ys = np.linspace(-2.0, 6.0, 33), np.linspace(-4.0, 4.0, 33)
    values, inside = sample_grid(mesh_right_angle, np.ones(mesh_right_angle.num_nodes), xs, ys)
    assert inside.any() and not inside.all()
    assert not inside[0].any()  # x = -2 lies left of the waveguide
    assert (values[~inside] == 0.0).all()
    assert np.allclose(values[inside], 1.0, rtol=0.0, atol=1e-13)


def test_refine_counts_area_nesting_tags(mesh_right_angle):
    fine = refine(mesh_right_angle)
    assert fine.num_triangles == 4 * mesh_right_angle.num_triangles
    assert fine.total_area == pytest.approx(mesh_right_angle.total_area, abs=1e-12)
    # parent nodes are a prefix of the child nodes
    assert np.array_equal(
        fine.nodes[: mesh_right_angle.num_nodes], mesh_right_angle.nodes
    )
    assert fine.parent is mesh_right_angle
    for tag in ("dirichlet", "neumann"):
        assert fine.boundary_length(tag) == pytest.approx(
            mesh_right_angle.boundary_length(tag), abs=1e-10
        )
    check_conforming(fine)


def test_nested_chain_depth_three(mesh_right_angle):
    m = mesh_right_angle
    for _ in range(3):
        m = refine(m)
    assert m.total_area == pytest.approx(9.0, abs=1e-10)
    assert m.boundary_length("neumann") == pytest.approx(2.0, abs=1e-10)
    assert np.array_equal(m.parent.nodes, m.nodes[: m.parent.num_nodes])


@pytest.mark.parametrize("theta", [0.15, 0.3, 1.0, PI / 2, 2.4, 2.9])
def test_refine_children_positively_oriented(theta):
    # refine relies on every child inheriting its parent's orientation
    mesh = mesh_lshape(theta, 1.0, h=0.5)
    for _ in range(3):
        mesh = refine(mesh)
        assert (mesh.signed_areas() > 0.0).all()


def _p1_oracle(mesh, nodal, pts):
    """The P1 field at each point, from the first triangle found containing
    it by solving for its barycentric coordinates."""
    out = np.empty(len(pts))
    for i, pt in enumerate(pts):
        for tri in mesh.triangles:
            a, b, c = mesh.nodes[tri]
            l12 = np.linalg.solve(np.array([b - a, c - a]).T, pt - a)
            lam = np.array([1.0 - l12.sum(), *l12])
            if (lam >= -1e-12).all():
                out[i] = lam @ nodal[tri]
                break
        else:
            raise AssertionError(f"{pt} lies in no triangle")
    return out


def test_prolong_keeps_the_p1_field():
    # nested P1 spaces: the prolonged values are the coarse field's values
    # at the fine nodes, column by column
    coarse = mesh_lshape(PI / 2, 1.0, h=0.5)
    fine = refine(coarse)
    nodal = np.random.default_rng(3).standard_normal((coarse.num_nodes, 2))
    values = prolong(coarse, nodal)
    assert values.shape == (fine.num_nodes, 2)
    for j in range(2):
        expected = _p1_oracle(coarse, nodal[:, j], fine.nodes)
        assert np.allclose(values[:, j], expected, rtol=0.0, atol=1e-12)


def test_evaluate_partition_of_unity(mesh_right_angle):
    ones = np.ones(mesh_right_angle.num_nodes)
    # the whole waveguide's bounding box: the grid points in the strip are inside
    xs, ys = np.linspace(0.0, 5.0, 51), np.linspace(-3.5, 3.5, 71)
    vals, inside = sample_grid(mesh_right_angle, ones, xs, ys)
    assert inside.sum() > 500
    assert np.allclose(vals[inside], 1.0, rtol=0.0, atol=1e-13)


def test_evaluate_reproduces_linears(mesh_right_angle):
    rng = np.random.default_rng(6)
    xs, ys = np.sort(rng.uniform(0.0, 5.0, 30)), np.sort(rng.uniform(-3.5, 3.5, 30))
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = mesh_right_angle.nodes
    f = 0.5 + nodes[:, 0] - 2.0 * nodes[:, 1]
    vals, inside = sample_grid(mesh_right_angle, f, xs, ys)
    assert inside.sum() > 100
    assert np.allclose(vals[inside], (0.5 + X - 2.0 * Y)[inside], atol=1e-12)
    # a grid point on a node reads the nodal value
    nid = 17
    vals, inside = sample_grid(mesh_right_angle, f, nodes[[nid], 0], nodes[[nid], 1])
    assert inside[0, 0] and vals[0, 0] == pytest.approx(f[nid], abs=1e-12)


def test_evaluate_continuous_across_edges(mesh_right_angle):
    mesh = mesh_right_angle
    rng = np.random.default_rng(8)
    values = rng.normal(size=mesh.num_nodes)
    # interior edges: shared by two triangles; interpolate from both sides
    from collections import defaultdict

    owners = defaultdict(list)
    for t, tri in enumerate(mesh.triangles):
        for k in range(3):
            a, b = int(tri[k]), int(tri[(k + 1) % 3])
            owners[(min(a, b), max(a, b))].append(t)
    interior = [e for e, ts in owners.items() if len(ts) == 2]
    sel = rng.choice(len(interior), size=min(1000, len(interior)), replace=False)

    def interp_in(t, p):
        tri = mesh.triangles[t]
        a, b, c = mesh.nodes[tri]
        T = np.array([b - a, c - a]).T
        l12 = np.linalg.solve(T, p - a)
        lam = np.array([1 - l12.sum(), *l12])
        return float(lam @ values[tri])

    for k in sel:
        (a, b), (t1, t2) = interior[k], owners[interior[k]]
        s = rng.uniform(0.05, 0.95)
        p = (1 - s) * mesh.nodes[a] + s * mesh.nodes[b]
        assert abs(interp_in(t1, p) - interp_in(t2, p)) < 1e-12


def test_segment_quadrature_constant():
    # the axis edges of [0, 2], a part of the side y = 0
    mesh = mesh_rectangle(3.0, 1.0, h=0.25)
    val = axis_rule(mesh, np.ones(mesh.num_nodes), 2.0)()
    assert val == pytest.approx(2.0, abs=1e-13)


def test_segment_quadrature_polynomial():
    mesh = mesh_rectangle(1.0, 1.0, h=0.25)
    f = mesh.nodes[:, 0].copy()
    val = axis_rule(mesh, f, 1.0)()
    assert val == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_segment_quadrature_exponential_weight():
    mesh = mesh_rectangle(2.0, 1.0, h=0.2)
    ones = np.ones(mesh.num_nodes)
    c = 0.7
    val = axis_rule(mesh, ones, 2.0)(lambda x: np.exp(-2 * c * x))
    exact = (1.0 - math.exp(-4 * c)) / (2 * c)
    assert val == pytest.approx(exact, abs=1e-8)


def test_segment_quadrature_exits_domain(mesh_right_angle):
    # the axis ends at the inner vertex O; a segment between nodes is not
    # covered by whole edges
    length = math.sqrt(2.0)  # |O'O| = 1/sin(theta/2)
    for mesh, end in ((mesh_right_angle, 1.5 * length), (mesh_rectangle(2.0, 1.0, 0.25), 1.1)):
        with pytest.raises(MeshError, match="do not cover"):
            axis_rule(mesh, np.ones(mesh.num_nodes), end)


def test_segment_along_mesh_edges():
    # O'O lies on triangle edges at every angle, the graded sharp ones too,
    # and on every refined level
    for theta in (0.15, PI / 2, 2.9):
        length = 1.0 / math.sin(theta / 2.0)  # |O'O|
        mesh = mesh_lshape(theta, 2.0, h=0.25)
        for fine in (mesh, refine(mesh)):
            val = axis_rule(fine, np.ones(fine.num_nodes), length)()
            assert val == pytest.approx(length, rel=1e-13)


def test_min_angle_reported_for_sharp_theta():
    mesh = mesh_lshape(0.18, 2.0, h=0.2)
    check_conforming(mesh)
    assert mesh.total_area == pytest.approx((1 / math.tan(0.09) + 4.0) / 2, rel=1e-12)
    # theta-dependent bound, no silent slivers; the 4-split children are
    # similar to their parent, so refinement keeps it
    assert mesh.min_angle() > 0.01
    assert refine(mesh).min_angle() == pytest.approx(mesh.min_angle(), abs=1e-12)


def test_rectangle_mesh_rejects_bad_input():
    for h in (0.0, -0.25):
        with pytest.raises(MeshError, match="h must be positive"):
            mesh_rectangle(1.0, 1.0, h)
    with pytest.raises(MeshError, match=r"unknown rectangle sides: \['front'\]"):
        mesh_rectangle(1.0, 1.0, 0.25, tags={"left": NEUMANN, "front": NEUMANN})


def test_rectangle_mesh_tags_and_area():
    mesh = mesh_rectangle(3.0, 1.0, h=0.25, tags={"left": "neumann", "right": "neumann"})
    check_conforming(mesh)
    assert mesh.total_area == pytest.approx(3.0, abs=1e-12)
    assert mesh.boundary_length("neumann") == pytest.approx(2.0, abs=1e-12)
    assert mesh.boundary_length("dirichlet") == pytest.approx(6.0, abs=1e-12)


def _half_chain(theta):
    # R = 2.3 is no multiple of h, so the outlets' last cells are short
    mesh = mesh_lshape(theta, 2.3, h=0.25)
    return [mesh, refine(mesh), refine(refine(mesh))]


def _triangle_set(tris):
    return {tuple(sorted(t)) for t in tris.tolist()}


@pytest.mark.parametrize("theta", [0.1, 0.15, 0.3, PI / 2, 2.9, 3.1])
def test_mirror_map_is_the_reflection(theta):
    # mirrored keeps the half's nodes and triangles as prefixes and appends
    # the images of the nodes off the axis (y != 0) in order: on level 0
    # that is the numbering of MESH_DIGESTS
    for half in _half_chain(theta):
        mesh = mirrored(half)
        check_conforming(mesh)
        n, t = half.num_nodes, half.num_triangles
        off = np.flatnonzero(half.nodes[:, 1] != 0.0)
        assert np.array_equal(mesh.nodes[:n], half.nodes)
        assert np.array_equal(mesh.triangles[:t], half.triangles)
        assert mesh.num_nodes == n + len(off) and mesh.num_triangles == 2 * t
        mirror = np.arange(mesh.num_nodes)
        mirror[off], mirror[n:] = np.arange(n, mesh.num_nodes), off
        assert np.array_equal(mesh.nodes[mirror], mesh.nodes * [1.0, -1.0])
        assert np.array_equal(mirror[mirror], np.arange(mesh.num_nodes))
        assert _triangle_set(mirror[mesh.triangles]) == _triangle_set(mesh.triangles)
        assert (mesh.signed_areas() > 0.0).all()
        # the Dirichlet nodes: the half's, and their images
        dirichlet = mesh.dirichlet_nodes()
        assert np.array_equal(np.sort(mirror[dirichlet]), dirichlet)
        assert np.array_equal(dirichlet[dirichlet < n], half.dirichlet_nodes())
        assert mesh.boundary_length(NEUMANN) == pytest.approx(2.0, abs=1e-12)
        # every triangle on one closed side of the axis y = 0
        y = mesh.nodes[mesh.triangles, 1]
        assert ((y >= 0.0).all(axis=1) | (y <= 0.0).all(axis=1)).all()


def test_edge_table_matches_row_unique():
    # refine builds each child's table itself; it must be np.unique's,
    # dtypes included, on every level of half and whole meshes
    for theta in (0.15, 1.0, 2.9):
        half = mesh_lshape(theta, 2.3, h=0.25)
        for mesh in (half, mirrored(half)):
            for _ in range(3):
                mesh = refine(mesh)
                tris = mesh.triangles
                sides = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
                ref, ref_inverse = np.unique(np.sort(sides, axis=1), axis=0, return_inverse=True)
                edges, inverse = _edges(mesh)
                assert edges.dtype == ref.dtype and np.array_equal(edges, ref)
                assert inverse.dtype == ref_inverse.dtype
                assert np.array_equal(inverse, ref_inverse.ravel())
                check_conforming(mesh)


@pytest.mark.parametrize("whole", [False, True], ids=("half", "mirrored"))
def test_children_are_scaled_images_of_their_parent(whole):
    # child j's side i is half of the parent's side CHILD_VERTICES[j][i],
    # the same way round for a corner child, reversed for the middle one
    mesh = mesh_lshape(0.7, 1.5, h=0.25)
    mesh = mirrored(mesh) if whole else mesh
    fine = refine(mesh)

    def side_vectors(m):
        p = m.nodes[m.triangles]
        return p[:, [1, 2, 0]] - p

    parent = side_vectors(mesh)[:, mesh2d.CHILD_VERTICES]  # (T, child j, side i)
    child = side_vectors(fine).reshape(parent.shape)
    sign = np.array([1.0, 1.0, 1.0, -1.0])[:, None, None]
    scale = np.abs(mesh.nodes).max()
    assert np.abs(child - 0.5 * sign * parent).max() <= 1e-15 * scale
