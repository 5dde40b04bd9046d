"""Patch-level tests: partition of unity, B-spline reduction, geometry
reproduction, physical derivatives against finite differences, the grid basis
against one-point calls, the exact circular boundary of the disk patch,
refinement invariance, C1 continuity, the inverse map at random stations
on both disk nets and at a NaN station, its round trip to roundoff near the
rational disk's corners, its evaluation count, the homogeneous map that it
inverts against the rational basis, and the stacked u and v tables against
separate ones."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

import fgplate as fg
from fgplate.bspline import basis_derivs, basis_tables, open_uniform_knots
from fgplate.errors import RefinementError, SingularMappingError
from fgplate.nurbs import (
    _map,
    _rational,
    _tables,
    evaluate_point,
    grid_basis,
    locate_point,
    surface_basis,
)

from oracles import central_diff, central_diff2


@pytest.fixture(scope="module")
def square():
    return fg.make_square_patch(2.0, 1.5, 3, 5)


@pytest.fixture(scope="module")
def disk():
    return fg.make_disk_patch(0.5, 3, 6)


def interior_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return 0.05 + 0.9 * rng.random((n, 2))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_square_patch_counts_and_corners():
    p = fg.make_square_patch(1.0, 1.0, 3, 11)
    assert p.n_points == (11 + 3) ** 2
    assert_allclose(evaluate_point(p, 0.0, 0.0), [0.0, 0.0], atol=1e-15)
    assert_allclose(evaluate_point(p, 1.0, 1.0), [1.0, 1.0], atol=1e-14)


def test_square_patch_is_affine(square):
    # geometry map x = a*xi, y = b*eta; constant Jacobian, zero Hessian
    for xi, eta in interior_points(20, 1):
        b = fg.physical_derivs(square, xi, eta)
        assert_allclose(b.point, [2.0 * xi, 1.5 * eta], atol=1e-13)
        assert_allclose(b.jacobian_det, 3.0, rtol=1e-13)


def test_square_quadrature_area(square):
    gx, gw = np.polynomial.legendre.leggauss(4)
    area = 0.0
    for (u0, u1), (v0, v1) in square.elements():
        du, dv = (u1 - u0) / 2, (v1 - v0) / 2
        for ax, aw in zip(gx, gw):
            for bx, bw in zip(gx, gw):
                b = fg.physical_derivs(square, (u0 + u1) / 2 + du * ax, (v0 + v1) / 2 + dv * bx)
                area += aw * bw * du * dv * b.jacobian_det
    assert abs(area - 3.0) < 1e-12


def test_degree_below_two_rejected():
    with pytest.raises(ValueError):
        fg.make_square_patch(1.0, 1.0, 1, 4)


# ---------------------------------------------------------------------------
# basis identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("patch_name", ["square", "disk"])
def test_partition_of_unity(patch_name, request):
    patch = request.getfixturevalue(patch_name)
    rng = np.random.default_rng(11)
    for xi, eta in rng.random((1000, 2)) * 0.999 + 5e-4:
        b = fg.physical_derivs(patch, xi, eta)
        assert abs(b.R.sum() - 1.0) < 1e-12
        assert np.abs(b.dRdx.sum(axis=0)).max() < 1e-10 / min(
            1.0, abs(b.jacobian_det)
        )
        assert b.jacobian_det > 0


def test_second_derivative_sums(square, disk):
    for patch, tol in ((square, 1e-8), (disk, 1e-6)):
        rng = np.random.default_rng(13)
        for xi, eta in rng.random((200, 2)) * 0.9 + 0.05:
            b = fg.physical_derivs(patch, xi, eta)
            assert np.abs(b.d2Rdx2.sum(axis=0)).max() < tol


def test_unit_weights_reduce_to_bspline(square):
    # rational evaluation with all weights 1 equals the tensor B-spline product
    rng = np.random.default_rng(5)
    pu, pv = square.degrees
    for xi, eta in rng.random((100, 2)):
        active, R, dR, d2R = surface_basis(square, float(xi), float(eta))
        su, du = basis_derivs(square.knot_u, float(xi), 2)
        sv, dv = basis_derivs(square.knot_v, float(eta), 2)
        pure = np.outer(dv[0], du[0]).ravel()
        assert np.abs(R - pure).max() < 1e-15
        assert np.abs(dR[:, 0] - np.outer(dv[0], du[1]).ravel()).max() < 1e-13
        assert np.abs(d2R[:, 2] - np.outer(dv[1], du[1]).ravel()).max() < 1e-12


def test_linear_field_reproduction(disk):
    # coefficients = control x-coordinates reproduce x exactly; derivatives too
    pts = disk.net.points.reshape(-1, 2, order="F")
    for xi, eta in interior_points(25, 3):
        b = fg.physical_derivs(disk, xi, eta)
        coeffs = pts[b.active_indices, 0]
        assert abs(b.R @ coeffs - b.point[0]) < 1e-12
        assert_allclose(b.dRdx.T @ coeffs, [1.0, 0.0], atol=1e-9)
        assert np.abs(b.d2Rdx2.T @ coeffs).max() < 1e-6


# ---------------------------------------------------------------------------
# derivative correctness against finite differences
# ---------------------------------------------------------------------------

def test_parametric_derivatives_match_fd(disk):
    step = 1e-6
    for xi, eta in [(0.3, 0.4), (0.62, 0.57), (0.45, 0.81)]:
        active, R, dR, d2R = surface_basis(disk, xi, eta)

        def component(u, v, idx):
            a2, r2, _, _ = surface_basis(disk, u, v)
            sel = np.flatnonzero(a2 == active[idx])
            return float(r2[sel[0]]) if sel.size else 0.0

        for idx in (0, 5, 10, 15):
            d_xi = central_diff(lambda u: component(u, eta, idx), xi, step)
            d_eta = central_diff(lambda v: component(xi, v, idx), eta, step)
            assert abs(dR[idx, 0] - d_xi) < 2e-6 * max(1.0, abs(d_xi))
            assert abs(dR[idx, 1] - d_eta) < 2e-6 * max(1.0, abs(d_eta))
            dd_xi = central_diff2(lambda u: component(u, eta, idx), xi, 1e-4)
            assert abs(d2R[idx, 0] - dd_xi) < 1e-4 * max(1.0, abs(dd_xi))


def test_physical_second_derivatives_match_fd(disk):
    # sample one basis function as a function of physical position
    xi0, eta0 = 0.37, 0.58
    b0 = fg.physical_derivs(disk, xi0, eta0)
    idx = 7
    target = b0.active_indices[idx]
    x0, y0 = b0.point

    def sample(x, y):
        uv = locate_point(disk, x, y)
        active, R, _, _ = surface_basis(disk, *uv)
        sel = np.flatnonzero(active == target)
        return float(R[sel[0]]) if sel.size else 0.0

    hstep = 2e-4
    fxx = central_diff2(lambda x: sample(x, y0), x0, hstep)
    fyy = central_diff2(lambda y: sample(x0, y), y0, hstep)
    fxy = (
        sample(x0 + hstep, y0 + hstep)
        - sample(x0 + hstep, y0 - hstep)
        - sample(x0 - hstep, y0 + hstep)
        + sample(x0 - hstep, y0 - hstep)
    ) / (4 * hstep**2)
    got = b0.d2Rdx2[idx]
    for value, expected in zip(got, (fxx, fyy, fxy)):
        assert abs(value - expected) < 1e-5 * max(1.0, abs(expected))


# ---------------------------------------------------------------------------
# disk geometry
# ---------------------------------------------------------------------------

def test_disk_boundary_is_exact_circle(disk):
    ts = np.linspace(0.0, 1.0, 90)
    pts = []
    for t in ts:
        pts.append(evaluate_point(disk, t, 0.0))
        pts.append(evaluate_point(disk, t, 1.0))
        pts.append(evaluate_point(disk, 0.0, t))
        pts.append(evaluate_point(disk, 1.0, t))
    radii = np.hypot(*np.array(pts).T)
    assert np.abs(radii - 0.5).max() < 1e-12


def test_disk_seed_weights():
    seed = fg.make_disk_patch(1.0, 2, 1)
    w = seed.net.weights
    assert w.shape == (3, 3)
    assert_allclose(w[1, 0], np.sqrt(2) / 2, rtol=1e-15)
    assert_allclose(w[0, 0], 1.0, rtol=1e-15)
    assert_allclose(w[1, 1], 1.0, rtol=1e-15)


def test_disk_area_converges():
    patch = fg.make_disk_patch(1.0, 3, 11)
    gx, gw = np.polynomial.legendre.leggauss(4)
    area = 0.0
    for (u0, u1), (v0, v1) in patch.elements():
        du, dv = (u1 - u0) / 2, (v1 - v0) / 2
        for ax, aw in zip(gx, gw):
            for bx, bw in zip(gx, gw):
                b = fg.physical_derivs(patch, (u0 + u1) / 2 + du * ax, (v0 + v1) / 2 + dv * bx)
                area += aw * bw * du * dv * b.jacobian_det
    assert abs(area - np.pi) < 1e-8


def test_grid_basis_matches_one_point_calls(disk):
    # a grid across several spans: every point has its own active set
    xis, etas = np.array([0.05, 0.31, 0.62]), np.array([0.12, 0.5, 0.77, 0.93])
    grid = grid_basis(disk, *_tables(disk, xis, etas, 2))
    Bgrid = fg.strain_operators(grid)
    for k, (xi, eta) in enumerate((u, v) for u in xis for v in etas):
        b = fg.physical_derivs(disk, xi, eta)
        assert np.array_equal(grid.active_indices[k], b.active_indices)
        for name in ("R", "dRdx", "d2Rdx2", "jacobian_det", "point"):
            assert_allclose(getattr(grid, name)[k], getattr(b, name), rtol=1e-14, atol=1e-14)
        for batched, single in zip(Bgrid, fg.strain_operators(b)):
            assert_allclose(batched[k], single, rtol=1e-14, atol=1e-14)
    assert evaluate_point(disk, xis[1], etas[2]) == pytest.approx(grid.point[6], abs=1e-15)


def test_disk_corner_mapping_is_singular(disk):
    with pytest.raises(SingularMappingError):
        fg.physical_derivs(disk, 0.0, 0.0)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_refine_adds_one_function_per_knot(square):
    refined = fg.h_refine(square, [0.37], [])
    assert refined.net.shape[0] == square.net.shape[0] + 1
    assert refined.net.shape[1] == square.net.shape[1]


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 4])
def test_rational_disk_has_one_knot_vector(p, n):
    # one vector object, so the patch builds its Taylor pieces once
    patch = fg.make_disk_patch(0.5, p, n)
    assert patch.knot_u is patch.knot_v


def test_refine_shares_equal_knot_vectors_only(square):
    refined = fg.h_refine(square, [0.37], [0.37])
    assert refined.knot_u is refined.knot_v
    refined = fg.h_refine(square, [0.37], [0.41])
    assert refined.knot_u is not refined.knot_v


def test_refine_preserves_geometry_and_unity(disk):
    refined = fg.h_refine(disk, [0.21, 0.43], [0.11, 0.77])
    rng = np.random.default_rng(17)
    for xi, eta in rng.random((200, 2)):
        before = evaluate_point(disk, xi, eta)
        after = evaluate_point(refined, xi, eta)
        assert np.linalg.norm(before - after) < 1e-12
    for xi, eta in rng.random((50, 2)) * 0.9 + 0.05:
        b = fg.physical_derivs(refined, xi, eta)
        assert abs(b.R.sum() - 1.0) < 1e-12


def test_refine_rejects_multiplicity_violation(square):
    inner = square.knot_u.values[square.knot_u.degree + 1]
    p = square.knot_u.degree
    with pytest.raises(RefinementError):
        fg.h_refine(square, [inner] * p, [])


# ---------------------------------------------------------------------------
# continuity and inversion
# ---------------------------------------------------------------------------

def test_c1_across_interior_knots(disk):
    eps = 1e-9
    for knot in [0.5]:
        for eta in (0.3, 0.7):
            bl = fg.physical_derivs(disk, knot - eps, eta)
            br = fg.physical_derivs(disk, knot + eps, eta)
            # compare the common active functions by global index
            common, li, ri = np.intersect1d(bl.active_indices, br.active_indices, return_indices=True)
            assert common.size >= disk.degrees[0]
            assert np.abs(bl.R[li] - br.R[ri]).max() < 1e-7
            assert np.abs(bl.dRdx[li] - br.dRdx[ri]).max() < 1e-5


def test_locate_point_round_trip(square, disk):
    for patch in (square, disk):
        for xi, eta in interior_points(10, 23):
            x, y = evaluate_point(patch, xi, eta)
            u, v = locate_point(patch, x, y)
            x2, y2 = evaluate_point(patch, u, v)
            assert np.hypot(x2 - x, y2 - y) < 1e-11


def test_locate_point_rejects_nan_station(disk):
    # a NaN station used to reach the span check and be reported as a
    # parameter outside the knot range; inf as a failed Newton iteration
    for bad in (np.nan, np.inf):
        with pytest.raises(fg.GeometryError, match=rf"station \({bad}, 0.0\)"):
            locate_point(disk, bad, 0.0)


@pytest.mark.parametrize("make", [fg.make_disk_patch, fg.make_mapped_disk_patch])
def test_locate_point_round_trip_at_random_stations(make):
    # a 9 x 9 grid seed that includes the patch corners started Newton at the
    # rational disk's singular 45-degree corners for stations near them
    radius = 0.5
    patch = make(radius, 3, 11)
    rng = np.random.default_rng(0)
    r = 0.98 * radius * np.sqrt(rng.random(1000))
    theta = 2.0 * np.pi * rng.random(1000)
    for x, y in zip(r * np.cos(theta), r * np.sin(theta)):
        u, v = locate_point(patch, x, y)
        assert np.hypot(*(evaluate_point(patch, u, v) - (x, y))) < 1e-12


# ---------------------------------------------------------------------------
# point location: seed table, stacked tables, evaluation count
# ---------------------------------------------------------------------------

def disk_stations(radius, n, seed, rim=0.98, corner_points=0):
    """n uniform stations at r <= rim * radius and corner_points stations
    within 1e-3 radius of each 45-degree corner of the rational disk."""
    rng = np.random.default_rng(seed)
    r = rim * radius * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    corner = np.pi / 4.0 + np.pi / 2.0 * np.repeat(np.arange(4), corner_points)
    r = np.concatenate([r, radius * (1.0 - rng.uniform(1e-5, 7e-4, corner.size))])
    theta = np.concatenate([theta, corner + rng.uniform(-7e-4, 7e-4, corner.size)])
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


@pytest.mark.parametrize("net", ["square", "rational", "mapped"])
def test_locate_point_round_trips_to_roundoff(net):
    if net == "square":
        patch, size = fg.make_square_patch(2.0, 1.5, 3, 11), 2.0
        stations = np.random.default_rng(1).random((300, 2)) * (2.0, 1.5)
    elif net == "rational":
        patch, size = fg.make_disk_patch(0.5, 3, 11), 0.5
        stations = disk_stations(0.5, 200, 2, rim=0.999, corner_points=25)
    else:
        # the mapped net's boundary sags 0.37% inside the circle at 11 elements
        patch, size = fg.make_mapped_disk_patch(0.5, 3, 11), 0.5
        stations = disk_stations(0.5, 300, 3, rim=0.99)
    # locate_point stops at 1e-13 of the net's largest control coordinate,
    # which is the size of the plate to within 0.1%
    bound = 1e-13 * max(size, np.abs(patch.net.points).max())
    for x, y in stations:
        u, v = locate_point(patch, x, y)
        assert np.hypot(*(evaluate_point(patch, u, v) - (x, y))) <= bound


@pytest.mark.parametrize("net", ["square", "rational", "mapped"])
def test_homogeneous_map_matches_the_rational_basis(net):
    # 400 stations over the net and 100 within about 1e-3 of its corners
    if net == "square":
        patch = fg.make_square_patch(2.0, 1.5, 3, 11)
        rng = np.random.default_rng(5)
        corners = np.repeat([[0.0, 0.0], [2.0, 0.0], [0.0, 1.5], [2.0, 1.5]], 25, axis=0)
        stations = np.concatenate([rng.random((400, 2)) * (2.0, 1.5),
                                   np.abs(corners - rng.uniform(0.0, 1e-3, corners.shape))])
    elif net == "rational":
        patch = fg.make_disk_patch(0.5, 3, 11)
        stations = disk_stations(0.5, 400, 5, rim=0.999, corner_points=25)
    else:
        patch = fg.make_mapped_disk_patch(0.5, 3, 11)
        stations = disk_stations(0.5, 400, 6, rim=0.99, corner_points=25)
    size = np.abs(patch.net.points).max()
    points = patch.net.points.reshape(-1, 2, order="F")
    for x, y in stations:
        u, v = locate_point(patch, x, y)
        (point,), (jac,) = _map(patch, u, v)
        tables = _tables(patch, u, v, 1)
        (active,), _, (dR,), _ = _rational(patch, *tables)
        assert np.abs(point - grid_basis(patch, *tables).point[0]).max() <= 1e-14 * size
        # each Jacobian entry sums 16 terms, whose magnitudes add up to 66
        # times the net's size at the edges of these 11-element nets; on the
        # square both miss the exact affine Jacobian by up to 1.4e-14 of it
        terms = np.abs(dR).sum(axis=0)[:, None] * size
        assert (np.abs(jac - dR.T @ points[active]) <= 1e-14 * terms).all()


@pytest.mark.parametrize("p", [2, 3, 4])
def test_stacked_tables_equal_separate_calls(p):
    # different knots in u and v, so the stacked knot windows differ
    patch = fg.h_refine(fg.make_square_patch(1.0, 1.0, p, 4), [0.1, 0.3, 0.3], [0.6])
    rng = np.random.default_rng(p)
    xis = np.concatenate([rng.random(7), [0.0, 0.3, 1.0]])
    etas = np.concatenate([rng.random(4), [0.25, 1.0]])
    for order in (0, 1, 2):
        for xi, eta in ((xis, etas), (xis[0], etas[1]), (xis[:1], etas)):
            (_, first_u, ders_u), (_, first_v, ders_v) = _tables(patch, xi, eta, order)
            (span_u, sep_u), = basis_tables(((patch.knot_u, xi),), order)
            (span_v, sep_v), = basis_tables(((patch.knot_v, eta),), order)
            for a, b in ((first_u, span_u - p), (first_v, span_v - p),
                         (ders_u, sep_u), (ders_v, sep_v)):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def test_locate_point_tabulates_at_most_four_times(monkeypatch):
    # rebuilding the 9 x 9 seed grid on every call, evaluating the seed's
    # residual again and tabulating u and v apart took 10.7 on average
    calls = []

    def counting(pairs, max_deriv=2):
        calls.append(len(pairs))
        return basis_tables(pairs, max_deriv)

    monkeypatch.setattr(fg.nurbs, "basis_tables", counting)
    monkeypatch.setattr(fg.bspline, "basis_tables", counting)
    stations = disk_stations(0.5, 200, 4)
    for make in (fg.make_disk_patch, fg.make_mapped_disk_patch):
        patch = make(0.5, 3, 11)
        for x, y in stations:
            locate_point(patch, x, y)
    # the seed tables of both patches are counted too
    assert len(calls) / (2 * len(stations)) <= 4.0
    assert set(calls) == {2}


def test_patch_with_two_degrees_raises():
    ku, kv = open_uniform_knots(2, 3), open_uniform_knots(3, 3)
    shape = (ku.n_basis, kv.n_basis)
    net = fg.ControlNet(np.zeros(shape + (2,)), np.ones(shape))
    with pytest.raises(ValueError, match="degrees must be equal"):
        fg.Patch(ku, kv, net)
