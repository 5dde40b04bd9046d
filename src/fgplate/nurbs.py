"""Tensor-product NURBS patches with first and second physical derivatives.

The plate mid-surface is a single rational tensor-product patch on the
parametric square [0,1]^2. Control points are stored on an (nu, nv) grid and
flattened with the u index running fastest: A = i + j * nu.

Every basis evaluation takes one tabulated path, as in Bezier extraction
(Borden, Scott, Evans, Hughes, IJNME 2011): tabulate evaluates the 1-D
derivatives at all parameters of a direction in one array call, and
grid_basis forms R, its physical derivatives, det J and the points on a
whole tensor grid at once, with a leading point axis; the second physical
derivatives come from a closed-form inverse of the second-order chain rule.
surface_basis, physical_derivs and evaluate_point are one-point calls into
it. Knot insertion and degree elevation act on the whole control net at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bspline import (
    KnotVector,
    basis_derivs,
    elevate_bezier,
    greville_abscissae,
    insert_knot,
    open_uniform_knots,
)
from .errors import GeometryError, SingularMappingError

__all__ = [
    "ControlNet",
    "Patch",
    "BasisLocal",
    "tabulate",
    "grid_basis",
    "surface_basis",
    "physical_derivs",
    "make_square_patch",
    "make_disk_patch",
    "make_mapped_disk_patch",
    "h_refine",
    "evaluate_point",
    "locate_point",
]


@dataclass(frozen=True)
class ControlNet:
    """Weighted control grid: points (nu, nv, 2) in length units, weights (nu, nv) > 0."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if points.ndim != 3 or points.shape[2] != 2:
            raise ValueError("points must have shape (nu, nv, 2)")
        if weights.shape != points.shape[:2]:
            raise ValueError("weights grid must match the point grid")
        if np.any(weights <= 0):
            raise ValueError("all control weights must be strictly positive")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def shape(self) -> tuple[int, int]:
        return self.points.shape[:2]

    def homogeneous(self) -> np.ndarray:
        """(nu, nv, 3) array of (w*x, w*y, w)."""
        w = self.weights[..., None]
        return np.concatenate([self.points * w, w], axis=2)


@dataclass(frozen=True)
class Patch:
    """Rational B-spline surface; degrees must be >= 2 so the discretization is C1."""

    knot_u: KnotVector
    knot_v: KnotVector
    net: ControlNet

    def __post_init__(self):
        if self.knot_u.degree < 2 or self.knot_v.degree < 2:
            raise ValueError("patch degrees must be at least 2")
        nu, nv = self.net.shape
        if nu != self.knot_u.n_basis or nv != self.knot_v.n_basis:
            raise ValueError(
                "control grid %s inconsistent with knot vectors (%d, %d)"
                % ((nu, nv), self.knot_u.n_basis, self.knot_v.n_basis)
            )

    @property
    def degrees(self) -> tuple[int, int]:
        return self.knot_u.degree, self.knot_v.degree

    @property
    def n_points(self) -> int:
        nu, nv = self.net.shape
        return nu * nv

    def elements(self) -> list[tuple[tuple[float, float], tuple[float, float]]]:
        """Nonempty knot spans as ((u0, u1), (v0, v1)) rectangles."""
        return [
            ((u0, u1), (v0, v1))
            for _, u0, u1 in self.knot_u.spans()
            for _, v0, v1 in self.knot_v.spans()
        ]


@dataclass(frozen=True)
class BasisLocal:
    """Nonzero rational basis data in physical coordinates, at one point or,
    with the same leading axes on every array (a point axis, or the element
    and point axes of assembly), at a grid of points.

    Columns follow active_indices; dRdx columns are (x, y) and d2Rdx2 columns
    (xx, yy, xy). Fields above the tabulated derivative order are None.
    """

    active_indices: np.ndarray
    R: np.ndarray
    dRdx: Optional[np.ndarray]
    d2Rdx2: Optional[np.ndarray]
    jacobian_det: Optional[np.ndarray]
    point: np.ndarray

    def __getitem__(self, k) -> "BasisLocal":
        """Basis data at point k of a grid."""
        return BasisLocal(*(None if v is None else v[k] for v in vars(self).values()))


def tabulate(knots: KnotVector, params, order: int):
    """1-D nonzero basis functions and derivatives up to order at each parameter.

    Returns (params, first, ders): ders[k, d, i] is the d-th derivative of
    basis function first[k] + i at params[k]. This is the only caller of
    basis_derivs; every 2-D evaluation combines two such tables.
    """
    params = np.atleast_1d(np.asarray(params, dtype=float))
    spans, ders = basis_derivs(knots, params, order)
    return params, spans - knots.degree, ders


def _tables(patch: Patch, xis, etas, order: int):
    """The u and v tables of the tensor grid xis x etas (scalars for one point)."""
    return tabulate(patch.knot_u, xis, order), tabulate(patch.knot_v, etas, order)


# (u order, v order) of the tensor-product derivatives, in column order
# (value, xi, eta, xi xi, eta eta, xi eta)
_DERIV_PAIRS = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))


def _rational(patch: Patch, tab_u, tab_v):
    """Rational basis and its parametric derivatives on the tensor grid of two
    tables, up to their common order.

    Points run with the u parameter outer; columns run with the v index
    outer. Returns (active, R, dR, d2R) shaped (n, m), (n, m), (n, m, 2) and
    (n, m, 3), dR columns (xi, eta), d2R columns (xi xi, eta eta, xi eta);
    derivatives above the order are None.
    """
    (_, first_u, ders_u), (_, first_v, ders_v) = tab_u, tab_v
    order = ders_u.shape[1] - 1
    n = len(first_u) * len(first_v)
    iu = first_u[:, None] + np.arange(ders_u.shape[2])
    iv = first_v[:, None] + np.arange(ders_v.shape[2])
    active = (iv[None, :, :, None] * patch.net.shape[0] + iu[:, None, None, :]).reshape(n, -1)
    wts = patch.net.weights.ravel(order="F")[active]
    # derivative axis first, so that every sum runs over a contiguous axis
    # in the order of a 1-D sum
    k, l = np.array(_DERIV_PAIRS[: (order + 1) * (order + 2) // 2]).T
    wN = wts * np.einsum("bdj,aci->cdabji", ders_v, ders_u)[k, l].reshape(len(k), n, -1)
    W = wN.sum(axis=2, keepdims=True)
    R = wN[0] / W[0]
    if order == 0:
        return active, R, None, None
    derivs = [(wN[1:3] - R * W[1:3]) / W[0]]
    if order == 2:
        (Rxi, Reta), (Wxi, Weta) = derivs[0], W[1:3]
        derivs.append(np.stack([
            wN[3] - 2.0 * Rxi * Wxi - R * W[3],
            wN[4] - 2.0 * Reta * Weta - R * W[4],
            wN[5] - Rxi * Weta - Reta * Wxi - R * W[5],
        ]) / W[0])
    # one contiguous block per point fixes the summation order of the products
    # in grid_basis: det J is ill-conditioned near the rational disk's corners,
    # and another order moves K there by up to 4e-13 relative
    dR, d2R = [d.transpose(1, 2, 0).copy() for d in derivs] + [None] * (2 - order)
    return active, R, dR, d2R


def grid_basis(patch: Patch, tab_u, tab_v) -> BasisLocal:
    """Physical rational basis on the tensor grid of two tables (see tabulate).

    Order 1 tables give R, dRdx, det J and the points, order 2 tables also
    d2Rdx2; order 0 tables give R and the points only. Second derivatives use
    the full chain rule: the geometry Hessian contribution is subtracted, and
    the second-order transform is inverted in closed form from the inverse
    Jacobian.
    """
    active, R, dR, d2R = _rational(patch, tab_u, tab_v)
    pts = patch.net.points.reshape(-1, 2, order="F")[active]
    x = (R[:, None, :] @ pts)[:, 0]
    if dR is None:
        return BasisLocal(active, R, None, None, None, x)

    jac = dR.transpose(0, 2, 1) @ pts  # jac[., k, l] = d x_l / d xi_k
    (xu, yu), (xv, yv) = jac[:, 0].T, jac[:, 1].T
    det = xu * yv - yu * xv
    scale = np.maximum(np.abs(jac).max(axis=(1, 2)), 1.0e-30) ** 2
    singular = np.flatnonzero(np.abs(det) < 1.0e-14 * scale)
    if singular.size:
        a, b = divmod(int(singular[0]), len(tab_v[0]))
        raise SingularMappingError(
            f"geometry Jacobian is singular at (xi, eta) = ({tab_u[0][a]:.6g}, {tab_v[0][b]:.6g})"
        )

    # inverse of jac^T: inv[., k, l] = d xi_k / d x_l
    inv = np.stack([yv, -xv, -yu, xu], axis=-1).reshape(-1, 2, 2) / det[:, None, None]
    dRdx = dR @ inv
    d2Rdx2 = None
    if d2R is not None:
        hess = d2R.transpose(0, 2, 1) @ pts  # rows (xixi, etaeta, xieta), columns (x, y)
        rhs = d2R - dRdx @ hess.transpose(0, 2, 1)
        # rhs is J^T H J for the physical Hessian H, so H = J^-T rhs J^-1:
        # R_xx = a^2 rhs_xixi + 2ab rhs_xieta + b^2 rhs_etaeta with
        # (a, b) = (dxi/dx, deta/dx), and alike for R_yy and R_xy
        (a, c), (b, d) = inv[:, 0].T, inv[:, 1].T
        Tinv = np.stack([a * a, c * c, a * c,
                         b * b, d * d, b * d,
                         2.0 * a * b, 2.0 * c * d, a * d + b * c], axis=-1).reshape(-1, 3, 3)
        d2Rdx2 = rhs @ Tinv
    return BasisLocal(active, R, dRdx, d2Rdx2, det, x)


def surface_basis(patch: Patch, xi: float, eta: float):
    """Rational basis with parametric derivatives up to order 2 at one point.

    Returns (active_indices, R, dR, d2R) where dR has columns (xi, eta) and
    d2R has columns (xi xi, eta eta, xi eta). With unit weights this reduces
    exactly to the tensor-product B-spline basis.
    """
    active, R, dR, d2R = _rational(patch, *_tables(patch, xi, eta, 2))
    return active[0], R[0], dR[0], d2R[0]


def physical_derivs(patch: Patch, xi: float, eta: float) -> BasisLocal:
    """Basis with physical derivatives up to order 2 at one point."""
    return grid_basis(patch, *_tables(patch, xi, eta, 2))[0]


def evaluate_point(patch: Patch, xi: float, eta: float) -> np.ndarray:
    """Physical position of a parametric point."""
    return grid_basis(patch, *_tables(patch, xi, eta, 0)).point[0]


def make_square_patch(
    a: float, b: float, degree: int, n_elements: int, interior_multiplicity: int = 1
) -> Patch:
    """Rectangle [0,a] x [0,b] with open uniform knots and unit weights.

    Control coordinates sit at the Greville abscissae, so the geometry map is
    exactly affine: x = a*xi, y = b*eta. interior_multiplicity controls the
    smoothness across elements (1 = maximal, degree-1 = C1); the benchmark
    presets use 2 on thick plates where published stress values reflect the
    richer space.
    """
    if a <= 0 or b <= 0:
        raise ValueError("plate side lengths must be positive")
    if n_elements < 1:
        raise ValueError("need at least one element per direction")
    ku = open_uniform_knots(degree, n_elements, interior_multiplicity)
    kv = open_uniform_knots(degree, n_elements, interior_multiplicity)
    gu = greville_abscissae(ku)
    gv = greville_abscissae(kv)
    X, Y = np.meshgrid(a * gu, b * gv, indexing="ij")
    points = np.stack([X, Y], axis=2)
    weights = np.ones_like(X)
    return Patch(ku, kv, ControlNet(points, weights))


def make_disk_patch(radius: float, degree: int, n_elements: int) -> Patch:
    """Full circular plate of given radius as a single rational patch.

    Starts from the nine-point bi-quadratic net whose four edges are exact
    quarter-circle arcs (corner weights 1, edge midpoints sqrt(2)/2), degree
    elevates to the requested degree and knot-refines to an n x n element grid.
    The boundary circle is exact throughout.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if degree < 2:
        raise ValueError("disk patch degree must be at least 2")
    s = radius / np.sqrt(2.0)
    m = radius * np.sqrt(2.0)  # tangent intersection of adjacent corner points
    w = np.sqrt(2.0) / 2.0
    pts = np.array(
        [
            [[-s, -s], [-m, 0.0], [-s, s]],
            [[0.0, -m], [0.0, 0.0], [0.0, m]],
            [[s, -s], [m, 0.0], [s, s]],
        ]
    )
    wts = np.array([[1.0, w, 1.0], [w, 1.0, w], [1.0, w, 1.0]])
    homog = ControlNet(pts, wts).homogeneous()

    # elevate the single Bezier segment direction by direction
    homog = elevate_bezier(homog, degree - 2)
    homog = elevate_bezier(homog.swapaxes(0, 1), degree - 2).swapaxes(0, 1)

    ku = KnotVector(np.concatenate([np.zeros(degree + 1), np.ones(degree + 1)]), degree)
    kv = KnotVector(np.concatenate([np.zeros(degree + 1), np.ones(degree + 1)]), degree)
    patch = _patch_from_homogeneous(ku, kv, homog)

    interior = [k / n_elements for k in range(1, n_elements)]
    return h_refine(patch, interior, interior)


def make_mapped_disk_patch(radius: float, degree: int, n_elements: int) -> Patch:
    """Circular plate with a unit-weight control net from the elliptical
    square-to-disk map.

    The Greville grid of an open uniform knot square is pushed through
    (u, v) -> (u sqrt(1 - v^2/2), v sqrt(1 - u^2/2)), so edge control points
    sit exactly on the circle while the spline boundary sags slightly inside
    it (about 0.3% of the radius at an 11x11 cubic net). This net reproduces
    the published thick-disk buckling benchmarks; use make_disk_patch when
    the boundary circle itself must be exact.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    ku = open_uniform_knots(degree, n_elements)
    kv = open_uniform_knots(degree, n_elements)
    gu = 2.0 * greville_abscissae(ku) - 1.0
    gv = 2.0 * greville_abscissae(kv) - 1.0
    U, V = np.meshgrid(gu, gv, indexing="ij")
    X = radius * U * np.sqrt(1.0 - 0.5 * V * V)
    Y = radius * V * np.sqrt(1.0 - 0.5 * U * U)
    points = np.stack([X, Y], axis=2)
    return Patch(ku, kv, ControlNet(points, np.ones_like(X)))


def _patch_from_homogeneous(ku: KnotVector, kv: KnotVector, homog: np.ndarray) -> Patch:
    w = homog[..., 2]
    points = homog[..., :2] / w[..., None]
    return Patch(ku, kv, ControlNet(points, w))


def h_refine(patch: Patch, new_knots_u, new_knots_v) -> Patch:
    """Insert knots in both directions; the surface geometry is unchanged."""
    homog = patch.net.homogeneous()
    ku, kv = patch.knot_u, patch.knot_v

    for xi in new_knots_u:
        ku, homog = insert_knot(ku, homog, xi)
    homog = homog.swapaxes(0, 1)
    for eta in new_knots_v:
        kv, homog = insert_knot(kv, homog, eta)
    homog = homog.swapaxes(0, 1)
    return _patch_from_homogeneous(ku, kv, homog)


def locate_point(patch: Patch, x: float, y: float, max_iter: int = 50) -> tuple[float, float]:
    """Invert the geometry map by Newton iteration with backtracking.

    The start is the nearest of a 9 x 9 grid of parametric cell centres,
    evaluated in one call. The grid leaves out the patch corners: the
    rational disk's Jacobian is singular at its 45-degree corners, and a
    Newton iteration started there for a station near one stalls. Each step
    is halved until the residual decreases; a direction without descent
    (a point off the patch, say) fails at once.
    """
    target = np.array([x, y])
    points = patch.net.points.reshape(-1, 2, order="F")
    scale = max(np.abs(points).max(), 1e-30)
    grid = (np.arange(9) + 0.5) / 9.0
    seeds = grid_basis(patch, *_tables(patch, grid, grid, 0))
    a, b = divmod(int(np.argmin(np.sum((seeds.point - target) ** 2, axis=1))), len(grid))

    def residual(uv):
        active, R, dR, _ = _rational(patch, *_tables(patch, uv[0], uv[1], 1))
        pts = points[active[0]]
        return R[0] @ pts - target, dR[0].T @ pts

    uv = np.array([grid[a], grid[b]])
    res, jac = residual(uv)
    for _ in range(max_iter):
        if np.linalg.norm(res) <= 1e-13 * scale:
            return float(uv[0]), float(uv[1])
        try:
            step = np.linalg.solve(jac.T, res)
        except np.linalg.LinAlgError as exc:
            raise GeometryError(f"inverse map Jacobian singular near {tuple(uv)}") from exc
        t = 1.0
        while True:
            trial = np.clip(uv - t * step, 0.0, 1.0)
            trial_res, trial_jac = residual(trial)
            if np.linalg.norm(trial_res) < np.linalg.norm(res):
                break
            t *= 0.5
            if t < 1e-8:  # no descent along the Newton direction, e.g. off the patch
                raise GeometryError(f"inverse map failed to converge for point ({x}, {y})")
        uv, res, jac = trial, trial_res, trial_jac
    raise GeometryError(f"inverse map failed to converge for point ({x}, {y})")
