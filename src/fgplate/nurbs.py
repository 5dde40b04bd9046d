"""Tensor-product NURBS patches with first and second physical derivatives,
and the integrals of their basis over the patch.

The plate mid-surface is a single rational tensor-product patch on the
parametric square [0,1]^2. Control points are stored on an (nu, nv) grid and
flattened with the u index running fastest: A = i + j * nu.

Every basis evaluation takes one tabulated path, as in Bezier extraction
(Borden, Scott, Evans, Hughes, IJNME 2011): _tables evaluates the 1-D
derivatives at all parameters of both directions in one array call, from one
recursion over the stacked knot windows (a patch has one degree in both
directions), and grid_basis forms R, its physical derivatives, det J and the
points on a whole tensor grid at once, with a leading point axis; the second
physical derivatives come from a closed-form inverse of the second-order
chain rule. surface_basis, physical_derivs and evaluate_point are one-point
calls into it.

locate_point inverts the geometry map by Newton iteration (Piegl and Tiller,
The NURBS Book, 2nd ed., section 6.1). It starts from the nearest entry of a
seed table that each patch evaluates once, and takes its first step from
that seed's stored point and Jacobian, so a located station costs about 3.4
one-point evaluations. Knot insertion and degree elevation act on the whole
control net at once.

The FGM section is graded through the thickness only, so the plate's
operators split into integrals of the basis over the patch, which read no
material, and a small per-case contraction (see assembly). A patch builds
each integral once, on first use: Patch.gram, the global Gram of six basis
channels (R, R_x, R_y, R_xx, R_yy, R_xy) over the coupled control-point
pairs, summed serially in element order from the element Grams
S_e = Phi^T diag(w det J) Phi, and Patch.load_vector, the consistent load
vector of each load. The cases of a sweep over n, a/h or the shear model
share one patch, and with it the Gram and the load vector.

On an 11 x 11 cubic patch (14 x 14 control points) 86 coupled 1-D pairs per
direction give 86^2 = 7,396 nonzero 4 x 4 blocks of K, of which 3,796 have
A <= B, so G takes 3,796 x 36 doubles, 1.1 MB, and about 20 ms to build.
The element Grams (96 x 96 each) would take 8.9 MB: kept for a sweep, they
peaked the table-11 benchmark at 96.1 MB RSS against 87.8 MB (seed 3,
2-vCPU VM) and ran no faster.

G uses a (p+1) x (q+1) Gauss rule per element: on an affine square the
integrands of K, M and Kg are polynomials of degree at most 2p per
direction, which that rule integrates exactly, and on the disks more points
move buckling loads by less than 1e-6. The load vector gets its own
(p+3) x (q+3) rule, because its integrand q(x, y) R det J is not a
polynomial for the half-sine load, nor on the rational disk: the (p+1) rule
leaves a relative error of order 1e-8 in F there, the (p+3) rule one of
order 1e-14.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .bspline import (
    KnotVector,
    _gauss_legendre,
    basis_tables,
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
    """Rational B-spline surface of one degree >= 2 in both directions, so
    the discretization is C1 and a point's u and v tables come from one
    recursion."""

    knot_u: KnotVector
    knot_v: KnotVector
    net: ControlNet
    _loads: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.knot_u.degree < 2 or self.knot_v.degree < 2:
            raise ValueError("patch degrees must be at least 2")
        if self.knot_u.degree != self.knot_v.degree:
            raise ValueError("patch degrees must be equal, got %s" % (self.degrees,))
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

    @cached_property
    def _seeds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Newton starts of locate_point: the parameters (81, 2), points
        (81, 2) and parametric Jacobians (81, 2, 2), jac[k, l] = d x_l /
        d xi_k, of a 9 x 9 grid of cell centres, from one order-1 evaluation
        made once per patch. The grid leaves out the patch corners: the
        rational disk's Jacobian is singular at its 45-degree corners, and a
        Newton iteration started there for a station near one stalls."""
        grid = (np.arange(9) + 0.5) / 9.0
        active, R, dR, _ = _rational(self, *_tables(self, grid, grid, 1))
        pts = self.net.points.reshape(-1, 2, order="F")[active]
        uv = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
        return uv, (R[:, None, :] @ pts)[:, 0], dR.transpose(0, 2, 1) @ pts

    @cached_property
    def gram(self) -> "_GlobalGram":
        """The global Gram of K, M and Kg, built on first use (see the module
        docstring)."""
        return _GlobalGram(self)

    def load_vector(self, load) -> np.ndarray:
        """A fresh copy of the consistent load vector of a load, which the
        patch builds once per load; equal loads share one vector."""
        if load not in self._loads:
            self._loads[load] = _assemble_load(self, load)
        return self._loads[load].copy()

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


def _tables(patch: Patch, xis, etas, order: int):
    """The u and v tables of the tensor grid xis x etas (scalars for one
    point), from one recursion over the stacked knot windows of both
    directions: (params, first, ders) each, ders[k, d, i] being the d-th
    derivative of basis function first[k] + i at params[k]. This is the
    module's only call into basis_tables; every 2-D evaluation combines the
    two tables."""
    pairs = [(knots, np.atleast_1d(np.asarray(t, dtype=float)))
             for knots, t in ((patch.knot_u, xis), (patch.knot_v, etas))]
    return [(t, spans - knots.degree, ders)
            for (knots, t), (spans, ders) in zip(pairs, basis_tables(pairs, order))]


# (u order, v order) of the tensor-product derivatives, in column order
# (value, xi, eta, xi xi, eta eta, xi eta)
_DERIV_PAIRS = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))


def _active_points(patch: Patch, first_u, first_v) -> np.ndarray:
    """Control point indices of the nonzero basis functions on the tensor
    grid of the first 1-D indices first_u x first_v (u outer), shape
    (len(first_u) len(first_v), nb) with the v index outer in each row."""
    p, q = patch.degrees
    iu = first_u[:, None] + np.arange(p + 1)
    iv = first_v[:, None] + np.arange(q + 1)
    active = iv[None, :, :, None] * patch.net.shape[0] + iu[:, None, None, :]
    return active.reshape(len(first_u) * len(first_v), -1)


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
    active = _active_points(patch, first_u, first_v)
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
    """Physical rational basis on the tensor grid of two tables (see _tables).

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
    sit exactly on the circle while the spline boundary sags inside it. The
    sag is small on fine nets (about 0.3% of the radius at an 11x11 cubic
    net) but not on coarse ones: the boundary radius dips to 0.854 R on one
    quadratic element, 0.906 R on one cubic element and 0.978 R on 4 cubic
    elements. A uniform load is then integrated over less than pi R^2, while
    the reports still scale by R. This net reproduces the published
    thick-disk buckling benchmarks; use make_disk_patch when the boundary
    circle itself must be exact.
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


_NEWTON_STEPS = 50


def locate_point(patch: Patch, x: float, y: float) -> tuple[float, float]:
    """Invert the geometry map by Newton iteration with backtracking.

    Newton starts at the nearest point of the patch's seed table, a 9 x 9
    grid of parametric cell centres evaluated once per patch, and its first
    step uses that seed's stored point and Jacobian, so it needs no
    evaluation. Each 2x2 step is solved in closed form, and each trial point
    costs one evaluation, whose u and v tables come from one recursion.
    Each step is halved until the residual decreases; a direction without
    descent (a point off the patch, say) fails at once.
    """
    target = np.array([x, y])
    if not np.all(np.isfinite(target)):
        raise GeometryError(f"station ({x}, {y}) is not a finite point")
    points = patch.net.points.reshape(-1, 2, order="F")
    tol = 1e-13 * max(np.abs(points).max(), 1e-30)
    seed_uv, seed_x, seed_jac = patch._seeds

    def residual(u, v):
        active, R, dR, _ = _rational(patch, *_tables(patch, u, v, 1))
        pts = points[active[0]]
        return R[0] @ pts - target, dR[0].T @ pts

    k = int(np.argmin(np.sum((seed_x - target) ** 2, axis=1)))
    (u, v), res, jac = seed_uv[k].tolist(), seed_x[k] - target, seed_jac[k]
    norm = math.hypot(*res)
    for _ in range(_NEWTON_STEPS):
        if norm <= tol:
            return u, v
        # jac^T (du, dv) = res in closed form
        (xu, yu), (xv, yv) = jac.tolist()
        rx, ry = res.tolist()
        det = xu * yv - yu * xv
        if det == 0.0:
            raise GeometryError(f"inverse map Jacobian singular near {(u, v)}")
        du, dv = (yv * rx - xv * ry) / det, (xu * ry - yu * rx) / det
        t = 1.0
        while True:
            trial = min(max(u - t * du, 0.0), 1.0), min(max(v - t * dv, 0.0), 1.0)
            trial_res, trial_jac = residual(*trial)
            trial_norm = math.hypot(*trial_res)
            if trial_norm < norm:
                break
            t *= 0.5
            if t < 1e-8:  # no descent along the Newton direction, e.g. off the patch
                raise GeometryError(f"inverse map failed to converge for point ({x}, {y})")
        (u, v), res, jac, norm = trial, trial_res, trial_jac, trial_norm
    raise GeometryError(f"inverse map failed to converge for point ({x}, {y})")


# basis channels of the element Gram, in order: R, R_x, R_y, R_xx, R_yy, R_xy
_CHANNELS = 6


def _element_rows(patch: Patch, extra_points: int, order: int):
    """Per row of elements (one u span and every v span, rows in u order):
    the basis of the given order at each element's (p+extra) x (q+extra)
    Gauss points, and the Gauss weights times det J.

    Every array leads with (element, point), elements in v order and points
    with u outer, so the working set is one row of elements. The u and v
    tables of every Gauss point come from one _tables call, and each row
    takes its slice of the u table; the 2-D basis is formed once per row.
    """
    rules = []
    for knots in (patch.knot_u, patch.knot_v):
        gx, gw = _gauss_legendre(knots.degree + extra_points)
        lo, hi = np.array([span[1:] for span in knots.spans()]).T
        half = 0.5 * (hi - lo)
        rules.append(((0.5 * (lo + hi))[:, None] + half[:, None] * gx, half[:, None] * gw))
    (params_u, weights_u), (params_v, weights_v) = rules
    n_el, n_v = params_v.shape
    n_u = params_u.shape[1]
    tab_u, tab_v = _tables(patch, params_u.ravel(), params_v.ravel(), order)

    def by_element(a):
        a = a.reshape((n_u, n_el, n_v) + a.shape[1:]).swapaxes(0, 1)
        return a.reshape((n_el, n_u * n_v) + a.shape[3:])

    for row, weights in enumerate(weights_u):
        points = slice(row * n_u, (row + 1) * n_u)
        basis = grid_basis(patch, [t[points] for t in tab_u], tab_v)
        wq = np.outer(weights, weights_v).ravel() * basis.jacobian_det
        grouped = (None if v is None else by_element(v) for v in vars(basis).values())
        yield BasisLocal(*grouped), by_element(wq)


class _GlobalGram:
    """G[(A, B), (c, d)]: the integral over the patch of w det J times channel
    c of basis function A times channel d of basis function B, one row per
    coupled control-point pair A <= B (rows sorted by A, then B), summed from
    the element Grams in element order. first and second hold A and B of each
    row, diagonal the rows with A = B."""

    def __init__(self, patch: Patch):
        # the first control point of each element along u and v: the points of
        # the elements, in the order of _element_rows and of the basis columns
        first_u, first_v = (np.array([span for span, _, _ in knots.spans()]) - knots.degree
                            for knots in (patch.knot_u, patch.knot_v))
        points = _active_points(patch, first_u, first_v)
        n_el, nb = points.shape
        ia, ib = np.triu_indices(nb)
        keys = (points[:, ia] * patch.n_points + points[:, ib]).ravel()
        keys, slots = np.unique(keys, return_inverse=True)
        slots = slots.reshape(n_el, ia.size)
        self.first, self.second = np.divmod(keys, patch.n_points)
        self.diagonal = np.flatnonzero(self.first == self.second)
        self.values = np.zeros((keys.size, _CHANNELS**2))
        start = 0
        for basis, wq in _element_rows(patch, 1, 2):
            row_el, n_q = wq.shape
            phi = np.concatenate([basis.R[:, :, None], basis.dRdx.swapaxes(2, 3),
                                  basis.d2Rdx2.swapaxes(2, 3)], axis=2).reshape(row_el, n_q, -1)
            # S_e[(c, a), (d, b)], regrouped as S_e[(a, b), (c, d)] over a <= b
            gram = (phi.swapaxes(1, 2) * wq[:, None, :]) @ phi
            gram = gram.reshape(row_el, _CHANNELS, nb, _CHANNELS, nb).transpose(0, 2, 4, 1, 3)
            gram = gram[:, ia, ib].reshape(row_el, ia.size, _CHANNELS**2)
            for rows, ge in zip(slots[start:start + row_el], gram):
                self.values[rows] += ge
            start += row_el


def _assemble_load(patch: Patch, load) -> np.ndarray:
    """Consistent load vector with a (p+3) x (q+3) Gauss rule per element."""
    F = np.zeros(4 * patch.n_points)
    for basis, wq in _element_rows(patch, 3, 1):
        x = basis.point
        wq = wq * load.value(x[..., 0], x[..., 1])
        for active, we, R in zip(basis.active_indices[:, 0], wq, basis.R):
            Fe = we @ R
            F[4 * active + 2] += Fe
            F[4 * active + 3] += Fe
    return F
