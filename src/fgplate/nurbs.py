"""Tensor-product NURBS patches with first and second physical derivatives,
and the integrals of their basis over the patch.

The plate mid-surface is a single rational tensor-product patch on the
parametric square [0,1]^2. Control points are stored on an (nu, nv) grid and
flattened with the u index running fastest: A = i + j * nu.

Every basis evaluation takes one tabulated path. As in Bezier extraction
(Borden, Scott, Evans, Hughes, IJNME 87, 2011), each element's 1-D functions
are polynomials extracted once per knot vector, here as Taylor pieces about
the span midpoint (bspline.KnotVector.pieces) rather than in the Bernstein
basis: _tables looks up the spans of all parameters of both directions and
contracts their pieces with one power table in one array call (a patch has
one degree in both directions). grid_basis forms R, its physical
derivatives, det J and the points on a whole tensor grid at once, with a
leading point axis; the second physical derivatives come from a closed-form
inverse of the second-order chain rule. surface_basis and physical_derivs
are one-point calls into it.

locate_point inverts the geometry map by Newton iteration (Piegl and Tiller,
The NURBS Book, 2nd ed., section 6.1). It starts from the nearest entry of a
seed table that each patch evaluates once, and takes its first step from
that seed's stored point and Jacobian, so a located station costs about 3.4
evaluations of the map. The map (_map, which evaluate_point and the seed
table take too) contracts the two order-1 tables with the homogeneous net
and divides once (algorithms A4.3-A4.4 there), with no 2-D rational basis:
one evaluation takes 46-53 us and a located station 198-235 us on the
11-element cubic rational disk, against 99-139 us and 419-442 us through
the rational basis (least of 5 x 2,000 calls and of 5 passes over 300
stations, 2 BLAS threads, 2-vCPU VM). Knot insertion and degree elevation
act on the whole control net at once.

The FGM section is graded through the thickness only, so the plate's
operators split into integrals of the basis over the patch, which read no
material, and a small per-case contraction (see assembly). A patch builds
each integral once, on first use: Patch.gram, the global Gram of six basis
channels (R, R_x, R_y, R_xx, R_yy, R_xy) over the coupled control-point
pairs, and Patch.load_vector, the consistent load vector of each load, one
entry per control point. Neither knows the plate's DOFs: assembly places
them (assemble writes the load vector into the wb and ws slots). The cases
of a sweep over n, a/h or the shear model share one patch, and with it the
Gram and the load vector.

Each integral picks its method from the patch itself, with no option. G
has three:

- On a tensor net (constant weights, x a function of xi alone and y of eta
  alone: every square) the basis is N_i(xi) N_j(eta) and every channel is a
  product of 1-D channels, so the integrals factor into 1-D Gauss sums (sum
  factorization: Antolin, Buffa, Calabro, Martinelli, Sangalli, CMAME 284,
  2015): G is a product of two 1-D Grams per channel pair, and
  F = B_u^T (w_u x' q w_v y') B_v.
- On a net that the eight symmetries of the square leave invariant (both
  disk nets) G comes from one element per symmetry orbit. The net must be a
  square control grid with one knot vector in both directions, symmetric
  under t -> 1 - t, and its points and weights must map onto themselves
  within 1e-14 of the net's scale under i <-> j with x <-> y, i -> n-1-i
  with x -> -x and j -> n-1-j with y -> -y. A symmetry T then maps basis
  function A onto T A and each channel onto a signed channel, so
  G[(T A, T B), (c, d)] = s_c s_d G[(A, B), (pi c, pi d)]. The element
  Grams are computed for one element per element orbit (21 of 121 at 11
  elements), the representative pair rows (504 of 3,796) are summed from
  them in element order, and every other row is one signed,
  channel-permuted gather of its representative. The discrete K, M and Kg
  then commute with the symmetries up to the roundoff of the contraction;
  the element sums broke them by up to 3.7e-13 of the largest entry.
- On any other patch G is summed serially in element order from the
  element Grams S_e = Phi^T diag(w det J) Phi. This is the reference that
  the other two methods are tested against.

F is factored on a tensor net and summed from the element vectors on any
other patch, the disks' among them.

On an 11 x 11 cubic patch (14 x 14 control points) 86 coupled 1-D pairs per
direction give 86^2 = 7,396 nonzero 4 x 4 blocks of K, of which 3,796 have
A <= B, so G takes 3,796 x 36 doubles, 1.1 MB. Its build time, least of 15
builds of a cubic patch at one BLAS thread on a 2-vCPU VM, over two runs on
the square and four on the disks, which take the orbit path; the last
column is the disks' element sums, and the disk net built first in a
process took the upper end of its range:

| elements | square | rational disk | mapped disk | element sums |
|---|---|---|---|---|
| 11 | 1.3-2.4 ms | 7.0-8.4 ms | 6.6-8.2 ms | 12.3-15.0 ms |
| 15 | 3.5-4.0 ms | 10.5-13.1 ms | 9.9-13.8 ms | 21.0-24.2 ms |
| 21 | 7.4 ms | 22.4-23.5 ms | 22.9-23.9 ms | 48.1-51.3 ms |

At 11 elements on a disk, tabulating the 21 representative elements and
forming their Grams takes about half of the orbit build (3.3 ms), the two
signed gathers 1.7 ms, and the index maps and the sum over the elements the
rest. Every index map is built per patch. The square's load vector takes
0.3-0.5 ms, against 6-7 ms from the element vectors. The element Grams
(96 x 96 each) would take 8.9 MB: kept for a sweep, they peaked the table-11
benchmark at 96.1 MB RSS against 87.8 MB (seed 3, 2-vCPU VM) and ran no
faster.

All methods use the same rules. G uses a (p+1) x (q+1) Gauss rule per
element: on an affine square the integrands of K, M and Kg are polynomials
of degree at most 2p per direction, which that rule integrates exactly, and
on the disks more points move buckling loads by less than 1e-6. The load
vector gets its own (p+3) x (q+3) rule, because its integrand
q(x, y) R det J is not a polynomial for the half-sine load, nor on the
rational disk: the (p+1) rule leaves a relative error of order 1e-8 in F
there, the (p+3) rule one of order 1e-14.
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
        d xi_k, of a 9 x 9 grid of cell centres, from one call of _map made
        once per patch. The grid leaves out the patch corners: the rational
        disk's Jacobian is singular at its 45-degree corners, and a Newton
        iteration started there for a station near one stalls."""
        grid = (np.arange(9) + 0.5) / 9.0
        uv = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
        return (uv,) + _map(self, grid, grid)

    @cached_property
    def _windows(self) -> np.ndarray:
        """The (p+1) x (q+1) blocks of the homogeneous net (w x, w y, w) as
        one strided view: _windows[i, j, c] is channel c of the block whose
        first control point is (i, j)."""
        p, q = self.degrees
        return np.lib.stride_tricks.sliding_window_view(
            self.net.homogeneous(), (p + 1, q + 1), axis=(0, 1))

    @cached_property
    def gram(self) -> "_GlobalGram":
        """The global Gram of K, M and Kg, built on first use (see the module
        docstring)."""
        return _GlobalGram(self)

    def load_vector(self, load) -> np.ndarray:
        """The consistent load vector of a load over the control points,
        read-only: the patch builds it once per load, equal loads share one
        vector, and every call hands out that vector."""
        if load not in self._loads:
            F = _assemble_load(self, load)
            F.flags.writeable = False
            self._loads[load] = F
        return self._loads[load]

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
    tables, up to their common order, 1 or 2.

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


def _check_jacobian(det, size, xis, etas) -> None:
    """Raise SingularMappingError at the first point of the tensor grid
    xis x etas (u outer) where det J vanishes against the square of size,
    the largest entry of J there."""
    singular = np.flatnonzero(np.abs(det) < 1.0e-14 * np.maximum(size, 1.0e-30) ** 2)
    if singular.size:
        a, b = divmod(int(singular[0]), len(etas))
        raise SingularMappingError(
            f"geometry Jacobian is singular at (xi, eta) = ({xis[a]:.6g}, {etas[b]:.6g})"
        )


def grid_basis(patch: Patch, tab_u, tab_v) -> BasisLocal:
    """Physical rational basis on the tensor grid of two tables (see _tables).

    Order 1 tables give R, dRdx, det J and the points, order 2 tables also
    d2Rdx2. Second derivatives use
    the full chain rule: the geometry Hessian contribution is subtracted, and
    the second-order transform is inverted in closed form from the inverse
    Jacobian.
    """
    active, R, dR, d2R = _rational(patch, tab_u, tab_v)
    pts = patch.net.points.reshape(-1, 2, order="F")[active]
    x = (R[:, None, :] @ pts)[:, 0]
    jac = dR.transpose(0, 2, 1) @ pts  # jac[., k, l] = d x_l / d xi_k
    (xu, yu), (xv, yv) = jac[:, 0].T, jac[:, 1].T
    det = xu * yv - yu * xv
    _check_jacobian(det, np.abs(jac).max(axis=(1, 2)), tab_u[0], tab_v[0])

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
    """Physical position of a parametric point, from the map that
    locate_point inverts (_map), so that a located station evaluates back
    to within locate_point's tolerance."""
    return _map(patch, xi, eta)[0][0]


def _map(patch: Patch, xis, etas) -> tuple[np.ndarray, np.ndarray]:
    """The geometry map on the tensor grid xis x etas (u outer; scalars for
    one point): the points x (n, 2) and the parametric Jacobians jac (n, 2,
    2), jac[., k, l] = d x_l / d xi_k.

    The two order-1 tables contract with the (p+1) x (q+1) block of the
    homogeneous net (w x, w y, w) at each point into S = (X, Y, W) and its
    xi and eta derivatives, and one division gives x = (X, Y) / W and
    jac[k] = (d_k (X, Y) - x d_k W) / W (Piegl and Tiller, algorithms
    A4.3-A4.4). No 2-D rational basis is formed. locate_point's Newton
    trials, its seed table and evaluate_point take this one map."""
    (_, first_u, ders_u), (_, first_v, ders_v) = _tables(patch, xis, etas, 1)
    block = patch._windows[first_u[:, None], first_v]
    # S[a, b, l, k]: the derivative of order k in xi and l in eta of (X, Y,
    # W), so that the rows of each point run (value, xi, eta, xi eta)
    S = np.einsum("aki,blj,abcij->ablkc", ders_u, ders_v, block).reshape(-1, 4, 3)
    S = S / S[:, :1, 2:]
    x = S[:, 0, :2]
    return x, S[:, 1:3, :2] - x[:, None] * S[:, 1:3, 2:]


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
    # one knot vector serves both directions, so its pieces are built once
    knots = open_uniform_knots(degree, n_elements, interior_multiplicity)
    g = greville_abscissae(knots)
    X, Y = np.meshgrid(a * g, b * g, indexing="ij")
    points = np.stack([X, Y], axis=2)
    weights = np.ones_like(X)
    return Patch(knots, knots, ControlNet(points, weights))


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

    # one Bezier knot vector for both directions; h_refine keeps them one
    bezier = KnotVector(np.concatenate([np.zeros(degree + 1), np.ones(degree + 1)]), degree)
    patch = _patch_from_homogeneous(bezier, bezier, homog)

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
    the reports still scale by R. At 11 cubic elements the net's area A falls
    short of pi R^2 by 0.58%, and a clamped plate on it answers like the
    exact circle scaled by pi R^2 / A. That deficit, not a better circle, is
    why its thick-disk buckling loads at 11 elements meet the published
    values: the exact circle's converged loads sit 0.52-0.61% below them.
    Use make_disk_patch when the boundary circle itself must be exact.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    knots = open_uniform_knots(degree, n_elements)
    g = 2.0 * greville_abscissae(knots) - 1.0
    U, V = np.meshgrid(g, g, indexing="ij")
    X = radius * U * np.sqrt(1.0 - 0.5 * V * V)
    Y = radius * V * np.sqrt(1.0 - 0.5 * U * U)
    points = np.stack([X, Y], axis=2)
    return Patch(knots, knots, ControlNet(points, np.ones_like(X)))


def _patch_from_homogeneous(ku: KnotVector, kv: KnotVector, homog: np.ndarray) -> Patch:
    w = homog[..., 2]
    points = homog[..., :2] / w[..., None]
    return Patch(ku, kv, ControlNet(points, w))


def h_refine(patch: Patch, new_knots_u, new_knots_v) -> Patch:
    """Insert knots in both directions; the surface geometry is unchanged.
    Where both directions end with equal knot vectors, the refined patch
    gets one vector object for both, so their pieces are built once."""
    homog = patch.net.homogeneous()
    ku, kv = patch.knot_u, patch.knot_v

    for xi in new_knots_u:
        ku, homog = insert_knot(ku, homog, xi)
    homog = homog.swapaxes(0, 1)
    for eta in new_knots_v:
        kv, homog = insert_knot(kv, homog, eta)
    homog = homog.swapaxes(0, 1)
    if np.array_equal(kv.values, ku.values):  # a patch has one degree
        kv = ku
    return _patch_from_homogeneous(ku, kv, homog)


_NEWTON_STEPS = 50


def locate_point(patch: Patch, x: float, y: float) -> tuple[float, float]:
    """Invert the geometry map by Newton iteration with backtracking.

    Newton starts at the nearest point of the patch's seed table, a 9 x 9
    grid of parametric cell centres evaluated once per patch, and its first
    step uses that seed's stored point and Jacobian, so it needs no
    evaluation. Each 2x2 step is solved in closed form, and each trial point
    costs one evaluation of the map (_map): one lookup of its u and v
    tables, contracted with one block of the homogeneous net. Each step is
    halved until the residual decreases; a direction without descent (a
    point off the patch, say) fails at once, and a zero Jacobian
    determinant fails as singular. Each raises GeometryError; the failure
    without descent and the one that uses up the budget of _NEWTON_STEPS
    steps each name the residual against the tolerance. The budget guards
    the loop: no probe has been seen to use it up.

    The first iterate whose residual falls below 1e-13 of the net's largest
    control coordinate is returned, so round trips have a long tail: on
    11-element cubic disks the median error of evaluate_point(locate_point(x))
    - x is 2.0e-16 R (rational) and 2.2e-16 R (mapped), and the largest
    over 500 stations 9.8e-14 R; through the rational basis the medians
    were 1.6e-16 R. evaluate_point takes the same map as the Newton trials,
    so the residual that stops the iteration is the round trip's error.
    """
    target = np.array([x, y])
    if not np.all(np.isfinite(target)):
        raise GeometryError(f"station ({x}, {y}) is not a finite point")
    tol = 1e-13 * max(np.abs(patch.net.points).max(), 1e-30)
    seed_uv, seed_x, seed_jac = patch._seeds

    def residual(u, v):
        x, jac = _map(patch, u, v)
        return x[0] - target, jac[0]

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
                raise GeometryError(f"inverse map found no descent toward point ({x}, {y}): "
                                    f"residual {norm:.3g} above the tolerance {tol:.3g}")
        (u, v), res, jac, norm = trial, trial_res, trial_jac, trial_norm
    raise GeometryError(f"inverse map did not converge in {_NEWTON_STEPS} Newton steps for "
                        f"point ({x}, {y}): residual {norm:.3g} above the tolerance {tol:.3g}")


# basis channels of the element Gram, in order: R, R_x, R_y, R_xx, R_yy, R_xy
_CHANNELS = 6


def _gauss_rules(patch: Patch, extra_points: int):
    """(params, weights) of the (p+extra) Gauss rule on every span, per
    direction: each (spans, points), the weights scaled to the span."""
    rules = []
    for knots in (patch.knot_u, patch.knot_v):
        gx, gw = _gauss_legendre(knots.degree + extra_points)
        lo, hi = np.array([span[1:] for span in knots.spans()]).T
        half = 0.5 * (hi - lo)
        rules.append(((0.5 * (lo + hi))[:, None] + half[:, None] * gx, half[:, None] * gw))
    return rules


def _element_rows(patch: Patch, extra_points: int, order: int, keep=None):
    """Per row of elements (one u span and every v span, rows in u order):
    the basis of the given order at each element's (p+extra) x (q+extra)
    Gauss points, and the Gauss weights times det J. A boolean (u span, v
    span) mask keep, all elements by default, narrows each row to its kept
    elements and skips the rows without one.

    Every array leads with (element, point), elements in v order and points
    with u outer, so the working set is one row of elements. The u and v
    tables of every Gauss point come from one _tables call, and each row
    takes its slice of the u table; the 2-D basis is formed once per row.
    """
    (params_u, weights_u), (params_v, weights_v) = _gauss_rules(patch, extra_points)
    n_u, n_v = params_u.shape[1], params_v.shape[1]
    tab_u, tab_v = _tables(patch, params_u.ravel(), params_v.ravel(), order)

    def by_element(a):
        a = a.reshape((n_u, -1, n_v) + a.shape[1:]).swapaxes(0, 1)
        return a.reshape((a.shape[0], n_u * n_v) + a.shape[3:])

    keep = np.ones((len(weights_u), len(weights_v)), dtype=bool) if keep is None else keep
    for row, weights in enumerate(weights_u):
        if not keep[row].any():
            continue
        points = slice(row * n_u, (row + 1) * n_u)
        columns = (np.flatnonzero(keep[row])[:, None] * n_v + np.arange(n_v)).ravel()
        basis = grid_basis(patch, [t[points] for t in tab_u], [t[columns] for t in tab_v])
        wq = np.outer(weights, weights_v[keep[row]]).ravel() * basis.jacobian_det
        grouped = (None if v is None else by_element(v) for v in vars(basis).values())
        yield BasisLocal(*grouped), by_element(wq)


def _tensor_net(patch: Patch):
    """(x, y) of a patch whose weights are constant and whose control net is
    the tensor product of two 1-D nets, x of the u control points and y of
    the v control points, as on every make_square_patch; None for any other
    patch, the disks' among them. On such a patch R = N_i(xi) N_j(eta),
    x = x(xi) and y = y(eta), so every patch integral factors into 1-D
    Gauss sums (see the module docstring)."""
    weights, points = patch.net.weights, patch.net.points
    x, y = points[:, :1, 0], points[:1, :, 1]
    tensor = ((weights == weights[0, 0]).all() and (points[..., 0] == x).all()
              and (points[..., 1] == y).all())
    return (x[:, 0], y[0]) if tensor else None


def _tensor_tables(patch: Patch, net, extra_points: int):
    """Per direction of a tensor net (see _tensor_net), at the (p+extra)
    Gauss points of every span: the physical coordinate x, the 1-D channels
    B[0] = N, B[1] = N'/x' and B[2] = (N'' - N' x''/x') / x'^2 as dense
    (3, points, basis) tables, and the Gauss weights times x'. det J is
    x' y', checked as grid_basis checks it before anything divides by x'."""
    rules = _gauss_rules(patch, extra_points)
    tables = _tables(patch, rules[0][0].ravel(), rules[1][0].ravel(), 2)
    columns = [first[:, None] + np.arange(ders.shape[2]) for _, first, ders in tables]
    # x, x' and x'' at the points of each direction
    geometry = [(ders * coords[cols][:, None]).sum(axis=2).T
                for (_, _, ders), cols, coords in zip(tables, columns, net)]
    (_, xu, _), (_, yv, _) = geometry
    _check_jacobian(np.outer(xu, yv).ravel(), np.maximum.outer(np.abs(xu), np.abs(yv)).ravel(),
                    tables[0][0], tables[1][0])
    out = []
    for (_, _, ders), cols, (x, dx, d2x), (_, weights), coords in zip(tables, columns, geometry,
                                                                      rules, net):
        d1 = ders[:, 1] / dx[:, None]
        B = np.zeros((3, len(cols), len(coords)))
        B[:, np.arange(len(cols))[:, None], cols] = [
            ders[:, 0], d1, (ders[:, 2] - d1 * d2x[:, None]) / (dx**2)[:, None]]
        out.append((x, B, weights.ravel() * dx))
    return out


class _GlobalGram:
    """G[(A, B), (c, d)]: the integral over the patch of w det J times channel
    c of basis function A times channel d of basis function B, one row per
    coupled control-point pair A <= B (rows sorted by A, then B). first and
    second hold A and B of each row, diagonal the rows with A = B. band_maps
    holds assembly's band map of each fixed-DOF set, keyed by the fixed
    DOFs' bytes, built on first use (see assembly._band_map).

    The patch picks the method (see the module docstring). On a tensor net
    (see _tensor_net) G is a product of 1-D Grams (_tensor_values). On a net
    that the eight symmetries of the square leave invariant (see
    _symmetries) it is integrated over one element per orbit and filled by
    signed gathers (_orbit_values). On any other patch it is summed from the
    element Grams S_e = Phi^T diag(w det J) Phi at (p+1) x (q+1) Gauss
    points, serially in element order."""

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
        self.band_maps = {}
        net = _tensor_net(patch)
        if net is not None:
            self.values = _tensor_values(patch, net, self.first, self.second)
            return
        images = _symmetries(patch)
        if images is not None:
            self.values = _orbit_values(patch, images, points, slots, self.first, self.second)
            return
        self.values = np.zeros((keys.size, _CHANNELS**2))
        start = 0
        for basis, wq in _element_rows(patch, 1, 2):
            gram = _element_grams(basis, wq)
            for rows, ge in zip(slots[start:start + len(gram)], gram):
                self.values[rows] += ge
            start += len(gram)


def _element_grams(basis: BasisLocal, wq: np.ndarray) -> np.ndarray:
    """The element Grams S_e = Phi^T diag(w det J) Phi of a row of elements
    (see _element_rows), as S_e[(a, b), (c, d)] over the local pairs a <= b
    of np.triu_indices: shape (elements, pairs, 36)."""
    row_el, n_q = wq.shape
    nb = basis.R.shape[-1]
    ia, ib = np.triu_indices(nb)
    phi = np.concatenate([basis.R[:, :, None], basis.dRdx.swapaxes(2, 3),
                          basis.d2Rdx2.swapaxes(2, 3)], axis=2).reshape(row_el, n_q, -1)
    # S_e[(c, a), (d, b)], regrouped as S_e[(a, b), (c, d)] over a <= b
    gram = (phi.swapaxes(1, 2) * wq[:, None, :]) @ phi
    gram = gram.reshape(row_el, _CHANNELS, nb, _CHANNELS, nb).transpose(0, 2, 4, 1, 3)
    return gram[:, ia, ib].reshape(row_el, ia.size, _CHANNELS**2)


# the eight symmetries of the square as signed permutation matrices of the
# plane, the identity first: (x, y) -> T (x, y)
_SQUARE_SYMMETRIES = np.array([[[sx, 0], [0, sy]] for sx in (1, -1) for sy in (1, -1)]
                              + [[[0, sx], [sy, 0]] for sx in (1, -1) for sy in (1, -1)])


def _grid_images(n: int) -> np.ndarray:
    """images[k, A] of each point A = i + j n of an n x n grid under T_k =
    _SQUARE_SYMMETRIES[k] acting on the indices centred on the grid."""
    centred = 2 * np.indices((n, n)) - (n - 1)
    i, j = (np.einsum("kab,bij->akji", _SQUARE_SYMMETRIES, centred) + (n - 1)) // 2
    return (i + j * n).reshape(len(i), -1)


def _symmetries(patch: Patch):
    """The control point maps of a patch that the eight symmetries T of the
    square leave invariant: images[k, A] is the point at T_k x(A), with the
    same weight (see _grid_images). The net is a square grid, both knot
    vectors are one vector symmetric under t -> 1 - t, and the points and
    weights agree with their images within 1e-14 of the net's largest
    coordinate and weight, as on both disk nets; None for any other patch.
    The basis then maps as R_{T A}(T x) = R_A(x), so every channel of
    R_{T A} is a signed channel of R_A (see _channel_maps)."""
    knots, (nu, nv) = patch.knot_u.values, patch.net.shape
    if (nu != nv or not np.array_equal(knots, patch.knot_v.values)
            or np.abs(knots + knots[::-1] - knots[0] - knots[-1]).max() > 1e-14):
        return None
    images = _grid_images(nu)
    points = patch.net.points.reshape(-1, 2, order="F")
    weights = patch.net.weights.ravel(order="F")
    if (np.abs(points[images] - points @ _SQUARE_SYMMETRIES.transpose(0, 2, 1)).max()
            > 1e-14 * max(np.abs(points).max(), 1e-30)
            or np.abs(weights[images] - weights).max() > 1e-14 * weights.max()):
        return None
    return images


def _channel_maps() -> tuple[np.ndarray, np.ndarray]:
    """columns[2 k + t] and signs[2 k + t] take the Gram row of (T_k A, T_k B)
    to the row of (A, B), where t says that T_k A > T_k B. With U = T_k^-1,
    the channels (R, R_x, R_y, R_xx, R_yy, R_xy) of R_{U A} at U x are s_c
    times the channels pi_c of R_A at x, so the row of (A, B) is signs times
    the columns (pi_c, pi_d) of the row of (T_k A, T_k B), read as
    (pi_d, pi_c) where t = 1."""
    columns, signs = [], []
    for U in _SQUARE_SYMMETRIES.transpose(0, 2, 1):
        (a, b), (sa, sb) = np.abs(U).argmax(axis=1), U.sum(axis=1)
        pi = np.array([0, 1 + a, 1 + b, 3 + a, 3 + b, 5])
        pairs, sign = pi[:, None] * _CHANNELS + pi, np.array([1, sa, sb, 1, 1, sa * sb])
        columns += [pairs.ravel(), pairs.T.ravel()]
        signs += [np.outer(sign, sign).ravel()] * 2
    return np.array(columns), np.array(signs, dtype=float)


_COLUMNS, _SIGNS = _channel_maps()


def _orbit_values(patch: Patch, images: np.ndarray, points: np.ndarray, slots: np.ndarray,
                  first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """G on a net that the symmetries of the square leave invariant (see
    _symmetries), from the element Grams of one element per orbit.

    Each element and each pair row takes as representative the least index
    in its orbit, its image under T_k for the first k that gives that index.
    The representative rows come from _representative_rows, and every other
    row is its representative row under the channel map of its T_k (see
    _channel_maps). points and slots hold the control points of each element
    and the rows of its local pairs, as in _GlobalGram."""
    # the representative of each pair row over its (8, rows) image table,
    # and whether T_k reverses its pair
    row = np.empty((patch.n_points, patch.n_points), dtype=np.int32)
    row[first, second] = np.arange(len(first))
    image_a, image_b = images[:, first], images[:, second]
    image_rows = row[np.minimum(image_a, image_b), np.maximum(image_a, image_b)]
    k, rep = image_rows.argmin(axis=0), image_rows.min(axis=0)
    is_rep = rep == np.arange(len(first))
    position = np.cumsum(is_rep) - 1
    values = _representative_rows(patch, points, slots, is_rep, position)
    return _signed_gather(values, position[rep], 2 * k + (images[k, first] > images[k, second]))


def _representative_rows(patch: Patch, points: np.ndarray, slots: np.ndarray,
                         is_rep: np.ndarray, position: np.ndarray) -> np.ndarray:
    """The pair rows of G marked in is_rep, in order (position numbers them),
    each summed in element order over the elements that couple its pair. An
    element's share is read from the Gram of its representative element
    under the channel map of its T_k; only the representatives' Grams are
    computed, as on the element path.

    Its temporaries, 1.5 MB at 11 elements, are freed before G is allocated,
    so G reuses their memory: with both alive, glibc trimmed the top of the
    heap after each build, and the next case faulted it back in (480 more
    page faults in a table-11 bending sweep)."""
    nb, p = points.shape[1], patch.degrees[0]
    # the representative of each element and the representatives' Grams; the
    # elements run u span outer, so transpose each index to u fastest and back
    n_el = math.isqrt(len(points))
    transpose = np.arange(n_el**2).reshape(n_el, n_el).T.ravel()
    element_images = transpose[_grid_images(n_el)[:, transpose]]
    k_el, rep_el = element_images.argmin(axis=0), element_images.min(axis=0)
    keep = rep_el == np.arange(n_el * n_el)
    grams, start = np.empty((np.count_nonzero(keep), nb * (nb + 1) // 2, _CHANNELS**2)), 0
    for basis, wq in _element_rows(patch, 1, 2, keep.reshape(n_el, n_el)):
        grams[start:start + len(wq)] = _element_grams(basis, wq)
        start += len(wq)

    # the share of each element in each representative row that it couples
    el, pair = np.nonzero(is_rep[slots])
    ia, ib = np.triu_indices(nb)
    local = np.empty((nb, nb), dtype=np.intp)
    local[ia, ib] = np.arange(ia.size)
    # the local points run u fastest, as the global ones do
    la, lb = (_grid_images(p + 1)[k_el[el], i[pair]] for i in (ia, ib))
    source = ((np.cumsum(keep)[rep_el[el]] - 1) * ia.size
              + local[np.minimum(la, lb), np.maximum(la, lb)])
    target = position[slots[el, pair]]
    order = np.argsort(target, kind="stable")
    shares = _signed_gather(grams.reshape(-1, _CHANNELS**2), source[order],
                            (2 * k_el[el] + (la > lb))[order])
    return np.add.reduceat(shares, np.flatnonzero(np.diff(target[order], prepend=-1)))


def _signed_gather(source: np.ndarray, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Row r of the result is row rows[r] of source under the channel map
    keys[r] (see _channel_maps): one gather per map."""
    out = np.empty((len(rows), _CHANNELS**2))
    for key in range(len(_COLUMNS)):
        at = np.flatnonzero(keys == key)
        out[at] = source[rows[at]][:, _COLUMNS[key]] * _SIGNS[key]
    return out


def _tensor_values(patch: Patch, net, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """G on a tensor net from the nine 1-D Grams of each direction at p+1
    Gauss points per span: G[(A, B), (c, d)] = Iu[alpha_c, alpha_d][iA, iB]
    Iv[beta_c, beta_d][jA, jB] with A = iA + jA nu."""
    nu = patch.net.shape[0]
    factors = []
    for (_, B, wq), orders, a, b in zip(_tensor_tables(patch, net, 1), np.array(_DERIV_PAIRS).T,
                                        np.divmod(first, nu)[::-1], np.divmod(second, nu)[::-1]):
        gram = (B * wq[:, None]).swapaxes(1, 2)[:, None] @ B[None]  # I[alpha, alpha']
        n = gram.shape[-1]
        # rows (a, b) of the 1-D pairs, columns (c, d) of the channel pairs
        gram = np.ascontiguousarray(gram[orders[:, None], orders].reshape(_CHANNELS**2, n * n).T)
        factors.append(np.take(gram, a * n + b, axis=0))
    return np.multiply(*factors, out=factors[0])


def _assemble_load(patch: Patch, load) -> np.ndarray:
    """The consistent load vector F_A = integral of q R_A over the patch, one
    entry per control point, with a (p+3) x (q+3) Gauss rule per element: on
    a tensor net (see _tensor_net) F = B_u^T (w_u x' * q * w_v y') B_v over
    the tensor grid of the 1-D points, on any other patch a sum of element
    vectors."""
    net = _tensor_net(patch)
    if net is not None:
        (x, Bu, wu), (y, Bv, wv) = _tensor_tables(patch, net, 3)
        F = Bu[0].T @ ((wu[:, None] * load.value(x[:, None], y)) * wv) @ Bv[0]
        return F.ravel(order="F")
    F = np.zeros(patch.n_points)
    for basis, wq in _element_rows(patch, 3, 1):
        x = basis.point
        wq = wq * load.value(x[..., 0], x[..., 1])
        for active, we, R in zip(basis.active_indices[:, 0], wq, basis.R):
            F[active] += we @ R
    return F
