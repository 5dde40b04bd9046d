"""One-dimensional B-spline primitives: knot vectors, span lookup, basis
derivatives, knot insertion and degree elevation, and the Gauss-Legendre
rules that integrate over knot spans and through the thickness.

All knot vectors are open (clamped): the end knots repeat degree+1 times, so the
curve interpolates its end control points and evaluation at the right endpoint
falls back to the last nonempty span. Span lookup and basis evaluation take a
scalar or an array of parameters through one vectorized path, which
basis_tables runs once over the parameters of several knot vectors of one
degree; knot insertion and degree elevation act along axis 0 of a control
array of any shape.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DomainError, RefinementError


@dataclass(frozen=True)
class KnotVector:
    """Nondecreasing knot sequence with its polynomial degree.

    Invariants enforced on construction: nondecreasing values, open ends
    (first/last knot repeated exactly degree+1 times), interior multiplicity
    at most the degree.
    """

    values: np.ndarray
    degree: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        p = self.degree
        if p < 0:
            raise ValueError("degree must be nonnegative")
        if values.ndim != 1 or len(values) < 2 * (p + 1):
            raise ValueError("knot vector too short for degree %d" % p)
        if np.any(np.diff(values) < 0):
            raise ValueError("knot values must be nondecreasing")
        if not np.all(values[: p + 1] == values[0]) or values[p + 1] == values[0]:
            raise ValueError("first knot must repeat exactly degree+1 times")
        if not np.all(values[-(p + 1):] == values[-1]) or values[-(p + 2)] == values[-1]:
            raise ValueError("last knot must repeat exactly degree+1 times")
        interior = values[p + 1 : len(values) - (p + 1)]
        if interior.size:
            uniq, counts = np.unique(interior, return_counts=True)
            if np.any(counts > p):
                raise ValueError("interior knot multiplicity exceeds degree")

    @property
    def n_basis(self) -> int:
        return len(self.values) - self.degree - 1

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.values[0]), float(self.values[-1])

    def spans(self) -> list[tuple[int, float, float]]:
        """Nonempty spans as (index, left, right) triples."""
        v = self.values
        return [
            (i, float(v[i]), float(v[i + 1]))
            for i in range(self.degree, len(v) - self.degree - 1)
            if v[i + 1] > v[i]
        ]


def open_uniform_knots(degree: int, n_elements: int, interior_multiplicity: int = 1) -> KnotVector:
    """Open knot vector on [0, 1] with n_elements uniformly spaced spans.

    interior_multiplicity 1 gives maximal smoothness; higher values lower the
    continuity across elements (it must stay below the degree).
    """
    if not 1 <= interior_multiplicity <= max(degree - 1, 1):
        raise ValueError("interior multiplicity must be in [1, degree-1]")
    interior = np.repeat(np.arange(1, n_elements) / n_elements, interior_multiplicity)
    values = np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])
    return KnotVector(values, degree)


def find_span(knots: KnotVector, xi):
    """0-based index i with values[i] <= xi < values[i+1], for a scalar or an
    array of parameters.

    At the right end of the domain the last span, n_basis - 1, is returned so
    that boundary sampling stays evaluable; the open end makes it nonempty.
    Parameters outside the knot range, NaN included, raise DomainError.
    """
    lo, hi = knots.domain
    x = np.asarray(xi)
    if not ((x >= lo) & (x <= hi)).all():
        raise DomainError(f"parameter {xi} outside knot range [{lo}, {hi}]")
    return np.minimum(np.searchsorted(knots.values, xi, side="right") - 1, knots.n_basis - 1)


def basis_derivs(knots: KnotVector, xi, max_deriv: int = 2):
    """Nonzero basis functions and derivatives at a scalar or an array xi.

    Returns (span, ders). For a scalar, span is an int and ders has shape
    (max_deriv+1, degree+1), ders[k, j] being the k-th derivative of basis
    function span-degree+j; an array xi adds a leading parameter axis to both.
    This is basis_tables on one knot vector.
    """
    ((span, ders),) = basis_tables(((knots, xi),), max_deriv)
    if np.ndim(xi) == 0:
        return int(span[0]), ders[0]
    return span, ders


def basis_tables(pairs, max_deriv: int = 2) -> list:
    """basis_derivs of several knot vectors of one degree, each at its own
    parameters, in one recursion.

    pairs holds (knots, xi) pairs, xi a scalar or an array; one (spans,
    ders) pair per input comes back, both with a leading parameter axis.
    The degrees are built bottom-up by the Cox-de Boor recursion, vectorized
    over the basis index and the parameter; the k-th derivative follows from
    the degree p-k functions by k differencing steps. The recursion reads
    only each parameter's window of 2p knots around its span and acts row by
    row, so it runs once over the stacked windows of all pairs, and each
    table is bitwise equal to its own call. Every knot difference divided by
    spans the parameter's nonempty span, so none is zero.
    """
    if max_deriv < 0 or max_deriv > 2:
        raise ValueError("max_deriv must be 0, 1 or 2")
    p = pairs[0][0].degree
    if any(knots.degree != p for knots, _ in pairs):
        raise ValueError("stacked knot vectors must share one degree")
    xs = [np.asarray(xi, dtype=float).reshape(-1) for _, xi in pairs]
    spans = [find_span(knots, x) for (knots, _), x in zip(pairs, xs)]
    x = np.concatenate(xs)[:, None]
    window = np.arange(1 - p, p + 1)
    u = np.concatenate([knots.values[span[:, None] + window]
                        for (knots, _), span in zip(pairs, spans)])
    left = x - u[:, :p]     # xi - U[span+1-j] in column p-j, j = 1..p
    right = u[:, p:] - x    # U[span+j] - xi in column j-1

    N = [np.ones((len(x), 1))]  # N[j]: the j+1 nonzero functions of degree j
    dens = [None]               # dens[j][:, r]: U[span+r+1] - U[span+r+1-j]
    for j in range(1, p + 1):
        dens.append(right[:, :j] + left[:, p - j :])
        temp = N[-1] / dens[j]
        N.append(np.zeros((len(x), j + 1)))
        N[j][:, :j] = right[:, :j] * temp
        N[j][:, 1:] += left[:, p - j :] * temp

    ders = np.zeros((len(x), max_deriv + 1, p + 1))
    ders[:, 0] = N[p]
    for k in range(1, min(max_deriv, p) + 1):
        D = N[p - k]
        for j in range(p - k + 1, p + 1):
            temp = D / dens[j]
            D = np.zeros((len(x), j + 1))
            D[:, 1:] = temp
            D[:, :j] -= temp
            D *= j
        ders[:, k] = D
    ends = accumulate(map(len, spans))
    return [(span, ders[end - len(span):end]) for span, end in zip(spans, ends)]


@functools.lru_cache(maxsize=32)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and returned read-only, since every caller shares them. A run uses a
    handful of orders: p+1 and p+3 over the knot spans of a patch, 30 * 2^k
    through the thickness."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def insert_knot(knots: KnotVector, ctrl: np.ndarray, xi: float) -> tuple[KnotVector, np.ndarray]:
    """Insert one knot at xi (Boehm), returning the refined vector and net.

    ctrl has shape (n_basis, ...), the control points running along axis 0,
    and is treated as homogeneous coordinates; geometry is preserved exactly.
    """
    v = knots.values
    p = knots.degree
    lo, hi = knots.domain
    if not (lo < xi < hi):
        raise RefinementError(f"inserted knot {xi} must lie strictly inside ({lo}, {hi})")
    mult = int(np.sum(v == xi))
    if mult >= p:
        raise RefinementError(f"knot {xi} already has multiplicity {mult} (max {p} allowed)")
    k = int(np.searchsorted(v, xi, side="right") - 1)
    ctrl = np.asarray(ctrl, dtype=float)
    i = np.arange(k - p + 1, k + 1)
    # v[i] <= v[k] <= xi < v[k+1] <= v[i+p]: no denominator is zero
    alpha = ((xi - v[i]) / (v[i + p] - v[i])).reshape((-1,) + (1,) * (ctrl.ndim - 1))
    new_ctrl = np.concatenate([
        ctrl[: k - p + 1],
        alpha * ctrl[k - p + 1 : k + 1] + (1.0 - alpha) * ctrl[k - p : k],
        ctrl[k:],
    ])
    return KnotVector(np.insert(v, k + 1, xi), p), new_ctrl


def elevate_bezier(ctrl: np.ndarray, times: int = 1) -> np.ndarray:
    """Degree-elevate Bezier segments given by their homogeneous net, the
    control points running along axis 0 of an (p+1, ...) array."""
    ctrl = np.asarray(ctrl, dtype=float)
    for _ in range(times):
        p = ctrl.shape[0] - 1
        t = (np.arange(1, p + 1) / (p + 1)).reshape((-1,) + (1,) * (ctrl.ndim - 1))
        ctrl = np.concatenate([ctrl[:1], t * ctrl[:-1] + (1.0 - t) * ctrl[1:], ctrl[-1:]])
    return ctrl


def greville_abscissae(knots: KnotVector) -> np.ndarray:
    """Knot averages; with them as coefficients the spline reproduces x -> x."""
    p = knots.degree
    v = knots.values
    return np.array([v[i + 1 : i + p + 1].mean() for i in range(knots.n_basis)])
