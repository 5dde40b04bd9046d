"""Independent reference solutions used to pin expected values.

Everything here is deliberately separate from the package implementation:
naive recursions, finite differences, trigonometric series and Bessel roots,
and a band packer for systems built by hand.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.special import jn_zeros

from fgplate.materials import FGMSpec, ShearModel, effective_props, shear_fn


# ---------------------------------------------------------------------------
# LAPACK lower band storage, packed diagonal by diagonal
# ---------------------------------------------------------------------------

def lower_band(matrix, kd: int | None = None) -> np.ndarray:
    """A symmetric matrix in LAPACK lower band storage, the format of
    GlobalSystem's K, M and Kg: ab[k, j] = A[j + k, j] for k = 0..kd
    (default: the full width n - 1), zeros past the end of each diagonal."""
    A = np.asarray(matrix, dtype=float)
    n = A.shape[0]
    kd = max(n - 1, 0) if kd is None else kd
    ab = np.zeros((kd + 1, n))
    for k in range(kd + 1):
        ab[k, :n - k] = np.diagonal(A, -k)
    return ab


# ---------------------------------------------------------------------------
# B-spline oracle: direct two-term recursion, no tables
# ---------------------------------------------------------------------------

def naive_bspline(values: np.ndarray, i: int, p: int, xi: float) -> float:
    """Cox-de Boor recursion, 0/0 -> 0, right-closed at the last knot."""
    v = values
    if p == 0:
        if v[i] <= xi < v[i + 1]:
            return 1.0
        if xi == v[-1] and v[i] < v[i + 1] and xi == v[i + 1]:
            return 1.0
        return 0.0
    left = 0.0
    if v[i + p] > v[i]:
        left = (xi - v[i]) / (v[i + p] - v[i]) * naive_bspline(v, i, p - 1, xi)
    right = 0.0
    if v[i + p + 1] > v[i + 1]:
        right = (v[i + p + 1] - xi) / (v[i + p + 1] - v[i + 1]) * naive_bspline(v, i + 1, p - 1, xi)
    return left + right


def naive_bspline_deriv(values: np.ndarray, i: int, p: int, xi: float, k: int) -> float:
    """k-th derivative of N_{i,p} by the recursion of The NURBS Book (2.9),
    a term with a zero knot difference dropped."""
    if k == 0:
        return naive_bspline(values, i, p, xi)
    v = values
    out = 0.0
    if v[i + p] > v[i]:
        out += p / (v[i + p] - v[i]) * naive_bspline_deriv(v, i, p - 1, xi, k - 1)
    if v[i + p + 1] > v[i + 1]:
        out -= p / (v[i + p + 1] - v[i + 1]) * naive_bspline_deriv(v, i + 1, p - 1, xi, k - 1)
    return out


def central_diff(f, x: float, step: float) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def central_diff2(f, x: float, step: float) -> float:
    return (f(x + step) - 2.0 * f(x) + f(x - step)) / step**2


# ---------------------------------------------------------------------------
# Section constants by brute-force quadrature (fixed fine trapezoid rule)
# ---------------------------------------------------------------------------

def section_blocks_bruteforce(spec: FGMSpec, model: ShearModel, h: float, n: int = 20001):
    z = np.linspace(-h / 2, h / 2, n)
    E, nu, rho = effective_props(z, h, spec)
    E, nu, rho = np.asarray(E), np.asarray(nu), np.asarray(rho)
    f, fp, g, _ = shear_fn(model, z, h)
    q11 = E / (1 - nu**2)
    q12 = nu * q11
    q66 = E / (2 * (1 + nu))

    def integ(y):
        return np.trapezoid(y, z)

    blocks = {}
    for name, fac in [("A", np.ones_like(z)), ("B", z), ("D", z * z), ("E", g), ("F", z * g), ("H", g * g)]:
        blocks[name] = np.array(
            [
                [integ(q11 * fac), integ(q12 * fac), 0.0],
                [integ(q12 * fac), integ(q11 * fac), 0.0],
                [0.0, 0.0, integ(q66 * fac)],
            ]
        )
    ds = integ(fp * fp * q66) * np.eye(2)
    inertias = [integ(rho * fac) for fac in (np.ones_like(z), z, z * z, g, z * g, g * g)]
    return blocks, ds, inertias


# ---------------------------------------------------------------------------
# Trigonometric-series plate solutions (SSSS rectangles)
# ---------------------------------------------------------------------------

def _amplitude_stiffness(a, b, m, n, blocks, ds):
    """4x4 quadratic form on the (U, V, Wb, Ws) sine/cosine amplitudes."""
    al = m * np.pi / a
    be = n * np.pi / b
    Bm = np.zeros((3, 4))
    Bb1 = np.zeros((3, 4))
    Bb2 = np.zeros((3, 4))
    Bs = np.zeros((2, 4))
    Bm[0, 0] = -al
    Bm[1, 1] = -be
    Bm[2, 0] = be
    Bm[2, 1] = al
    Bb1[0, 2] = al * al
    Bb1[1, 2] = be * be
    Bb1[2, 2] = -2 * al * be
    Bb2[0, 3] = -al * al
    Bb2[1, 3] = -be * be
    Bb2[2, 3] = 2 * al * be
    Bs[0, 3] = al
    Bs[1, 3] = be
    A, B, D, E, F, H = (blocks[k] for k in "ABDEFH")
    return (
        Bm.T @ A @ Bm
        + Bm.T @ B @ Bb1
        + Bb1.T @ B @ Bm
        + Bm.T @ E @ Bb2
        + Bb2.T @ E @ Bm
        + Bb1.T @ D @ Bb1
        + Bb1.T @ F @ Bb2
        + Bb2.T @ F @ Bb1
        + Bb2.T @ H @ Bb2
        + Bs.T @ np.asarray(ds) @ Bs
    )


def _amplitude_mass(a, b, m, n, inertias):
    al = m * np.pi / a
    be = n * np.pi / b
    I1, I2, I3, I4, I5, I6 = inertias
    I0 = np.array([[I1, I2, I4], [I2, I3, I5], [I4, I5, I6]])
    T1 = np.array([[1, 0, 0, 0], [0, 0, -al, 0], [0, 0, 0, al]], float)
    T2 = np.array([[0, 1, 0, 0], [0, 0, -be, 0], [0, 0, 0, be]], float)
    T3 = np.array([[0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]], float)
    return T1.T @ I0 @ T1 + T2.T @ I0 @ T2 + T3.T @ I0 @ T3


def series_center_deflection_sin(a, h, blocks, ds, q0=1.0):
    K = _amplitude_stiffness(a, a, 1, 1, blocks, ds)
    x = np.linalg.solve(K, np.array([0.0, 0.0, q0, q0]))
    return x[2] + x[3], x


def series_center_deflection_uniform(a, h, blocks, ds, q0=1.0, terms=99):
    wc = 0.0
    for m in range(1, terms + 1, 2):
        for n in range(1, terms + 1, 2):
            qmn = 16.0 * q0 / (np.pi**2 * m * n)
            K = _amplitude_stiffness(a, a, m, n, blocks, ds)
            x = np.linalg.solve(K, np.array([0.0, 0.0, qmn, qmn]))
            wc += (x[2] + x[3]) * np.sin(m * np.pi / 2) * np.sin(n * np.pi / 2)
    return wc


def series_center_stress_x(a, h, spec, model, blocks, ds, z, q0=1.0):
    """sigma_x at the plate center for the half-sine load."""
    _, x = series_center_deflection_sin(a, h, blocks, ds, q0)
    U, V, Wb, Ws = x
    al = np.pi / a
    E, nu, _ = effective_props(z, h, spec)
    _, _, g, _ = shear_fn(model, z, h)
    eps0 = np.array([-al * U, -al * V, 0.0])
    kb = np.array([al * al * Wb, al * al * Wb, 0.0])
    ks = np.array([-al * al * Ws, -al * al * Ws, 0.0])
    eps = eps0 + z * kb + g * ks
    return E / (1 - nu**2) * (eps[0] + nu * eps[1])


def series_frequencies(a, h, blocks, ds, inertias, m_max=6, include_axis_modes=True):
    """Sorted natural frequencies (rad/s) from the separated-mode families.

    Each 4x4 family is solved as M x = mu K x, omega^2 = 1/mu, which factors
    the positive definite K: the mass couples wb and ws only through rotary
    terms of order h^2, so eigh(K, M) fails on thin plates (2,349.9 instead
    of 9.8108e-4 for the (1, 1) lambda at a/h = 1e6)."""
    oms = []
    for m in range(1, m_max + 1):
        for n in range(1, m_max + 1):
            K = _amplitude_stiffness(a, a, m, n, blocks, ds)
            M = _amplitude_mass(a, a, m, n, inertias)
            mus = sla.eigh(M, K, eigvals_only=True)
            oms.extend(1.0 / np.sqrt(mu) for mu in mus if mu > 0.0)
    if include_axis_modes:
        # in-plane shear modes u0 = sin(n pi y / b) (and the v0 twin)
        A66 = blocks["A"][2, 2]
        I1 = inertias[0]
        for n in range(1, m_max + 1):
            om = (n * np.pi / a) * np.sqrt(A66 / I1)
            oms.extend([om, om])
    return np.sort(np.array(oms))


def cpt_uniform_center_coefficient(terms: int = 399) -> float:
    """w_c D / (q0 a^4) for the simply supported square under uniform load."""
    total = 0.0
    for m in range(1, terms + 1, 2):
        for n in range(1, terms + 1, 2):
            sign = np.sin(m * np.pi / 2) * np.sin(n * np.pi / 2)
            total += 16.0 / np.pi**6 * sign / (m * n * (m * m + n * n) ** 2)
    return total


def clamped_disk_cpt_buckling_coefficient() -> float:
    """p_cr R^2 / D for the clamped circular plate under radial compression."""
    return float(jn_zeros(1, 1)[0] ** 2)
