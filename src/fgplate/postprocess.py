"""Field recovery and nondimensional reporting.

Solutions live on control points; evaluation at a physical station first
inverts the geometry map, then combines the basis with the coefficient
vector. Stress recovery uses the pointwise graded moduli, so the transverse
shear profile vanishes at the outer surfaces by construction.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .assembly import PlateModel, strain_operators
from .errors import ConfigurationError
from .materials import effective_props, shear_fn
from .nurbs import BasisLocal, locate_point, physical_derivs

__all__ = [
    "StressProfile",
    "ReportFamily",
    "NondimReport",
    "field_at",
    "stress_profile",
    "nondimensionalize",
]


@dataclass(frozen=True)
class StressProfile:
    """Through-thickness stress samples at one plate station."""

    station: tuple[float, float]
    z_samples: np.ndarray
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    tau_xy: np.ndarray
    tau_xz: np.ndarray
    tau_yz: np.ndarray


class ReportFamily(str, enum.Enum):
    """Nondimensionalization recipe applied to raw results.

    BENDING_EC:  w_bar = 10 Ec h^3 w / (q0 a^4), stress scaled by h/(a q0).
    BENDING_DM:  w_bar = 100 Em h^3 w / (12 (1-nu_m^2) q0 a^4).
    BENDING_CPT: w_bar = w D / (q0 a^4) with the classical rigidity D.
    FREQUENCY:   omega_bar = omega h sqrt(rho_m / Em).
    BUCKLING_DM: p_bar = p R^2 / Dm with Dm = Em h^3 / (12 (1-nu_m^2)).
    """

    BENDING_EC = "bending_ec"
    BENDING_DM = "bending_dm"
    BENDING_CPT = "bending_cpt"
    FREQUENCY = "frequency"
    BUCKLING_DM = "buckling_dm"


@dataclass(frozen=True)
class NondimReport:
    family: ReportFamily
    w_bar: Optional[float] = None
    sigma_x_bar: Optional[float] = None
    omega_bar: tuple[float, ...] = field(default_factory=tuple)
    p_cr_bar: tuple[float, ...] = field(default_factory=tuple)


def _station_basis(model: PlateModel, x: float, y: float) -> BasisLocal:
    """Basis with physical derivatives at a physical station. The field and
    the stresses at one station are recovered from one such basis, so the
    station is located once."""
    xi, eta = locate_point(model.patch, x, y)
    return physical_derivs(model.patch, xi, eta)


def _field(q: np.ndarray, basis: BasisLocal):
    dofs = 4 * basis.active_indices
    u0 = float(basis.R @ q[dofs])
    v0 = float(basis.R @ q[dofs + 1])
    wb = float(basis.R @ q[dofs + 2])
    ws = float(basis.R @ q[dofs + 3])
    return u0, v0, wb, ws, wb + ws


def field_at(q: np.ndarray, model: PlateModel, x: float, y: float):
    """Generalized displacements (u0, v0, wb, ws, w) at a physical point."""
    return _field(q, _station_basis(model, x, y))


def _profile(q: np.ndarray, model: PlateModel, basis: BasisLocal, station: tuple[float, float],
             z_samples: Sequence[float]) -> StressProfile:
    Bm, Bb1, Bb2, Bs, _ = strain_operators(basis)
    qe = q[(4 * basis.active_indices[:, None] + np.arange(4)).ravel()]
    eps0, kb, ks, es = Bm @ qe, Bb1 @ qe, Bb2 @ qe, Bs @ qe
    h = model.section.h
    z = np.asarray(z_samples, dtype=float)
    sx = np.empty_like(z)
    sy = np.empty_like(z)
    txy = np.empty_like(z)
    txz = np.empty_like(z)
    tyz = np.empty_like(z)
    for i, zi in enumerate(z):
        E, nu, _ = effective_props(zi, h, model.spec)
        _, fp, g, _ = shear_fn(model.shear, zi, h)
        eps = eps0 + zi * kb + g * ks
        c = E / (1.0 - nu * nu)
        sx[i] = c * (eps[0] + nu * eps[1])
        sy[i] = c * (nu * eps[0] + eps[1])
        txy[i] = E / (2.0 * (1.0 + nu)) * eps[2]
        gshear = E / (2.0 * (1.0 + nu)) * fp
        txz[i] = gshear * es[0]
        tyz[i] = gshear * es[1]
    return StressProfile(station, z, sx, sy, txy, txz, tyz)


def stress_profile(
    q: np.ndarray, model: PlateModel, x: float, y: float, z_samples: Sequence[float]
) -> StressProfile:
    """In-plane and transverse shear stresses through the thickness at (x, y)."""
    return _profile(q, model, _station_basis(model, x, y), (x, y), z_samples)


def nondimensionalize(
    family: ReportFamily,
    model: PlateModel,
    *,
    span: float,
    q0: Optional[float] = None,
    w_center: Optional[float] = None,
    sigma_x: Optional[float] = None,
    omegas: Optional[Sequence[float]] = None,
    p_crs: Optional[Sequence[float]] = None,
) -> NondimReport:
    """Scale raw results to the report quantities of the given family.

    span is the side length for square plates or the radius for disks.
    Frequencies are in rad/s and buckling loads in N/m.
    """
    cer, met = model.spec.ceramic, model.spec.metal
    h = model.section.h

    if family is ReportFamily.FREQUENCY:
        if omegas is None:
            raise ConfigurationError("frequency report needs omega values")
        scale = h * np.sqrt(met.rho / met.E)
        return NondimReport(family, omega_bar=tuple(float(w) * scale for w in omegas))

    if family is ReportFamily.BUCKLING_DM:
        if p_crs is None:
            raise ConfigurationError("buckling report needs critical loads")
        dm = met.E * h**3 / (12.0 * (1.0 - met.nu**2))
        return NondimReport(family, p_cr_bar=tuple(float(p) * span**2 / dm for p in p_crs))

    if w_center is None or q0 is None:
        raise ConfigurationError("bending reports need the center deflection and q0")
    if family is ReportFamily.BENDING_EC:
        w_bar = 10.0 * cer.E * h**3 * w_center / (q0 * span**4)
        s_bar = None if sigma_x is None else h * sigma_x / (span * q0)
        return NondimReport(family, w_bar=float(w_bar), sigma_x_bar=s_bar if s_bar is None else float(s_bar))
    if family is ReportFamily.BENDING_DM:
        w_bar = 100.0 * met.E * h**3 * w_center / (12.0 * (1.0 - met.nu**2) * q0 * span**4)
        return NondimReport(family, w_bar=float(w_bar))
    if family is ReportFamily.BENDING_CPT:
        d = met.E * h**3 / (12.0 * (1.0 - met.nu**2))
        return NondimReport(family, w_bar=float(w_center * d / (q0 * span**4)))
    raise ConfigurationError(f"unknown report family {family}")
