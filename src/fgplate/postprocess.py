"""Field recovery and nondimensional reporting.

Solutions live on control points. Every point recovery first locates the
physical point: locate(patch, x, y) inverts the geometry map (locate_point)
and tabulates the order-2 physical basis there (physical_derivs), and
returns the frozen Station that holds both. Station.field(q) combines the
basis with the coefficient vector, and Station.stresses(q, model, z) reads
the stresses from it. field_at and stress_profile are those calls on a
newly located station; the cases, the CLI's profile and the config's
on-plate check use the same locate.

Stress recovery reads the strains through assembly's kinematic tables, the
same rows that define K, and the stresses through the shared plane-stress
moduli of materials, for all z samples at once. The transverse shear
profile vanishes at the outer surfaces by construction.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .assembly import _BENDING_ROWS, _SHEAR_ROWS, PlateModel
from .errors import ConfigurationError
from .materials import effective_props, plane_stress_moduli, shear_fn
from .nurbs import BasisLocal, Patch, locate_point, physical_derivs

__all__ = [
    "StressProfile",
    "Station",
    "locate",
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
    """Nondimensionalization recipe applied to raw results, and the analysis
    it reports on; the first family of an analysis is its default: BENDING_EC
    for static, FREQUENCY for vibrate and BUCKLING_DM for buckle.

    BENDING_EC:  w_bar = 10 Ec h^3 w / (q0 a^4), stress scaled by h/(a q0).
    BENDING_DM:  w_bar = 100 Em h^3 w / (12 (1-nu_m^2) q0 a^4).
    BENDING_CPT: w_bar = w D / (q0 a^4) with the classical rigidity D.
    FREQUENCY:   omega_bar = omega h sqrt(rho_m / Em).
    BUCKLING_DM: p_bar = p R^2 / Dm with Dm = Em h^3 / (12 (1-nu_m^2)).
    """

    def __new__(cls, value: str, analysis: str):
        member = str.__new__(cls, value)
        member._value_ = value
        member.analysis = analysis
        return member

    BENDING_EC = "bending_ec", "static"
    BENDING_DM = "bending_dm", "static"
    BENDING_CPT = "bending_cpt", "static"
    FREQUENCY = "frequency", "vibrate"
    BUCKLING_DM = "buckling_dm", "buckle"


@dataclass(frozen=True)
class NondimReport:
    """The report quantities of one case in its family: w_bar, and sigma_x_bar
    where the family scales a stress, for a static case; omega_bar or
    p_cr_bar, one per mode, for a vibration or a buckling case. The ones a
    family does not report stay None or empty. The CLI writes the set ones
    as the columns of results.csv (cli._report_rows)."""

    family: ReportFamily
    w_bar: Optional[float] = None
    sigma_x_bar: Optional[float] = None
    omega_bar: tuple[float, ...] = field(default_factory=tuple)
    p_cr_bar: tuple[float, ...] = field(default_factory=tuple)

    @property
    def values(self) -> tuple[float, ...]:
        """The scalars that are set, or one value per mode; the first leads."""
        return self.omega_bar or self.p_cr_bar or tuple(
            v for v in (self.w_bar, self.sigma_x_bar) if v is not None)


@dataclass(frozen=True)
class Station:
    """A physical point located on a patch: the point (x, y) as given, its
    parameters (xi, eta) and the order-2 basis with physical derivatives
    there. The field and the stresses at one station are read from this one
    value, so a point is located once however many quantities it reports."""

    point: tuple[float, float]
    params: tuple[float, float]
    basis: BasisLocal

    def field(self, q: np.ndarray):
        """Generalized displacements (u0, v0, wb, ws, w) at the station."""
        u0, v0, wb, ws = (self.basis.R @ q.reshape(-1, 4)[self.basis.active_indices]).tolist()
        return u0, v0, wb, ws, wb + ws

    def stresses(self, q: np.ndarray, model: PlateModel,
                 z_samples: Sequence[float]) -> StressProfile:
        """In-plane and transverse shear stresses at the station, one per z."""
        # six basis channels of the four DOF components, channel outer, as in L
        phi = np.column_stack([self.basis.R, self.basis.dRdx, self.basis.d2Rdx2])
        channels = (phi.T @ q.reshape(-1, 4)[self.basis.active_indices]).ravel()
        eps0, kb, ks = (_BENDING_ROWS @ channels).reshape(3, 3)
        es = _SHEAR_ROWS @ channels
        h = model.section.h
        z = np.asarray(z_samples, dtype=float)
        E, nu, _ = effective_props(z, h, model.spec)
        q11, q12, q66 = plane_stress_moduli(E, nu)
        _, fp, g, _ = shear_fn(model.shear, z, h)
        eps = eps0 + z[:, None] * kb + g[:, None] * ks
        shear = q66 * fp
        return StressProfile(self.point, z, q11 * eps[:, 0] + q12 * eps[:, 1],
                             q12 * eps[:, 0] + q11 * eps[:, 1], q66 * eps[:, 2],
                             shear * es[0], shear * es[1])


def locate(patch: Patch, x: float, y: float) -> Station:
    """The station at the physical point (x, y) of the patch. A point that
    the inverse map cannot locate raises GeometryError, and one where the
    map's Jacobian is singular raises SingularMappingError."""
    xi, eta = locate_point(patch, x, y)
    return Station((x, y), (xi, eta), physical_derivs(patch, xi, eta))


def field_at(q: np.ndarray, model: PlateModel, x: float, y: float):
    """Generalized displacements (u0, v0, wb, ws, w) at a physical point."""
    return locate(model.patch, x, y).field(q)


def stress_profile(
    q: np.ndarray, model: PlateModel, x: float, y: float, z_samples: Sequence[float]
) -> StressProfile:
    """In-plane and transverse shear stresses through the thickness at (x, y)."""
    return locate(model.patch, x, y).stresses(q, model, z_samples)


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
    dm = met.E * h**3 / (12.0 * (1.0 - met.nu**2))

    if family is ReportFamily.FREQUENCY:
        if omegas is None:
            raise ConfigurationError("frequency report needs omega values")
        scale = h * np.sqrt(met.rho / met.E)
        return NondimReport(family, omega_bar=tuple(float(w) * scale for w in omegas))

    if family is ReportFamily.BUCKLING_DM:
        if p_crs is None:
            raise ConfigurationError("buckling report needs critical loads")
        return NondimReport(family, p_cr_bar=tuple(float(p) * span**2 / dm for p in p_crs))

    if w_center is None or q0 is None:
        raise ConfigurationError("bending reports need the center deflection and q0")
    if family is ReportFamily.BENDING_EC:
        s_bar = None if sigma_x is None else float(h * sigma_x / (span * q0))
        return NondimReport(family, w_bar=float(10.0 * cer.E * h**3 * w_center / (q0 * span**4)),
                            sigma_x_bar=s_bar)
    # BENDING_DM and BENDING_CPT scale by the metal rigidity Dm
    scale = 100.0 if family is ReportFamily.BENDING_DM else 1.0
    return NondimReport(family, w_bar=float(scale * dm * w_center / (q0 * span**4)))
