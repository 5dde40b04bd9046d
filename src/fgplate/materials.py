"""Graded-section material model: phase mixing, shear shape functions,
and the through-thickness section constants feeding the plate weak forms.

The section is a two-phase mix whose ceramic volume fraction follows a power
law in the thickness coordinate. Elastic moduli are homogenized either by a
Voigt rule of mixture or by the Mori-Tanaka estimate; density always mixes by
volume fraction.

The section constants are one moment table of thickness integrals
(_section_table). Its rows are the plane-stress moduli q11, q12, q66 and the
density rho; its columns weigh them by 1, z, z^2, g, z g, g^2 and f'^2, with
f the shear shape function and g = f - z. The first six columns of the
moduli rows are the rigidity blocks A, B, D, E, F and H, the f'^2 column of
q66 is the shear rigidity Ds, and the first six columns of rho are the
inertias I1..I6. The thickness rule is doubled until the table is stable
against three scales: the largest rigidity for the blocks, the larger of
that and Ds for Ds, and the largest inertia for the inertias.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bspline import _gauss_legendre
from .errors import DomainError, IntegrationError

__all__ = [
    "Phase",
    "Scheme",
    "Profile",
    "ShearModel",
    "FGMSpec",
    "SectionConstants",
    "MATERIALS",
    "volume_fraction",
    "effective_props",
    "plane_stress_moduli",
    "shear_fn",
    "section_constants",
]

_BASE_ORDER = 30  # Gauss points of the first thickness rule, doubled until stable
_RTOL = 1e-10     # the change under one doubling that counts as stable, per scale


@dataclass(frozen=True)
class Phase:
    """Isotropic constituent: Young's modulus (Pa), Poisson's ratio, density (kg/m^3)."""

    E: float
    nu: float
    rho: float = 0.0

    def __post_init__(self):
        if self.E <= 0:
            raise ValueError("Young's modulus must be positive")
        if not -1.0 < self.nu < 0.5:
            raise ValueError("Poisson's ratio must lie in (-1, 0.5)")
        if self.rho < 0:
            raise ValueError("density must be nonnegative")


# Benchmark constituents, by conventional name.
MATERIALS: dict[str, Phase] = {
    "Al": Phase(70e9, 0.3, 2707.0),
    "SiC": Phase(427e9, 0.17, 0.0),
    "ZrO2-1": Phase(200e9, 0.3, 5700.0),
    "ZrO2-2": Phase(151e9, 0.3, 3000.0),
    "Al2O3": Phase(380e9, 0.3, 3800.0),
}


class Scheme(str, enum.Enum):
    RULE_OF_MIXTURE = "rule_of_mixture"
    MORI_TANAKA = "mori_tanaka"


class Profile(str, enum.Enum):
    """Which phase fraction carries the power law through the thickness."""

    CERAMIC_POWER = "ceramic_power"  # Vc = (1/2 + z/h)^n, ceramic-rich top
    METAL_POWER = "metal_power"      # Vm = (1/2 - z/h)^n, still ceramic-rich top


class ShearModel(str, enum.Enum):
    """Transverse shear shape function f(z); f'(+-h/2) = 0 for every member."""

    CUBIC = "cubic"
    EXPONENTIAL = "exponential"
    SINUSOIDAL = "sinusoidal"
    QUINTIC = "quintic"
    ATAN = "atan"
    ATAN_SIN = "atan_sin"


@dataclass(frozen=True)
class FGMSpec:
    """Two phases plus the grading law and homogenization scheme."""

    ceramic: Phase
    metal: Phase
    n: float
    scheme: Scheme = Scheme.RULE_OF_MIXTURE
    profile: Profile = Profile.CERAMIC_POWER

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("power index must be nonnegative")


def volume_fraction(z: float, h: float, spec: FGMSpec):
    """Ceramic/metal volume fraction pair at height z of a thickness-h section."""
    z = np.asarray(z, dtype=float)
    if np.any(z < -h / 2 - 1e-12 * h) or np.any(z > h / 2 + 1e-12 * h):
        raise DomainError(f"z outside [-h/2, h/2] for h={h}")
    t = np.clip(z / h, -0.5, 0.5)
    if spec.profile is Profile.CERAMIC_POWER:
        vc = (0.5 + t) ** spec.n
    else:
        vc = 1.0 - (0.5 - t) ** spec.n
    return vc, 1.0 - vc


def effective_props(z: float, h: float, spec: FGMSpec):
    """Pointwise effective (E, nu, rho).

    Rule of mixture mixes E, nu and rho by volume fraction. Mori-Tanaka mixes
    bulk and shear moduli with the matrix-interaction correction and converts
    back to (E, nu); density still mixes by volume fraction.
    """
    vc, vm = volume_fraction(z, h, spec)
    cer, met = spec.ceramic, spec.metal
    rho = cer.rho * vc + met.rho * vm
    if spec.scheme is Scheme.RULE_OF_MIXTURE:
        return cer.E * vc + met.E * vm, cer.nu * vc + met.nu * vm, rho

    kc = cer.E / (3.0 * (1.0 - 2.0 * cer.nu))
    gc = cer.E / (2.0 * (1.0 + cer.nu))
    km = met.E / (3.0 * (1.0 - 2.0 * met.nu))
    gm = met.E / (2.0 * (1.0 + met.nu))
    f1 = gm * (9.0 * km + 8.0 * gm) / (6.0 * (km + 2.0 * gm))
    ke = km + (kc - km) * vc / (1.0 + vm * (kc - km) / (km + 4.0 / 3.0 * gm))
    ge = gm + (gc - gm) * vc / (1.0 + vm * (gc - gm) / (gm + f1))
    E = 9.0 * ke * ge / (3.0 * ke + ge)
    nu = (3.0 * ke - 2.0 * ge) / (2.0 * (3.0 * ke + ge))
    return E, nu, rho


def plane_stress_moduli(E, nu):
    """Plane-stress moduli (q11, q12, q66) of an isotropic point, elementwise
    over arrays of E and nu (the effective_props of a set of heights z)."""
    q11 = E / (1.0 - nu * nu)
    return q11, nu * q11, E / (2.0 * (1.0 + nu))


def shear_fn(model: ShearModel, z, h: float):
    """f, f', g = f - z and g' = f' - 1 for the chosen shape function."""
    z = np.asarray(z, dtype=float)
    if model is ShearModel.CUBIC:
        f = z - 4.0 * z**3 / (3.0 * h * h)
        fp = 1.0 - 4.0 * z * z / (h * h)
    elif model is ShearModel.EXPONENTIAL:
        e = np.exp(-2.0 * (z / h) ** 2)
        f = z * e
        fp = (1.0 - 4.0 * z * z / (h * h)) * e
    elif model is ShearModel.SINUSOIDAL:
        f = np.sin(np.pi * z / h)
        fp = (np.pi / h) * np.cos(np.pi * z / h)
    elif model is ShearModel.QUINTIC:
        f = 7.0 / 8.0 * z - 2.0 * z**3 / h**2 + 2.0 * z**5 / h**4
        fp = 7.0 / 8.0 - 6.0 * z**2 / h**2 + 10.0 * z**4 / h**4
    elif model is ShearModel.ATAN:
        t = 2.0 * z / h
        f = h * np.arctan(t) - z
        fp = (1.0 - t * t) / (1.0 + t * t)
    elif model is ShearModel.ATAN_SIN:
        s = np.sin(np.pi * z / h)
        f = np.arctan(s)
        fp = (np.pi / h) * np.cos(np.pi * z / h) / (1.0 + s * s)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown shear model {model}")
    return f, fp, f - z, fp - 1.0


@dataclass(frozen=True)
class SectionConstants:
    """Through-thickness integrals entering the stiffness and mass forms.

    A..H are the membrane/bending/shear-warping rigidity blocks (3x3 each),
    Ds the transverse shear rigidity (2x2), I1..I6 the inertia scalars.
    """

    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    E: np.ndarray
    F: np.ndarray
    H: np.ndarray
    Ds: np.ndarray
    I1: float
    I2: float
    I3: float
    I4: float
    I5: float
    I6: float
    h: float

    def bending_block(self) -> np.ndarray:
        """The 9x9 block [[A, B, E], [B, D, F], [E, F, H]]."""
        return np.block([[self.A, self.B, self.E], [self.B, self.D, self.F], [self.E, self.F, self.H]])

    def inertia_block(self) -> np.ndarray:
        """The 3x3 inertia matrix [[I1, I2, I4], [I2, I3, I5], [I4, I5, I6]]."""
        return np.array(
            [
                [self.I1, self.I2, self.I4],
                [self.I2, self.I3, self.I5],
                [self.I4, self.I5, self.I6],
            ]
        )


def _thickness_rule(spec: FGMSpec, h: float, n_gauss: int):
    """Quadrature nodes/weights over [-h/2, h/2] for the graded integrands.

    Integer power indices give entire integrands, so a single Gauss-Legendre
    rule suffices. Fractional indices put an algebraic branch point at the
    pure-metal surface; a dyadic composite rule graded toward that surface
    restores geometric convergence there: n_gauss points on each of the 60
    pieces [h 2^-(k+1), h 2^-k] of the distance from it, and on [0, h 2^-60].
    """
    x, w = _gauss_legendre(n_gauss)
    if float(spec.n).is_integer():
        return 0.5 * h * x, 0.5 * h * w
    hi = h * 0.5 ** np.arange(61)
    lo = np.append(hi[1:], 0.0)
    half = 0.5 * (hi - lo)[:, None]
    dist = (0.5 * (lo + hi)[:, None] + half * x).ravel()  # distance from the singular surface
    wz = (half * w).ravel()
    if spec.profile is Profile.CERAMIC_POWER:
        return -h / 2 + dist, wz
    return h / 2 - dist, wz


def _section_table(spec: FGMSpec, model: ShearModel, h: float, n_gauss: int) -> np.ndarray:
    """The (4, 7) moment table: rows q11, q12, q66 and rho, columns their
    thickness integrals weighted by 1, z, z^2, g, z g, g^2 and f'^2."""
    z, wz = _thickness_rule(spec, h, n_gauss)
    E, nu, rho = effective_props(z, h, spec)
    moduli = np.array([*plane_stress_moduli(E, nu), rho])
    _, fp, g, _ = shear_fn(model, z, h)
    weights = np.array([np.ones_like(z), z, z * z, g, z * g, g * g, fp * fp])
    terms = moduli[:, None] * weights
    terms *= wz  # in place: a second (4, 7, n) temporary costs more than the products
    return terms.sum(axis=-1)


def section_constants(spec: FGMSpec, model: ShearModel, h: float) -> SectionConstants:
    """Integrate the section constants with a convergence check.

    A _BASE_ORDER-point Gauss-Legendre base rule resolves every polynomial
    and inverse-tan integrand here; the rule is doubled until the moment
    table is stable to _RTOL, and an IntegrationError is raised if stability
    is never reached.
    """
    if h <= 0:
        raise ValueError("thickness must be positive")
    order = _BASE_ORDER
    table = _section_table(spec, model, h, order)
    for _ in range(5):
        finer = _section_table(spec, model, h, 2 * order)
        change = np.abs(finer - table)
        scale = np.abs(finer[:3, :6]).max()
        ok = (change[:3, :6].max() <= _RTOL * scale
              and change[2, 6] <= _RTOL * max(scale, finer[2, 6])
              and change[3, :6].max() <= _RTOL * np.abs(finer[3, :6]).max())
        table = finer
        if ok:
            break
        order *= 2
    else:
        raise IntegrationError(
            f"section integrals did not stabilize to {_RTOL} by {2 * order} Gauss points"
        )

    def block(column):
        a11, a12, a66 = table[:3, column]
        return np.array([[a11, a12, 0.0], [a12, a11, 0.0], [0.0, 0.0, a66]])

    return SectionConstants(*map(block, range(6)), table[2, 6] * np.eye(2),
                            *table[3, :6].tolist(), h=h)
