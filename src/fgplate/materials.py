"""Graded-section material model: phase mixing, shear shape functions,
and the through-thickness section constants feeding the plate weak forms.

The section is a two-phase mix whose ceramic volume fraction follows a power
law in the thickness coordinate. Elastic moduli are homogenized either by a
Voigt rule of mixture or by the Mori-Tanaka estimate; density always mixes by
volume fraction.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

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


@functools.lru_cache(maxsize=32)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and returned read-only, since every caller shares them. A run uses a
    handful of orders: p+1 and p+3 in assembly, 30 * 2^k in the section."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _thickness_rule(spec: FGMSpec, h: float, n_gauss: int):
    """Quadrature nodes/weights over [-h/2, h/2] for the graded integrands.

    Integer power indices give entire integrands, so a single Gauss-Legendre
    rule suffices. Fractional indices put an algebraic branch point at the
    pure-metal surface; a dyadic composite rule graded toward that surface
    restores geometric convergence there.
    """
    x, w = _gauss_legendre(n_gauss)
    if float(spec.n).is_integer():
        return 0.5 * h * x, 0.5 * h * w
    levels = 60
    zs, ws = [], []
    edges = [h * 2.0 ** (-k) for k in range(levels + 1)]
    pieces = [(edges[k + 1], edges[k]) for k in range(levels)] + [(0.0, edges[levels])]
    for lo, hi in pieces:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        zs.append(mid + half * x)
        ws.append(half * w)
    dist = np.concatenate(zs)  # distance from the singular surface
    wz = np.concatenate(ws)
    if spec.profile is Profile.CERAMIC_POWER:
        return -h / 2 + dist, wz
    return h / 2 - dist, wz


def _section_integrals(spec: FGMSpec, model: ShearModel, h: float, n_gauss: int):
    z, wz = _thickness_rule(spec, h, n_gauss)
    E, nu, rho = effective_props(z, h, spec)
    q11, q12, q66 = plane_stress_moduli(E, nu)
    f, fp, g, _ = shear_fn(model, z, h)

    weights = {"A": 1.0, "B": z, "D": z * z, "E": g, "F": z * g, "H": g * g}
    blocks = {}
    for name, fac in weights.items():
        a11 = np.sum(q11 * fac * wz)
        a12 = np.sum(q12 * fac * wz)
        a66 = np.sum(q66 * fac * wz)
        blocks[name] = np.array([[a11, a12, 0.0], [a12, a11, 0.0], [0.0, 0.0, a66]])
    ds = np.sum(fp * fp * q66 * wz) * np.eye(2)
    inertias = [float(np.sum(rho * fac * wz)) for fac in (np.ones_like(z), z, z * z, g, z * g, g * g)]
    return blocks, ds, inertias


def section_constants(
    spec: FGMSpec, model: ShearModel, h: float, n_gauss: int = 30, rtol: float = 1e-10
) -> SectionConstants:
    """Integrate the section constants with a convergence check.

    A 30-point Gauss-Legendre base rule resolves every polynomial and
    inverse-tan integrand here; the rule is doubled until all entries are
    stable to rtol, and an IntegrationError is raised if stability is never
    reached.
    """
    if h <= 0:
        raise ValueError("thickness must be positive")
    order = n_gauss
    blocks, ds, inertias = _section_integrals(spec, model, h, order)
    for _ in range(5):
        blocks2, ds2, inertias2 = _section_integrals(spec, model, h, 2 * order)
        scale = max(abs(v).max() for v in blocks2.values())
        iscale = max(max(abs(i) for i in inertias2), 1e-300)
        ok = all(
            np.abs(blocks2[k] - blocks[k]).max() <= rtol * scale for k in blocks
        ) and np.abs(ds2 - ds).max() <= rtol * max(scale, ds2.max()) and all(
            abs(a - b) <= rtol * iscale for a, b in zip(inertias, inertias2)
        )
        blocks, ds, inertias = blocks2, ds2, inertias2
        if ok:
            break
        order *= 2
    else:
        raise IntegrationError(
            f"section integrals did not stabilize to {rtol} by {2 * order} Gauss points"
        )

    return SectionConstants(
        A=blocks["A"],
        B=blocks["B"],
        D=blocks["D"],
        E=blocks["E"],
        F=blocks["F"],
        H=blocks["H"],
        Ds=ds,
        I1=inertias[0],
        I2=inertias[1],
        I3=inertias[2],
        I4=inertias[3],
        I5=inertias[4],
        I6=inertias[5],
        h=h,
    )
