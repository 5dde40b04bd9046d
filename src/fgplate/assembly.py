"""Discrete operators for the four-unknown plate model on a NURBS patch.

Each control point carries the DOFs (u0, v0, wb, ws); global DOF index is
4*A + component with A the flattened control point index.

Assembly loops over nonempty knot spans. The 1-D bases are tabulated once
per span and Gauss point (nurbs.tabulate), and nurbs.grid_basis forms each
element's basis at all of its points at once. The matrices K, M and Kg use a
(p+1) x (q+1) Gauss rule per element: on an affine square their integrands
are polynomials of degree at most 2p per direction, which that rule
integrates exactly, and on the disks more points move buckling loads by less
than 1e-6. Element matrices are one batched product over the element's
points, symmetric by construction, and are scattered serially, one element
at a time, so results are deterministic. The load vector F gets its own
(p+3) x (q+3) rule, because its integrand q(x, y) R det J is not a
polynomial for the half-sine load, nor on the rational disk: the (p+1) rule
leaves a relative error of order 1e-8 in F there, the (p+3) rule one of
order 1e-14.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .materials import FGMSpec, SectionConstants, ShearModel
from .nurbs import BasisLocal, Patch, grid_basis, tabulate

__all__ = [
    "BC",
    "UniformLoad",
    "SinusoidalLoad",
    "PlateModel",
    "GlobalSystem",
    "strain_operators",
    "assemble",
    "apply_boundary_conditions",
]


class BC(str, enum.Enum):
    SIMPLY_SUPPORTED = "S"
    CLAMPED = "C"
    FREE = "F"


@dataclass(frozen=True)
class UniformLoad:
    """Constant pressure; value() takes scalars or arrays of coordinates."""

    q0: float

    def value(self, x: float, y: float) -> float:
        return self.q0


@dataclass(frozen=True)
class SinusoidalLoad:
    """Half-sine pressure bump over a rectangle of side lengths (a, b);
    value() takes scalars or arrays of coordinates."""

    q0: float
    a: float
    b: float

    def value(self, x: float, y: float) -> float:
        return self.q0 * np.sin(np.pi * x / self.a) * np.sin(np.pi * y / self.b)


@dataclass(frozen=True)
class PlateModel:
    """Geometry, section and boundary data for one analysis case.

    edge_bcs is ordered (u=min, u=max, v=min, v=max) in parametric axes; for
    the square patch these coincide with the physical edges x=0, x=a, y=0, y=b.
    """

    patch: Patch
    section: SectionConstants
    spec: FGMSpec
    shear: ShearModel
    edge_bcs: tuple[BC, BC, BC, BC]
    load: Optional[UniformLoad | SinusoidalLoad] = None
    prestress: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(self.edge_bcs) != 4:
            raise ConfigurationError("exactly four edge conditions are required")
        if self.prestress is not None:
            n0 = np.asarray(self.prestress, dtype=float)
            if n0.shape != (2, 2) or not np.allclose(n0, n0.T):
                raise ConfigurationError("prestress must be a symmetric 2x2 matrix")
            object.__setattr__(self, "prestress", n0)

    @property
    def n_dofs(self) -> int:
        return 4 * self.patch.n_points


@dataclass(frozen=True)
class GlobalSystem:
    """Assembled matrices plus constrained-DOF bookkeeping.

    Matrices stay full-size; solvers eliminate the fixed rows/columns.
    """

    n_dofs: int
    K: Optional[np.ndarray] = None
    M: Optional[np.ndarray] = None
    Kg: Optional[np.ndarray] = None
    F: Optional[np.ndarray] = None
    fixed_dofs: np.ndarray = None
    free_dofs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        fixed = np.array([], dtype=int) if self.fixed_dofs is None else np.unique(self.fixed_dofs)
        object.__setattr__(self, "fixed_dofs", fixed)
        object.__setattr__(self, "free_dofs", np.setdiff1d(np.arange(self.n_dofs), fixed))

    def reduce(self, matrix: np.ndarray) -> np.ndarray:
        return matrix[np.ix_(self.free_dofs, self.free_dofs)]

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        """Embed a free-DOF vector (or mode block) into the full DOF space."""
        shape = (self.n_dofs,) + reduced.shape[1:]
        full = np.zeros(shape, dtype=reduced.dtype)
        full[self.free_dofs] = reduced
        return full


def strain_operators(basis: BasisLocal):
    """Element strain matrices (Bm, Bb1, Bb2, Bs, Bg) at one quadrature point,
    or stacked along the leading point axis of a grid basis.

    Columns are the element DOFs (4 per active control point); the column
    sparsity mirrors the kinematics: membrane strains use only (u0, v0),
    bending curvatures only wb, shear-warping curvatures and shear only ws,
    and the deflection gradient both wb and ws.
    """
    dR = basis.dRdx
    d2R = basis.d2Rdx2
    lead, edof = dR.shape[:-2], 4 * dR.shape[-2]

    Bm = np.zeros(lead + (3, edof))
    Bm[..., 0, 0::4] = dR[..., 0]
    Bm[..., 1, 1::4] = dR[..., 1]
    Bm[..., 2, 0::4] = dR[..., 1]
    Bm[..., 2, 1::4] = dR[..., 0]

    Bb1 = np.zeros(lead + (3, edof))
    Bb1[..., 0, 2::4] = -d2R[..., 0]
    Bb1[..., 1, 2::4] = -d2R[..., 1]
    Bb1[..., 2, 2::4] = -2.0 * d2R[..., 2]

    Bb2 = np.zeros(lead + (3, edof))
    Bb2[..., 0, 3::4] = d2R[..., 0]
    Bb2[..., 1, 3::4] = d2R[..., 1]
    Bb2[..., 2, 3::4] = 2.0 * d2R[..., 2]

    Bs = np.zeros(lead + (2, edof))
    Bs[..., 0, 3::4] = dR[..., 0]
    Bs[..., 1, 3::4] = dR[..., 1]

    Bg = np.zeros(lead + (2, edof))
    Bg[..., 0, 2::4] = dR[..., 0]
    Bg[..., 0, 3::4] = dR[..., 0]
    Bg[..., 1, 2::4] = dR[..., 1]
    Bg[..., 1, 3::4] = dR[..., 1]

    return Bm, Bb1, Bb2, Bs, Bg


def assemble(model: PlateModel, want=("K", "F")) -> GlobalSystem:
    """Build the requested global matrices and load vector.

    K, M and Kg come from one sweep with a (p+1) x (q+1) Gauss rule per
    element; F from a separate pass with a (p+3) x (q+3) rule (see the module
    docstring). The matrix sweep is skipped when no matrix is requested.
    """
    want = set(want)
    unknown = want - {"K", "M", "Kg", "F"}
    if unknown:
        raise ConfigurationError(f"unknown assembly targets {sorted(unknown)}")
    if "Kg" in want and model.prestress is None:
        raise ConfigurationError("geometric stiffness requested without a prestress state")
    if "F" in want and model.load is None:
        raise ConfigurationError("load vector requested without a load description")

    K = M = Kg = None
    if want & {"K", "M", "Kg"}:
        K, M, Kg = _assemble_matrices(model, want)
    F = _assemble_load(model) if "F" in want else None
    return GlobalSystem(n_dofs=model.n_dofs, K=K, M=M, Kg=Kg, F=F)


def _element_bases(patch: Patch, extra_points: int, order: int):
    """Per element, in span order with u outer: the basis of the given order
    on its (p+extra) x (q+extra) Gauss grid and the Gauss weights times det J.
    The 1-D bases are tabulated once per span and Gauss point."""
    per_direction = []
    for knots in (patch.knot_u, patch.knot_v):
        gx, gw = np.polynomial.legendre.leggauss(knots.degree + extra_points)
        per_direction.append([
            (tabulate(knots, 0.5 * (lo + hi) + 0.5 * (hi - lo) * gx, order), 0.5 * (hi - lo) * gw)
            for _, lo, hi in knots.spans()
        ])
    for tab_u, wu in per_direction[0]:
        for tab_v, wv in per_direction[1]:
            basis = grid_basis(patch, tab_u, tab_v)
            yield basis, np.outer(wu, wv).ravel() * basis.jacobian_det


def _weighted_gram(wq: np.ndarray, B: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Sum over points q of wq[q] B[q]^T D B[q] for B of shape (n_q, rows, edof)."""
    return np.tensordot(wq[:, None, None] * B, D @ B, axes=([0, 1], [0, 1]))


def _assemble_matrices(model: PlateModel, want: set):
    """K, M and Kg (None where not wanted) in one (p+1) x (q+1) Gauss sweep,
    one batched element integration and one scatter per element."""
    section = model.section
    n = model.n_dofs
    K = np.zeros((n, n)) if "K" in want else None
    M = np.zeros((n, n)) if "M" in want else None
    Kg = np.zeros((n, n)) if "Kg" in want else None

    Db = section.bending_block()
    Ds = section.Ds
    if M is not None:
        mblock = np.kron(np.eye(3), section.inertia_block())
    n0 = model.prestress

    for basis, wq in _element_bases(model.patch, 1, 2):
        active = basis.active_indices[0]
        dofs = (4 * active[:, None] + np.arange(4)).ravel()
        idx = np.ix_(dofs, dofs)
        Bm, Bb1, Bb2, Bs, Bg = strain_operators(basis)

        if K is not None:
            Bb = np.concatenate([Bm, Bb1, Bb2], axis=1)
            K[idx] += _weighted_gram(wq, Bb, Db) + _weighted_gram(wq, Bs, Ds)
        if M is not None:
            R, dR = basis.R, basis.dRdx
            Rt = np.zeros((len(wq), 9, dofs.size))
            Rt[:, 0, 0::4] = R
            Rt[:, 1, 2::4] = -dR[..., 0]
            Rt[:, 2, 3::4] = dR[..., 0]
            Rt[:, 3, 1::4] = R
            Rt[:, 4, 2::4] = -dR[..., 1]
            Rt[:, 5, 3::4] = dR[..., 1]
            Rt[:, 6, 2::4] = R
            Rt[:, 6, 3::4] = R
            M[idx] += _weighted_gram(wq, Rt, mblock)
        if Kg is not None:
            Kg[idx] += _weighted_gram(wq, Bg, n0)

    # element contributions are exactly symmetric; remove roundoff asymmetry
    return tuple(None if A is None else 0.5 * (A + A.T) for A in (K, M, Kg))


def _assemble_load(model: PlateModel) -> np.ndarray:
    """Consistent load vector with a (p+3) x (q+3) Gauss rule per element."""
    F = np.zeros(model.n_dofs)
    for basis, wq in _element_bases(model.patch, 3, 1):
        x = basis.point
        Fe = (wq * model.load.value(x[:, 0], x[:, 1])) @ basis.R
        active = basis.active_indices[0]
        F[4 * active + 2] += Fe
        F[4 * active + 3] += Fe
    return F


def _edge_point_indices(shape: tuple[int, int], edge: int, offset: int) -> np.ndarray:
    """Control point indices on an edge (offset 0) or its inward neighbours (offset 1)."""
    nu, nv = shape
    i = np.arange(nu)
    j = np.arange(nv)
    if edge == 0:
        return offset + j * nu
    if edge == 1:
        return (nu - 1 - offset) + j * nu
    if edge == 2:
        return i + offset * nu
    return i + (nv - 1 - offset) * nu


def apply_boundary_conditions(system: GlobalSystem, model: PlateModel) -> GlobalSystem:
    """Mark constrained DOFs for the model's edge conditions.

    Simple support on a u=const edge fixes (v0, wb, ws); on a v=const edge it
    fixes (u0, wb, ws). A clamped edge fixes all four DOFs on the edge and
    additionally (wb, ws) on the adjacent control point line, which enforces
    a zero normal slope of both deflection parts.

    Supports on the u edges alone leave the in-plane translation u0 free (and
    on the v edges alone v0), which makes the reduced stiffness singular. Such
    a component is pinned at the middle control point of a free edge along
    it: a rigid translation carries no strain and no load, so w and the
    stresses do not change. A fully free plate is left as it is.
    """
    fixed: set[int] = set(int(d) for d in system.fixed_dofs)
    shape = model.patch.net.shape
    floating = {0, 1}
    for edge, bc in enumerate(model.edge_bcs):
        if bc is BC.FREE:
            continue
        if bc is BC.CLAMPED:
            comps = (0, 1, 2, 3)
            fixed.update(4 * int(a) + c for a in _edge_point_indices(shape, edge, 1) for c in (2, 3))
        else:
            comps = (1, 2, 3) if edge in (0, 1) else (0, 2, 3)
        fixed.update(4 * int(a) + c for a in _edge_point_indices(shape, edge, 0) for c in comps)
        floating -= set(comps)
    if any(bc is not BC.FREE for bc in model.edge_bcs):
        for c in floating:
            # u0 floats only when both v edges are free, v0 when both u edges are
            line = _edge_point_indices(shape, 2 if c == 0 else 0, 0)
            fixed.add(4 * int(line[len(line) // 2]) + c)
    return replace(system, fixed_dofs=np.array(sorted(fixed), dtype=int))
