"""Discrete operators for the four-unknown plate model on a NURBS patch.

Each control point carries the DOFs (u0, v0, wb, ws); global DOF index is
4*A + component with A the flattened control point index.

The FGM is graded through the thickness only, so the section constants
(A..H, Ds, I1..I6) and the prestress N0 are the same at every point of the
mid-surface. Element integration therefore splits exactly into a
geometry-only part and a small per-case contraction, in the spirit of sum
factorization (Antolin, Buffa, Calabro, Martinelli, Sangalli, CMAME 2015):

- S_e = Phi^T diag(w det J) Phi is the Gram of the element's six basis
  channels (R, R_x, R_y, R_xx, R_yy, R_xy) over its Gauss points, a
  (6 nb) x (6 nb) matrix for nb basis functions (96 x 96 for a cubic
  element), kept as S_e[(a, b), (c, d)] of shape (nb^2, 36);
- C = L^T D L is a 36 x 16 table C[(c, d), (i, j)] per matrix and case, with
  D the section's bending and shear blocks (K), its inertia block (M) or N0
  (Kg), and L the kinematic table: strain_operators evaluated on a unit
  six-function basis, or the inertia rows of M;
- Ke[(a, i), (b, j)] = sum over (c, d) of S_e[(a, b), (c, d)] C[(c, d), (i, j)].

Stress recovery (postprocess) reads a station's strains through the same
bending and shear rows of L, so K and the stresses share one kinematics.

Assembly is a geometry pass and a per-case part. The geometry pass walks
the patch one row of elements (one u span, every v span) at a time, with one
grid_basis call per row from 1-D bases tabulated once per span and Gauss
point (nurbs.tabulate). Per row it gives the table Phi of the six channels
at each element's Gauss points, the Gauss weights times det J and the
element DOF indices (_matrix_rows). The per-case part forms each S_e from
Phi, contracts it with C, symmetrizes Ke and scatters it. A single case
streams the rows, so no array spans the whole patch. The cases of a sweep
over n, a/h or the shear model share the patch, and sweep_case keeps its
rows for all of them (PatchTables), with the load vector, which depends on
the patch and the load alone. It keeps Phi rather than S_e: on an 11 x 11
cubic patch Phi takes 1.5 MB and the 121 S_e (96 x 96 each) 8.9 MB. With
S_e kept instead, the table-11 benchmark (seed 3, 2-vCPU VM) peaked at
96.1 MB RSS against 87.8 MB, and ran no faster.

Every BLAS product stays at element size: the Gram is one (6 nb x n_q) @
(n_q x 6 nb) product per element and the contraction a stacked
(elements, nb^2, 36) @ (36, 16). One (elements nb^2, 36) @ (36, 16) product
per row of 11 cubic elements exceeds OpenBLAS's threading threshold
(m n k > 262,144). numpy and scipy each load their own OpenBLAS, and a
worker woken in numpy's spins for about 0.1 s after the product; the dense
scipy eigh that follows in the same case then shares two CPUs with it and
went from 0.030 s to 0.058 s, and n-sweeps over the 11x11 cubic presets got
slower end to end.

K, M and Kg use a (p+1) x (q+1) Gauss rule per element: on an affine square
their integrands are polynomials of degree at most 2p per direction, which
that rule integrates exactly, and on the disks more points move buckling
loads by less than 1e-6. Each element matrix is made exactly symmetric and
scattered serially, one element at a time, so results are deterministic and
the global matrices bitwise symmetric. The load vector F gets its own
(p+3) x (q+3) rule, because its integrand q(x, y) R det J is not a
polynomial for the half-sine load, nor on the rational disk: the (p+1) rule
leaves a relative error of order 1e-8 in F there, the (p+3) rule one of
order 1e-14.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .materials import FGMSpec, SectionConstants, ShearModel, _gauss_legendre
from .nurbs import BasisLocal, Patch, grid_basis, tabulate

__all__ = [
    "BC",
    "UniformLoad",
    "SinusoidalLoad",
    "PlateModel",
    "GlobalSystem",
    "strain_operators",
    "assemble",
    "PatchTables",
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

    This is where the kinematics are defined: assembly builds K and Kg from
    these operators evaluated on a unit basis (see _kinematic_tables).
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


# basis channels of the element Gram, in order: R, R_x, R_y, R_xx, R_yy, R_xy
_CHANNELS = 6


def _kinematic_tables():
    """Coefficients of the basis channels in the rows of the bending, shear,
    prestress and inertia operators, for each DOF component: tables of shape
    (rows, 4 * _CHANNELS) with columns (channel, component), channel outer.

    The strain rows are strain_operators on a unit basis of six functions,
    function c being 1 in channel c and 0 in the others, so the kinematics
    are defined there alone. The nine inertia rows pair with
    kron(I3, inertia_block), one triple per direction: (u0, -wb_x, ws_x) for
    x, (v0, -wb_y, ws_y) for y and (wb + ws, 0, 0) for z.
    """
    eye = np.eye(_CHANNELS)
    unit = BasisLocal(np.arange(_CHANNELS), eye[:, 0], eye[:, 1:3], eye[:, 3:], None, None)
    Bm, Bb1, Bb2, Bs, Bg = strain_operators(unit)
    R, dR = unit.R, unit.dRdx
    inertia = np.zeros((9, 4 * _CHANNELS))
    inertia[0, 0::4] = R
    inertia[1, 2::4] = -dR[:, 0]
    inertia[2, 3::4] = dR[:, 0]
    inertia[3, 1::4] = R
    inertia[4, 2::4] = -dR[:, 1]
    inertia[5, 3::4] = dR[:, 1]
    inertia[6, 2::4] = R
    inertia[6, 3::4] = R
    return np.concatenate([Bm, Bb1, Bb2]), Bs, Bg, inertia


_BENDING_ROWS, _SHEAR_ROWS, _PRESTRESS_ROWS, _INERTIA_ROWS = _kinematic_tables()


def assemble(model: PlateModel, want=("K", "F"), *,
             tables: Optional["PatchTables"] = None) -> GlobalSystem:
    """Build the requested global matrices and load vector.

    K, M and Kg come from one sweep with a (p+1) x (q+1) Gauss rule per
    element; F from a separate pass with a (p+3) x (q+3) rule (see the module
    docstring). The matrix sweep is skipped when no matrix is requested.
    Without tables the geometry pass streams one row of elements at a time;
    with the tables of the model's patch it is read from them.
    """
    want = set(want)
    unknown = want - {"K", "M", "Kg", "F"}
    if unknown:
        raise ConfigurationError(f"unknown assembly targets {sorted(unknown)}")
    if "Kg" in want and model.prestress is None:
        raise ConfigurationError("geometric stiffness requested without a prestress state")
    if "F" in want and model.load is None:
        raise ConfigurationError("load vector requested without a load description")
    if tables is not None and tables.patch is not model.patch:
        raise ConfigurationError("assembly tables belong to another patch than the model's")

    K = M = Kg = None
    if want & {"K", "M", "Kg"}:
        rows = _matrix_rows(model.patch) if tables is None else tables.matrix_rows
        K, M, Kg = _assemble_matrices(model, want, rows)
    F = None
    if "F" in want:
        F = (_assemble_load(model.patch, model.load) if tables is None
             else tables.load_vector(model.load))
    return GlobalSystem(n_dofs=model.n_dofs, K=K, M=M, Kg=Kg, F=F)


class PatchTables:
    """The material-free part of assembly on one patch, kept for a run of
    cases that share the patch and the load (a sweep over n, a/h or the
    shear model): the geometry pass of K, M and Kg and the load vector of
    each load, each built on first use. The geometry pass of an 11 x 11
    cubic patch takes about 1.5 MB (see the module docstring).
    """

    def __init__(self, patch: Patch):
        self.patch = patch
        self._loads = {}

    @functools.cached_property
    def matrix_rows(self) -> list:
        return list(_matrix_rows(self.patch))

    def load_vector(self, load) -> np.ndarray:
        if load not in self._loads:
            self._loads[load] = _assemble_load(self.patch, load)
        return self._loads[load].copy()


def _element_rows(patch: Patch, extra_points: int, order: int):
    """Per row of elements (one u span and every v span, rows in u order):
    the basis of the given order at each element's (p+extra) x (q+extra)
    Gauss points, and the Gauss weights times det J.

    Every array leads with (element, point), elements in v order and points
    with u outer, so the working set is one row of elements. The 1-D bases
    are tabulated once per span and Gauss point, the 2-D basis once per row.
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
    tab_v = tabulate(patch.knot_v, params_v.ravel(), order)

    def by_element(a):
        a = a.reshape((n_u, n_el, n_v) + a.shape[1:]).swapaxes(0, 1)
        return a.reshape((n_el, n_u * n_v) + a.shape[3:])

    for params, weights in zip(params_u, weights_u):
        basis = grid_basis(patch, tabulate(patch.knot_u, params, order), tab_v)
        wq = np.outer(weights, weights_v).ravel() * basis.jacobian_det
        grouped = (None if v is None else by_element(v) for v in vars(basis).values())
        yield BasisLocal(*grouped), by_element(wq)


def _coefficient_table(rows: np.ndarray, D: np.ndarray) -> np.ndarray:
    """C = L^T D L for a kinematic table L, regrouped as C[(c, d), (i, j)]
    with channels c, d and DOF components i, j: shape (36, 16)."""
    C = (rows.T @ D @ rows).reshape(_CHANNELS, 4, _CHANNELS, 4)
    return C.transpose(0, 2, 1, 3).reshape(_CHANNELS**2, 16)


def _matrix_rows(patch: Patch):
    """The geometry pass of K, M and Kg, per row of elements: the table phi
    of the six basis channels at each element's Gauss points, shape
    (element, point, 6 nb) with the channel outer, the Gauss weights times
    det J (element, point), and the element DOF indices (element, nb, 4)."""
    for basis, wq in _element_rows(patch, 1, 2):
        n_el, n_q, nb = basis.R.shape
        phi = np.concatenate([basis.R[:, :, None], basis.dRdx.swapaxes(2, 3),
                              basis.d2Rdx2.swapaxes(2, 3)], axis=2).reshape(n_el, n_q, -1)
        yield phi, wq, 4 * basis.active_indices[:, 0, :, None] + np.arange(4)


def _assemble_matrices(model: PlateModel, want: set, rows):
    """K, M and Kg (None where not wanted) from the basis Gram of each
    element, contracted with one coefficient table per matrix; rows is the
    geometry pass of the model's patch (_matrix_rows)."""
    section = model.section
    tables = {}
    if "K" in want:
        tables["K"] = (_coefficient_table(_BENDING_ROWS, section.bending_block())
                       + _coefficient_table(_SHEAR_ROWS, section.Ds))
    if "M" in want:
        tables["M"] = _coefficient_table(_INERTIA_ROWS, np.kron(np.eye(3), section.inertia_block()))
    if "Kg" in want:
        tables["Kg"] = _coefficient_table(_PRESTRESS_ROWS, model.prestress)
    n = model.n_dofs
    out = {name: np.zeros(n * n) for name in tables}

    for phi, wq, dof in rows:
        n_el, nb = dof.shape[:2]
        # S_e[(c, a), (d, b)], regrouped as S_e[(a, b), (c, d)]
        gram = (phi.swapaxes(1, 2) * wq[:, None, :]) @ phi
        gram = gram.reshape(n_el, _CHANNELS, nb, _CHANNELS, nb).transpose(0, 2, 4, 1, 3)
        gram = gram.reshape(n_el, nb * nb, _CHANNELS**2)
        # flat index of the global entry of element DOFs (a, i) and (b, j), laid
        # out like Ke: (element, a, b, i, j)
        flat = dof[:, :, None, :, None] * n + dof[:, None, :, None, :]
        for name, C in tables.items():
            Ke = (gram @ C).reshape(flat.shape)
            Ke = 0.5 * (Ke + Ke.transpose(0, 2, 1, 4, 3))
            A = out[name]
            for f, ke in zip(flat, Ke):
                A[f] += ke
    return tuple(out[name].reshape(n, n) if name in out else None for name in ("K", "M", "Kg"))


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
