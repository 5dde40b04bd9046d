"""Discrete operators for the four-unknown plate model on a NURBS patch.

Each control point carries the DOFs (u0, v0, wb, ws); global DOF index is
4*A + component with A the flattened control point index.

The FGM is graded through the thickness only, so the section constants
(A..H, Ds, I1..I6) and the prestress N0 are the same at every point of the
mid-surface. Element integration therefore splits exactly into integrals of
the basis over the patch and a small per-case contraction:

- G[(A, B), (c, d)] is the global Gram of the patch over the coupled
  control-point pairs A <= B and the pairs (c, d) of six basis channels,
  which the patch builds once (Patch.gram), as it does the load vector of
  each load over the control points (Patch.load_vector); on a square both
  factor into 1-D Gauss sums (sum factorization; see nurbs). Neither knows
  the four DOFs of a point: the contraction below places G's pairs, and
  assemble writes the load vector into the wb and ws slots;
- C = L^T D L is a 36 x 16 table C[(c, d), (i, j)] per matrix and case, with
  D the section's bending and shear blocks (K), its inertia block (M) or N0
  (Kg), and L the kinematic table: strain_operators evaluated on a unit
  six-function basis, or the inertia rows of M;
- the block of DOFs (A, i), (B, j) is sum over (c, d) of
  G[(A, B), (c, d)] C[(c, d), (i, j)].

Stress recovery (postprocess) reads a station's strains through the same
bending and shear rows of L, so K and the stresses share one kinematics.

A case multiplies G by C per matrix, _PRODUCT_ROWS rows of G at a time;
each block of products V = G @ C makes the 4 x 4 blocks of its pairs A = B
exactly symmetric and writes each free entry of its pair blocks once into
LAPACK's lower band storage, so nothing is accumulated per case and no
product of all of G is kept. Entry (r, c) goes to ab[|r - c|, min(r, c)]
of a (kd + 1) x nf array stored column-major, as LAPACK stores a band: the
flat slot is min(r, c) (kd + 1) + |r - c|, so the array is Fortran-ordered
and the solvers factorize (xPBTRF) and multiply (xSBMV) it without a copy.
A pair block and its transpose share those slots. The half-bandwidth kd is
the largest |r - c| over the written entries, so the band is as narrow as
the coupled control-point pairs allow in the natural control-point order,
and GlobalSystem reads it back as K.shape[0] - 1. The matrix is numbered
by the free DOFs of the model's edge conditions: a map from global DOF to
free position sends the entries of the fixed DOFs to one spare slot at that
write, so no full-size matrix, no reduced copy and no nf x nf array is made.
The band map (kd and the flat slot of every pair-block entry; 60,736
indices, 0.49 MB, on an 11 x 11 cubic patch) depends only on the patch and
the fixed DOFs, so it lives on the patch's Gram, one per fixed-DOF set, and
the cases of a sweep build it once; it goes with the patch. A model free on
every edge fixes nothing and gets the full matrices. Every entry is written
from one product row, so results are deterministic.

On an 11 x 11 cubic patch a K + M pair from G takes about 1 ms (1 BLAS
thread, 2-vCPU VM), against 26-29 ms for contracting and scattering the 121
element Grams in every case. G itself, built once per patch, takes 1.3-2.4
ms on the square and 6.6-8.4 ms on the disks' nets (see nurbs). A band
matrix takes 0.58 MB on the 488 free DOFs of the clamped disk (kd = 147),
0.83 MB on the 624 of SSSS (kd = 165) and 4.6 MB on 2,024 (kd = 285),
against 1.9, 3.1 and 32.8 MB for the dense free-DOF matrix.

Every BLAS product stays below OpenBLAS's threading threshold
(m n k > 262,144): V is formed 256 rows of G at a time, and the element
Grams of G are one product per element. numpy and scipy each load their own
OpenBLAS, and a worker woken in numpy's spins for about 0.1 s after a
threaded product; the scipy solve that follows in the same case then
shares two CPUs with it. Measured on a 2-vCPU VM: one unblocked
(3,796 x 36) @ (36 x 16) product per matrix more than doubled the solver
time of a three-case vibration sweep (median 245 ms against 105-110 ms), and
a stacked (elements nb^2, 36) @ (36, 16) contraction per row of 11 cubic
elements took a case's eigh from 0.030 s to 0.058 s.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .materials import FGMSpec, SectionConstants, ShearModel
from .nurbs import _CHANNELS, BasisLocal, Patch

__all__ = [
    "BC",
    "UniformLoad",
    "SinusoidalLoad",
    "PlateModel",
    "GlobalSystem",
    "strain_operators",
    "assemble",
    "edge_constraints",
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
    """Assembled matrices on the free DOFs, plus constrained-DOF bookkeeping.

    K, M and Kg are numbered by the free DOFs: row and column i belong to
    global DOF free_dofs[i]. Each is stored in LAPACK's lower band storage,
    the solvers' input format: a Fortran-ordered (kd + 1) x nf array ab with
    ab[|i - j|, min(i, j)] the entry (i, j) of the symmetric matrix and zeros
    past the end of each diagonal. The half-bandwidth kd is K.shape[0] - 1:
    entry (i, j) is zero where |i - j| > kd. assemble makes the band as wide
    as the coupled control-point pairs reach in the free numbering, the same
    for all three matrices, and writes it in Fortran order; a system built
    by hand gives K, M and Kg one band width too, and is converted to
    Fortran order once, here. reduce(matrix) is the dense view. F is the
    load vector over all n_dofs DOFs, which solve_static reads on the free
    ones. mechanism names a rigid motion that the constraints leave and that
    a static or buckling solve cannot carry; vibration reports it as a zero
    frequency.

    The system holds K, M and Kg as read-only views (writeable False; the
    caller's own arrays keep their flags): the solvers read them in place,
    without a copy, and a write into them raises.
    """

    n_dofs: int
    K: Optional[np.ndarray] = None
    M: Optional[np.ndarray] = None
    Kg: Optional[np.ndarray] = None
    F: Optional[np.ndarray] = None
    fixed_dofs: np.ndarray = None
    mechanism: Optional[str] = None
    free_dofs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        fixed = np.array([], dtype=int) if self.fixed_dofs is None else np.unique(self.fixed_dofs)
        outside = fixed[(fixed < 0) | (fixed >= self.n_dofs)]
        if outside.size:
            raise ConfigurationError(f"fixed DOF {outside[0]} is outside [0, {self.n_dofs}), "
                                     f"the DOFs of the system")
        free = np.ones(self.n_dofs, dtype=bool)
        free[fixed.astype(int)] = False
        object.__setattr__(self, "fixed_dofs", fixed)
        object.__setattr__(self, "free_dofs", np.flatnonzero(free))
        for name in ("K", "M", "Kg"):
            band = getattr(self, name)
            if band is not None:
                # a read-only view: the caller's array keeps its own flags
                band = np.asfortranarray(band, dtype=float).view()
                band.flags.writeable = False
                object.__setattr__(self, name, band)

    def reduce(self, band: np.ndarray) -> np.ndarray:
        """The dense nf x nf free-DOF matrix of one of the system's band
        arrays (K, M or Kg), the only dense view of them; the tests and
        perfbench/tracer.py read the matrices through it. An array that is
        not a band over this system's free DOFs raises."""
        nf = self.free_dofs.size
        if band.ndim != 2 or band.shape[1] != nf or not 1 <= band.shape[0] <= max(nf, 1):
            raise ConfigurationError(f"a {band.shape} array is not a band over the "
                                     f"{nf} free DOFs of this system")
        dense = np.zeros((nf, nf), dtype=band.dtype)
        for offset, diagonal in enumerate(band):
            i = np.arange(nf - offset)
            dense[i + offset, i] = dense[i, i + offset] = diagonal[:nf - offset]
        return dense

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


def assemble(model: PlateModel, want=("K", "F")) -> GlobalSystem:
    """Build the requested global matrices, on the free DOFs of the model's
    edge conditions (see edge_constraints), and the load vector.

    K, M and Kg are contractions of the patch's Gram (Patch.gram) with the
    section. F places the patch's load vector of the model's load
    (Patch.load_vector), one entry per control point, in the wb and ws
    slots of each point. The patch builds each once, on first use, so a
    request without a matrix or without F leaves that pass unbuilt.
    """
    want = set(want)
    unknown = want - {"K", "M", "Kg", "F"}
    if unknown:
        raise ConfigurationError(f"unknown assembly targets {sorted(unknown)}")
    if "Kg" in want and model.prestress is None:
        raise ConfigurationError("geometric stiffness requested without a prestress state")
    if "F" in want and model.load is None:
        raise ConfigurationError("load vector requested without a load description")

    fixed, mechanism = edge_constraints(model, inertia="M" in want)
    matrices = _assemble_matrices(model, want, fixed) if want - {"F"} else {}
    F = None
    if "F" in want:
        # the pressure acts on w = wb + ws
        F = np.zeros(model.n_dofs)
        F[2::4] = F[3::4] = model.patch.load_vector(model.load)
    return GlobalSystem(n_dofs=model.n_dofs, fixed_dofs=fixed, mechanism=mechanism, F=F,
                        **matrices)


def _coefficient_table(rows: np.ndarray, D: np.ndarray) -> np.ndarray:
    """C = L^T D L for a kinematic table L, regrouped as C[(c, d), (i, j)]
    with channels c, d and DOF components i, j: shape (36, 16)."""
    C = (rows.T @ D @ rows).reshape(_CHANNELS, 4, _CHANNELS, 4)
    return C.transpose(0, 2, 1, 3).reshape(_CHANNELS**2, 16)


# rows of G per product: a (256, 36) @ (36, 16) product stays below
# OpenBLAS's threading threshold (see the module docstring)
_PRODUCT_ROWS = 256


def _band_map(model: PlateModel, fixed: np.ndarray) -> tuple[int, int, np.ndarray]:
    """(kd, nf, slots) of the band that the given fixed DOFs leave on the
    model's patch: slots is the flat index of entry (A i, B j) of each pair
    block of the Gram in a column-major (kd + 1) x nf band, ab[|r - c|,
    min(r, c)] at min(r, c) (kd + 1) + |r - c|, or the spare slot
    (kd + 1) nf past it for every entry in the row or column of a fixed DOF.
    Built once per patch and fixed-DOF set and kept on the patch's Gram, so
    the cases of a sweep share it."""
    gram, key = model.patch.gram, fixed.tobytes()
    if key not in gram.band_maps:
        free = np.ones(model.n_dofs, dtype=bool)
        free[fixed] = False
        nf = int(np.count_nonzero(free))
        position = np.full(model.n_dofs, -1)
        position[free] = np.arange(nf)
        # (pairs, 4, 4) broadcasts of the rows' and the columns' positions
        rows = position[4 * gram.first[:, None] + np.arange(4)][:, :, None]
        cols = position[4 * gram.second[:, None] + np.arange(4)][:, None, :]
        low, offsets = np.minimum(rows, cols), np.abs(rows - cols)
        kd = int(offsets[low >= 0].max(initial=0))
        slots = np.where(low >= 0, low * (kd + 1) + offsets, (kd + 1) * nf).ravel()
        slots.flags.writeable = False
        gram.band_maps[key] = kd, nf, slots
    return gram.band_maps[key]


def _assemble_matrices(model: PlateModel, want: set, fixed: np.ndarray) -> dict:
    """The wanted ones of K, M and Kg by name, on the DOFs that the given fixed
    ones leave free (GlobalSystem.free_dofs), in Fortran-ordered LAPACK lower
    band storage, from the global Gram of the model's patch: each block of
    _PRODUCT_ROWS rows of G times a coefficient table per matrix, its free
    entries written once through the band map of the fixed DOFs (_band_map).
    The band is as wide as the written entries: kd = max |row - col| over
    the pairs' free entries."""
    section, gram = model.section, model.patch.gram
    tables = {}
    if "K" in want:
        tables["K"] = (_coefficient_table(_BENDING_ROWS, section.bending_block())
                       + _coefficient_table(_SHEAR_ROWS, section.Ds))
    if "M" in want:
        tables["M"] = _coefficient_table(_INERTIA_ROWS, np.kron(np.eye(3), section.inertia_block()))
    if "Kg" in want:
        tables["Kg"] = _coefficient_table(_PRESTRESS_ROWS, model.prestress)
    kd, nf, slots = _band_map(model, fixed)
    spare = (kd + 1) * nf
    G = gram.values
    # the rows of the pairs A = B in each block, as block-local indices
    starts = range(0, len(G), _PRODUCT_ROWS)
    diagonal = np.split(gram.diagonal, np.searchsorted(gram.diagonal, starts[1:]))
    block = np.empty((_PRODUCT_ROWS, 16))
    out = {}
    for name, C in tables.items():
        ab = np.zeros(spare + 1)
        for lo, d in zip(starts, diagonal):
            # V[(A, B), (i, j)]: the block of DOFs (A, i), (B, j)
            V = np.matmul(G[lo:lo + _PRODUCT_ROWS], C, out=block[:min(_PRODUCT_ROWS, len(G) - lo)])
            V = V.reshape(-1, 4, 4)
            d = d - lo
            V[d] = 0.5 * (V[d] + V[d].swapaxes(1, 2))
            ab[slots[16 * lo:16 * lo + V.size]] = V.ravel()
        out[name] = ab[:spare].reshape(kd + 1, nf, order="F")
    return out


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


def edge_constraints(model: PlateModel, *,
                     inertia: bool = False) -> tuple[np.ndarray, Optional[str]]:
    """The fixed DOFs of the model's edge conditions, sorted, and the rigid
    motion that they leave to a loaded or prestressed plate, if any. inertia
    says whether the constrained system carries a mass matrix.

    Simple support on a u=const edge fixes (v0, wb, ws); on a v=const edge it
    fixes (u0, wb, ws). A clamped edge fixes all four DOFs on the edge and
    additionally (wb, ws) on the adjacent control point line, which enforces
    a zero normal slope of both deflection parts.

    Supports on the u edges alone leave the in-plane translation u0 free (and
    on the v edges alone v0), which makes the stiffness singular. Without
    inertia such a component is pinned at the middle control point of a free
    edge along it: a rigid translation carries no strain and no load, so w and
    the stresses do not change. With inertia it is a rigid mode of zero
    frequency, which a pin would turn into a spurious in-plane mode (3,622.6
    rad/s on SSFF at a/h = 5 on 4 cubic elements), so it is left free and
    named as a mechanism. A plate free on every edge is left as it is, and
    without inertia its rigid motions are named as the mechanism.

    On straight edges (the square's) the in-plane rotation about a point
    (x_c, y_c), u0 = -t (y - y_c) and v0 = t (x - x_c), vanishes where a
    simple support on the u edge x = x_c fixes v0 and one on the v edge
    y = y_c fixes u0. Simple supports on two adjacent straight edges and no
    clamp therefore leave the rotation about their common corner free.
    Without inertia it is pinned through v0 at the middle control point of
    the opposite u edge: the rotation enters neither K, Kg nor F, so static
    and buckling answers do not change. With inertia it is a rigid mode of
    zero frequency, which a pin would turn into a constrained in-plane mode
    (omega_bar 0.085 for SFSF at a/h = 5 on 2 cubic elements), so it is left
    free and named as the mechanism, on which a static or buckling solve of
    that system raises. A single simply supported straight edge and no clamp
    also leave w free to rotate about that edge: a mechanism. Along the arcs
    of the disks neither rotation vanishes, so nothing more is pinned there.
    Several mechanisms are named together, separated by "; ".
    """
    fixed: set[int] = set()
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
    supported = [edge for edge, bc in enumerate(model.edge_bcs) if bc is not BC.FREE]
    rigid = ("is left free as a rigid mode of the mass matrix: assemble without M for a "
             "static or buckling solve")
    mechanisms = []
    if supported:
        for c in floating:
            # u0 floats only when both v edges are free, v0 when both u edges are
            if inertia:
                mechanisms.append(f"the in-plane translation {'uv'[c]}0 {rigid}")
            else:
                line = _edge_point_indices(shape, 2 if c == 0 else 0, 0)
                fixed.add(4 * int(line[len(line) // 2]) + c)
    elif not inertia:
        mechanisms.append("mechanism: the plate is free on every edge and moves rigidly")
    if BC.CLAMPED not in model.edge_bcs:
        # each supported edge's normal coordinate: x on the u edges, y on the v edges
        points = model.patch.net.points.reshape(-1, 2, order="F")
        normal = {edge: points[_edge_point_indices(shape, edge, 0), edge // 2]
                  for edge in supported}
        straight = all(np.ptp(x) <= 1e-12 * np.abs(points).max() for x in normal.values())
        adjacent = len(supported) == 2 and supported[0] < 2 <= supported[1]
        if straight and adjacent and inertia:
            mechanisms.append(f"the in-plane rotation about the corner of the two simply "
                              f"supported edges {rigid}")
        elif straight and adjacent:
            line = _edge_point_indices(shape, 1 - supported[0], 0)
            fixed.add(4 * int(line[len(line) // 2]) + 1)
        elif straight and len(supported) == 1:
            edge = supported[0]
            mechanisms.append(f"mechanism: w can rotate rigidly about the simply supported edge "
                              f"{'xy'[edge // 2]} = {normal[edge][0]:g}, the only supported edge")
    return np.array(sorted(fixed), dtype=int), "; ".join(mechanisms) or None
