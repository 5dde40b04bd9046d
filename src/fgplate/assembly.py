"""Discrete operators for the four-unknown plate model on a NURBS patch.

Each control point carries the DOFs (u0, v0, wb, ws); global DOF index is
4*A + component with A the flattened control point index.

The FGM is graded through the thickness only, so the section constants
(A..H, Ds, I1..I6) and the prestress N0 are the same at every point of the
mid-surface. Element integration therefore splits exactly into a
geometry-only part and a small per-case contraction, in the spirit of sum
factorization (Antolin, Buffa, Calabro, Martinelli, Sangalli, CMAME 2015):

- S_e = Phi^T diag(w det J) Phi is the Gram of an element's six basis
  channels (R, R_x, R_y, R_xx, R_yy, R_xy) over its Gauss points, a
  (6 nb) x (6 nb) matrix for nb basis functions (96 x 96 for a cubic
  element);
- G[(A, B), (c, d)] is the sum of the S_e over the elements, one row per
  coupled control-point pair A <= B (the supports of A and B overlap) and
  one column per channel pair (c, d): the global Gram of the patch;
- C = L^T D L is a 36 x 16 table C[(c, d), (i, j)] per matrix and case, with
  D the section's bending and shear blocks (K), its inertia block (M) or N0
  (Kg), and L the kinematic table: strain_operators evaluated on a unit
  six-function basis, or the inertia rows of M;
- the block of DOFs (A, i), (B, j) is sum over (c, d) of
  G[(A, B), (c, d)] C[(c, d), (i, j)].

Stress recovery (postprocess) reads a station's strains through the same
bending and shear rows of L, so K and the stresses share one kinematics.

Assembly is a geometry pass, which builds G, and a per-case part. The
geometry pass walks the patch one row of elements (one u span, every v
span) at a time, with one grid_basis call per row from 1-D bases tabulated
once per span and Gauss point (nurbs.tabulate). It forms each S_e and adds
its a <= b pair rows into G, serially in element order. The per-case part
is one product V = G @ C per matrix; it makes the 4 x 4 blocks of the
pairs A = B exactly symmetric and writes each pair block and its transpose
once into the dense matrix, so nothing is accumulated per case. The matrix
is numbered by the free DOFs of the model's edge conditions: a map from
global DOF to free position, built per case, drops the entries of the fixed
DOFs at that write, so no full-size matrix and no reduced copy is made. A
model free on every edge fixes nothing and gets the full matrices. A single
case builds G and uses it once. The cases of a sweep over n, a/h or the
shear model share the patch, and sweep_case keeps G for all of them
(PatchTables), with the load vector, which depends on the patch and the load
alone.

Sizes on an 11 x 11 cubic patch (14 x 14 control points): 86 coupled 1-D
pairs per direction give 86^2 = 7,396 nonzero 4 x 4 blocks of K, of which
3,796 have A <= B, so G takes 3,796 x 36 doubles, 1.1 MB. The per-element
Grams S_e would take 8.9 MB: kept for a sweep, they peaked the table-11
benchmark at 96.1 MB RSS against 87.8 MB (seed 3, 2-vCPU VM) and ran no
faster. Building G takes about 20 ms there; a K + M pair from it about 3 ms,
against 26-29 ms for contracting and scattering the 121 element Grams. On
the 624 free DOFs of SSSS a matrix takes 3.1 MB, against 4.9 MB full-size.

Every BLAS product stays below OpenBLAS's threading threshold
(m n k > 262,144): the Grams are one (6 nb x n_q) @ (n_q x 6 nb) product per
element, and V is formed 256 rows of G at a time. numpy and scipy each load
their own OpenBLAS, and a worker woken in numpy's spins for about 0.1 s
after a threaded product; the dense scipy eigh that follows in the same case
then shares two CPUs with it. Measured on a 2-vCPU VM: one unblocked
(3,796 x 36) @ (36 x 16) product per matrix more than doubled the solver
time of a three-case vibration sweep (median 245 ms against 105-110 ms), and
a stacked (elements nb^2, 36) @ (36, 16) contraction per row of 11 cubic
elements took a case's eigh from 0.030 s to 0.058 s.

K, M and Kg use a (p+1) x (q+1) Gauss rule per element: on an affine square
their integrands are polynomials of degree at most 2p per direction, which
that rule integrates exactly, and on the disks more points move buckling
loads by less than 1e-6. G is summed in a fixed order and every block is
written from one product row, so results are deterministic and the global
matrices bitwise symmetric. The load vector F gets its own (p+3) x (q+3)
rule, because its integrand q(x, y) R det J is not a polynomial for the
half-sine load, nor on the rational disk: the (p+1) rule leaves a relative
error of order 1e-8 in F there, the (p+3) rule one of order 1e-14.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .materials import FGMSpec, SectionConstants, ShearModel, _gauss_legendre
from .nurbs import BasisLocal, Patch, _active_points, grid_basis, tabulate

__all__ = [
    "BC",
    "UniformLoad",
    "SinusoidalLoad",
    "PlateModel",
    "GlobalSystem",
    "strain_operators",
    "assemble",
    "PatchTables",
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
    global DOF free_dofs[i]. F is the load vector over all n_dofs DOFs, which
    solve_static reads on the free ones. mechanism names a rigid motion that
    the constraints leave and that a static or buckling solve cannot carry;
    vibration reports it as a zero frequency. Solvers never write into these
    arrays.
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
        object.__setattr__(self, "fixed_dofs", fixed)
        object.__setattr__(self, "free_dofs", np.setdiff1d(np.arange(self.n_dofs), fixed))

    def reduce(self, matrix: np.ndarray) -> np.ndarray:
        """The free-DOF block of a system matrix, which is the matrix itself:
        assemble numbers K, M and Kg by the free DOFs. perfbench/tracer.py
        still reads the matrices through this call. A matrix of any other
        size is not one of this system's and raises."""
        if matrix.shape != (self.free_dofs.size,) * 2:
            raise ConfigurationError(f"a {matrix.shape} matrix is not on the "
                                     f"{self.free_dofs.size} free DOFs of this system")
        return matrix

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
    """Build the requested global matrices, on the free DOFs of the model's
    edge conditions (see edge_constraints), and the load vector.

    K, M and Kg come from one sweep with a (p+1) x (q+1) Gauss rule per
    element; F from a separate pass with a (p+3) x (q+3) rule (see the module
    docstring). The matrix sweep is skipped when no matrix is requested.
    Without tables the global Gram of the patch is built for this call; with
    the tables of the model's patch it is read from them.
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

    fixed, mechanism = edge_constraints(model, inertia="M" in want)
    system = GlobalSystem(n_dofs=model.n_dofs, fixed_dofs=fixed, mechanism=mechanism)
    K = M = Kg = None
    if want & {"K", "M", "Kg"}:
        gram = _GlobalGram(model.patch) if tables is None else tables.gram
        K, M, Kg = _assemble_matrices(model, want, gram, system.free_dofs)
    F = None
    if "F" in want:
        F = (_assemble_load(model.patch, model.load) if tables is None
             else tables.load_vector(model.load))
    return replace(system, K=K, M=M, Kg=Kg, F=F)


class PatchTables:
    """The material-free part of assembly on one patch, kept for a run of
    cases that share the patch and the load (a sweep over n, a/h or the
    shear model): the global Gram of K, M and Kg and the load vector of each
    load, each built on first use. The Gram of an 11 x 11 cubic patch takes
    1.1 MB (see the module docstring).
    """

    def __init__(self, patch: Patch):
        self.patch = patch
        self._loads = {}

    @functools.cached_property
    def gram(self) -> "_GlobalGram":
        return _GlobalGram(self.patch)

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


class _GlobalGram:
    """G[(A, B), (c, d)]: the integral over the patch of w det J times channel
    c of basis function A times channel d of basis function B, one row per
    coupled control-point pair A <= B (rows sorted by A, then B), summed from
    the element Grams in element order. first and second hold A and B of each
    row, diagonal the rows with A = B."""

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
        self.values = np.zeros((keys.size, _CHANNELS**2))
        start = 0
        for basis, wq in _element_rows(patch, 1, 2):
            row_el, n_q = wq.shape
            phi = np.concatenate([basis.R[:, :, None], basis.dRdx.swapaxes(2, 3),
                                  basis.d2Rdx2.swapaxes(2, 3)], axis=2).reshape(row_el, n_q, -1)
            # S_e[(c, a), (d, b)], regrouped as S_e[(a, b), (c, d)] over a <= b
            gram = (phi.swapaxes(1, 2) * wq[:, None, :]) @ phi
            gram = gram.reshape(row_el, _CHANNELS, nb, _CHANNELS, nb).transpose(0, 2, 4, 1, 3)
            gram = gram[:, ia, ib].reshape(row_el, ia.size, _CHANNELS**2)
            for rows, ge in zip(slots[start:start + row_el], gram):
                self.values[rows] += ge
            start += row_el


def _coefficient_table(rows: np.ndarray, D: np.ndarray) -> np.ndarray:
    """C = L^T D L for a kinematic table L, regrouped as C[(c, d), (i, j)]
    with channels c, d and DOF components i, j: shape (36, 16)."""
    C = (rows.T @ D @ rows).reshape(_CHANNELS, 4, _CHANNELS, 4)
    return C.transpose(0, 2, 1, 3).reshape(_CHANNELS**2, 16)


# rows of G per product: a (256, 36) @ (36, 16) product stays below
# OpenBLAS's threading threshold (see the module docstring)
_PRODUCT_ROWS = 256


def _assemble_matrices(model: PlateModel, want: set, gram: _GlobalGram, free: np.ndarray):
    """K, M and Kg (None where not wanted) on the given free DOFs, from the
    global Gram of the model's patch: one blocked product with a coefficient
    table per matrix, then the free entries of each pair block and of its
    transpose written once."""
    section = model.section
    tables = {}
    if "K" in want:
        tables["K"] = (_coefficient_table(_BENDING_ROWS, section.bending_block())
                       + _coefficient_table(_SHEAR_ROWS, section.Ds))
    if "M" in want:
        tables["M"] = _coefficient_table(_INERTIA_ROWS, np.kron(np.eye(3), section.inertia_block()))
    if "Kg" in want:
        tables["Kg"] = _coefficient_table(_PRESTRESS_ROWS, model.prestress)
    # flat index of entry (A i, B j) of each pair block, and of its transpose,
    # in an nf x nf matrix followed by one spare slot: a fixed DOF's position
    # is nf^2, so every entry of its row or column lands in the spare slot
    nf = free.size
    spare = nf * nf
    position = np.full(model.n_dofs, spare)
    position[free] = np.arange(nf)
    rows = np.repeat(position[4 * gram.first[:, None] + np.arange(4)], 4, axis=1).ravel()
    cols = np.tile(position[4 * gram.second[:, None] + np.arange(4)], (1, 4)).ravel()
    upper = np.minimum(rows * nf + cols, spare)
    lower = np.minimum(cols * nf + rows, spare)
    G, d = gram.values, gram.diagonal
    out = {}
    for name, C in tables.items():
        # V[(A, B), (i, j)]: the block of DOFs (A, i), (B, j)
        V = np.empty((len(G), 16))
        for lo in range(0, len(G), _PRODUCT_ROWS):
            np.matmul(G[lo:lo + _PRODUCT_ROWS], C, out=V[lo:lo + _PRODUCT_ROWS])
        V = V.reshape(-1, 4, 4)
        V[d] = 0.5 * (V[d] + V[d].swapaxes(1, 2))
        A = np.zeros(spare + 1)
        A[upper] = V.ravel()
        A[lower] = V.ravel()
        out[name] = A[:spare].reshape(nf, nf)
    return tuple(out.get(name) for name in ("K", "M", "Kg"))


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
    named as a mechanism. A fully free plate is left as it is.

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
