"""Dense solvers for the static system and the two symmetric generalized
eigenproblems (free vibration, linearized buckling), on the free-DOF matrices
that assembly builds.

Problem sizes stay in the low thousands of DOFs, so dense symmetric
factorizations are the right tool. At 784 DOFs (624 free, K 23% nonzero) the
10 lowest vibration modes take 31-32 ms with the dense subset eigh, against
50-52 ms for a sparse shift-invert eigsh (splu) and 61-88 ms for eigsh on a
dense Cholesky (vib10-atan-n1-r10, 2-vCPU VM). The eigensolves compute only
the pairs they report: the k lowest for vibration, the k largest 1/lambda
for buckling, through LAPACK's subset driver xSYGVX. They run in scipy's
LAPACK on its bundled OpenBLAS, which is multi-threaded: it uses up to one
thread per core unless OPENBLAS_NUM_THREADS caps it. For a fixed thread count
the results are deterministic.

A solve reads the system's arrays and never writes into them, so a system
can be solved again with the same result. LAPACK works in place only on
arrays that the solver makes itself (G = -Kg); it copies K and M.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import GlobalSystem
from .errors import MassMatrixError, SolverError, SpectrumError

__all__ = ["EigenResult", "solve_static", "solve_vibration", "solve_buckling"]

_POSITIVE_CUTOFF = 1e-12


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues with their mode columns over the free DOFs.

    For vibration the values are omega^2 (rad^2/s^2) and the vectors are
    mass-normalized (v^T M v = 1); for buckling the values are critical load
    factors and the vectors are stiffness-normalized.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def count(self) -> int:
        return len(self.values)

    def frequencies(self) -> np.ndarray:
        """Natural frequencies omega_i = sqrt(lambda_i) in rad/s."""
        return np.sqrt(self.values)


def _matrix(system: GlobalSystem, name: str) -> np.ndarray:
    matrix = getattr(system, name)
    if matrix is None:
        raise SolverError(f"system was assembled without {name}")
    return matrix


def solve_static(system: GlobalSystem) -> np.ndarray:
    """Solve K q = F on the free DOFs and expand with zeros on the fixed ones.

    Uses a Cholesky factorization with iterative refinement; the relative
    residual is driven below 1e-10 or a SolverError is raised.
    """
    if system.mechanism:
        raise SolverError(system.mechanism)
    K = _matrix(system, "K")
    F = _matrix(system, "F")[system.free_dofs]
    if K.shape[0] == 0:
        raise SolverError("no free DOFs remain after constraints")

    # symmetric Jacobi equilibration tames the membrane/bending scale spread
    diag = np.diag(K).copy()
    if np.any(diag <= 0):
        raise SolverError(
            f"reduced stiffness is not positive definite (smallest pivot ~ {diag.min():.3e})"
        )
    d = 1.0 / np.sqrt(diag)
    Ks = K * d[:, None] * d[None, :]
    Fs = F * d
    try:
        chol = sla.cho_factor(Ks, lower=True, check_finite=False)
    except sla.LinAlgError as exc:
        smallest = float(sla.eigh(Ks, eigvals_only=True, subset_by_index=(0, 0))[0])
        raise SolverError(
            f"reduced stiffness is not positive definite (smallest pivot ~ {smallest:.3e})"
        ) from exc

    y = sla.cho_solve(chol, Fs, check_finite=False)
    fnorm = np.linalg.norm(F)
    if fnorm == 0.0:
        return system.expand(np.zeros_like(y))

    # iterative refinement with extended-precision residuals: the plain
    # float64 residual evaluation floors out above the contract tolerance
    # for badly scale-mixed thin-plate systems
    K_ld = K.astype(np.longdouble)
    F_ld = F.astype(np.longdouble)
    d_ld = d.astype(np.longdouble)
    best_y, best_res = y, np.inf
    for _ in range(8):
        residual_ld = F_ld - K_ld @ (y * d).astype(np.longdouble)
        res = float(np.linalg.norm(residual_ld.astype(np.float64)))
        if res < best_res:
            best_y, best_res = y, res
        if res <= 1e-13 * fnorm:
            break
        y = y + sla.cho_solve(chol, (residual_ld * d_ld).astype(np.float64), check_finite=False)
    if best_res > 1e-10 * fnorm:
        raise SolverError(f"static solve stalled at relative residual {best_res / fnorm:.3e}")
    return system.expand(best_y * d)


def solve_vibration(system: GlobalSystem, k: int) -> EigenResult:
    """k smallest vibration eigenpairs of (K - omega^2 M) q = 0. Rigid-body
    modes, within 1e-12 max(diag K / diag M) of zero, return exactly 0; an
    eigenvalue below that bound on the negative side raises SolverError."""
    K = _matrix(system, "K")
    M = _matrix(system, "M")
    k = min(k, K.shape[0])
    if k < 1:
        raise SolverError("need at least one requested mode")
    not_definite = "mass matrix is not positive definite on the free DOFs"
    if not np.all(np.diag(M) > 0.0):
        raise MassMatrixError(not_definite)
    floor = 1e-12 * np.max(np.diag(K) / np.diag(M))
    # K and M are bitwise symmetric, so their transposes are the same matrices
    # in Fortran order, which LAPACK copies once each and leaves untouched
    try:
        values, vectors = sla.eigh(K.T, M.T, subset_by_index=(0, k - 1), check_finite=False)
    except sla.LinAlgError as exc:
        raise MassMatrixError(not_definite) from exc
    if values[0] < -floor:
        raise SolverError(f"vibration eigenvalue lambda = {values[0]:.3e} is negative "
                          f"beyond roundoff (-{floor:.3e})")
    values[values <= floor] = 0.0
    return EigenResult(values=values, vectors=vectors)


def solve_buckling(system: GlobalSystem, k: int) -> EigenResult:
    """k smallest positive critical load factors of (K - lambda Kg) q = 0.

    Kg assembled with a tensile-positive compressive prestress is negative
    semidefinite, so the pencil is flipped to the positive-curvature operator
    G = -Kg and solved as G v = (1/lambda) K v, which keeps the factorized
    operator positive definite. Only the k largest theta = 1/lambda are
    computed (LAPACK's subset driver xSYGVX). Those above 1e-12 times the
    larger of max |diag G / diag K| and max |theta| count as positive: the
    diagonal sets the scale when the k largest theta are roundoff (a tensile
    prestress), the computed theta when the diagonal vanishes (pure shear,
    where R_x R_y integrates to zero). If the flipped pencil has no positive
    theta, the raw sign is tried, so callers may also pass the pattern
    operator of the eigenproblem directly. Only positive factors return.
    """
    if system.mechanism:
        raise SolverError(system.mechanism)
    K = _matrix(system, "K")
    Kg = _matrix(system, "Kg")
    n = K.shape[0]
    k = min(k, n)
    if k < 1:
        raise SolverError("need at least one requested mode")
    diag_g = np.abs(np.diag(Kg))
    for sign in (-1.0, 1.0):
        # G is a fresh bitwise symmetric array, so LAPACK overwrites its
        # transpose in place; K is copied and kept
        G = sign * Kg
        try:
            theta, vectors = sla.eigh(G.T, K.T, subset_by_index=(n - k, n - 1),
                                      overwrite_a=True, check_finite=False)
        except sla.LinAlgError as exc:
            raise SolverError("stiffness matrix is not positive definite on the free DOFs") from exc
        scale = max(np.max(diag_g / np.diag(K)), np.abs(theta).max())
        take = np.flatnonzero(theta > _POSITIVE_CUTOFF * scale)[::-1]
        if take.size:
            return EigenResult(values=1.0 / theta[take], vectors=vectors[:, take])
    raise SpectrumError("no positive buckling factor found for this prestress state")
