"""Dense solvers for the reduced static system and the two symmetric
generalized eigenproblems (free vibration, linearized buckling).

Problem sizes stay in the low thousands of DOFs, so dense symmetric
factorizations are the right tool. They run in scipy's LAPACK on its bundled
OpenBLAS, which is multi-threaded: it uses up to one thread per core unless
OPENBLAS_NUM_THREADS caps it. For a fixed thread count the results are
deterministic.
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


def _reduced_or_error(system: GlobalSystem, name: str) -> np.ndarray:
    matrix = getattr(system, name)
    if matrix is None:
        raise SolverError(f"system was assembled without {name}")
    return system.reduce(matrix)


def solve_static(system: GlobalSystem) -> np.ndarray:
    """Solve K q = F on the free DOFs and expand with zeros on the fixed ones.

    Uses a Cholesky factorization with iterative refinement; the relative
    residual is driven below 1e-10 or a SolverError is raised.
    """
    K = _reduced_or_error(system, "K")
    F = _reduced_or_error_vector(system)
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


def _reduced_or_error_vector(system: GlobalSystem) -> np.ndarray:
    if system.F is None:
        raise SolverError("system was assembled without F")
    return system.F[system.free_dofs]


def solve_vibration(system: GlobalSystem, k: int) -> EigenResult:
    """k smallest vibration eigenpairs of (K - omega^2 M) q = 0."""
    K = _reduced_or_error(system, "K")
    M = _reduced_or_error(system, "M")
    k = min(k, K.shape[0])
    if k < 1:
        raise SolverError("need at least one requested mode")
    try:
        values, vectors = sla.eigh(K, M, subset_by_index=(0, k - 1), check_finite=False)
    except sla.LinAlgError as exc:
        raise MassMatrixError("mass matrix is not positive definite on the free DOFs") from exc
    return EigenResult(values=values, vectors=vectors)


def solve_buckling(system: GlobalSystem, k: int) -> EigenResult:
    """k smallest positive critical load factors of (K - lambda Kg) q = 0.

    Kg assembled with a tensile-positive compressive prestress is negative
    semidefinite, so the pencil is flipped to the positive-curvature operator
    G = -Kg and solved as G v = (1/lambda) K v, which keeps the factorized
    operator positive definite. If the flipped pencil has no positive
    spectrum the raw sign is tried, so callers may also pass the pattern
    operator of the eigenproblem directly. Only positive factors return.
    """
    K = _reduced_or_error(system, "K")
    Kg = _reduced_or_error(system, "Kg")
    if k < 1:
        raise SolverError("need at least one requested mode")
    for G in (-Kg, Kg):
        try:
            theta, vectors = sla.eigh(G, K, check_finite=False)
        except sla.LinAlgError as exc:
            raise SolverError("stiffness matrix is not positive definite on the free DOFs") from exc
        scale = np.abs(theta).max() if len(theta) else 0.0
        positive = np.flatnonzero(theta > _POSITIVE_CUTOFF * max(scale, 1e-300))
        if positive.size:
            take = positive[np.argsort(theta[positive])[::-1]][: min(k, positive.size)]
            return EigenResult(values=1.0 / theta[take], vectors=vectors[:, take])
    raise SpectrumError("no positive buckling factor found for this prestress state")
