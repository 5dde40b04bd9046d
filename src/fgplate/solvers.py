"""Dense solvers for the static system and the two symmetric generalized
eigenproblems (free vibration, linearized buckling), on the free-DOF matrices
that assembly builds.

Problem sizes stay in the low thousands of DOFs, so dense symmetric
factorizations are the right tool. At 784 DOFs (624 free, K 23% nonzero) the
10 lowest vibration modes take 31-32 ms with the dense subset eigh, against
50-52 ms for a sparse shift-invert eigsh (splu) and 61-88 ms for eigsh on a
dense Cholesky (vib10-atan-n1-r10, 2-vCPU VM).

Both eigenproblems are one flipped pencil, B v = mu (K + sigma B) v, of which
only the k largest mu are computed, by LAPACK's subset driver xSYGVX. The
factorized operator is the stiffness: vibration takes B = M and a small
shift sigma (lambda = 1/mu - sigma), buckling takes B = -Kg and sigma = 0
(lambda = 1/mu). M is never factorized, because it is nearly singular on
thin plates. The matrices are not equilibrated: on every case measured the
flip and the shift alone give the equilibrated form's eigenvalues, and the
scaling copies cost 5-7 ms of a 25-32 ms vibration solve at 624 free DOFs.
The solves run in scipy's LAPACK on its bundled OpenBLAS, which is
multi-threaded: it uses up to one thread per core unless OPENBLAS_NUM_THREADS
caps it. For a fixed thread count the results are deterministic.

A solve reads the system's arrays and never writes into them, so a system
can be solved again with the same result. LAPACK works in place only on
arrays that the solver makes itself (B, and K + sigma M); it copies K.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import GlobalSystem
from .errors import MassMatrixError, SolverError, SpectrumError

__all__ = ["EigenResult", "solve_static", "solve_vibration", "solve_buckling"]

_POSITIVE_CUTOFF = 1e-12
_REFINEMENT_SWEEPS = 7  # corrections at most, each followed by its residual

_log = logging.getLogger("fgplate")


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
    residual is driven below 1e-10 or a SolverError is raised. Refinement
    stops at a relative residual of 1e-13, or once a sweep fails to halve
    the residual, and returns the best iterate; the sweep count is logged.
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
    for sweeps in range(_REFINEMENT_SWEEPS + 1):
        residual_ld = F_ld - K_ld @ (y * d).astype(np.longdouble)
        res = float(np.linalg.norm(residual_ld.astype(np.float64)))
        # a stalled sweep leaves the residual at the float64 solve's floor
        stalled = res > 0.5 * best_res
        if res < best_res:
            best_y, best_res = y, res
        if stalled or res <= 1e-13 * fnorm or sweeps == _REFINEMENT_SWEEPS:
            break
        y = y + sla.cho_solve(chol, (residual_ld * d_ld).astype(np.float64), check_finite=False)
    _log.debug("static solve: %d refinement sweeps, relative residual %.3e",
               sweeps, best_res / fnorm)
    if best_res > 1e-10 * fnorm:
        raise SolverError(f"static solve stalled at relative residual {best_res / fnorm:.3e}")
    return system.expand(best_y * d)


def _largest_pairs(B: np.ndarray, K: np.ndarray, sigma: float, k: int, factored: str) -> tuple:
    """The k largest mu of B v = mu (K + sigma B) v, descending, with their
    vectors, which are normalized to v^T (K + sigma B) v = 1.

    One call of LAPACK's subset driver xSYGVX factorizes K + sigma B. B must
    be a fresh bitwise symmetric array, which LAPACK overwrites; K is never
    written (it is copied when sigma is 0). factored names K + sigma B in the
    SolverError raised when it is not positive definite.
    """
    n = K.shape[0]
    k = min(k, n)
    if k < 1:
        raise SolverError("need at least one requested mode")
    A = K + sigma * B if sigma else K
    # the transposes of bitwise symmetric C-order arrays are the same
    # matrices in Fortran order: LAPACK overwrites B and K + sigma B in
    # place and copies K
    try:
        mu, vectors = sla.eigh(B.T, A.T, subset_by_index=(n - k, n - 1), overwrite_a=True,
                               overwrite_b=A is not K, check_finite=False)
    except sla.LinAlgError as exc:
        raise SolverError(f"{factored} is not positive definite on the free DOFs") from exc
    return mu[::-1], vectors[:, ::-1]


def solve_vibration(system: GlobalSystem, k: int) -> EigenResult:
    """k smallest vibration eigenpairs of (K - omega^2 M) q = 0.

    M is never factorized: the translational inertia I1 acts on wb + ws and
    only rotary terms of order h^2 separate wb from ws, so M is nearly
    singular on thin plates, and eigh(K, M) gave negative or spurious
    eigenvalues there (lambda = -3.7e4 on SSSS at a/h = 1e6). The k largest
    mu of M v = mu (K + sigma M) v are computed instead, with sigma =
    1e-9 median(diag K / diag M), which makes K + sigma M positive definite
    on a plate with rigid modes. Then lambda = 1/mu - sigma, and the vectors
    are divided by sqrt(mu) so that v^T M v = 1. The flip and the shift alone
    give the equilibrated form's eigenvalues on every case measured, so the
    matrices are not scaled.

    Rigid-body modes, within 1e-16 max(diag K / diag M) of zero, return
    exactly 0; an eigenvalue below that bound on the negative side raises
    SolverError. The floor lies inside the measured window between the two:
    rigid modes reach |lambda| <= 6.6e-7 (SFFF, FSSF, FSFS; a/h 5 to 1e6; 4 to
    16 elements) and flexible modes start at 2.86e-5 (FSSF at a/h = 1e6),
    while the floor runs from 1.9e-6 to 1.4e-5, at least 2x from either side.
    """
    K, M = _matrix(system, "K"), _matrix(system, "M")
    if not np.all(np.diag(M) > 0.0):
        raise MassMatrixError("mass matrix is not positive definite on the free DOFs")
    ratio = np.diag(K) / np.diag(M)
    sigma = 1e-9 * np.median(ratio)
    mu, vectors = _largest_pairs(M.copy(), K, sigma, k, f"K + sigma M (sigma = {sigma:.3e})")
    if mu[-1] <= 0.0:
        raise MassMatrixError(f"mass matrix has fewer than {mu.size} positive modes")
    values = 1.0 / mu - sigma
    floor = 1e-16 * np.max(ratio)
    if values[0] < -floor:
        raise SolverError(f"vibration eigenvalue lambda = {values[0]:.3e} is negative "
                          f"beyond roundoff (-{floor:.3e})")
    values[values <= floor] = 0.0
    return EigenResult(values=values, vectors=vectors / np.sqrt(mu))


def solve_buckling(system: GlobalSystem, k: int) -> EigenResult:
    """k smallest positive critical load factors of (K - lambda Kg) q = 0.

    Kg assembled with a tensile-positive compressive prestress is negative
    semidefinite, so the pencil is flipped to the positive-curvature operator
    G = -Kg and solved as G v = (1/lambda) K v, which keeps the factorized
    operator positive definite: the vibration pencil with B = G and sigma = 0.
    Only the k largest theta = 1/lambda are computed. Those above 1e-12 times
    the larger of max |diag G / diag K| and max |theta| count as positive: the
    diagonal sets the scale when the k largest theta are roundoff (a tensile
    prestress), the computed theta when the diagonal vanishes (pure shear,
    where R_x R_y integrates to zero). If the flipped pencil has no positive
    theta, the raw sign is tried, so callers may also pass the pattern
    operator of the eigenproblem directly. Only positive factors return.
    """
    if system.mechanism:
        raise SolverError(system.mechanism)
    K, Kg = _matrix(system, "K"), _matrix(system, "Kg")
    diag_g = np.abs(np.diag(Kg))
    for sign in (-1.0, 1.0):
        theta, vectors = _largest_pairs(sign * Kg, K, 0.0, k, "stiffness matrix")
        scale = max(np.max(diag_g / np.diag(K)), np.abs(theta).max())
        take = np.flatnonzero(theta > _POSITIVE_CUTOFF * scale)
        if take.size:
            return EigenResult(values=1.0 / theta[take], vectors=vectors[:, take])
    raise SpectrumError("no positive buckling factor found for this prestress state")
