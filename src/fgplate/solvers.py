"""Banded solvers for the static system and the two symmetric generalized
eigenproblems (free vibration, linearized buckling), on the free-DOF band
arrays that assembly builds.

With four DOFs per control point in the natural control-point order, K, M
and Kg are banded: the half-bandwidth kd is 147 at 488 free DOFs and 165 at
624, against 285 at 2,024. assemble stores each in LAPACK's lower band
storage, ab[|i - j|, min(i, j)] in a (kd + 1) x nf array (see GlobalSystem),
so kd is K.shape[0] - 1 and the diagonal is row 0. Every analysis
factorizes one Jacobi-equilibrated matrix A in that storage with xPBTRF,
D A D = L L^T with D = diag(A)^-1/2; no nf x nf copy of K, M or Kg is made.

- static: A = K, solved with xPBTRS, then refined with long-double
  residuals from a band product with K;
- vibration and buckling: one flipped pencil, B v = mu (K + sigma B) v, of
  which only the k largest mu are computed. A = K + sigma B: vibration
  takes B = M and a small shift sigma (lambda = 1/mu - sigma), buckling B =
  -Kg and sigma = 0 (lambda = 1/mu). M is never factorized, because it is
  nearly singular on thin plates.

The k largest mu are those of the symmetric operator C = L^-1 D B D L^-T,
found by ARPACK's implicitly restarted Lanczos (scipy's eigsh; Lehoucq,
Sorensen and Yang, ARPACK Users' Guide, SIAM 1998). One product with C is
two triangular band solves (xTBTRS) and one band product with B (xSBMV). The
vectors map back as v = D L^-T x, so v^T (K + sigma B) v = 1. ARPACK needs
k < n - 1; a system with fewer free DOFs forms C densely from the same
factor and takes the top k of its full spectrum.

LAPACK's band storage is column-major (Anderson et al., LAPACK Users'
Guide, 3rd ed., SIAM 1999, section 5.3.3), and scipy's wrappers copy a 2-D
operand that is not Fortran-ordered into that order on every call. So
_factor builds A and D B D in Fortran order from the system's C-ordered
bands, which it only reads: xPBTRF factors A in place, and every product
reads D B D without a copy. At 624 free DOFs (kd = 165) a product takes
74-76 us, 27 us of it in xSBMV, against 175-212 us and 87-107 us with the
copy. The 10 lowest vibration modes then take 10.5-11.7 ms and the lowest
one 4.0-4.5 ms, against 16-22 and 6.6-8.4 ms with the copy and 34-47 ms
for either with LAPACK's dense subset eigensolver xSYGVX, which Lanczos
replaced (vib10-atan-n1-r10, vib-atan-n1-r5; least of 40 solves, 2-vCPU
VM, 1 and 2 BLAS threads).

The solves run in scipy's LAPACK on its bundled OpenBLAS, which is
multi-threaded: it uses up to one thread per core unless OPENBLAS_NUM_THREADS
caps it. The Lanczos start vector comes from a fixed seed, so for a fixed
thread count the results are deterministic.

A solve reads the system's arrays and never writes into them, so a system
can be solved again with the same result.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import blas, lapack
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .assembly import GlobalSystem
from .errors import MassMatrixError, SolverError, SpectrumError

__all__ = ["EigenResult", "solve_static", "solve_vibration", "solve_buckling"]

_POSITIVE_CUTOFF = 1e-12
_REFINEMENT_SWEEPS = 7  # corrections at most, each followed by its residual
# the Lanczos start vector; a vector of ones shares the symmetry of a
# symmetric plate and may miss a whole mode family
_START_SEED = 0

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

    def frequencies(self) -> np.ndarray:
        """Natural frequencies omega_i = sqrt(lambda_i) in rad/s."""
        return np.sqrt(self.values)


def _matrix(system: GlobalSystem, name: str) -> np.ndarray:
    matrix = getattr(system, name)
    if matrix is None:
        raise SolverError(f"system was assembled without {name}")
    return matrix


def _band_product(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for a symmetric A in lower band storage, in the precision of ab
    and x: each stored entry below the diagonal also stands for its mirror."""
    n = x.size
    y = ab[0] * x
    for k in range(1, ab.shape[0]):
        y[k:] += ab[k, :n - k] * x[:n - k]
        y[:n - k] += ab[k, :n - k] * x[k:]
    return y


def _factor(K: np.ndarray, factored: str, B: Optional[np.ndarray] = None,
            sigma: float = 0.0) -> tuple:
    """The banded Cholesky factor of the Jacobi-equilibrated A = K + sigma B,
    for K and B in lower band storage of one width: D A D = L L^T with D =
    diag(d) = diag(A)^-1/2, made by xPBTRF. Returns (L, d, D B D) with L and
    D B D Fortran-ordered in lower band storage, D B D None without B. K and
    B are only read. factored names A in the SolverError raised when it is
    not positive definite."""
    diag = K[0] if B is None else K[0] + sigma * B[0]
    bad = np.flatnonzero(~(diag > 0.0))
    if bad.size:
        raise SolverError(f"{factored} is not positive definite on the free DOFs: diagonal "
                          f"pivot {bad[0] + 1} of {diag.size} is {diag[bad[0]]:.3e}")
    d = 1.0 / np.sqrt(diag)
    # D A D in band storage is ab[k, j] d_(j+k) d_j, built in Fortran order:
    # xPBTRF then factors A in place and xSBMV reads D B D without a copy
    shifted = sliding_window_view(np.concatenate([d, np.zeros(K.shape[0] - 1)]), d.size)
    A = np.multiply(K, shifted, order="F") * d
    DBD = None if B is None else np.multiply(B, shifted, order="F") * d
    if sigma:
        A += sigma * DBD
    L, info = lapack.dpbtrf(A, lower=1, overwrite_ab=1)
    if info:
        raise SolverError(f"{factored} is not positive definite on the free DOFs: the "
                          f"banded Cholesky fails at pivot {info} of {diag.size}")
    return L, d, DBD


def solve_static(system: GlobalSystem) -> np.ndarray:
    """Solve K q = F on the free DOFs and expand with zeros on the fixed ones.

    Uses the banded Cholesky factorization of the Jacobi-equilibrated K with
    iterative refinement; the relative residual is driven below 1e-10 or a
    SolverError is raised. Refinement stops at a relative residual of 1e-13,
    or at a sweep that fails to halve the residual once the best residual
    meets 1e-10, and returns the best iterate; the sweep count is logged.
    Near 1e-10 the residual oscillates from sweep to sweep (2.7e-10,
    4.5e-10, 4.7e-11 on an 82-DOF CFFC disk), so a stall above it does not
    stop the sweeps. A stall's error also gives the float64 floor
    eps |||K| |x||| / ||F|| (eps = 2^-53, x the best iterate): where it
    exceeds 1e-10, rounding x to float64 alone can break the contract.
    """
    if system.mechanism:
        raise SolverError(system.mechanism)
    K = _matrix(system, "K")
    F = _matrix(system, "F")[system.free_dofs]
    if K.shape[1] == 0:
        raise SolverError("no free DOFs remain after constraints")

    # symmetric Jacobi equilibration tames the membrane/bending scale spread
    L, d, _ = _factor(K, "reduced stiffness")

    def solve(rhs):
        return lapack.dpbtrs(L, rhs, lower=1)[0]

    y = solve(F * d)
    fnorm = np.linalg.norm(F)
    if fnorm == 0.0:
        return system.expand(np.zeros_like(y))

    # iterative refinement with extended-precision residuals: the plain
    # float64 residual evaluation floors out above the contract tolerance
    # for badly scale-mixed thin-plate systems
    K_ld, F_ld, d_ld = (array.astype(np.longdouble) for array in (K, F, d))
    best_y, best_res = y, np.inf
    for sweeps in range(_REFINEMENT_SWEEPS + 1):
        residual_ld = F_ld - _band_product(K_ld, (y * d).astype(np.longdouble))
        res = float(np.linalg.norm(residual_ld.astype(np.float64)))
        # a stalled sweep leaves the residual at the float64 solve's floor
        stalled = res > 0.5 * best_res
        if res < best_res:
            best_y, best_res = y, res
        if ((stalled and best_res <= 1e-10 * fnorm) or res <= 1e-13 * fnorm
                or sweeps == _REFINEMENT_SWEEPS):
            break
        y = y + solve((residual_ld * d_ld).astype(np.float64))
    _log.debug("static solve: %d refinement sweeps, relative residual %.3e",
               sweeps, best_res / fnorm)
    x = best_y * d
    if best_res > 1e-10 * fnorm:
        floor = 2.0 ** -53 * np.linalg.norm(_band_product(np.abs(K), np.abs(x))) / fnorm
        raise SolverError(f"static solve stalled at relative residual {best_res / fnorm:.3e}; "
                          f"the float64 floor eps |||K| |x||| / ||F|| is {floor:.3e}")
    return system.expand(x)


def _negative_semidefinite(B: np.ndarray) -> bool:
    """Whether a band matrix (lower band storage) is negative semidefinite
    to roundoff: eps I - B has a band Cholesky factor, with eps = 1e-12 of
    its largest diagonal entry."""
    shifted = -B
    shifted[0] += _POSITIVE_CUTOFF * np.abs(B[0]).max()
    return lapack.dpbtrf(shifted, lower=1, overwrite_ab=1)[1] == 0


def _largest_pairs(L: np.ndarray, d: np.ndarray, B: np.ndarray, k: int,
                   factored: str) -> tuple:
    """The k largest mu of B v = mu A v, descending, with their vectors,
    which are normalized to v^T A v = 1: the eigenpairs (mu, x) of
    C = L^-1 B L^-T mapped back as v = D L^-T x, for L and d from _factor
    and B as D B D in band storage. factored names A in a SolverError.

    C is congruent to B, so it has a positive eigenvalue only if B has one
    (Sylvester's law of inertia). Where B has none, being zero or negative
    semidefinite to roundoff (the flipped buckling pencil under tension),
    its k largest mu are a multiple eigenvalue 0, which Lanczos cannot
    converge; they are returned as 0 without it.
    """
    n, kd = d.size, B.shape[0] - 1
    k = min(k, n)
    if k < 1:
        raise SolverError("need at least one requested mode")
    if not B.any() or (not np.any(B[0] > 0.0) and _negative_semidefinite(B)):
        return np.zeros(k), np.zeros((n, k))

    def apply(x):
        y = lapack.dtbtrs(L, x, uplo="L", trans="T")[0]
        return lapack.dtbtrs(L, blas.dsbmv(kd, 1.0, B, y, lower=1), uplo="L")[0]

    C = LinearOperator((n, n), matvec=apply, dtype=float)
    operator = f"L^-1 B L^-T with L L^T = {factored}"
    if k >= n - 1:
        # below ARPACK's limit k < n - 1: C from the factor, all of it
        mu, X = sla.eigh(C.matmat(np.eye(n)))
        mu, X = mu[n - k:], X[:, n - k:]
    else:
        start = np.random.default_rng(_START_SEED).standard_normal(n)
        try:
            mu, X = eigsh(C, k, which="LA", tol=0, ncv=min(n, max(2 * k + 1, 20)), v0=start)
        except ArpackNoConvergence as exc:
            mu, X = exc.eigenvalues, exc.eigenvectors
            found = f"{mu.size} of {k} pairs converged"
            if mu.size:
                found += f", largest residual {np.linalg.norm(C @ X - X * mu, axis=0).max():.3e}"
            raise SolverError(f"Lanczos on {operator} did not converge: {found}") from exc
        except ArpackError as exc:
            raise SolverError(f"Lanczos on {operator} failed: {exc}") from exc
    return mu[::-1], d[:, None] * lapack.dtbtrs(L, X[:, ::-1], uplo="L", trans="T")[0]


def solve_vibration(system: GlobalSystem, k: int) -> EigenResult:
    """k smallest vibration eigenpairs of (K - omega^2 M) q = 0.

    M is never factorized: the translational inertia I1 acts on wb + ws and
    only rotary terms of order h^2 separate wb from ws, so M is nearly
    singular on thin plates, and eigh(K, M) gave negative or spurious
    eigenvalues there (lambda = -3.7e4 on SSSS at a/h = 1e6). The k largest
    mu of M v = mu (K + sigma M) v are computed instead, with sigma =
    1e-9 median(diag K / diag M), which makes K + sigma M positive definite
    on a plate with rigid modes. Then lambda = 1/mu - sigma, and the vectors
    are divided by sqrt(mu) so that v^T M v = 1.

    Rigid-body modes, within 1e-16 max(diag K / diag M) of zero, return
    exactly 0; an eigenvalue below that bound on the negative side raises
    SolverError. The floor lies inside the measured window between the two:
    rigid modes reach |lambda| <= 6.6e-7 (SFFF, FSSF, FSFS; a/h 5 to 1e6; 4 to
    16 elements) and flexible modes start at 2.86e-5 (FSSF at a/h = 1e6),
    while the floor runs from 1.9e-6 to 1.4e-5, at least 2x from either side.
    """
    K, M = _matrix(system, "K"), _matrix(system, "M")
    if not np.all(M[0] > 0.0):
        raise MassMatrixError("mass matrix is not positive definite on the free DOFs")
    ratio = K[0] / M[0]
    sigma = 1e-9 * np.median(ratio)
    factored = f"K + sigma M (sigma = {sigma:.3e})"
    L, d, DMD = _factor(K, factored, M, sigma)
    mu, vectors = _largest_pairs(L, d, DMD, k, factored)
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
    diagonal sets the scale when the k largest theta are roundoff, the
    computed theta when the diagonal vanishes (pure shear, where R_x R_y
    integrates to zero). Only positive factors return; a prestress with none,
    such as pure tension, for which G is negative semidefinite, raises
    SpectrumError.
    """
    if system.mechanism:
        raise SolverError(system.mechanism)
    K, Kg = _matrix(system, "K"), _matrix(system, "Kg")
    L, d, DGD = _factor(K, "stiffness matrix", Kg)
    theta, vectors = _largest_pairs(L, d, -DGD, k, "stiffness matrix")
    scale = max(np.max(np.abs(Kg[0]) / K[0]), np.abs(theta).max())
    take = np.flatnonzero(theta > _POSITIVE_CUTOFF * scale)
    if not take.size:
        raise SpectrumError("no positive buckling factor found for this prestress state")
    return EigenResult(values=1.0 / theta[take], vectors=vectors[:, take])
