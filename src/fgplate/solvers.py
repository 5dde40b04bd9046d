"""Banded solvers for the static system and the two symmetric generalized
eigenproblems (free vibration, linearized buckling), on the free-DOF band
arrays that assembly builds.

With four DOFs per control point in the natural control-point order, K, M
and Kg are banded: the half-bandwidth kd is 147 at 488 free DOFs and 165 at
624, against 285 at 2,024. assemble stores each in LAPACK's lower band
storage, ab[|i - j|, min(i, j)] in a Fortran-ordered (kd + 1) x nf array
(see GlobalSystem), so kd is K.shape[0] - 1 and the diagonal is row 0.
Every analysis factorizes one equilibrated matrix A in that storage with
xPBTRF, D A D = L L^T, where D holds the powers of two that bring diag(A)
into [0.5, 2): D A D is then exact, and the static refinement reads the same
D A D. This is the solvers' one equilibration. No nf x nf copy of K, M or
Kg is made.

- static: A = K, solved with xPBTRS and refined as described below;
- vibration and buckling: one flipped pencil, B v = mu (K + sigma B) v, of
  which only the k largest mu are computed. A = K + sigma B: vibration
  takes B = M and a small shift sigma (lambda = 1/mu - sigma), buckling B =
  -Kg and sigma = 0 (lambda = 1/mu). M is never factorized, because it is
  nearly singular on thin plates.

The k largest mu are those of the symmetric operator C = L^-1 D B D L^-T,
found by ARPACK's implicitly restarted Lanczos (scipy's eigsh; Lehoucq,
Sorensen and Yang, ARPACK Users' Guide, SIAM 1998). One product with C is
a triangular band solve (xTBSV), a scaling by d, one band product with M,
or with Kg and alpha = -1 (xSBMV), a scaling by d and a triangular band
solve in place. The vectors map back as v = D L^-T x, so v^T (K + sigma B)
v = 1. ARPACK needs k < n - 1; a system with fewer free DOFs forms C
densely from the same factor and takes the top k of its full spectrum.

LAPACK's band storage is column-major (Anderson et al., LAPACK Users'
Guide, 3rd ed., SIAM 1999, section 5.3.3), and scipy's wrappers copy a 2-D
operand that is not Fortran-ordered into that order on every call. The
system's bands are Fortran-ordered, so xSBMV reads K, M and Kg as assembly
wrote them, and _factor builds D A D in one new Fortran-ordered array that
xPBTRF factors in place: the factor is the only band that a vibration or
buckling solve allocates, and D B D is never formed. At 624 free DOFs (kd =
165) a product takes 85 us, 31 us of it in xSBMV, as it did on a scaled
copy D B D (84 us), and a factorization of K + sigma M 1.2 ms (least of 300
products and 50 factorizations, 1 BLAS thread, 2-vCPU VM).

A static solve refines the equilibrated unknown y = D^-1 x with residuals
D (F - K D y) from the error-free split of Ozaki, Ogita, Oishi and Rump
(_split_residual): three xSBMV products over the two parts of D K D, the
two other bands such a solve makes. The split takes the factor's D and does
no scaling of its own. On scale-mixed test systems the split agrees with
the exact rational residual within 1.1e-6 of the residual's size; the
long-double product it replaced agreed within 6e-4 to 1.8e-3 on an 82-DOF
CFFC disk. The answer is always a corrected iterate.
The first iterate carries the roundoff of the factor, which xPBTRF rounds
differently at different BLAS thread counts; one correction from an
accurate residual brings it within about an ulp of the solution whatever
the factor's last bits. So a float64 certificate (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., SIAM 2002, ch. 12) that
accepted the first iterate would save the split on well-conditioned
systems, but would make the answer depend on the thread count. A table-11
bending case, assembly included, takes 4.7-6.4 ms against 6.1-15.4 ms with
the long-double residual, and about 0.9 ms more than with that certificate
where it holds (medians per case on four seeds' op lists, 1 BLAS thread,
2-vCPU VM).

An accurate residual drives the refinement to the float64 vector nearest
the solution, and that vector can miss the contract: on that disk its
residual is 1.5e-10 of ||F||. A stalled sweep above the contract therefore
moves one entry of the best iterate to the float64 neighbour that lowers
the residual most (_unit_step). Such moves share the sweep budget with the
corrections, so whether a stall raises depends on that budget; that disk
solves at 1.5e-12 after 4 sweeps.

The solves run in scipy's LAPACK on its bundled OpenBLAS, which is
multi-threaded: it uses up to one thread per core unless OPENBLAS_NUM_THREADS
caps it. The Lanczos start vector comes from a fixed seed, so for a fixed
thread count the results are deterministic.

The system's bands are read-only (see GlobalSystem) and a solve only reads
them, so a system can be solved again with the same result.
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
_EPS = 2.0 ** -53  # the unit roundoff of float64
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


def _scale(ab: np.ndarray, d: np.ndarray) -> np.ndarray:
    """D A D in place, for a symmetric A in lower band storage ab and D =
    diag(d): ab[k, j] becomes ab[k, j] d_(j+k) d_j. Returns ab."""
    # through ab.T, whose rows are ab's contiguous columns: 2.7x faster than
    # the same products over ab's rows on a Fortran-ordered ab
    rows = ab.T
    rows *= sliding_window_view(np.concatenate([d, np.zeros(ab.shape[0] - 1)]), ab.shape[0])
    rows *= d[:, None]
    return ab


def _factor(K: np.ndarray, factored: str, B: Optional[np.ndarray] = None,
            sigma: float = 0.0) -> tuple:
    """The banded Cholesky factor of the equilibrated A = K + sigma B, for K
    and B in lower band storage of one width: D A D = L L^T with D = diag(d)
    the powers of two that bring diag(A) into [0.5, 2), so that D A D is
    exact. Returns (L, d). D A D is built in one new Fortran-ordered array,
    which xPBTRF factors in place into L; K and B are only read. factored
    names A in the SolverError raised when it is not positive definite."""
    diag = K[0] if B is None else K[0] + sigma * B[0]
    bad = np.flatnonzero(~(diag > 0.0))
    if bad.size:
        raise SolverError(f"{factored} is not positive definite on the free DOFs: diagonal "
                          f"pivot {bad[0] + 1} of {diag.size} is {diag[bad[0]]:.3e}")
    d = np.ldexp(1.0, -(np.frexp(diag)[1] // 2))
    if sigma:
        A = np.multiply(B, sigma, order="F")
        A += K
    else:
        A = np.array(K, order="F")
    L, info = lapack.dpbtrf(_scale(A, d), lower=1, overwrite_ab=1)
    if info:
        raise SolverError(f"{factored} is not positive definite on the free DOFs: the "
                          f"banded Cholesky fails at pivot {info} of {diag.size}")
    return L, d


def _high_part(v: np.ndarray, bits: int) -> np.ndarray:
    """The entries of v rounded to one grid, bits binary digits below the
    power of two above max |v|: fl((v + s) - s) with s = 2^(53 - bits) that
    power (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008, section 3).
    v minus it is exact in float64."""
    s = np.ldexp(1.0, int(np.frexp(max(v.max(), -v.min()))[1]) + 53 - bits)
    high = v + s
    high -= s
    return high


def _split_residual(K: np.ndarray, F: np.ndarray, d: np.ndarray):
    """The residual function y -> D (F - K D y) of the equilibrated system,
    for a symmetric positive definite K in lower band storage and d from
    _factor, exact but for the roundings of terms 2^-a and 2^-b times
    smaller than |D K D| |y|, with a, b about 21 at kd = 165 (Ozaki, Ogita,
    Oishi and Rump, Numer. Algorithms 59, 2012).

    D holds powers of two, so D K D and D F are exact, and every entry of
    D K D lies below 2 in magnitude, so one grid serves the whole band. It is
    split once into K1 + K2, K1 with a binary digits on that grid, and each
    y into y1 + y2, y1 with b digits on its own. With a + b + ceil(log2(2 kd
    + 1)) = 52, every partial sum of K1 y1 lies on the product grid and below
    2^53 of its steps, so xSBMV computes K1 y1 exactly; K1 y2 + K2 y carries
    the rest. The split makes two bands, D K D's two parts."""
    kd = K.shape[0] - 1
    K2 = _scale(np.array(K, order="F"), d)
    bits = 52 - (2 * kd).bit_length()
    K1 = _high_part(K2, bits // 2)
    K2 -= K1
    Fd = F * d

    def residual(y):
        y1 = _high_part(y, bits - bits // 2)
        tail = blas.dsbmv(kd, 1.0, K2, y, lower=1)
        tail = blas.dsbmv(kd, 1.0, K1, y - y1, beta=1.0, y=tail, lower=1, overwrite_y=1)
        r = Fd - blas.dsbmv(kd, 1.0, K1, y1, lower=1)
        r -= tail
        return r

    return residual


def _unit_step(K: np.ndarray, squares: np.ndarray, x: np.ndarray,
               residual: np.ndarray) -> np.ndarray:
    """x with the one entry moved to its float64 neighbour that lowers
    ||F - K x|| the most, for residual = F - K x and squares_j = ||K e_j||^2:
    moving x_j by t changes ||r||^2 by t^2 squares_j - 2 t (K r)_j. x itself
    where no such move lowers it."""
    kd = K.shape[0] - 1
    gradient = blas.dsbmv(kd, 1.0, K, residual, lower=1)
    steps = np.stack([np.nextafter(x, np.inf), np.nextafter(x, -np.inf)]) - x
    gain = steps * (2.0 * gradient - steps * squares)
    side, j = np.unravel_index(np.argmax(gain), gain.shape)
    if gain[side, j] <= 0.0:
        return x
    x = x.copy()
    x[j] += steps[side, j]
    return x


def solve_static(system: GlobalSystem) -> np.ndarray:
    """Solve K q = F on the free DOFs and expand with zeros on the fixed ones.

    Uses the banded Cholesky factorization of the equilibrated D K D (see
    _factor) and refines the equilibrated unknown y = D^-1 x on split
    residuals of D K D and D F (_split_residual); the relative residual
    ||F - K x|| / ||F|| is driven below 1e-10 or a SolverError is raised. The
    first iterate is always corrected at least once, so that the answer
    does not carry the factor's roundoff. Refinement then stops at a
    relative residual of 1e-13, or at a sweep that fails to halve the
    residual once the best corrected iterate meets 1e-10, and returns that
    iterate; the sweep count and the residual are logged.

    A sweep that fails to halve the residual has reached the float64 vector
    nearest the solution, whose residual can lie above 1e-10 (1.5e-10 on an
    82-DOF CFFC disk), so a stall above the contract does not stop the
    sweeps: the next one moves one entry of the best iterate to the float64
    neighbour that lowers the residual most (_unit_step). Such moves count
    against the same budget of _REFINEMENT_SWEEPS sweeps as the
    corrections. A stall's error also gives the float64 floor
    eps |||K| |x||| / ||F|| (eps = 2^-53, x the best iterate), a bound on
    the residual that rounding x to float64 can leave.
    """
    if system.mechanism:
        raise SolverError(system.mechanism)
    K = _matrix(system, "K")
    F = _matrix(system, "F")[system.free_dofs]
    if K.shape[1] == 0:
        raise SolverError("no free DOFs remain after constraints")

    # equilibration tames the membrane/bending scale spread
    L, d = _factor(K, "reduced stiffness")

    def solve(rhs):
        return lapack.dpbtrs(L, rhs, lower=1)[0]

    # refinement runs on the equilibrated unknown y = D^-1 x
    y = solve(F * d)
    fnorm = np.linalg.norm(F)
    if fnorm == 0.0:
        return system.expand(np.zeros_like(y))

    # the float64 residual floors out above the contract tolerance for
    # badly scale-mixed thin-plate systems
    split = _split_residual(K, F, d)
    squares = None
    best_y, best_res = y, np.inf
    for sweeps in range(_REFINEMENT_SWEEPS + 1):
        scaled = split(y)
        # F - K x at x = D y, exactly: d holds powers of two
        residual = scaled / d
        res = float(np.linalg.norm(residual))
        # a stalled sweep leaves the residual at the float64 solve's floor
        stalled = res > 0.5 * best_res
        # the first iterate carries the factor's roundoff, which differs
        # with the BLAS thread count; a corrected iterate does not
        if sweeps and res < best_res:
            best_y, best_res, best_residual = y, res, residual
        if ((stalled and best_res <= 1e-10 * fnorm) or (sweeps and res <= 1e-13 * fnorm)
                or sweeps == _REFINEMENT_SWEEPS):
            break
        if stalled:
            # the correction is below the float64 grid of x
            if squares is None:
                squares = blas.dsbmv(K.shape[0] - 1, 1.0, np.square(K), np.ones(y.size), lower=1)
            y = _unit_step(K, squares, best_y * d, best_residual) / d
        else:
            y = y + solve(scaled)
    _log.debug("static solve: %d refinement sweeps, relative residual %.3e",
               sweeps, best_res / fnorm)
    x = best_y * d
    if best_res > 1e-10 * fnorm:
        floor = _EPS * np.linalg.norm(
            blas.dsbmv(K.shape[0] - 1, 1.0, np.abs(K), np.abs(x), lower=1)) / fnorm
        raise SolverError(f"static solve stalled at relative residual {best_res / fnorm:.3e}; "
                          f"the float64 floor eps |||K| |x||| / ||F|| is {floor:.3e}")
    return system.expand(x)


def _negative_semidefinite(B: np.ndarray, d: np.ndarray, alpha: float) -> bool:
    """Whether alpha D B D, for B in lower band storage and D = diag(d), is
    negative semidefinite to roundoff: eps I - alpha D B D has a band
    Cholesky factor, with eps = 1e-12 of its largest diagonal entry."""
    shifted = _scale(np.multiply(B, -alpha, order="F"), d)
    shifted[0] += _POSITIVE_CUTOFF * np.abs(shifted[0]).max()
    return lapack.dpbtrf(shifted, lower=1, overwrite_ab=1)[1] == 0


def _largest_pairs(L: np.ndarray, d: np.ndarray, B: np.ndarray, alpha: float, k: int,
                   factored: str) -> tuple:
    """The k largest mu of alpha B v = mu A v, descending, with their
    vectors, which are normalized to v^T A v = 1: the eigenpairs (mu, x) of
    C = L^-1 D (alpha B) D L^-T mapped back as v = D L^-T x, for L and d
    from _factor and B in lower band storage. factored names A in a
    SolverError.

    C is congruent to alpha B, so it has a positive eigenvalue only if alpha
    B has one (Sylvester's law of inertia). Where it has none, being zero or
    negative semidefinite to roundoff (the flipped buckling pencil under
    tension), its k largest mu are a multiple eigenvalue 0, which Lanczos
    cannot converge; they are returned as 0 without it.
    """
    n, kd = d.size, B.shape[0] - 1
    k = min(k, n)
    if k < 1:
        raise SolverError("need at least one requested mode")
    if not B.any() or (not np.any(alpha * B[0] > 0.0) and _negative_semidefinite(B, d, alpha)):
        return np.zeros(k), np.zeros((n, k))

    def apply(x):
        y = blas.dtbsv(kd, L, np.ravel(x), lower=1, trans=1)
        y *= d
        y = blas.dsbmv(kd, alpha, B, y, lower=1)
        y *= d
        return blas.dtbsv(kd, L, y, lower=1, overwrite_x=1)

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
    L, d = _factor(K, factored, M, sigma)
    mu, vectors = _largest_pairs(L, d, M, 1.0, k, factored)
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
    L, d = _factor(K, "stiffness matrix")
    theta, vectors = _largest_pairs(L, d, Kg, -1.0, k, "stiffness matrix")
    scale = max(np.max(np.abs(Kg[0]) / K[0]), np.abs(theta).max())
    take = np.flatnonzero(theta > _POSITIVE_CUTOFF * scale)
    if not take.size:
        raise SpectrumError("no positive buckling factor found for this prestress state")
    return EigenResult(values=1.0 / theta[take], vectors=vectors[:, take])
