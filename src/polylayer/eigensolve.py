"""Smallest eigenpairs of SPD pencils (K, M) with verified residuals.

The algorithm is shift-invert Lanczos (ARPACK), the spectral transformation
of Ericsson and Ruhe, run as a standard symmetric problem.  With the banded
Cholesky factor U^T U of K - sigma M in the band order P, the matrix
C = U^{-T} (P^T M P) U^{-1} is symmetric and similar to (K - sigma M)^{-1} M:
an eigenpair (nu, y) of C gives lambda = sigma + 1/nu and x = P U^{-1} y.
So Lanczos runs in the plain Euclidean inner product, and each step (one
inner solve) is two triangular band solves and one product with M; ARPACK
asks for no M-inner products.
A cold solve shifts to sigma = 0 and starts from a seeded random vector, so
runs are deterministic.  A warm solve starts from a given vector (a coarser
level's eigenvector, prolonged, mapped to y = U x) at a shift sigma just
below the smallest eigenvalue, in a small Krylov space.  The factor is
taken in reverse Cuthill-McKee order, which suits the thin strips and slabs
the pencils live on; it needs no pivoting, and its memory, (bw + 1) n
doubles for half-bandwidth bw, is known before it is computed.  K and M
share one sparsity pattern (``assembly``), so K - sigma M is formed on the
stored values, and the ordering is computed once per pencil for every
shift.  By Sylvester's law of inertia the factor exists exactly when sigma
lies below the smallest eigenvalue, so the shift certifies itself: a failed
factor lowers sigma, toward 0.  Every reported pair is re-verified with
plain matrix-vector products before it is returned.

ARPACK stops once every wanted Ritz value of C has an estimated error of at
most ``LANCZOS_TOL`` = 1e-12 of its size, not at machine precision: the
reported eigenvalue is the Rayleigh quotient recomputed from the vector,
whose error is of the order of the vector's error squared, and the audit
asks a relative residual of at most ``RESIDUAL_TOL`` = 1e-8; the audited
residuals at this stop stay below about 5e-12 on the acceptance runs.  The
two are separate constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla
from scipy.linalg.blas import dtbmv
from scipy.linalg.lapack import dpbtrf, dtbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .assembly import DiscreteProblem, _quotient
from .errors import AnalysisError, ConfigError

ARPACK_MAXITER = 20_000  # per eigensolve
RESIDUAL_TOL = 1e-8  # audited relative residual of every returned pair
LANCZOS_TOL = 1e-12  # ARPACK's relative accuracy of the Ritz values of C
WARM_NCV = 6  # Lanczos vectors of a warm single-pair solve
BACK_OFF = (1.0, 0.9, 0.5)  # fractions of a shift tried before 0


@dataclass(eq=False)
class EigenResult:
    """Ascending eigenvalues with M-orthonormal vectors and audit data."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, M-orthonormal
    residuals: np.ndarray  # ||K x - lambda M x|| / ||K x||
    iterations: int  # inner solves: applications of U^{-T} M U^{-1}
    ortho_defect: float


def band_cholesky(pattern: sp.csr_matrix):
    """``factor(data)``: ``(U, perm)``, the upper Cholesky factor of
    A[perm][:, perm] = U^T U in LAPACK band storage, for the SPD matrix A
    with ``data`` on the symmetric pattern (no duplicate entries) of
    ``pattern``.

    The order ``perm`` is reverse Cuthill-McKee, computed once; each factor
    puts the permuted upper triangle of its ``data`` into ``ab[bw + i - j,
    j]``, a (bw + 1) x n array for half-bandwidth bw, for ``dpbtrf``, and
    U comes back in the same storage.  An A that is not positive definite,
    or a band that cannot be allocated, raises AnalysisError.
    """
    n = pattern.shape[0]
    perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n, dtype=perm.dtype)
    i = inv[np.repeat(np.arange(n), np.diff(pattern.indptr))]
    j = inv[pattern.indices]
    upper = i <= j
    i, j = i[upper], j[upper]
    bw = int((j - i).max(initial=0))

    def factor(data):
        try:
            ab = np.zeros((bw + 1, n), order="F")
        except MemoryError:
            raise AnalysisError(
                f"out of memory for the band factor of {n} equations at half-bandwidth "
                f"{bw} ({(bw + 1) * n * 8} bytes)"
            ) from None
        ab[bw + i - j, j] = data[upper]
        chol, info = dpbtrf(ab, overwrite_ab=1)
        if info:
            raise AnalysisError(
                f"stiffness not positive definite on {n} equations (dpbtrf info = {info})"
            )
        return chol, perm

    return factor


def _shifted_inverse(K: sp.csr_matrix, M: sp.csr_matrix, shift: float) -> tuple:
    """``(sigma, (U, perm))``: the band factor of ``band_cholesky`` of
    K - sigma M, at the first sigma of ``BACK_OFF * shift`` and then 0
    whose factor exists.

    K and M share one pattern, so K - sigma M is ``K.data - sigma * M.data``
    on it, and one band ordering serves every sigma.  By Sylvester's law the
    factor of K - sigma M exists exactly when sigma lies below the pencil's
    smallest eigenvalue, so the eigenvalues nearest sigma are the smallest
    ones.  A failure above 0 only lowers sigma; the error of the factor of
    K itself is raised.
    """
    factor = band_cholesky(K)
    for sigma in (f * shift for f in BACK_OFF if shift > 0.0):
        try:
            return sigma, factor(K.data - sigma * M.data)
        except AnalysisError:
            pass
    return 0.0, factor(K.data)


def _permuted(A: sp.csr_matrix, perm: np.ndarray) -> sp.csr_matrix:
    """``A[perm][:, perm]``, with its ``indptr``, ``indices`` and ``data``:
    the rows ``A[perm]``, each column relabelled through the inverse
    permutation in place, since scipy's column indexing keeps a row's
    entries in their stored order."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm), dtype=perm.dtype)
    rows = A[perm]  # a copy
    rows.indices = inv[rows.indices]
    rows.has_sorted_indices = False
    return rows


def _m_orthonormalize(M: sp.csr_matrix, vecs: np.ndarray) -> np.ndarray:
    """Gram-Schmidt in the M inner product (two passes)."""
    out = vecs.copy()
    for _ in range(2):
        for j in range(out.shape[1]):
            v = out[:, j]
            Mv = M @ v
            for i in range(j):
                v = v - out[:, i] * float(out[:, i] @ Mv)
                Mv = M @ v
            nrm = float(np.sqrt(v @ Mv))
            out[:, j] = v / nrm
    return out


def _audit(x: np.ndarray, Kx: np.ndarray, Mx: np.ndarray) -> tuple:
    """``(rq, residual)``: the exactly summed Rayleigh quotient
    (``assembly._quotient``) and ||K x - lambda M x|| / ||K x|| from the
    products."""
    lam = float(x @ Kx) / float(x @ Mx)
    return _quotient(x, Kx, Mx), np.linalg.norm(Kx - lam * Mx) / np.linalg.norm(Kx)


def _verify(problem: DiscreteProblem, vecs):
    """Rayleigh quotients and residuals (``_audit``) from one plain K x and
    M x per pair, and the M-orthonormality defect."""
    K = problem.K.full
    M = problem.M.full
    n_pairs = vecs.shape[1]
    residuals = np.empty(n_pairs)
    rq = np.empty(n_pairs)
    for j in range(n_pairs):
        x = vecs[:, j]
        rq[j], residuals[j] = _audit(x, K @ x, M @ x)
    gram = vecs.T @ (M @ vecs)
    defect = float(np.abs(gram - np.eye(n_pairs)).max())
    return rq, residuals, defect


def smallest_eigenpairs(
    problem: DiscreteProblem,
    num_pairs: int = 1,
    seed: int = 0,
    start: Optional[np.ndarray] = None,
    shift: float = 0.0,
) -> EigenResult:
    """The ``num_pairs`` smallest eigenpairs of (K, M), ascending.

    Shift-invert Lanczos at ``shift`` (lowered until K - shift M factors),
    on the standard problem of the band factor, stopped at ``LANCZOS_TOL``,
    from a seeded random start, or warm from ``start``: a nodal field whose
    values at ``problem.free_nodes`` start the iteration, in ``WARM_NCV``
    Lanczos vectors for a single pair.  Eigenvalues are replaced by their
    independently recomputed Rayleigh quotients, vectors are M-orthonormal,
    and residual norms are audited with plain products.  ARPACK
    non-convergence, a failed factor of K or an audited residual above
    ``RESIDUAL_TOL`` raises AnalysisError: a returned result meets the
    contract.
    """
    n = problem.n
    if num_pairs >= n:  # more than ARPACK can compute
        raise ConfigError(f"num_pairs = {num_pairs} too large for dimension {n}")

    K = problem.K.full
    M = problem.M.full
    sigma, (U, perm) = _shifted_inverse(K, M, shift)
    Mp = _permuted(M, perm)  # P^T M P
    if start is None:
        v0, ncv = np.random.default_rng(seed).standard_normal(n), None
    else:
        x0 = start[problem.free_nodes][perm]
        v0, ncv = dtbmv(U.shape[0] - 1, U, x0), (WARM_NCV if num_pairs == 1 else None)
    inner_solves = 0

    def op(y):  # y -> U^{-T} M U^{-1} y, one inner solve
        nonlocal inner_solves
        inner_solves += 1
        return dtbtrs(U, Mp @ dtbtrs(U, y)[0], trans="T")[0]

    try:
        nu, ys = sla.eigsh(
            sla.LinearOperator((n, n), matvec=op, dtype=float),
            k=num_pairs,
            v0=v0,
            ncv=ncv,
            maxiter=ARPACK_MAXITER,
            tol=LANCZOS_TOL,
        )
    except sla.ArpackNoConvergence as exc:
        raise AnalysisError(f"eigensolve did not converge on {n} equations ({exc})") from None

    order = np.argsort(sigma + 1.0 / nu)
    vecs = np.empty((n, num_pairs))
    vecs[perm] = dtbtrs(U, ys[:, order])[0]  # x = P U^{-1} y
    vecs /= np.sqrt(np.einsum("ij,ij->j", vecs, M @ vecs))
    rq, residuals, defect = _verify(problem, vecs)
    if defect > 1e-10:
        vecs = _m_orthonormalize(M, vecs)
        rq, residuals, defect = _verify(problem, vecs)
    if not (residuals <= RESIDUAL_TOL).all():
        raise AnalysisError(
            f"residual {residuals.max():.3e} above {RESIDUAL_TOL:.1e} on {n} equations"
        )
    return EigenResult(
        eigenvalues=rq,
        eigenvectors=vecs,
        residuals=residuals,
        iterations=inner_solves,
        ortho_defect=defect,
    )
