"""Smallest eigenpairs of SPD pencils (K, M) with verified residuals.

The reference algorithm is shift-invert Lanczos (ARPACK) at sigma = 0 with a
seeded start vector, so runs are deterministic.  Inner solves K x = b go
through a banded Cholesky factor (``band_cholesky``) at desk scale and switch
to an ILU-preconditioned conjugate gradient beyond it.  The band factor
orders K by reverse Cuthill-McKee, which suits the thin strips and slabs the
pencils live on; it needs no pivoting, and its memory, (bw + 1) n doubles
for half-bandwidth bw, is known before it is computed.  Every reported pair
is re-verified with plain matrix-vector products before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .assembly import DiscreteProblem, _quotient, symmetric_subproblem
from .errors import AnalysisError, ConfigError

# above this dimension the band factorization is replaced by
# ILU-preconditioned CG inner solves (memory, not accuracy)
DIRECT_SOLVE_LIMIT = 300_000

ARPACK_MAXITER = 20_000  # per eigensolve


@dataclass(eq=False)
class EigenResult:
    """Ascending eigenvalues with M-orthonormal vectors and audit data."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, M-orthonormal
    residuals: np.ndarray  # ||K x - lambda M x|| / ||K x||
    iterations: int  # inner linear solves consumed
    ortho_defect: float


def band_cholesky(K: sp.csr_matrix):
    """``solve(b)`` returning K^{-1} b, from a Cholesky factor of the SPD
    matrix K (symmetric, no duplicate entries) in LAPACK band storage.

    K is ordered by reverse Cuthill-McKee; its permuted upper triangle goes
    straight from COO indices into ``ab[bw + i - j, j]``, a (bw + 1) x n
    array for half-bandwidth bw, which ``dpbtrf`` factors in place.  A K
    that is not positive definite raises AnalysisError.
    """
    n = K.shape[0]
    perm = reverse_cuthill_mckee(K, symmetric_mode=True)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n, dtype=perm.dtype)
    coo = K.tocoo()
    i, j = inv[coo.row], inv[coo.col]
    upper = i <= j
    i, j = i[upper], j[upper]
    bw = int((j - i).max(initial=0))
    ab = np.zeros((bw + 1, n), order="F")
    ab[bw + i - j, j] = coo.data[upper]
    factor, info = dpbtrf(ab, overwrite_ab=1)
    if info:
        raise AnalysisError(
            f"stiffness not positive definite on {n} equations (dpbtrf info = {info})"
        )

    def solve(b):
        x = np.empty(b.shape)
        x[perm] = dpbtrs(factor, b[perm], overwrite_b=1)[0]
        return x

    return solve


class _CountingSolver:
    """Wraps an inner solver for K x = b, counting applications."""

    def __init__(self, K: sp.csr_matrix):
        self.count = 0
        n = K.shape[0]
        if n <= DIRECT_SOLVE_LIMIT:
            self._solve = band_cholesky(K)
            self.kind = "direct"
        else:
            ilu = sla.spilu(K.tocsc(), drop_tol=1e-4, fill_factor=12.0)
            M_ilu = sla.LinearOperator((n, n), matvec=ilu.solve)

            def solve(b):
                x, info = sla.cg(K, b, rtol=1e-12, atol=0.0, M=M_ilu, maxiter=4000)
                if info != 0:
                    raise AnalysisError(f"inner CG solve failed (info = {info})")
                return x

            self._solve = solve
            self.kind = "cg+ilu"

    def __call__(self, b):
        self.count += 1
        return self._solve(b)


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


def _verify(problem: DiscreteProblem, vecs):
    """Residuals and Rayleigh quotients (``rayleigh_quotient``'s, bit for
    bit) from one plain K x and M x per pair."""
    K = problem.K.full
    M = problem.M.full
    n_pairs = vecs.shape[1]
    residuals = np.empty(n_pairs)
    rq = np.empty(n_pairs)
    for j in range(n_pairs):
        x = vecs[:, j]
        Kx = K @ x
        Mx = M @ x
        lam = float(x @ Kx) / float(x @ Mx)
        rq[j] = _quotient(x, Kx, Mx)
        residuals[j] = np.linalg.norm(Kx - lam * Mx) / np.linalg.norm(Kx)
    gram = vecs.T @ (M @ vecs)
    defect = float(np.abs(gram - np.eye(n_pairs)).max())
    return rq, residuals, defect


def smallest_eigenpairs(
    problem: DiscreteProblem, num_pairs: int = 1, tol: float = 1e-8, seed: int = 0
) -> EigenResult:
    """The ``num_pairs`` smallest eigenpairs of (K, M), ascending.

    Shift-invert Lanczos with a seeded start; eigenvalues are replaced by
    their independently recomputed Rayleigh quotients, vectors are
    M-orthonormal, and residual norms are audited with plain products.
    ARPACK non-convergence, a failed inner solve or an audited residual
    above ``tol`` raises AnalysisError: a returned result meets the contract.
    """
    n = problem.n
    if num_pairs >= max(2, n // 10):
        raise ConfigError(f"num_pairs = {num_pairs} too large for dimension {n}")

    K = problem.K.full
    M = problem.M.full
    v0 = np.random.default_rng(seed).standard_normal(n)
    inner = _CountingSolver(K)
    op_inv = sla.LinearOperator((n, n), matvec=inner)
    try:
        vals, vecs = sla.eigsh(
            K,
            k=num_pairs,
            M=M,
            sigma=0.0,
            OPinv=op_inv,
            v0=v0,
            maxiter=ARPACK_MAXITER,
            tol=0.0,
        )
    except sla.ArpackNoConvergence as exc:
        raise AnalysisError(f"eigensolve did not converge on {n} equations ({exc})") from None

    order = np.argsort(vals)
    vecs = vecs[:, order]
    rq, residuals, defect = _verify(problem, vecs)
    if defect > 1e-10:
        vecs = _m_orthonormalize(M, vecs)
        rq, residuals, defect = _verify(problem, vecs)
    if not (residuals <= tol).all():
        raise AnalysisError(
            f"residual {residuals.max():.3e} above tol = {tol:.1e} on {n} equations"
        )
    return EigenResult(
        eigenvalues=rq,
        eigenvectors=vecs,
        residuals=residuals,
        iterations=inner.count,
        ortho_defect=defect,
    )


def invariant_ground_state(
    problem: DiscreteProblem,
    labels: np.ndarray,
    space: str,
    at: str,
    tol: float = 1e-8,
    seed: int = 0,
) -> EigenResult:
    """The smallest eigenpair of (K, M) among the vectors constant on each
    orbit of ``labels`` (``assembly.symmetric_subproblem``), lifted to the
    full equations, M-normalized and audited on the full pencil.

    The caller states why the ground state is invariant; the audit checks
    it: orbits that are no symmetry give a lifted vector that is no
    eigenvector, and a full-pencil residual above ``tol`` raises
    AnalysisError.  ``space`` ("grid", "mesh") and ``at`` name the problem
    in the errors.
    """
    result = smallest_eigenpairs(symmetric_subproblem(problem, labels), tol=tol, seed=seed)
    x = result.eigenvectors[labels, :1]  # lifted: x = P y
    x /= math.sqrt(float(x[:, 0] @ problem.M.matvec(x[:, 0])))
    rq, residuals, defect = _verify(problem, x)
    if not residuals[0] <= tol:
        raise AnalysisError(f"full-{space} residual {residuals[0]:.3e} at {at}")
    return EigenResult(
        eigenvalues=rq,
        eigenvectors=x,
        residuals=residuals,
        iterations=result.iterations,
        ortho_defect=defect,
    )
