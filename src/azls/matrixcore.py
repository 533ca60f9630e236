"""Dense complex matrix kernels: SVD, pivoted QR, Gaussian sketches, epsilon rank.

All factorization-scale objects are plain numpy arrays of dtype complex128
(real inputs are promoted).  Factorizations are returned as small dataclasses
so the blocks keep their names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class FactorizationError(RuntimeError):
    """A dense factorization failed to converge."""


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a nonempty 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


@dataclass(frozen=True)
class SvdFactorization:
    """Thin SVD A = U @ diag(sigma) @ V.conj().T with K = min(M, N)."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.sigma) @ self.V.conj().T


@dataclass(frozen=True)
class PivotedQrFactorization:
    """Column-pivoted QR: A[:, perm] = Q @ R, |R[k,k]| nonincreasing."""

    Q: np.ndarray
    R: np.ndarray
    perm: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Recompose A (with the permutation undone)."""
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(len(self.perm))
        return (self.Q @ self.R)[:, inv]


@dataclass(frozen=True)
class EpsRankReport:
    """Singular spectrum with the smallest r whose tail has Frobenius norm <= eps."""

    sigma: np.ndarray
    eps: float
    r: int
    tail_norm: float


def svd(a) -> SvdFactorization:
    """Full (thin) SVD of a dense matrix."""
    a = _as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD failed to converge for {a.shape} matrix") from exc
    return SvdFactorization(U=u, sigma=s, V=vh.conj().T)


def pivoted_qr(a) -> PivotedQrFactorization:
    """Column-pivoted QR decomposition (economy size)."""
    a = _as_matrix(a)
    q, r, perm = scipy.linalg.qr(a, mode="economic", pivoting=True)
    return PivotedQrFactorization(Q=q, R=r, perm=perm)


def gaussian_matrix(n: int, k: int, seed: int) -> np.ndarray:
    """n-by-k matrix of i.i.d. real standard normals, deterministic per seed.

    Uses numpy's PCG64 stream with the ziggurat normal transform; the same
    seed always yields the same matrix.  The entries are real even when the
    matrix multiplies complex data: real sketches preserve complex spans.
    """
    if n < 1 or k < 1:
        raise ValueError("sketch dimensions must be positive")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, k))


def eps_rank(a, eps: float) -> EpsRankReport:
    """Smallest r such that sqrt(sum of squared singular values beyond r) <= eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    sigma = svd(a).sigma
    # tail[r] = sqrt(sum_{k >= r} sigma_k^2); find least r with tail[r] <= eps
    tails = np.sqrt(np.cumsum(sigma[::-1] ** 2)[::-1])
    tails = np.append(tails, 0.0)
    r = int(np.argmax(tails <= eps))
    return EpsRankReport(sigma=sigma, eps=float(eps), r=r, tail_norm=float(tails[r]))


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse with cutoff max(M, N) * eps_mach * sigma_1."""
    a = _as_matrix(a)
    f = svd(a)
    cutoff = max(a.shape) * np.finfo(np.float64).eps * (f.sigma[0] if f.sigma.size else 0.0)
    keep = f.sigma > cutoff
    inv_sigma = np.zeros_like(f.sigma)
    inv_sigma[keep] = 1.0 / f.sigma[keep]
    return (f.V * inv_sigma) @ f.U.conj().T


def two_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a), 2))


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a), "fro"))


def adjoint(a) -> np.ndarray:
    return np.asarray(a).conj().T

