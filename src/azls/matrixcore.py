"""Dense matrix kernels: SVD, pivoted QR, a Householder QR that grows by
column blocks, epsilon rank and the pseudoinverse.

All factorization-scale objects are plain numpy arrays.  A matrix keeps the
promotion of its dtype and float64: real input is factored by real LAPACK
(integers become float64), complex input by complex LAPACK.  The growing
Householder QR is the exception and is always complex128.  Factorizations
are returned as small dataclasses so the blocks keep their names.

numpy and scipy each bundle their own OpenBLAS.  `svd` runs numpy's LAPACK,
next to the caller's numpy work on the dense path; `pivoted_qr` and the
growing `householder_qr` run scipy's, as does the sketch loop around them
(see solvers), so that one library does not wait on the other's idle
worker threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class FactorizationError(RuntimeError):
    """A dense factorization failed to converge."""


def as_matrix(a) -> np.ndarray:
    """a as a nonempty, finite 2-d array of the promotion of its dtype and
    float64; anything else is a ValueError."""
    a = np.asarray(a)
    a = a.astype(np.result_type(a, np.float64), copy=False)
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


@dataclass(frozen=True)
class PivotedQrFactorization:
    """Column-pivoted QR: A[:, perm] = Q @ R, |R[k,k]| nonincreasing."""

    Q: np.ndarray
    R: np.ndarray
    perm: np.ndarray


@dataclass(frozen=True)
class HouseholderQr:
    """A = Q @ R kept in LAPACK's packed form and never expanded.

    R (K x cols, K = min(M, cols)) lies on and above the diagonal of the
    M x cols array `packed`; below the diagonal of its first K columns lie
    the Householder vectors whose scalars are `tau`, so Q is M x K.
    """

    packed: np.ndarray
    tau: np.ndarray

    @property
    def R(self) -> np.ndarray:
        return np.triu(self.packed[:self.tau.size])

    def adjoint_q(self, b) -> np.ndarray:
        """Q* b for a vector or a block b with M rows (K rows out)."""
        b = np.asarray(b, dtype=np.complex128)
        c = np.array(b.reshape(b.shape[0], -1), order="F")
        k = self.tau.size
        _unmqr_adjoint(self.packed[:, :k], self.tau, c)
        return c[:k].reshape((k,) + b.shape[1:])


def _lapack_call(fn, *args, **kwargs):
    *out, info = fn(*args, **kwargs)
    if info != 0:
        raise FactorizationError(f"LAPACK {fn.__name__} returned info={info}")
    return out


def _unmqr_adjoint(reflectors: np.ndarray, tau: np.ndarray, c: np.ndarray) -> None:
    """Overwrite the Fortran-ordered complex c with Q* c, for the Q held by
    packed reflectors (M x k) and their tau."""
    if tau.size == 0:
        return
    unmqr = scipy.linalg.lapack.zunmqr
    # A single column is cheaper unblocked (the least workspace selects it):
    # the blocked code first forms a triangular factor per block of
    # reflectors and takes 6x as long for Q* b at M = 16387, K = 72.
    lwork = 1
    if c.shape[1] > 1:
        _, work = _lapack_call(unmqr, "L", "C", reflectors, tau, c, -1, overwrite_c=1)
        lwork = max(1, int(work[0].real))
    _lapack_call(unmqr, "L", "C", reflectors, tau, c, lwork, overwrite_c=1)


def householder_qr(a, base: HouseholderQr | None = None) -> HouseholderQr:
    """Householder QR of a, or of [A0, a] when base factors A0.

    The new columns get base's reflectors (Q0* a); only their rows below
    base's R are factored, and base's columns are not touched again.  Once R
    has M rows (a wide matrix) new columns only add to R.  The factor is
    complex128 (LAPACK zgeqrf/zunmqr) whatever the dtype of a.
    """
    a = as_matrix(a)
    m, w = a.shape
    if base is None:
        base = HouseholderQr(packed=np.empty((m, 0), dtype=np.complex128, order="F"),
                             tau=np.empty(0, dtype=np.complex128))
    if base.packed.shape[0] != m:
        raise ValueError(f"block has {m} rows, the factored matrix {base.packed.shape[0]}")
    k, cols = base.tau.size, base.packed.shape[1]
    packed = np.empty((m, cols + w), dtype=np.complex128, order="F")
    packed[:, :cols] = base.packed
    packed[:, cols:] = a
    _unmqr_adjoint(base.packed[:, :k], base.tau, packed[:, cols:])
    tau = base.tau
    if k < m:
        lwork, = _lapack_call(scipy.linalg.lapack.zgeqrf_lwork, m - k, w)
        lower, new_tau, _ = _lapack_call(scipy.linalg.lapack.zgeqrf, packed[k:, cols:],
                                         lwork=max(1, int(lwork.real)), overwrite_a=1)
        packed[k:, cols:] = lower
        tau = np.concatenate([tau, new_tau])
    return HouseholderQr(packed=packed, tau=tau)


@dataclass(frozen=True)
class EpsRankReport:
    """Singular spectrum with the smallest r whose tail has Frobenius norm <= eps."""

    sigma: np.ndarray
    eps: float
    r: int
    tail_norm: float


def svd(a) -> SvdFactorization:
    """Full (thin) SVD of a dense matrix."""
    a = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD failed to converge for {a.shape} matrix") from exc
    return SvdFactorization(U=u, sigma=s, V=vh.conj().T)


def pivoted_qr(a) -> PivotedQrFactorization:
    """Column-pivoted QR decomposition (economy size)."""
    a = as_matrix(a)
    q, r, perm = scipy.linalg.qr(a, mode="economic", pivoting=True)
    return PivotedQrFactorization(Q=q, R=r, perm=perm)


def eps_rank(a, eps: float) -> EpsRankReport:
    """Smallest r such that sqrt(sum of squared singular values beyond r) <= eps."""
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    sigma = svd(a).sigma
    # tail[r] = sqrt(sum_{k >= r} sigma_k^2); find least r with tail[r] <= eps
    tails = np.sqrt(np.cumsum(sigma[::-1] ** 2)[::-1])
    tails = np.append(tails, 0.0)
    r = int(np.argmax(tails <= eps))
    return EpsRankReport(sigma=sigma, eps=float(eps), r=r, tail_norm=float(tails[r]))


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse with cutoff max(M, N) * eps_mach * sigma_1."""
    a = as_matrix(a)
    f = svd(a)
    cutoff = max(a.shape) * np.finfo(np.float64).eps * (f.sigma[0] if f.sigma.size else 0.0)
    keep = f.sigma > cutoff
    inv_sigma = np.zeros_like(f.sigma)
    inv_sigma[keep] = 1.0 / f.sigma[keep]
    return (f.V * inv_sigma) @ f.U.conj().T
