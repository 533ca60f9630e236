"""Dense matrix kernels: SVD and singular values, pivoted QR, a Householder
QR that grows by column blocks, epsilon rank and the pseudoinverse.

All factorization-scale objects are plain numpy arrays.  A matrix keeps the
promotion of its dtype and float64: real input is factored by real LAPACK
(integers become float64), complex input by complex LAPACK.  The growing
Householder QR follows the dtype of its first block: a real sketch is
factored by dgeqrf/dormqr, a complex one by zgeqrf/zunmqr.  Factorizations
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
        """Q* b for a vector or a block b with M rows (K rows out); a real
        factor applies to the real and imaginary parts of a complex b."""
        b = np.asarray(b)
        if self.packed.dtype.kind == "f" and b.dtype.kind == "c":
            return self.adjoint_q(b.real) + 1j * self.adjoint_q(b.imag)
        c = np.array(b.reshape(b.shape[0], -1), dtype=self.packed.dtype, order="F")
        k = self.tau.size
        _unmqr_adjoint(self.packed[:, :k], self.tau, c)
        return c[:k].reshape((k,) + b.shape[1:])


def _lapack_call(fn, *args, **kwargs):
    *out, info = fn(*args, **kwargs)
    if info != 0:
        raise FactorizationError(f"LAPACK {fn.__name__} returned info={info}")
    return out


def _unmqr_adjoint(reflectors: np.ndarray, tau: np.ndarray, c: np.ndarray) -> None:
    """Overwrite the Fortran-ordered c, of the reflectors' dtype, with Q* c,
    for the Q held by packed reflectors (M x k) and their tau (dormqr on
    real reflectors, zunmqr on complex ones)."""
    if tau.size == 0:
        return
    if reflectors.dtype.kind == "c":
        unmqr, trans = scipy.linalg.lapack.zunmqr, "C"
    else:
        unmqr, trans = scipy.linalg.lapack.dormqr, "T"
    # A single column is cheaper unblocked (the least workspace selects it):
    # the blocked code first forms a triangular factor per block of
    # reflectors and takes 6x as long for Q* b at M = 16387, K = 72.
    lwork = 1
    if c.shape[1] > 1:
        _, work = _lapack_call(unmqr, "L", trans, reflectors, tau, c, -1, overwrite_c=1)
        lwork = max(1, int(work[0].real))
    _lapack_call(unmqr, "L", trans, reflectors, tau, c, lwork, overwrite_c=1)


def householder_qr(a, base: HouseholderQr | None = None) -> HouseholderQr:
    """Householder QR of a, or of [A0, a] when base factors A0.

    The new columns get base's reflectors (Q0* a); only their rows below
    base's R are factored, and base's columns are not touched again.  Once R
    has M rows (a wide matrix) new columns only add to R.  The factor has
    the dtype of the first block, the promotion of its dtype and float64:
    float64 through LAPACK dgeqrf/dormqr, complex128 through
    zgeqrf/zunmqr.  A block of another dtype than base is a ValueError.
    """
    a = as_matrix(a)
    m, w = a.shape
    if base is None:
        base = HouseholderQr(packed=np.empty((m, 0), dtype=a.dtype, order="F"),
                             tau=np.empty(0, dtype=a.dtype))
    if base.packed.shape[0] != m:
        raise ValueError(f"block has {m} rows, the factored matrix {base.packed.shape[0]}")
    if a.dtype != base.packed.dtype:
        raise ValueError(f"block is {a.dtype}, the factored matrix {base.packed.dtype}")
    k, cols = base.tau.size, base.packed.shape[1]
    packed = np.empty((m, cols + w), dtype=a.dtype, order="F")
    packed[:, :cols] = base.packed
    packed[:, cols:] = a
    _unmqr_adjoint(base.packed[:, :k], base.tau, packed[:, cols:])
    tau = base.tau
    if k < m:
        geqrf, geqrf_lwork = scipy.linalg.lapack.get_lapack_funcs(
            ("geqrf", "geqrf_lwork"), (packed,))
        lwork, = _lapack_call(geqrf_lwork, m - k, w)
        lower, new_tau, _ = _lapack_call(geqrf, packed[k:, cols:],
                                         lwork=max(1, int(lwork.real)), overwrite_a=1)
        packed[k:, cols:] = lower
        tau = np.concatenate([tau, new_tau])
    return HouseholderQr(packed=packed, tau=tau)


def _np_svd(a, **kwargs):
    a = as_matrix(a)
    try:
        return np.linalg.svd(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD failed to converge for {a.shape} matrix") from exc


def svd(a) -> SvdFactorization:
    """Full (thin) SVD of a dense matrix."""
    u, s, vh = _np_svd(a, full_matrices=False)
    return SvdFactorization(U=u, sigma=s, V=vh.conj().T)


def singular_values(a) -> np.ndarray:
    """The singular values of a dense matrix, nonincreasing, from an SVD without U and V."""
    return _np_svd(a, compute_uv=False)


def pivoted_qr(a) -> PivotedQrFactorization:
    """Column-pivoted QR decomposition (economy size)."""
    a = as_matrix(a)
    q, r, perm = scipy.linalg.qr(a, mode="economic", pivoting=True)
    return PivotedQrFactorization(Q=q, R=r, perm=perm)


def eps_rank(a, eps: float) -> int:
    """Smallest r such that sqrt(sum of squared singular values beyond r) <= eps."""
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    sigma = singular_values(a)
    # tail[r] = sqrt(sum_{k >= r} sigma_k^2); find least r with tail[r] <= eps
    tails = np.append(np.sqrt(np.cumsum(sigma[::-1] ** 2)[::-1]), 0.0)
    return int(np.argmax(tails <= eps))


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse with cutoff max(M, N) * eps_mach * sigma_1."""
    a = as_matrix(a)
    f = svd(a)
    cutoff = max(a.shape) * np.finfo(np.float64).eps * (f.sigma[0] if f.sigma.size else 0.0)
    keep = f.sigma > cutoff
    inv_sigma = np.zeros_like(f.sigma)
    inv_sigma[keep] = 1.0 / f.sigma[keep]
    return (f.V * inv_sigma) @ f.U.conj().T
