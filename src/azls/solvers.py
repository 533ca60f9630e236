"""Least squares solvers for numerically low-rank systems.

The direct solve is numpy's lstsq.  The truncated dense variants (SVD,
pivoted QR) take matrices; randomized variants take matrix-free operators
and a SolverConfig and work on the sketch A Omega = Q T.  Its Householder QR
grows with the sketch, one column block per doubling, and each round
factors only the small core T, unless a triangular inverse already
certifies that T keeps every direction.  Every truncated solve factors
once, truncates and back-solves through one core, and every solver
recomputes the residual norm independently of its internal algebra.
The sketch loop keeps its dense kernels (QR, certificate, core SVD) in
scipy's BLAS/LAPACK; the dense SVDs (lstsq, matrixcore.svd) run numpy's.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import matrixcore as mc
from .operators import LinearOperator, from_dense

DEFAULT_OVERSAMPLING = 20


@dataclass(frozen=True)
class SolverConfig:
    """Truncation threshold and sketching parameters.

    eps is a finite, absolute singular-value / diagonal threshold.  sketch_size is
    R = r + p for a target rank r and oversampling p, an integer >= 1; seed is
    an integer >= 0.  The randomized solvers double R (reusing the random
    stream) while the sketch keeps every one of its directions, capped at N.
    """

    eps: float
    sketch_size: int
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.eps < np.inf:
            raise ValueError("eps must be positive and finite")
        for name, low in (("sketch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            try:
                ok = operator.index(value) >= low
            except TypeError:
                ok = False
            if not ok:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class SolveReport:
    x: np.ndarray
    residual_norm: float
    rank_used: int
    sketch_size: int = 0
    x1: np.ndarray | None = None
    x2: np.ndarray | None = None


def _residual(apply_a, b, x) -> float:
    return float(np.linalg.norm(b - apply_a(x)))


def _report(apply_a, b, x, rank, sketch=0) -> SolveReport:
    return SolveReport(x=x, residual_norm=_residual(apply_a, b, x),
                       rank_used=rank, sketch_size=sketch)


def _core_svd(t: np.ndarray) -> mc.SvdFactorization:
    """Thin SVD of a sketch core through scipy's LAPACK (gesdd).

    The sketch loop runs its QR and certificate in scipy's BLAS/LAPACK; with
    numpy and scipy each bundling an OpenBLAS, numpy's SVD here would wait
    on scipy's spinning worker threads, and scipy's next QR on numpy's.
    """
    try:
        u, s, vh = scipy.linalg.svd(t, full_matrices=False, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise mc.FactorizationError(f"SVD failed to converge for {t.shape} matrix") from exc
    return mc.SvdFactorization(U=u, sigma=s, V=vh.conj().T)


def _truncated_solve(a: np.ndarray, b: np.ndarray, eps: float,
                     qr: bool = False, svd=None) -> tuple[np.ndarray, int]:
    """Factor a once, keep its leading part, back-solve; returns (y, rank).

    The SVD (by svd, matrixcore.svd when None) keeps the singular values
    >= eps; with qr the column-pivoted QR keeps the leading block whose
    |diag R| >= eps.  y is in the column coordinates of a.
    """
    if qr:
        f = mc.pivoted_qr(a)
        k = int(np.count_nonzero(np.abs(np.diagonal(f.R)) >= eps))
        y = np.zeros(a.shape[1], dtype=np.complex128)
        y[f.perm[:k]] = scipy.linalg.solve_triangular(f.R[:k, :k], f.Q[:, :k].conj().T @ b)
        return y, k
    f = (svd or mc.svd)(a)
    k = int(np.count_nonzero(f.sigma >= eps))
    return f.V[:, :k] @ ((f.U[:, :k].conj().T @ b) / f.sigma[:k]), k


def _dense_solve(a, b, eps: float, qr: bool = False) -> SolveReport:
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    a = np.asarray(a)
    b = np.asarray(b, dtype=np.complex128)
    # sigma_1 and |R_11| are at most ||a||_F: below eps, a truncation keeps
    # nothing, and the answer is the zero vector it would have given (a
    # matrix that is empty, not 2-d or not finite goes on to be rejected)
    if a.ndim == 2 and a.size and np.linalg.norm(a) < eps:
        x, k = np.zeros(a.shape[1], dtype=np.complex128), 0
    else:
        x, k = _truncated_solve(a, b, eps, qr)
    return _report(lambda v: a @ v, b, x, k)


def direct_lsq(a, b) -> SolveReport:
    """Minimum-norm least squares x = pinv(A) b by numpy's lstsq, which
    keeps the singular values sigma > max(M, N) * eps_mach * sigma_1; its
    rank is that count.  A matrix that is empty, not 2-d or not finite is
    a ValueError."""
    a = mc.as_matrix(a)
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    return _report(lambda v: a @ v, b, np.asarray(x, dtype=np.complex128), int(rank))


def tsvd_solve(a, b, eps: float) -> SolveReport:
    """Truncated SVD solve: invert only singular values >= eps."""
    return _dense_solve(a, b, eps)


def tqr_solve(a, b, eps: float) -> SolveReport:
    """Truncated pivoted QR solve on the leading block with |diag(R)| >= eps."""
    return _dense_solve(a, b, eps, qr=True)


def _as_operator(a) -> LinearOperator:
    return a if isinstance(a, LinearOperator) else from_dense(a)


def _sketch(a: LinearOperator, config: SolverConfig):
    """Yield (Omega, QR of A @ Omega) for R, then for doubled R, capped at N.

    Each round draws the next columns of Omega from the same stream and
    grows the Householder QR by their block; A @ Omega is never kept.
    """
    n = a.cols
    rng = np.random.default_rng(config.seed)
    omega = np.empty((n, 0))
    factor = None
    while omega.shape[1] < n:
        extra = min(max(config.sketch_size, omega.shape[1]), n - omega.shape[1])
        omega_new = rng.standard_normal((n, extra))
        factor = mc.householder_qr(a.apply(omega_new), factor)
        omega = np.concatenate([omega, omega_new], axis=1)
        yield omega, factor


def _keeps_every_direction(t: np.ndarray, eps: float) -> bool:
    """Certify that the square triangular core t has sigma_min >= 2 eps, so
    that a truncation at eps keeps all of it, SVD and pivoted QR alike (each
    |diag R| of a QR is at least sigma_min).  It uses
    sigma_min(t) >= 1 / ||t^-1||_F; False means only "not certified"."""
    if t.shape[0] != t.shape[1]:
        return False
    inv, info = scipy.linalg.lapack.ztrtri(t)
    # ||t^-1||_F elementwise: np.linalg.norm would run numpy's BLAS between
    # scipy's QR calls (see _core_svd)
    return info == 0 and 2.0 * eps * np.sqrt(np.sum(inv.real**2 + inv.imag**2)) <= 1.0


def _randomized_solve(a, b, config: SolverConfig, qr: bool) -> SolveReport:
    """Truncated solve on the sketch A Omega = Q T, then x = Omega y.

    One Householder QR grows with the sketch, so each round factors only the
    small core T (SVD or pivoted QR, through the one truncation core) against
    Q* b.  The sketch grows while every one of its directions is kept.  A
    round before R = N whose T is certified to keep them all grows at once,
    for the price of one triangular inverse; any other round factors T, and
    the round that makes x always does.
    """
    a = _as_operator(a)
    b = np.asarray(b, dtype=np.complex128)
    for omega, factor in _sketch(a, config):
        if omega.shape[1] < a.cols and _keeps_every_direction(factor.R, config.eps):
            continue
        y, k = _truncated_solve(factor.R, factor.adjoint_q(b), config.eps, qr, _core_svd)
        if k < omega.shape[1] or omega.shape[1] >= a.cols:
            break
    return _report(a.apply, b, omega @ y, k, sketch=omega.shape[1])


def randomized_tsvd_solve(a, b, config: SolverConfig) -> SolveReport:
    """Sketch-then-truncated-SVD solve; the answer lies in the sketch span."""
    return _randomized_solve(a, b, config, qr=False)


def randomized_tqr_solve(a, b, config: SolverConfig) -> SolveReport:
    """Sketch-then-truncated-pivoted-QR solve, thresholding |diag(R)| at eps."""
    return _randomized_solve(a, b, config, qr=True)
