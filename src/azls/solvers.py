"""Least squares solvers for numerically low-rank systems.

Every solver checks its b (check_rhs) and the shape of its matrix or
operator before any apply.  The direct solve is numpy's lstsq.  Every other
solver takes a SolverConfig, draws its Gaussian blocks Omega from one round
schedule, _gaussian_blocks, and ends the same way: one truncation, by SVD
or column-pivoted QR at its eps, of a small core against Q* b.  The
randomized solvers take operators and grow the Householder QR of the sketch
A Omega = Q T by a block per round, factoring only the small core T unless
a triangular inverse certifies that T keeps every direction.  A sketch
that would saturate leaves for Omega = I after its first round, up to
MATERIALIZE_CAP columns: when that round keeps every direction and a line
through the log singular values of its core projects the rank to N or
past it, or when it is already R = N, the solver takes the Householder QR
of the materialized A and truncates its triangular core, x = y.  The dense
tsvd and tqr take matrices, build A = Q C + E with orthonormal Q and
deflated E, and factor only the R x N core C once the explicit
||E||_F < eps; once R would pass N/2 they finish at Omega = I, on the
triangular factor of the Householder QR of A (R = N).  No solver factors
the whole tall matrix.  Each path computes in the dtype of its operator or
matrix: a real one (a real frame, or the real form of a Fourier frame)
gives a float64 sketch, QR, certificate and core factorization, and no
solver casts b: x is of the promotion of b's dtype, that one and float64.
The sketch loop, its Omega = I finish included, runs scipy's BLAS/LAPACK,
and its matrix-vector products and norms run in numpy's own loops (einsum,
sums of squares), with no BLAS; the dense path (lstsq, the certified
rounds, its Omega = I QR, matrixcore.svd) runs numpy's BLAS/LAPACK, which
has no pivoted QR.  Every solver recomputes the residual norm apart from
its internal algebra.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import matrixcore as mc
from .operators import MATERIALIZE_CAP, LinearOperator, from_dense, materialize

DEFAULT_OVERSAMPLING = 20


@dataclass(frozen=True)
class SolverConfig:
    """Truncation threshold and sketching parameters.

    eps is a finite, absolute singular-value / diagonal threshold.  sketch_size is
    the first R = r + p, for a target rank r and oversampling p, an integer
    >= 1; seed, an integer >= 0, seeds the one Gaussian stream.  R doubles
    while a randomized sketch keeps all its directions, up to N, and until
    the dense tsvd and tqr certify, up to N/2; past N/2 they take Omega = I.
    Up to MATERIALIZE_CAP columns a randomized sketch takes Omega = I too:
    at once when sketch_size >= N, and after its first round when that
    round keeps all its directions and projects the rank to N or past it.
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
    """x, and an AZ solve's x1 and x2, take the promotion of the dtypes of b,
    the operators and float64; residual_norm is ||b - A x|| of that x.
    sketch_size is the R of the factor that x came from: N at Omega = I
    (the dense solves past N/2, a randomized sketch routed there, or one
    saturated over MATERIALIZE_CAP), and 0 for lstsq and the dense zero
    exit."""

    x: np.ndarray
    residual_norm: float
    rank_used: int
    sketch_size: int = 0
    x1: np.ndarray | None = None
    x2: np.ndarray | None = None


def check_rhs(b, rows: int) -> np.ndarray:
    """b as a finite vector of length rows, of the promotion of its dtype
    and float64; anything else is a ValueError.  Every solver, and az_solve,
    checks its b here before any apply."""
    b = np.asarray(b)
    b = b.astype(np.result_type(b, np.float64), copy=False)
    if b.shape != (rows,):
        raise ValueError(f"b has shape {b.shape}, expected ({rows},)")
    if not np.all(np.isfinite(b)):
        raise ValueError("b contains non-finite entries")
    return b


def _norm(v: np.ndarray) -> float:
    """||v||_2, Frobenius for a block, as a sum of squares in numpy's own
    loops: np.linalg.norm would run numpy's BLAS (see _core_svd)."""
    return float(np.sqrt(np.sum(v.real**2 + v.imag**2)))


def _report(apply_a, b, x, rank, sketch=0) -> SolveReport:
    return SolveReport(x=x, residual_norm=_norm(b - apply_a(x)), rank_used=rank,
                       sketch_size=sketch)


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
    |diag R| >= eps.  y is in the column coordinates of a.  a is a small
    core (the sketch's T, the certified C or the Omega = I R_B), so its
    matrix-vector products run in einsum's own loops, off numpy's BLAS.
    """
    f = mc.pivoted_qr(a) if qr else (svd or mc.svd)(a)
    k = int(np.count_nonzero((np.abs(np.diagonal(f.R)) if qr else f.sigma) >= eps))
    c = np.einsum("ik,i->k", (f.Q if qr else f.U)[:, :k].conj(), b)
    if not qr:
        return np.einsum("jk,k->j", f.V[:, :k], c / f.sigma[:k]), k
    y = np.zeros(a.shape[1], dtype=np.result_type(a, b))
    y[f.perm[:k]] = scipy.linalg.solve_triangular(f.R[:k, :k], c)
    return y, k


def _gaussian_blocks(n: int, config: SolverConfig):
    """Yield the n-row Gaussian blocks of default_rng(config.seed), of widths
    sketch_size, then the R so far (R doubles), the last clipped so that R
    ends at n (HMT, SIAM Review 53 (2011), Algorithm 4.2, blocked)."""
    rng = np.random.default_rng(config.seed)
    r = 0
    while r < n:
        width = min(max(config.sketch_size, r), n - r)
        yield rng.standard_normal((n, width))
        r += width


def _low_rank_factor(a: np.ndarray, config: SolverConfig):
    """(Q, C) with orthonormal Q (M x R) and the explicit ||a - Q C||_F
    below config.eps, or None once R would pass N/2.

    Each round takes the next block Omega of _gaussian_blocks,
    orthonormalizes Y = E Omega for the deflated E = a - Q C, then once more
    against the earlier blocks (E keeps its orthogonality to them only to
    rounding), and deflates E by C_blk = Q_blk* E.  The certificate is
    ||E||_F itself, not ||a||^2 - ||C||^2, which cancels near eps.  numpy's
    BLAS/LAPACK throughout, real for a real a.
    """
    n = a.shape[1]
    e = a.copy()
    q, c = np.empty((a.shape[0], 0), dtype=a.dtype), np.empty((0, n), dtype=a.dtype)
    for omega in _gaussian_blocks(n, config):
        if 2 * (q.shape[1] + omega.shape[1]) > n:
            break
        q_blk = np.linalg.qr(e @ omega)[0]
        q_blk = np.linalg.qr(q_blk - q @ (q.conj().T @ q_blk))[0]
        c_blk = q_blk.conj().T @ e
        e -= q_blk @ c_blk
        q, c = np.hstack([q, q_blk]), np.vstack([c, c_blk])
        if np.linalg.norm(e) < config.eps:
            return q, c
    return None


def _dense_solve(a, b, config: SolverConfig, qr: bool = False) -> SolveReport:
    """Truncated solve of the dense a on the core of a = Q core (+ E), against
    Q* b: the R x N core C of a certified Q C, or once the rounds give up,
    the triangular R_B of the Householder QR of a, the sketch at Omega = I
    (R = N).  One numpy QR of [a | b] in mode "r" gives R_B, min(M, N) rows,
    and Q* b without forming Q; a real a takes a complex b as its real and
    imaginary parts, so that QR stays real."""
    a = mc.as_matrix(a)
    b = check_rhs(b, a.shape[0])
    n = a.shape[1]
    # sigma_1 and |R_11| are at most ||a||_F: below eps, a truncation keeps
    # nothing, and the answer is the zero vector it would have given
    if np.linalg.norm(a) < config.eps:
        return _report(lambda v: a @ v, b, np.zeros(n, dtype=np.result_type(a, b)), 0)
    if factor := _low_rank_factor(a, config):
        # each sigma of C is within ||a - Q C||_F of a's, and the SVD's
        # x = V_k Sigma_k^-1 U_k* Q* b lies in a's row space: no back-solve
        q, core = factor
        qb, r = q.conj().T @ b, q.shape[1]
    else:
        # R_B has a's singular values and column norms: the same x to
        # rounding as a's own SVD, and the same pivots as its pivoted QR
        split = a.dtype.kind == "f" and b.dtype.kind == "c"
        rb = np.linalg.qr(np.column_stack([a, b.real, b.imag] if split else [a, b]),
                          mode="r")[:min(a.shape)]
        core, qb, r = rb[:, :n], rb[:, n] + 1j * rb[:, n + 1] if split else rb[:, n], n
    x, k = _truncated_solve(core, qb, config.eps, qr)
    return _report(lambda v: a @ v, b, x, k, r)


def direct_lsq(a, b) -> SolveReport:
    """Minimum-norm least squares x = pinv(A) b by numpy's lstsq, which
    keeps the singular values sigma > max(M, N) * eps_mach * sigma_1; its
    rank is that count.  A matrix that is empty, not 2-d or not finite is
    a ValueError, as is a b that check_rhs rejects."""
    a = mc.as_matrix(a)
    b = check_rhs(b, a.shape[0])
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    return _report(lambda v: a @ v, b, x, int(rank))


def tsvd_solve(a, b, config: SolverConfig) -> SolveReport:
    """Truncated SVD solve of a dense matrix: invert only singular values
    >= config.eps.  It factors the R x N core of a certified low-rank factor
    (R from config.sketch_size, doubling; Omega from config.seed), or once R
    would pass N/2 the triangular factor of the whole matrix (Omega = I,
    R = N); sketch_size reports that R, and 0 only for a matrix with
    ||a||_F < eps, which it does not factor."""
    return _dense_solve(a, b, config)


def tqr_solve(a, b, config: SolverConfig) -> SolveReport:
    """Truncated pivoted QR solve of a dense matrix, keeping the leading block
    with |diag(R)| >= config.eps, of the same core as tsvd_solve (the
    certified C or the Omega = I factor), with the same sketch_size."""
    return _dense_solve(a, b, config, qr=True)


def _as_operator(a) -> LinearOperator:
    """a, or the operator of the matrix a; one with no rows or no columns is
    a ValueError."""
    a = a if isinstance(a, LinearOperator) else from_dense(a)
    if not (a.rows and a.cols):
        raise ValueError(f"expected a nonempty operator, got shape {a.shape}")
    return a


def _sketch(a: LinearOperator, config: SolverConfig):
    """Yield (Omega, QR of A @ Omega) as each block of _gaussian_blocks,
    up to R = N, grows the Householder QR; A @ Omega is never kept."""
    omega = np.empty((a.cols, 0))
    factor = None
    for block in _gaussian_blocks(a.cols, config):
        factor = mc.householder_qr(a.apply(block), factor)
        omega = np.concatenate([omega, block], axis=1)
        yield omega, factor


def _keeps_every_direction(t: np.ndarray, eps: float) -> bool:
    """Certify that the square triangular core t has sigma_min >= 2 eps, so
    that a truncation at eps keeps all of it, SVD and pivoted QR alike (each
    |diag R| of a QR is at least sigma_min).  It uses
    sigma_min(t) >= 1 / ||t^-1||_F; False means only "not certified"."""
    if t.shape[0] != t.shape[1]:
        return False
    trtri, = scipy.linalg.lapack.get_lapack_funcs(("trtri",), (t,))
    inv, info = trtri(t)
    return info == 0 and 2.0 * eps * _norm(inv) <= 1.0


def _projected_rank(t: np.ndarray, eps: float) -> float:
    """The index at which the singular values of the square core t would
    reach eps: a least-squares line through log sigma_i against i over the
    last half of the spectrum, extrapolated to log eps (HMT, SIAM Review 53
    (2011), section 4.4).  A core of 4 to 7 is fitted over its last four
    values: a line through only the last two of a core of 4 follows the
    drop of the sketch's last sigma and can project a saturating rank
    short of N.  A slope >= 0 never gets there: inf.  A fit of fewer than
    two points projects nothing: 0.  Every sigma must be positive; the
    caller asks only of a core that keeps all of them."""
    log_sigma = np.log(scipy.linalg.svdvals(t, check_finite=False))
    n = log_sigma.size
    i = np.arange(n // 2 if n < 4 else min(n // 2, n - 4), n)
    if i.size < 2:
        return 0.0
    di = i - i.mean()
    slope = np.sum(di * log_sigma[i]) / np.sum(di * di)
    return i.mean() + (np.log(eps) - log_sigma[i].mean()) / slope if slope < 0 else np.inf


def _randomized_solve(a, b, config: SolverConfig, qr: bool) -> SolveReport:
    """Truncated solve on the sketch A Omega = Q T, then x = Omega y.

    One Householder QR grows with the sketch, so each round factors only the
    small core T (SVD or pivoted QR, through the one truncation core) against
    Q* b.  The sketch grows while every one of its directions is kept.  A
    round before R = N whose T is certified to keep them all grows at once,
    for the price of one triangular inverse; any other round factors T, and
    the round that makes x always does.

    Up to MATERIALIZE_CAP columns, a sketch that would saturate finishes at
    Omega = I instead: the Householder QR of the materialized A, its
    triangular core truncated against Q* b, and x = y, the minimum-norm x
    of the dense truncation at R = N.  It does so when the first round is
    already R = N, and when the first round keeps every direction and
    _projected_rank of its core reaches N; later rounds are not projected.
    """
    a = _as_operator(a)
    b = check_rhs(b, a.rows)
    n, eps = a.cols, config.eps
    identity = n <= MATERIALIZE_CAP and config.sketch_size >= n
    for omega, factor in [] if identity else _sketch(a, config):
        r = omega.shape[1]
        keeps = r < n and _keeps_every_direction(factor.R, eps)
        if not keeps:
            y, k = _truncated_solve(factor.R, factor.adjoint_q(b), eps, qr, _core_svd)
            keeps = k == r < n
        identity = (keeps and r == config.sketch_size and n <= MATERIALIZE_CAP
                    and _projected_rank(factor.R, eps) >= n)
        if identity or not keeps:
            break
    if identity:
        factor = mc.householder_qr(materialize(a))
        y, k = _truncated_solve(factor.R, factor.adjoint_q(b), eps, qr, _core_svd)
        return _report(a.apply, b, y, k, sketch=n)
    return _report(a.apply, b, np.einsum("ij,j->i", omega, y), k, sketch=omega.shape[1])


def randomized_tsvd_solve(a, b, config: SolverConfig) -> SolveReport:
    """Sketch-then-truncated-SVD solve; the answer lies in the sketch span."""
    return _randomized_solve(a, b, config, qr=False)


def randomized_tqr_solve(a, b, config: SolverConfig) -> SolveReport:
    """Sketch-then-truncated-pivoted-QR solve, thresholding |diag(R)| at eps."""
    return _randomized_solve(a, b, config, qr=True)
