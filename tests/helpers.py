"""Helpers shared by the test files: random test matrices, dense problems,
an off-centre 2D domain, the dot test, operator call counters, factorization
recomposition, the whole-matrix truncated solve that the dense step-1 paths
are checked against, and the two checks of the theory that only tests run
(the low-rank splitting certificate and the Gaussian pseudoinverse Monte
Carlo).

Test files import it as `from helpers import ...`; pytest puts this
directory on sys.path because it has no __init__.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from azls import AzProblem, matrixcore as mc, operators as ops, solvers
from azls.frames import DomainSpec
from azls.solvers import SolveReport


# a disk that is not centred on the 2D grid: with no mirror symmetry about
# either axis, its real-form G_r couples the cos and sin coordinates, which a
# centred mask leaves apart
OFF_CENTRE = DomainSpec.from_mask(lambda x, y: (x - 0.25)**2 + (y + 0.15)**2 <= 0.45**2)


def random_complex(m, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def spectrum_matrix(m, n, sigma, seed):
    """Matrix with a prescribed singular spectrum and random singular vectors."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return u @ np.diag(sigma) @ v.conj().T


def dense_problem(a, z, scale=1.0):
    return AzProblem(A=ops.from_dense(a), Z=ops.from_dense(z), scale=scale)


def step1_rhs(problem: AzProblem, b) -> np.ndarray:
    """(I - A Z*) b on the rows of problem.step1_operator(): on the real form
    when there is one, after its rows map (rows* b) when it has one, as
    az_solve forms it."""
    p = problem.real_form or problem
    b = b if p.rows is None else p.rows.adjoint_apply(b)
    return b - p.A.apply(p.Z.adjoint_apply(b))


def check_adjoint(op: ops.LinearOperator, seed: int, k: int = 3, rtol: float = 1e-12) -> None:
    """Assert that op maps a vector and a k-column block, each real and
    complex, to the shapes its rows and cols give, both ways, and that
    <A v, w> = <v, A* w> holds on each to rtol relative to
    max(||A v|| ||w||, ||v|| ||A* w||)."""
    rng = np.random.default_rng(seed)

    def draw(n, tail, complex_):
        x = rng.standard_normal((n,) + tail)
        return x + 1j * rng.standard_normal(x.shape) if complex_ else x

    for tail in ((), (k,)):
        for complex_ in (False, True):
            v, w = draw(op.cols, tail, complex_), draw(op.rows, tail, complex_)
            av, aw = op.apply(v), op.adjoint_apply(w)
            assert av.shape == w.shape and aw.shape == v.shape
            scale = max(np.linalg.norm(av) * np.linalg.norm(w),
                        np.linalg.norm(v) * np.linalg.norm(aw))
            assert abs(np.vdot(w, av) - np.vdot(aw, v)) <= rtol * scale


def dense_oracle(a, b, eps, qr=False) -> SolveReport:
    """The truncated solve of the whole matrix a: its full SVD (or pivoted
    QR) truncated at eps by the solvers' own rule.  No solver factors the
    whole step-1 matrix; this is the reference for the ones that factor a
    core of it."""
    a, b = np.asarray(a), np.asarray(b)
    x, k = solvers._truncated_solve(a, b, eps, qr)
    return SolveReport(x=x, residual_norm=float(np.linalg.norm(b - a @ x)), rank_used=k)


def reconstruct(f) -> np.ndarray:
    """The matrix a matrixcore SVD or pivoted QR factors, permutation undone."""
    if isinstance(f, mc.SvdFactorization):
        return (f.U * f.sigma) @ f.V.conj().T
    inv = np.empty_like(f.perm)
    inv[f.perm] = np.arange(len(f.perm))
    return (f.Q @ f.R)[:, inv]


@dataclass
class CallCounter:
    """Mutable apply/adjoint counters for a wrapped operator."""

    applies: int = 0
    adjoint_applies: int = 0


def counted(op: ops.LinearOperator) -> tuple[ops.LinearOperator, CallCounter]:
    """Wrap an operator so every apply/adjoint-apply is counted."""
    counter = CallCounter()

    def apply(v):
        counter.applies += 1
        return op.apply(v)

    def adjoint_apply(v):
        counter.adjoint_applies += 1
        return op.adjoint_apply(v)

    return ops.LinearOperator(op.rows, op.cols, apply, adjoint_apply), counter


@dataclass(frozen=True)
class SplittingReport:
    """Synthetic (A, Z) built from W plus low-rank plus noise, and the rank check."""

    A: np.ndarray
    Z: np.ndarray
    e_bound: float
    eps_rank: int
    rank_cap: int

    @property
    def holds(self) -> bool:
        return self.eps_rank <= self.rank_cap


def splitting_certificate(w, l1, e1, l2, e2, rank_cap: int) -> SplittingReport:
    """Build A = W + L1 + E1 and Z* = pinv(W) + L2 + E2 and certify that
    A - A Z* A has epsilon rank at most rank_cap at the analytic E-bound.

    The bound is eps * (1 + ||I - A Z*||_2 + ||A||_2^2) + eps^2 * ||A||_2
    with eps = max(||E1||_F, ||E2||_F).
    """
    w = np.asarray(w, dtype=np.complex128)
    a = w + l1 + e1
    zstar = mc.pseudoinverse(w) + l2 + e2
    z = zstar.conj().T
    eps = max(np.linalg.norm(e1, "fro"), np.linalg.norm(e2, "fro"))
    m = a.shape[0]
    norm_a = np.linalg.norm(a, 2)
    bound = eps * (1.0 + np.linalg.norm(np.eye(m) - a @ zstar, 2) + norm_a**2) + eps**2 * norm_a
    diff = a - a @ zstar @ a
    # a zero E-bound (exact splitting) degenerates to a plain rank cutoff
    rank = mc.eps_rank(diff, bound if bound > 0 else 1e-12 * max(1.0, norm_a))
    return SplittingReport(A=a, Z=z, e_bound=float(bound), eps_rank=rank,
                           rank_cap=rank_cap)


@dataclass(frozen=True)
class GaussianSketchStats:
    """Monte Carlo summary of pseudoinverse norms of r-by-(r+p) Gaussians."""

    r: int
    p: int
    trials: int
    mean_pinv_fro: float
    expected_pinv_fro: float
    tail_s: float
    tail_fraction: float
    tail_bound: float
    mean_fro: float


def mc_gaussian_props(r: int, p: int, trials: int, seed: int,
                      tail_s: float = 2.0) -> GaussianSketchStats:
    """Empirical check of the Gaussian pseudoinverse norm law and its tail.

    For r-by-(r+p) standard Gaussians with p >= 4 the mean Frobenius norm of
    the pseudoinverse is sqrt(r / (p - 1)), and the probability that it
    exceeds s * sqrt(3r / (p + 1)) is at most s**(-p).  Trial t draws its
    matrix from numpy's default generator seeded with seed + t.
    """
    if p < 4:
        raise ValueError("oversampling p must be >= 4")
    if trials < 100:
        raise ValueError("need at least 100 trials")
    threshold = tail_s * np.sqrt(3.0 * r / (p + 1))
    pinv_norms = np.empty(trials)
    fro_norms = np.empty(trials)
    for t in range(trials):
        omega = np.random.default_rng(seed + t).standard_normal((r, r + p))
        pinv_norms[t] = np.linalg.norm(np.linalg.pinv(omega), "fro")
        fro_norms[t] = np.linalg.norm(omega, "fro")
    return GaussianSketchStats(
        r=r, p=p, trials=trials,
        mean_pinv_fro=float(pinv_norms.mean()),
        expected_pinv_fro=float(np.sqrt(r / (p - 1))),
        tail_s=tail_s,
        tail_fraction=float(np.mean(pinv_norms >= threshold)),
        tail_bound=float(tail_s ** (-p)),
        mean_fro=float(fro_norms.mean()),
    )
