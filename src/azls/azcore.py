"""The AZ algorithm and its weighted variant.

Step 1 solves (I - A Z*) A x1 = (I - A Z*) b with a pluggable low-rank
solver; step 2 corrects with x2 = Z* (b - A x1); the answer is x1 + x2,
reported with the residual ||b - A x|| of that answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import solvers
from .operators import (LinearOperator, az_step1_operator, compose, diagonal,
                        materialize)
from .solvers import SolveReport, SolverConfig

DENSE_STEP1_SOLVERS = ("tsvd", "tqr")
RANDOMIZED_STEP1_SOLVERS = ("rand-tsvd", "rand-tqr")
STEP1_SOLVERS = DENSE_STEP1_SOLVERS + RANDOMIZED_STEP1_SOLVERS


@dataclass(frozen=True)
class AzProblem:
    """A pair of equal-shape operators (A, Z) plus approximation metadata.

    scale is a typical large singular value of A, used to turn relative
    truncation levels into the absolute thresholds the solvers expect.
    grid holds the collocation points (shape (M,) in 1D, (M, 2) in 2D) and
    evaluate, when present, evaluates the approximant built from a
    coefficient vector at arbitrary points of the domain.  Step 1 applies
    (I - A Z*) A as A (I - G) with G = Z*A (N by N).  Every extension
    builder gives gram, its own form of G (the Fourier frames' Hermitian
    Toeplitz G, the Chebyshev frame's Toeplitz-plus-Hankel G, the Legendre
    frame's dense G), and fourier01 its exact I; without gram (the sum
    frame, a problem built by the caller) G is Z* composed with A.
    """

    A: LinearOperator
    Z: LinearOperator
    label: str = ""
    scale: float = 1.0
    grid: np.ndarray | None = None
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    domain: object | None = None
    gram: LinearOperator | None = None

    def __post_init__(self):
        if self.A.shape != self.Z.shape:
            raise ValueError(f"A and Z shapes differ: {self.A.shape} vs {self.Z.shape}")
        if self.gram is not None and self.gram.shape != (self.A.cols, self.A.cols):
            raise ValueError(f"gram has shape {self.gram.shape}, expected "
                             f"{(self.A.cols, self.A.cols)}")


@dataclass(frozen=True)
class WeightedAzProblem:
    """A base problem together with positive row weights and the W_eps cut."""

    base: AzProblem
    d: np.ndarray
    eps_w: float

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        if d.shape != (self.base.A.rows,):
            raise ValueError("weight vector length must equal the row count")
        if not np.all((d > 0) & np.isfinite(d)):
            raise ValueError("all weights must be finite and strictly positive")
        if not self.eps_w >= 0:
            raise ValueError("eps_w must be nonnegative")
        object.__setattr__(self, "d", d)


def _solve_step1(op: LinearOperator, rhs: np.ndarray, step1,
                 config: SolverConfig) -> SolveReport:
    if callable(step1):
        return step1(op, rhs)
    if step1 == "rand-tsvd":
        return solvers.randomized_tsvd_solve(op, rhs, config)
    if step1 == "rand-tqr":
        return solvers.randomized_tqr_solve(op, rhs, config)
    if step1 not in DENSE_STEP1_SOLVERS:
        raise ValueError(f"unknown step-1 solver {step1!r}; choose from {STEP1_SOLVERS}")
    dense = materialize(op)
    if step1 == "tsvd":
        return solvers.tsvd_solve(dense, rhs, config.eps)
    return solvers.tqr_solve(dense, rhs, config.eps)


def default_config(problem: AzProblem, seed: int = 0,
                   eps: float | None = None) -> SolverConfig:
    """Step-1 config with eps defaulting to 1e-10 times the problem scale."""
    if eps is None:
        eps = 1e-10 * problem.scale
    n = problem.A.cols
    sketch_size = min(n, max(1, int(4 * np.log2(n + 1))) + solvers.DEFAULT_OVERSAMPLING)
    return SolverConfig(eps=eps, sketch_size=sketch_size, seed=seed)


def _rhs(b, rows: int) -> np.ndarray:
    """b as a finite complex vector of length rows, else a ValueError."""
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != (rows,):
        raise ValueError(f"b has shape {b.shape}, expected ({rows},)")
    if not np.all(np.isfinite(b)):
        raise ValueError("b contains non-finite entries")
    return b


def _three_step(problem: AzProblem, b, step1, config: SolverConfig | None) -> SolveReport:
    a, z = problem.A, problem.Z
    b = _rhs(b, a.rows)
    if config is None:
        config = default_config(problem)
    op1 = az_step1_operator(a, z, problem.gram)
    rhs = b - np.asarray(a.apply(z.adjoint_apply(b)), dtype=np.complex128)
    rep1 = _solve_step1(op1, rhs, step1, config)
    x1 = np.asarray(rep1.x, dtype=np.complex128)
    if x1.shape != (a.cols,):
        raise ValueError(f"x1 has shape {x1.shape}, expected ({a.cols},)")
    if not np.all(np.isfinite(x1)):
        raise ValueError("step 1 returned an x1 with non-finite entries")
    # steps 2-3: one A-apply and one Z*-apply, then one A-apply for the residual
    r1 = b - np.asarray(a.apply(x1), dtype=np.complex128)
    x2 = np.asarray(z.adjoint_apply(r1), dtype=np.complex128)
    x = x1 + x2
    res = float(np.linalg.norm(b - a.apply(x)))
    return SolveReport(x=x, residual_norm=res, rank_used=rep1.rank_used,
                       sketch_size=rep1.sketch_size, x1=x1, x2=x2)


def az_solve(problem: AzProblem, b, step1="rand-tsvd",
             config: SolverConfig | None = None) -> SolveReport:
    """Run the three-step AZ algorithm with the chosen step-1 solver.

    step1 is a solver name from STEP1_SOLVERS or a callable
    (operator, rhs) -> SolveReport; a callable can also inject a fixed x1.
    The reported residual is always ||b - A x|| recomputed from the x
    returned, never taken from step 1.
    """
    return _three_step(problem, b, step1, config)


def weighted_eps_pinv(d: np.ndarray, eps_w: float) -> np.ndarray:
    """Entrywise pseudoinverse of the thresholded weight diagonal.

    Entries with d_i < eps_w are dropped (zero); the boundary d_i == eps_w
    is retained.
    """
    d = np.asarray(d, dtype=np.float64)
    out = np.zeros_like(d)
    keep = d >= eps_w
    out[keep] = 1.0 / d[keep]
    return out


def az_weighted_solve(problem: WeightedAzProblem, b, step1: str = "tsvd",
                      config: SolverConfig | None = None) -> SolveReport:
    """AZ for the weighted system W A x = W b with Z~ = pinv(W_eps) Z.

    The weighted pair is an AzProblem of its own, solved on d b; its scale is
    the base scale times max d, so the default eps is 1e-10 of that.  Its
    G~ = Z~* W A = Z* pinv(W_eps) W A is the base G when no weight is dropped
    and 0 when every weight is (then Z~ = 0); only in between is it Z~*
    composed with A~.
    """
    base, d = problem.base, problem.d
    pinv = weighted_eps_pinv(d, problem.eps_w)
    gram = None
    if pinv.all():
        gram = base.gram
    elif not pinv.any():
        gram = diagonal(np.zeros(base.A.cols))
    weighted = AzProblem(
        A=compose(diagonal(d), base.A), Z=compose(diagonal(pinv), base.Z),
        scale=base.scale * float(d.max()), gram=gram)
    return _three_step(weighted, d * _rhs(b, base.A.rows), step1, config)
