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
from .operators import (LinearOperator, _promote, az_step1_operator, compose,
                        diagonal, materialize)
from .solvers import SolveReport, SolverConfig

STEP1_SOLVERS = {
    "tsvd": lambda op, rhs, config: solvers.tsvd_solve(materialize(op), rhs, config),
    "tqr": lambda op, rhs, config: solvers.tqr_solve(materialize(op), rhs, config),
    "rand-tsvd": solvers.randomized_tsvd_solve,
    "rand-tqr": solvers.randomized_tqr_solve,
}


@dataclass(frozen=True)
class RealForm:
    """A frame in real coordinates: a unitary V (N x N) for which A V, Z V and
    V* G V are real.  A, Z and gram map float64 to float64, and a complex
    block through its real and imaginary parts; gram is V* G V, or None (Z* A
    composed).  A coefficient vector x_r of these coordinates is V x_r in
    the problem's own."""

    A: LinearOperator
    Z: LinearOperator
    gram: LinearOperator | None
    V: LinearOperator


@dataclass(frozen=True)
class AzProblem:
    """A pair of equal-shape operators (A, Z) plus approximation metadata.

    scale is a typical large singular value of A, used to turn relative
    truncation levels into the absolute thresholds the solvers expect.
    grid holds the collocation points (shape (M,) in 1D, (M, 2) in 2D) and
    evaluate, when present, evaluates the approximant built from a
    coefficient vector at arbitrary points of the domain.  Step 1 applies
    (I - A Z*) A as A (I - G), G = Z*A (N by N), on step1_form: the real
    form when there is one (the Fourier frames' cos/sin form, in float64,
    its x1 mapped back by V), else A and Z; the right-hand side, step 2 and
    the residual stay on A and Z.  G is that form's gram (the 1D Fourier
    G_r, the Chebyshev and Legendre G, fourier01's exact I), else Z* composed
    with A (the 2D Fourier real form, the sum frame, a caller's problem).
    """

    A: LinearOperator
    Z: LinearOperator
    label: str = ""
    scale: float = 1.0
    grid: np.ndarray | None = None
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    domain: object | None = None
    gram: LinearOperator | None = None
    real_form: RealForm | None = None

    def __post_init__(self):
        if self.A.shape != self.Z.shape:
            raise ValueError(f"A and Z shapes differ: {self.A.shape} vs {self.Z.shape}")
        n = self.A.cols
        if self.gram is not None and self.gram.shape != (n, n):
            raise ValueError(f"gram has shape {self.gram.shape}, expected {(n, n)}")
        real = self.real_form
        if real is not None:
            if self.gram is not None:
                raise ValueError("gram and real_form both given: step 1 takes G from real_form")
            shapes = (real.A.shape, real.Z.shape, real.V.shape)
            if shapes != (self.A.shape, self.A.shape, (n, n)) or \
                    (real.gram is not None and real.gram.shape != (n, n)):
                raise ValueError(f"real form does not match the {self.A.shape} problem")

    @property
    def step1_form(self) -> RealForm | AzProblem:
        """Where step 1 runs: the real form when there is one, else this problem."""
        return self.real_form or self

    def step1_operator(self) -> LinearOperator:
        """(I - A Z*) A on step1_form, the operator that step 1 factors."""
        f = self.step1_form
        return az_step1_operator(f.A, f.Z, f.gram)


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
    if step1 not in STEP1_SOLVERS:
        raise ValueError(f"unknown step-1 solver {step1!r}; choose from {tuple(STEP1_SOLVERS)}")
    return STEP1_SOLVERS[step1](op, rhs, config)


def default_config(problem: AzProblem, seed: int = 0,
                   eps: float | None = None) -> SolverConfig:
    """Step-1 config with eps defaulting to 1e-10 times the problem scale."""
    if eps is None:
        eps = 1e-10 * problem.scale
    n = problem.A.cols
    sketch_size = min(n, max(1, int(4 * np.log2(n + 1))) + solvers.DEFAULT_OVERSAMPLING)
    return SolverConfig(eps=eps, sketch_size=sketch_size, seed=seed)


def _three_step(problem: AzProblem, b, step1, config: SolverConfig | None) -> SolveReport:
    a, z, real = problem.A, problem.Z, problem.real_form
    b = solvers.check_rhs(b, a.rows)
    if config is None:
        config = default_config(problem)
    rhs = b - a.apply(z.adjoint_apply(b))
    rep1 = _solve_step1(problem.step1_operator(), rhs, step1, config)
    x1 = _promote(rep1.x)
    if x1.shape != (a.cols,):
        raise ValueError(f"x1 has shape {x1.shape}, expected ({a.cols},)")
    if not np.all(np.isfinite(x1)):
        raise ValueError("step 1 returned an x1 with non-finite entries")
    if real is not None:
        x1 = real.V.apply(x1)
    # steps 2-3: one A-apply and one Z*-apply, then one A-apply for the residual
    x2 = z.adjoint_apply(b - a.apply(x1))
    x = x1 + x2
    res = float(np.linalg.norm(b - a.apply(x)))
    return SolveReport(x=x, residual_norm=res, rank_used=rep1.rank_used,
                       sketch_size=rep1.sketch_size, x1=x1, x2=x2)


def az_solve(problem: AzProblem, b, step1="rand-tsvd",
             config: SolverConfig | None = None) -> SolveReport:
    """Run the three-step AZ algorithm with the chosen step-1 solver.

    step1 is a solver name from STEP1_SOLVERS or a callable
    (operator, rhs) -> SolveReport; a callable can also inject a fixed x1.
    On a problem with a real form, step 1, a callable too, gets the real
    step-1 operator, and its x1 is in the real coordinates.
    The reported residual is always ||b - A x|| recomputed from the x
    returned, never taken from step 1.  Nothing casts b: x1 (an injected one
    too), x2 and x are of the promotion of b's, the operators' and float64.
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
    composed with A~.  The rule weights the base's step1_form: a base with
    a real form gives the weighted pair one, and only then no gram.
    """
    base, d = problem.base, problem.d
    pinv = weighted_eps_pinv(d, problem.eps_w)

    gram = base.step1_form.gram
    if not pinv.all():
        gram = diagonal(np.zeros(base.A.cols)) if not pinv.any() else None
    real = base.real_form
    if real is not None:
        real, gram = RealForm(A=compose(diagonal(d), real.A), Z=compose(diagonal(pinv), real.Z),
                              gram=gram, V=real.V), None
    weighted = AzProblem(
        A=compose(diagonal(d), base.A), Z=compose(diagonal(pinv), base.Z),
        scale=base.scale * float(d.max()), gram=gram, real_form=real)
    return _three_step(weighted, d * solvers.check_rhs(b, base.A.rows), step1, config)
