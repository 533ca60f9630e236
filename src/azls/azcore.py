"""The AZ algorithm and its weighted variant.

Step 1 solves (I - A Z*) A x1 = (I - A Z*) b with a pluggable low-rank
solver; step 2 corrects with x2 = Z* (b - A x1); the answer is x1 + x2,
reported with the residual ||b - A x|| of that answer.  A problem with a
real form runs all three steps on it and maps x to the caller's basis; one
with a rows map runs them on rows* b and takes the residual on the
caller's samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import solvers
from .operators import (LinearOperator, _promote, adjoint, compose, diagonal,
                        materialize)
from .solvers import SolveReport, SolverConfig

STEP1_SOLVERS = {
    "tsvd": lambda op, rhs, config: solvers.tsvd_solve(materialize(op), rhs, config),
    "tqr": lambda op, rhs, config: solvers.tqr_solve(materialize(op), rhs, config),
    "rand-tsvd": solvers.randomized_tsvd_solve,
    "rand-tqr": solvers.randomized_tqr_solve,
}


@dataclass(frozen=True)
class AzProblem:
    """A pair of equal-shape operators (A, Z) plus approximation metadata.

    scale is a typical large singular value of A, used to turn relative
    truncation levels into the absolute thresholds the solvers expect (the
    default eps is 1e-10 scale); a caller's problem defaults to 1.0.  The
    builders set it analytically, not to sigma_1: sqrt(L^dim) for the
    Fourier frames, which is sigma_1 to 0.5% (1D N = 8193, 2D n = 25,
    fourier01 at N = 301 weighted by (x - 1/2)^2), sqrt(L) for Legendre
    (1.61 sigma_1 at N = 401) and sqrt(L / 2) for Chebyshev (0.87 sigma_1
    at N = 513).
    grid holds the collocation points (shape (M,) in 1D, (M, 2) in 2D) and
    evaluate, when present, evaluates the approximant built from a
    coefficient vector at arbitrary points of the domain.  Step 1 applies
    (I - A Z*) A as A (I - G), G = Z*A (N by N): gram when given (the 1D
    and 2D Fourier G_r, fourier01's exact G_r = I, the Chebyshev and
    Legendre G), else Z* composed with A (the sum frame, a weighted problem
    that drops some weights, a caller's problem).  coefficients maps this
    problem's x to the caller's basis (None: the identity), and rows, an
    M x K map with orthonormal columns, maps its K rows to the caller's M
    samples (None: the identity; the 2D Fourier real form's A_c, with
    A_r = rows A_c): the steps run on rows* b, whose dropped part is
    orthogonal to range(A), and the residual on the caller's samples, by
    on_samples(A) = rows A.  real_form, when
    given, is the problem that all three steps run on (every Fourier
    frame's cos/sin form, fourier01's too: real and in float64, its
    coefficients the unitary V, or D V with D = diag((-1)^k) for
    fourier01); A and Z are then only the caller's view of it, and a gram,
    coefficients or rows beside it is a ValueError: the solve takes them
    from the real form.
    """

    A: LinearOperator
    Z: LinearOperator
    label: str = ""
    scale: float = 1.0
    grid: np.ndarray | None = None
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    domain: object | None = None
    gram: LinearOperator | None = None
    coefficients: LinearOperator | None = None
    rows: LinearOperator | None = None
    real_form: AzProblem | None = None

    def __post_init__(self):
        if self.A.shape != self.Z.shape:
            raise ValueError(f"A and Z shapes differ: {self.A.shape} vs {self.Z.shape}")
        n = self.A.cols
        for name in ("gram", "coefficients"):
            op = getattr(self, name)
            if op is not None and op.shape != (n, n):
                raise ValueError(f"{name} has shape {op.shape}, expected {(n, n)}")
        if self.rows is not None and self.rows.cols != self.A.rows:
            raise ValueError(f"rows has shape {self.rows.shape}, expected (M, {self.A.rows})")
        real = self.real_form
        if real is not None:
            for name in ("gram", "coefficients", "rows"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} and real_form both given: "
                                     f"the solve takes {name} from real_form")
            if (real.sample_rows, real.A.cols) != self.A.shape or real.real_form is not None:
                raise ValueError(f"real form does not match the {self.A.shape} problem")

    @property
    def sample_rows(self) -> int:
        """M, the caller's sample count: the rows of `rows` when given, else of A."""
        return (self.rows or self.A).rows

    def on_samples(self, op: LinearOperator) -> LinearOperator:
        """op (A or Z) on the caller's M samples: rows composed with op."""
        return op if self.rows is None else compose(self.rows, op)

    def step1_operator(self) -> LinearOperator:
        """(I - A Z*) A = A (I - G), which step 1 factors, on the real form when
        there is one: one A- and one G-apply a column; the adjoint (I - G*) A*."""
        p = self.real_form or self
        a, gram = p.A, p.gram
        if gram is None:
            gram = compose(adjoint(p.Z), a)

        def apply(v):
            v = _promote(v)
            return a.apply(v - gram.apply(v))

        def adjoint_apply(w):
            u = _promote(a.adjoint_apply(w))
            return u - gram.adjoint_apply(u)

        return LinearOperator(a.rows, a.cols, apply, adjoint_apply)


@dataclass(frozen=True)
class WeightedAzProblem:
    """A base problem together with positive weights, one per sample of the
    base (its sample_rows), and the W_eps cut."""

    base: AzProblem
    d: np.ndarray
    eps_w: float

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        if d.shape != (self.base.sample_rows,):
            raise ValueError("weight vector length must equal the sample count")
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
    p = problem.real_form or problem
    a, z = p.A, p.Z
    b = solvers.check_rhs(b, p.sample_rows)
    if config is None:
        config = default_config(problem)
    # all three steps run on rows* b: rows* (I - A Z*) b is the compressed
    # right-hand side, and the part of b that rows* drops is orthogonal to A
    b_a = b if p.rows is None else p.rows.adjoint_apply(b)
    rhs = b_a - a.apply(z.adjoint_apply(b_a))
    rep1 = _solve_step1(p.step1_operator(), rhs, step1, config)
    x1 = _promote(rep1.x)
    if x1.shape != (a.cols,):
        raise ValueError(f"x1 has shape {x1.shape}, expected ({a.cols},)")
    if not np.all(np.isfinite(x1)):
        raise ValueError("step 1 returned an x1 with non-finite entries")
    # steps 2-3: one A-apply and one Z*-apply, then one A-apply for the
    # residual, on the caller's samples
    x2 = z.adjoint_apply(b_a - a.apply(x1))
    res = solvers._norm(b - p.on_samples(a).apply(x1 + x2))
    if p.coefficients is not None:
        x1, x2 = p.coefficients.apply(x1), p.coefficients.apply(x2)
    return SolveReport(x=x1 + x2, residual_norm=res, rank_used=rep1.rank_used,
                       sketch_size=rep1.sketch_size, x1=x1, x2=x2)


def az_solve(problem: AzProblem, b, step1="rand-tsvd",
             config: SolverConfig | None = None) -> SolveReport:
    """Run the three-step AZ algorithm with the chosen step-1 solver.

    step1 is a solver name from STEP1_SOLVERS or a callable
    (operator, rhs) -> SolveReport; a callable can also inject a fixed x1.
    On a problem with a real form, all three steps run on it: step 1, a
    callable too, gets its step-1 operator, an x1 is in its coordinates, and
    the report's x1 and x2 are mapped to the caller's basis by its
    coefficients.  With a rows map the steps run on rows* b.  The reported
    residual is always ||b - A x|| on the caller's samples, recomputed from
    the x of the steps, never taken from step 1.  Nothing casts b: x1
    (an injected one too), x2 and x are of the promotion of b's, the
    operators' and float64, and then of the coefficient map's.
    """
    return _three_step(problem, b, step1, config)


def az_weighted_solve(problem: WeightedAzProblem, b, step1: str = "tsvd",
                      config: SolverConfig | None = None) -> SolveReport:
    """AZ for the weighted system W A x = W b with Z~ = pinv(W_eps) Z.

    W_eps keeps the weights d_i >= eps_w (one equal to eps_w too) and drops
    the rest, so Z~ = diag(where(keep, 1/d, 0)) Z.  The weighted pair is an
    AzProblem of its own, solved on d b: the base's real form when it has
    one, else the base, weighted, with the same coefficients.  W does not
    commute with a rows map, so the weights act on rows A and rows Z, on the
    caller's samples, and the weighted problem has no rows.  Its scale is
    the base scale times max d, so the default eps is 1e-10 of that.  Its
    G~ = Z~* W A = Z* pinv(W_eps) W A is the unweighted pair's G when every
    weight is kept and 0 when none is (then Z~ = 0); only in between is it
    Z~* composed with A~.
    """
    base, d = problem.base, problem.d
    p = base.real_form or base
    keep = d >= problem.eps_w
    gram = p.gram if keep.all() else (None if keep.any() else diagonal(np.zeros(p.A.cols)))
    weighted = AzProblem(
        A=compose(diagonal(d), p.on_samples(p.A)),
        Z=compose(diagonal(np.where(keep, 1.0 / d, 0.0)), p.on_samples(p.Z)),
        scale=base.scale * float(d.max()), gram=gram, coefficients=p.coefficients)
    return _three_step(weighted, d * solvers.check_rhs(b, p.sample_rows), step1, config)
