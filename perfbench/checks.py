"""Output checks computed apart from the program.

Each check returns a list of failure messages (empty when the answer is
right); comparisons are written `not value <= tol` so that a NaN fails.
References are built here from the problem's sample points and the
benchmark's own formulas: analytic functions, Vandermonde matrices, dense
weighted least squares.  The program's operators are used only for the
residual identity, which is a property of the method for any A and Z.
The tolerances leave a margin of 100 or more over the values measured on
several seeds, except the dense oracle check (see `References.dense` and
README.md).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev, legendre

from workloads import Case, smooth, trig2d

IDENTITY_TOL = 1e-12      # ||r - (I - A Z*)(b - A x1)|| / (||b|| + ||A x1||), measured <1e-15
REPORTED_TOL = 1e-6       # reported residual against ||b - A x||
F1_RELRES_TOL = 1e-8      # measured ~1e-12
F1_ERR_TOL = 1e-7         # max error / max(1, max |f|) off the grid, measured ~3e-11
F2_RELRES_TOL = 1e-8      # measured ~1e-11
F2_ERR_TOL = 1e-6         # measured ~1e-10
ORACLE_FACTOR = 10.0      # residual within 10x of the dense truncated SVD (or eps ||x_ref||)
WEIGHTED_ORACLE_TOL = 1e-8
WEIGHTED_DFT_TOL = 1e-12
OFF_GRID_POINTS = 256
_CHUNK = 64


def _weights(problem):
    """(W, pinv(W_eps)) as vectors for a weighted problem, (None, None) otherwise."""
    d = getattr(problem, "d", None)
    if d is None:
        return None, None
    keep = d >= problem.eps_w
    pinv = np.zeros_like(d)
    pinv[keep] = 1.0 / d[keep]
    return d, pinv


def residual_identity(case: Case, rep) -> list[str]:
    """The final residual b - A x equals (I - A Z*)(b - A x1); for a weighted
    problem the same holds for W A and pinv(W_eps) Z acting on W b."""
    problem = case.problem
    base = getattr(problem, "base", problem)
    d, pinv = _weights(problem)
    a, z = base.A, base.Z
    b = case.b if d is None else d * case.b

    def apply_a(v):
        av = a.apply(v)
        return av if d is None else d * av

    def apply_az_star(v):
        w = v if d is None else pinv * v
        return apply_a(z.adjoint_apply(w))

    x = np.asarray(rep.x)
    if not np.all(np.isfinite(x)):
        return ["x has non-finite entries"]
    r = b - apply_a(x)
    ax1 = apply_a(np.asarray(rep.x1))
    r1 = b - ax1
    gap = np.linalg.norm(r - (r1 - apply_az_star(r1)))
    # x1 and x2 may be large and cancel (weighted solves at small eps_w reach
    # ||A x1|| ~ 1e5 ||b||), so rounding is measured against the largest term
    bnorm = np.linalg.norm(b)
    scale = bnorm + np.linalg.norm(ax1)
    out = []
    if not gap <= IDENTITY_TOL * scale:
        out.append(f"residual identity off by {gap / scale:.2e} of ||b|| + ||A x1||")
    rnorm = np.linalg.norm(r)
    if not abs(rep.residual_norm - rnorm) <= REPORTED_TOL * rnorm + 1e-13 * bnorm:
        out.append(f"reported residual {rep.residual_norm:.3e} but ||b - A x|| = {rnorm:.3e}")
    return out


def _relres(case: Case, rep) -> float:
    return float(np.linalg.norm(case.b - case.problem.A.apply(rep.x)) / np.linalg.norm(case.b))


def fourier1d(case: Case, rep) -> list[str]:
    """Off-grid error against the analytic f, evaluating sum x_n exp(i pi n t)."""
    x = np.asarray(rep.x)
    half = (x.size - 1) // 2
    freqs = np.arange(-half, half + 1)
    lo, hi = case.problem.domain.intervals[0]
    t = np.random.default_rng(case.truth["points_seed"]).uniform(lo, hi, OFF_GRID_POINTS)
    approx = np.concatenate([np.exp(1j * np.pi * np.outer(t[i:i + _CHUNK], freqs)) @ x
                             for i in range(0, t.size, _CHUNK)])
    exact = smooth(case.truth["f"], t)
    err = float(np.max(np.abs(approx - exact)))
    out = []
    if not err <= F1_ERR_TOL * max(1.0, float(np.max(np.abs(exact)))):
        out.append(f"off-grid error {err:.2e}")
    rel = _relres(case, rep)
    if not rel <= F1_RELRES_TOL:
        out.append(f"relative residual {rel:.2e}")
    return out


def _inside_mask(mask: str, pts: np.ndarray) -> np.ndarray:
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    inside = r2 <= 0.8**2
    return inside & (r2 >= 0.2**2) if mask == "punctured-disk" else inside


def fourier2d(case: Case, rep) -> list[str]:
    """b lies in the frame's span: residual and off-grid error at rounding level."""
    rng = np.random.default_rng(case.truth["points_seed"])
    pts = rng.uniform(-0.8, 0.8, (2 * OFF_GRID_POINTS, 2))
    pts = pts[_inside_mask(case.truth["mask"], pts)][:OFF_GRID_POINTS]
    x = np.asarray(rep.x)
    n = int(round(np.sqrt(x.size)))
    exact = trig2d(case.truth["coeffs"], pts)
    err = float(np.max(np.abs(trig2d(x.reshape(n, n), pts) - exact)))
    out = []
    if not err <= F2_ERR_TOL * float(np.max(np.abs(exact))):
        out.append(f"off-grid error {err:.2e}")
    rel = _relres(case, rep)
    if not rel <= F2_RELRES_TOL:
        out.append(f"relative residual {rel:.2e}")
    return out


class References:
    """Dense references, computed once per problem size and reused by the
    solves of every round (the sample points repeat exactly)."""

    def __init__(self):
        self._svd = {}
        self._weighted = {}

    def _vander_svd(self, kind: str, grid: np.ndarray, n: int):
        key = (kind, n, grid.tobytes())
        if key not in self._svd:
            vander = chebyshev.chebvander if kind == "chebyshev" else legendre.legvander
            v = vander(grid, n - 1)
            self._svd[key] = (v, *np.linalg.svd(v, full_matrices=False))
        return self._svd[key]

    def dense(self, case: Case, rep) -> list[str]:
        """Residual within 10x of a truncated SVD, at the same eps, of the
        Chebyshev or Legendre Vandermonde matrix on the problem's points.

        Criterion 10 floors the oracle's residual at 1e-14 ||b||; here the
        floor is the truncation term eps ||x_ref|| of the residual bound
        ||b - A x|| <= ||b - A v|| + eps ||v|| (criterion 4).  Below it both
        residuals sit under what truncation at eps resolves: at N = 513 the
        oracle's residual ranges over 1e-11..2e-10 from one b to the next
        while the AZ residual stays near 1e-10.
        """
        grid = np.asarray(case.problem.grid)
        v, u, s, vh = self._vander_svd(case.truth["kind"], grid, case.problem.A.cols)
        eps = case.config.eps
        k = int(np.count_nonzero(s >= eps))
        x_ref = vh[:k].conj().T @ ((u[:, :k].conj().T @ case.b) / s[:k])
        oracle = float(np.linalg.norm(case.b - v @ x_ref))
        limit = max(ORACLE_FACTOR * oracle, eps * float(np.linalg.norm(x_ref)))
        res = float(np.linalg.norm(case.b - v @ np.asarray(rep.x)))
        if not res <= limit:
            return [f"residual {res:.2e} above {limit:.2e} (oracle {oracle:.2e})"]
        return []

    def weighted(self, case: Case, rep) -> list[str]:
        """eps_w = 0 gives the discrete Fourier coefficients; eps_w above every
        weight gives the dense weighted least-squares solution."""
        problem = case.problem
        d = problem.d
        if 0.0 < problem.eps_w <= d.max():
            return []
        grid = np.asarray(problem.base.grid)
        n = problem.base.A.cols
        key = (grid.tobytes(), d.tobytes(), case.b.tobytes(), n)
        if key not in self._weighted:
            freqs = np.arange(-(n // 2), n // 2 + 1)
            a = np.exp(2j * np.pi * np.outer(grid, freqs))
            x_dft = a.conj().T @ case.b / grid.size
            x_lsq = np.linalg.lstsq(d[:, None] * a, d * case.b, rcond=None)[0]
            self._weighted[key] = (x_dft, x_lsq)
        x_dft, x_lsq = self._weighted[key]
        x = np.asarray(rep.x)
        if problem.eps_w == 0.0:
            gap = np.linalg.norm(x - x_dft)
            if not gap <= WEIGHTED_DFT_TOL * np.linalg.norm(case.b):
                return [f"eps_w = 0 differs from the Fourier coefficients by {gap:.2e}"]
            return []
        gap = np.linalg.norm(x - x_lsq)
        if not gap <= WEIGHTED_ORACLE_TOL * max(1.0, float(np.linalg.norm(x_lsq))):
            return [f"eps_w > max(d) differs from weighted lstsq by {gap:.2e}"]
        return []

    def check(self, case: Case, rep) -> list[str]:
        """Every check that applies to the case."""
        out = residual_identity(case, rep)
        if out:
            return out
        kind = case.truth["kind"]
        if kind == "fourier1d":
            return fourier1d(case, rep)
        if kind == "fourier2d":
            return fourier2d(case, rep)
        if kind == "weighted":
            return self.weighted(case, rep)
        return self.dense(case, rep)
