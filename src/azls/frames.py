"""Problem builders: extension frames, Gram matrices, weighted sum frames.

All builders return an AzProblem whose A and Z are matrix-free operators.
Grid convention for the Fourier builders: x_l = -1 + 2l/L, l = 0..L-1 (left
endpoint included).  The basis functions are phi_n(x) = exp(i*pi*n*x), so
that on the full grid the columns of A are orthogonal with A*A = L*I and
Z = A/L is an exact discrete dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.fft

from . import transforms
from .azcore import AzProblem, WeightedAzProblem
from .operators import LinearOperator, compose, diagonal, from_dense, hstack, scale

_MAX_GRID_GROWTH = 200
# entries of the point-by-frequency matrix built per block when evaluating a
# Fourier extension approximant (16 MiB of complex128)
_EVAL_BLOCK_ENTRIES = 1 << 20


class DomainSizingError(ValueError):
    """The domain holds too few grid points for the requested frame size."""


@dataclass(frozen=True)
class DomainSpec:
    """Either a union of disjoint 1D intervals in [-1,1] or a 2D mask."""

    intervals: tuple[tuple[float, float], ...] | None = None
    mask: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if (self.intervals is None) == (self.mask is None):
            raise ValueError("specify exactly one of intervals or mask")
        if self.intervals is not None:
            iv = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
            if not iv:
                raise ValueError("interval union must be nonempty")
            for lo, hi in iv:
                if not (-1.0 <= lo < hi <= 1.0):
                    raise ValueError(f"bad interval [{lo}, {hi}]")
            for (_, hi), (lo, _) in zip(iv, iv[1:]):
                if hi > lo:
                    raise ValueError("intervals must be disjoint and sorted")
            object.__setattr__(self, "intervals", iv)

    @property
    def is_2d(self) -> bool:
        return self.mask is not None

    @classmethod
    def interval(cls, lo: float, hi: float) -> "DomainSpec":
        return cls(intervals=((lo, hi),))

    @classmethod
    def union(cls, intervals: Sequence[Sequence[float]]) -> "DomainSpec":
        return cls(intervals=tuple((lo, hi) for lo, hi in intervals))

    @classmethod
    def from_mask(cls, mask) -> "DomainSpec":
        return cls(mask=mask)

    def contains_1d(self, x: np.ndarray) -> np.ndarray:
        if self.intervals is None:
            raise ValueError("not a 1D domain")
        inside = np.zeros(x.shape, dtype=bool)
        for lo, hi in self.intervals:
            inside |= (x >= lo) & (x <= hi)
        return inside

    def measure_1d(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def to_json(self) -> list:
        return [[lo, hi] for lo, hi in self.intervals]

    @classmethod
    def from_json(cls, data) -> "DomainSpec":
        return cls.union(data)


def named_mask(name: str) -> DomainSpec:
    """2D masks used by the CLI: disk, punctured-disk, square."""
    if name == "disk":
        return DomainSpec.from_mask(lambda x, y: x**2 + y**2 <= 0.8**2)
    if name == "punctured-disk":
        return DomainSpec.from_mask(
            lambda x, y: (x**2 + y**2 <= 0.8**2) & (x**2 + y**2 >= 0.2**2))
    if name == "square":
        return DomainSpec.from_mask(lambda x, y: (np.abs(x) <= 0.9) & (np.abs(y) <= 0.9))
    raise ValueError(f"unknown mask {name!r}")


def _call_on_grid(f, grid: np.ndarray) -> np.ndarray:
    if grid.ndim == 2:
        return np.asarray(f(grid[:, 0], grid[:, 1]))
    return np.asarray(f(grid))


def sample_function(f, grid) -> np.ndarray:
    """Pointwise samples of f on a collocation grid, as a complex vector."""
    return _call_on_grid(f, np.asarray(grid)).astype(np.complex128)


def _symmetric_frequencies(n: int) -> np.ndarray:
    if n < 1 or n % 2 == 0:
        raise ValueError("frequency count N must be odd and positive")
    half = (n - 1) // 2
    return np.arange(-half, half + 1)


def _select_grid_size(n: int, oversampling: float, count_inside, grid_size: int | None):
    """Smallest L >= 2*oversampling*N whose grid puts >= oversampling*N points
    inside the domain.  A pinned grid_size only needs M >= N."""
    target = max(n, math.ceil(oversampling * n))
    if grid_size is not None:
        m = count_inside(grid_size)
        if m < n:
            raise DomainSizingError(
                f"grid_size {grid_size} yields only M={m} points for N={n}")
        return grid_size, m
    L = max(n, math.ceil(2 * oversampling * n))
    for _ in range(_MAX_GRID_GROWTH):
        m = count_inside(L)
        if m >= target:
            return L, m
        frac = max(m / L, 1.0 / L)
        L = max(L + 1, math.ceil(target / frac))
    raise DomainSizingError(f"domain too small: achieved M={m} < {target} at L={L}")


def fourier_extension_1d(n: int, domain: DomainSpec, oversampling: float = 2.0,
                         grid_size: int | None = None) -> AzProblem:
    """Fourier extension frame on a 1D domain inside [-1, 1].

    A maps N coefficients to samples of sum_n c_n exp(i*pi*n*x) at the grid
    points inside the domain (frequency extension, length-L inverse DFT,
    restriction).  Z = A / L.
    """
    freqs = _symmetric_frequencies(n)
    if domain.is_2d:
        raise ValueError("fourier_extension_1d needs a 1D domain")

    def count_inside(L):
        return int(np.count_nonzero(domain.contains_1d(-1.0 + 2.0 * np.arange(L) / L)))

    L, m = _select_grid_size(n, oversampling, count_inside, grid_size)
    full = -1.0 + 2.0 * np.arange(L) / L
    sel = np.nonzero(domain.contains_1d(full))[0]
    bins = np.mod(freqs, L)
    phase = (-1.0) ** np.abs(freqs)  # exp(-i*pi*n) at the grid offset x_0 = -1

    def apply(c):
        c = np.asarray(c, dtype=np.complex128)
        u = np.zeros((L,) + c.shape[1:], dtype=np.complex128)
        u[bins] = phase.reshape((-1,) + (1,) * (c.ndim - 1)) * c
        return (np.fft.ifft(u, axis=0) * L)[sel]

    def adjoint_apply(v):
        v = np.asarray(v, dtype=np.complex128)
        u = np.zeros((L,) + v.shape[1:], dtype=np.complex128)
        u[sel] = v
        y = np.fft.fft(u, axis=0)
        return phase.reshape((-1,) + (1,) * (v.ndim - 1)) * y[bins]

    a = LinearOperator(m, n, apply, adjoint_apply)
    z = scale(1.0 / L, a)

    def evaluate(coeffs, pts):
        pts = np.asarray(pts, dtype=np.float64).ravel()
        coeffs = np.asarray(coeffs)
        rows = max(1, _EVAL_BLOCK_ENTRIES // n)
        out = np.empty((pts.size,) + coeffs.shape[1:], dtype=np.complex128)
        for i in range(0, pts.size, rows):
            out[i:i + rows] = np.exp(1j * np.pi * np.outer(pts[i:i + rows], freqs)) @ coeffs
        return out

    return AzProblem(A=a, Z=z, label=f"fourier1d(N={n}, L={L})",
                     scale=math.sqrt(L), grid=full[sel], evaluate=evaluate,
                     domain=domain)


def fourier_extension_2d(n_per_dim: int, mask: DomainSpec,
                         oversampling: float = 2.0,
                         grid_size: int | None = None) -> AzProblem:
    """Tensor Fourier extension frame on a masked subset of [-1, 1]^2.

    Coefficients are row-major over (n1, n2); Z = A / L^2.
    """
    freqs = _symmetric_frequencies(n_per_dim)
    if not mask.is_2d:
        raise ValueError("fourier_extension_2d needs a 2D mask domain")
    n_total = n_per_dim**2

    def inside(L):
        g = -1.0 + 2.0 * np.arange(L) / L
        xx, yy = np.meshgrid(g, g, indexing="ij")
        return np.asarray(mask.mask(xx.ravel(), yy.ravel()), dtype=bool)

    # per-dimension sizing: grow L until the masked point count reaches
    # oversampling * N (total)
    target = max(n_total, math.ceil(oversampling * n_total))
    if grid_size is not None:
        L = grid_size
        keep = inside(L)
    else:
        L = max(n_per_dim, math.ceil(2 * oversampling * n_per_dim))
        for _ in range(_MAX_GRID_GROWTH):
            keep = inside(L)
            if int(np.count_nonzero(keep)) >= target:
                break
            L = max(L + 1, math.ceil(L * 1.2))
        else:
            raise DomainSizingError(
                f"mask too small: M={int(np.count_nonzero(keep))} < {target}")
    m = int(np.count_nonzero(keep))
    if m < n_total:
        raise DomainSizingError(f"mask yields only M={m} points for N={n_total}")
    sel = np.nonzero(keep)[0]
    g = -1.0 + 2.0 * np.arange(L) / L
    xx, yy = np.meshgrid(g, g, indexing="ij")
    grid_pts = np.column_stack([xx.ravel()[sel], yy.ravel()[sel]])
    bins = np.mod(freqs, L)
    phase2 = np.outer((-1.0) ** np.abs(freqs), (-1.0) ** np.abs(freqs))

    def apply(c):
        c = np.asarray(c, dtype=np.complex128)
        if c.ndim == 2:
            return np.stack([apply(col) for col in c.T], axis=1)
        u = np.zeros((L, L), dtype=np.complex128)
        u[np.ix_(bins, bins)] = phase2 * c.reshape(n_per_dim, n_per_dim)
        f = np.fft.ifft2(u) * L**2
        return f.ravel()[sel]

    def adjoint_apply(v):
        v = np.asarray(v, dtype=np.complex128)
        if v.ndim == 2:
            return np.stack([adjoint_apply(col) for col in v.T], axis=1)
        u = np.zeros(L * L, dtype=np.complex128)
        u[sel] = v
        y = np.fft.fft2(u.reshape(L, L))
        return (phase2 * y[np.ix_(bins, bins)]).ravel()

    a = LinearOperator(m, n_total, apply, adjoint_apply)
    z = scale(1.0 / L**2, a)

    def evaluate(coeffs, pts):
        pts = np.asarray(pts, dtype=np.float64)
        c = np.asarray(coeffs).reshape(n_per_dim, n_per_dim)
        ex = np.exp(1j * np.pi * np.outer(pts[:, 0], freqs))
        ey = np.exp(1j * np.pi * np.outer(pts[:, 1], freqs))
        return np.einsum("pi,ij,pj->p", ex, c, ey)

    return AzProblem(A=a, Z=z, label=f"fourier2d(N={n_per_dim}^2, L={L})",
                     scale=float(L), grid=grid_pts, evaluate=evaluate, domain=mask)


def gram_fourier(n: int, domain: DomainSpec) -> np.ndarray:
    """Gram matrix of the orthonormal Fourier basis restricted to the domain.

    G[j, k] = (1/2) * integral over the interval union of exp(i*pi*(n_j - n_k)*x).
    Hermitian; diagonal entries equal half the domain measure.
    """
    if domain.is_2d:
        raise ValueError("gram_fourier needs a 1D interval union")
    freqs = _symmetric_frequencies(n)
    diff = freqs[:, None] - freqs[None, :]
    g = np.zeros((n, n), dtype=np.complex128)
    for lo, hi in domain.intervals:
        with np.errstate(divide="ignore", invalid="ignore"):
            term = (np.exp(1j * np.pi * diff * hi) - np.exp(1j * np.pi * diff * lo)) \
                / (2j * np.pi * diff)
        term[diff == 0] = (hi - lo) / 2.0
        g += term
    return 0.5 * (g + g.conj().T)


def _cheb_weights(L: int, kind: str):
    """Quadrature weights w_l and squared norms h_k^2 of the discrete
    Chebyshev orthogonality sum_l w_l T_i(x_l) T_j(x_l) = h_i^2 delta_ij."""
    if kind == "roots":
        w = np.full(L, np.pi / L)
        h2 = np.full(L, np.pi / 2.0)
        h2[0] = np.pi
    else:
        w = np.full(L, np.pi / (L - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        h2 = np.full(L, np.pi / 2.0)
        h2[0] = np.pi
        h2[-1] = np.pi
    return w, h2


def _cheb_series_at_nodes(c: np.ndarray, L: int, kind: str) -> np.ndarray:
    """Evaluate a length-L Chebyshev coefficient vector at the L nodes
    (increasing order)."""
    if kind == "roots":
        return transforms.chebyshev_evaluate(c)
    x = c.copy()
    x[1:-1] *= 0.5
    return scipy.fft.dct(x, type=1, axis=0)[::-1]


def _cheb_nodes_to_modes(u: np.ndarray, L: int, kind: str) -> np.ndarray:
    """Apply F^T: mode k gets sum_l u_l T_k(x_l), u in increasing node order."""
    nat = u[::-1]  # natural DCT ordering runs over decreasing x
    if kind == "roots":
        return scipy.fft.dct(nat, type=2, axis=0) * 0.5
    # DCT-I double-counts interior terms relative to the plain sum
    y = scipy.fft.dct(nat, type=1, axis=0)
    sign = (-1.0) ** np.arange(L)
    shape = (-1,) + (1,) * (u.ndim - 1)
    return 0.5 * (y + nat[0] + sign.reshape(shape) * nat[-1])


def chebyshev_extension(n: int, domain: DomainSpec, oversampling: float = 2.0,
                        kind: str = "roots",
                        grid_size: int | None = None) -> AzProblem:
    """Chebyshev extension frame: series of length N sampled at the Chebyshev
    nodes (roots of T_L or extremae grid) that fall inside the domain.

    Z is the matching subblock of the discrete dual W F D, so that on the
    full grid Z* A = I.
    """
    if domain.is_2d:
        raise ValueError("chebyshev_extension needs a 1D domain")
    if kind not in ("roots", "extremae"):
        raise ValueError(f"unknown node kind {kind!r}")

    def count_inside(L):
        if kind == "extremae" and L < 2:
            return 0
        return int(np.count_nonzero(domain.contains_1d(transforms.chebyshev_nodes(L, kind))))

    L, m = _select_grid_size(n, oversampling, count_inside, grid_size)
    nodes = transforms.chebyshev_nodes(L, kind)
    sel = np.nonzero(domain.contains_1d(nodes))[0]
    w, h2 = _cheb_weights(L, kind)
    w_sel = w[sel]
    d = 1.0 / h2[:n]

    def _pad(c):
        c = np.asarray(c, dtype=np.complex128)
        u = np.zeros((L,) + c.shape[1:], dtype=np.complex128)
        u[:n] = c
        return u

    def apply(c):
        return _cheb_series_at_nodes(_pad(c), L, kind)[sel]

    def adjoint_apply(v):
        v = np.asarray(v, dtype=np.complex128)
        u = np.zeros((L,) + v.shape[1:], dtype=np.complex128)
        u[sel] = v
        return _cheb_nodes_to_modes(u, L, kind)[:n]

    def z_apply(c):
        c = np.asarray(c, dtype=np.complex128)
        dc = d.reshape((-1,) + (1,) * (c.ndim - 1)) * c
        vals = _cheb_series_at_nodes(_pad(dc), L, kind)[sel]
        return w_sel.reshape((-1,) + (1,) * (c.ndim - 1)) * vals

    def z_adjoint_apply(v):
        v = np.asarray(v, dtype=np.complex128)
        u = np.zeros((L,) + v.shape[1:], dtype=np.complex128)
        u[sel] = w_sel.reshape((-1,) + (1,) * (v.ndim - 1)) * v
        y = _cheb_nodes_to_modes(u, L, kind)[:n]
        return d.reshape((-1,) + (1,) * (v.ndim - 1)) * y

    a = LinearOperator(m, n, apply, adjoint_apply)
    z = LinearOperator(m, n, z_apply, z_adjoint_apply)

    def evaluate(coeffs, pts):
        return np.polynomial.chebyshev.chebval(np.asarray(pts, dtype=np.float64),
                                               np.asarray(coeffs))

    return AzProblem(A=a, Z=z, label=f"chebyshev(N={n}, L={L}, {kind})",
                     scale=math.sqrt(L / 2.0), grid=nodes[sel], evaluate=evaluate,
                     domain=domain)


def legendre_extension(n: int, domain: DomainSpec, oversampling: float = 2.0,
                       grid_size: int | None = None) -> AzProblem:
    """Legendre extension frame on Gauss-Legendre nodes, dense operators.

    Rows are points, columns are degrees 0..N-1 (A[m, j] = P_j(x_m)); Z is
    the matching subblock of W F D with the Gauss-Legendre weights W and
    D = diag(1 / h_j^2), h_j^2 = 2 / (2j + 1).
    """
    if domain.is_2d:
        raise ValueError("legendre_extension needs a 1D domain")

    rules: dict[int, transforms.QuadratureRule] = {}

    def rule_for(L):
        if L not in rules:
            rules[L] = transforms.gauss_legendre(L)
        return rules[L]

    def count_inside(L):
        return int(np.count_nonzero(domain.contains_1d(rule_for(L).nodes)))

    L, m = _select_grid_size(n, oversampling, count_inside, grid_size)
    rule = rule_for(L)
    sel = np.nonzero(domain.contains_1d(rule.nodes))[0]
    nodes = rule.nodes[sel]
    p = transforms.legendre_eval(n - 1, nodes)
    h2 = 2.0 / (2.0 * np.arange(n) + 1.0)
    a_mat = p.astype(np.complex128)
    z_mat = (rule.weights[sel][:, None] * p / h2).astype(np.complex128)

    def evaluate(coeffs, pts):
        return transforms.legendre_eval(n - 1, np.asarray(pts, dtype=np.float64)) \
            @ np.asarray(coeffs)

    return AzProblem(A=from_dense(a_mat), Z=from_dense(z_mat),
                     label=f"legendre(N={n}, L={L})", scale=math.sqrt(L),
                     grid=nodes, evaluate=evaluate, domain=domain)


def weighted_sum_frame(base: AzProblem, w1, w2) -> AzProblem:
    """Two weighted copies of a base frame: A = [W1*A_phi  W2*A_phi] with the
    canonical dual Z = [Winv*W1*Z_phi  Winv*W2*Z_phi], Winv = 1/(|w1|^2+|w2|^2).
    """
    if base.grid is None or base.evaluate is None:
        raise ValueError("base problem needs grid and evaluate metadata")
    w1g = _call_on_grid(w1, base.grid).astype(np.complex128)
    w2g = _call_on_grid(w2, base.grid).astype(np.complex128)
    wg = np.abs(w1g) ** 2 + np.abs(w2g) ** 2
    if np.any(wg <= 0):
        raise ValueError("dual frame does not exist: w1(x)^2 + w2(x)^2 must be "
                         "positive on the whole grid")
    a = hstack(compose(diagonal(w1g), base.A), compose(diagonal(w2g), base.A))
    z = hstack(compose(diagonal(w1g / wg), base.Z),
               compose(diagonal(w2g / wg), base.Z))
    n = base.A.cols

    def evaluate(coeffs, pts):
        coeffs = np.asarray(coeffs)
        pts_arr = np.asarray(pts)
        v1 = _call_on_grid(w1, pts_arr) * base.evaluate(coeffs[:n], pts)
        v2 = _call_on_grid(w2, pts_arr) * base.evaluate(coeffs[n:], pts)
        return v1 + v2

    return AzProblem(A=a, Z=z, label=f"sumframe({base.label})",
                     scale=base.scale * float(np.sqrt(wg.real.max())),
                     grid=base.grid, evaluate=evaluate, domain=base.domain)


def weighted_lsq(base: AzProblem, d, eps_w: float) -> WeightedAzProblem:
    """Wrap a base problem with positive row weights for W A x = W b."""
    if callable(d):
        if base.grid is None:
            raise ValueError("weight callable needs grid metadata on the problem")
        d = _call_on_grid(d, base.grid)
    d = np.asarray(d, dtype=np.float64)
    return WeightedAzProblem(base=base, d=d, eps_w=float(eps_w))


def weighted_oracle_solve(a_dense, d, b) -> np.ndarray:
    """Dense weighted least squares reference: minimize ||W(Ax - b)||."""
    wa = np.asarray(d)[:, None] * np.asarray(a_dense, dtype=np.complex128)
    wb = np.asarray(d) * np.asarray(b, dtype=np.complex128)
    x, *_ = np.linalg.lstsq(wa, wb, rcond=None)
    return x


def fourier_lsq_equispaced(n: int, m: int) -> AzProblem:
    """Periodic Fourier least squares on [0, 1): N terms, M >= N equispaced
    samples x_j = j/M.  Discrete orthogonality gives the exact dual Z = A/M.
    """
    freqs = _symmetric_frequencies(n)
    if m < n:
        raise ValueError("need at least as many samples as terms")
    grid = np.arange(m) / m
    a_mat = np.exp(2j * np.pi * np.outer(grid, freqs))

    def evaluate(coeffs, pts):
        pts = np.asarray(pts, dtype=np.float64)
        return np.exp(2j * np.pi * np.outer(pts, freqs)) @ np.asarray(coeffs)

    a = from_dense(a_mat)
    return AzProblem(A=a, Z=scale(1.0 / m, a), label=f"fourier01(N={n}, M={m})",
                     scale=math.sqrt(m), grid=grid, evaluate=evaluate)


def refined_grid(problem: AzProblem, refine: int = 4) -> np.ndarray:
    """An evaluation grid at least `refine` times finer than the collocation
    grid, restricted to the problem domain."""
    if problem.grid is None:
        raise ValueError("problem has no grid metadata")
    grid = np.asarray(problem.grid)
    if grid.ndim == 2:
        if problem.domain is None or not problem.domain.is_2d:
            raise ValueError("2D refinement needs the mask domain")
        # collocation grid spacing ~ 2/L with L ~ sqrt of bounding-grid count
        L = int(math.ceil(math.sqrt(grid.shape[0]))) * refine
        g = -1.0 + 2.0 * np.arange(L) / L
        xx, yy = np.meshgrid(g, g, indexing="ij")
        keep = np.asarray(problem.domain.mask(xx.ravel(), yy.ravel()), dtype=bool)
        return np.column_stack([xx.ravel()[keep], yy.ravel()[keep]])
    if problem.domain is not None and problem.domain.intervals is not None:
        total = refine * grid.size
        pieces = []
        measure = problem.domain.measure_1d()
        for lo, hi in problem.domain.intervals:
            k = max(2, int(round(total * (hi - lo) / measure)))
            pieces.append(np.linspace(lo, hi, k))
        return np.concatenate(pieces)
    lo, hi = float(grid.min()), float(grid.max())
    return np.linspace(lo, hi, refine * grid.size)


def eval_error(problem: AzProblem, x, f, refine: int = 4) -> dict:
    """Max and RMS error of the approximant against f on a refined grid."""
    pts = refined_grid(problem, refine)
    approx = np.asarray(problem.evaluate(np.asarray(x), pts))
    exact = _call_on_grid(f, pts).astype(np.complex128)
    err = np.abs(approx - exact)
    return {"max_err": float(err.max()),
            "l2_err": float(np.sqrt(np.mean(err**2)))}
