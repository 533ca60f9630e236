"""Problem builders: extension frames, Gram matrices, weighted sum frames.

All builders return an AzProblem whose A and Z are matrix-free operators.
Every fast operator is a pair of row kernels behind `_chunked`, which shows
a block of k columns to them as k rows and runs them a chunk of rows at a
time, so each kernel transforms along the last axis and sizes nothing
itself.  The 1D Fourier A scatters N coefficients onto a length-L grid,
takes one inverse FFT there and gathers the M points inside the domain; the
Chebyshev A does the same with a DCT, and Z is the discrete dual restricted
the same way.  The 2D Fourier A is separable: two GEMMs with the L x n
matrix E = [exp(i pi n x_l)] per chunk, through scipy's BLAS, then a gather
of the mask points.  Every extension builder also gives G = Z*A, so that
step 1 needs no Z: the Fourier G is a Hermitian (block) Toeplitz matrix,
one circulant kernel applied by FFT; the Chebyshev G is Toeplitz-plus-Hankel
in Chebyshev moments, applied by a real FFT; the Legendre G is dense, like
its A and Z.

Every builder sizes its grid by one rule, `_select_grid_size`: the smallest
fast FFT length L >= 2*oversampling*N per dimension (scipy.fft.next_fast_len)
that puts >= oversampling*N^dim points inside the domain.  A domain that
needs a grid of more than _MAX_GRID_POINTS points for that raises
DomainSizingError.

Grid convention for the Fourier builders: x_l = -1 + 2l/L, l = 0..L-1 (left
endpoint included), in each dimension.  The basis functions are
phi_n(x) = exp(i*pi*n*x), so that on the full grid the columns of A are
orthogonal with A*A = L^dim*I and Z = A/L^dim is an exact discrete dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.fft
import scipy.linalg.blas

from . import transforms
from .azcore import AzProblem, WeightedAzProblem
from .operators import LinearOperator, compose, diagonal, from_dense, hstack, scale

# grid points L^dim of the largest candidate grid the size search builds; past
# it the domain is too small for N (the largest grid in use is L = 32805 in 1D)
_MAX_GRID_POINTS = 1 << 24
# how many times finer than the collocation grid refined_grid samples
_REFINE = 4
# entries of the point-by-frequency-block matrix built per chunk of points when
# evaluating a 1D Fourier extension approximant (16 MiB of complex128)
_EVAL_BLOCK_ENTRIES = 1 << 20
# the one chunk budget of every fast operator: entries of the largest
# intermediate of one chunk of rows in `_chunked` (4 MiB of complex128), a
# chunk holding _CHUNK_ENTRIES // width rows of the kernel's width
_CHUNK_ENTRIES = 1 << 18


class DomainSizingError(ValueError):
    """The domain holds too few grid points for the requested frame size on
    any grid of at most _MAX_GRID_POINTS points."""


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

    def contains(self, pts) -> np.ndarray:
        """Which points lie in the domain; pts has shape (P,) for an interval
        union and (P, 2) for a mask."""
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != (2 if self.is_2d else 1):
            raise ValueError(f"points of shape {pts.shape} do not match a "
                             f"{'2D' if self.is_2d else '1D'} domain")
        if self.is_2d:
            return np.asarray(self.mask(pts[:, 0], pts[:, 1]), dtype=bool)
        inside = np.zeros(pts.shape, dtype=bool)
        for lo, hi in self.intervals:
            inside |= (pts >= lo) & (pts <= hi)
        return inside

    def measure_1d(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)


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


def _select_grid_size(n: int, dim: int, oversampling: float, points, domain: DomainSpec,
                      estimate=None):
    """Grid length L, the grid points(L) and the indices of those inside the
    domain, for the smallest fast FFT length L >= 2*oversampling*N (per
    dimension) that puts >= oversampling*N^dim points inside.  N < 1, or an
    oversampling that is not a finite number >= 1, is a ValueError.  The
    search grows L from the fraction of points inside, each candidate rounded
    up by scipy.fft.next_fast_len; a candidate of more than _MAX_GRID_POINTS
    points is a DomainSizingError, raised before its points are built.

    With estimate, candidate lengths are counted on the cheap estimate(L) and
    points(L) is built only for the length that meets the target; if its
    exact count falls short (a point within the estimate's error of the
    domain's edge), the search goes on from there on exact points.
    """
    def inside(L, at=points):
        pts = at(L)
        return pts, np.nonzero(domain.contains(pts))[0]

    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if not (math.isfinite(oversampling) and oversampling >= 1):
        raise ValueError(f"oversampling must be finite and >= 1, got {oversampling}")
    target = math.ceil(oversampling * n**dim)
    L = scipy.fft.next_fast_len(math.ceil(2 * oversampling * n))
    while L**dim <= _MAX_GRID_POINTS:
        pts, sel = inside(L, estimate or points)
        if sel.size >= target and estimate is not None:
            pts, sel = inside(L)
            estimate = None
        if sel.size >= target:
            return L, pts, sel
        frac = max(sel.size, 1) / L**dim
        L = scipy.fft.next_fast_len(max(L + 1, math.ceil((target / frac) ** (1.0 / dim))))
    raise DomainSizingError(f"domain too small for N={n**dim}: the search for {target} points "
                            f"inside reached L={L}, past {_MAX_GRID_POINTS} grid points")


def _periodic_grid(L: int, dim: int) -> np.ndarray:
    """The points x_l = -1 + 2l/L of the L^dim grid, row-major: shape (L,) in
    1D and (L^2, 2) in 2D."""
    g = -1.0 + 2.0 * np.arange(L) / L
    if dim == 1:
        return g
    return np.column_stack([x.ravel() for x in np.meshgrid(g, g, indexing="ij")])


def _chunked(rows: int, cols: int, apply, adjoint_apply, width: int) -> LinearOperator:
    """The rows x cols operator of two row kernels: apply maps a (k, cols)
    block of rows to (k, rows), adjoint_apply (k, rows) to (k, cols), each
    along the last axis.

    A vector of shape (n,) or a block of shape (n, k) is transposed once
    into a (k, n) view, the kernel runs on chunks of _CHUNK_ENTRIES // width
    rows of it (width: the entries of the kernel's largest intermediate per
    row), and each result goes into contiguous rows of a (k, m) array,
    whose transpose is returned.  The result has the kernel's dtype, which
    a call on zero rows gives, so that it is allocated before the first
    chunk runs; allocating it after the first chunk raised the peak
    resident set of a fourier_extension_2d(25) solve by 7 MiB.
    """
    chunk = max(1, _CHUNK_ENTRIES // width)

    def run(fn, m):
        def block(v):
            v = np.asarray(v)
            x = v.reshape(v.shape[0], -1).T
            out = np.empty((x.shape[0], m), dtype=fn(x[:0]).dtype)
            for c in range(0, x.shape[0], chunk):
                out[c:c + chunk] = fn(x[c:c + chunk])
            return out.T.reshape((m,) + v.shape[1:])
        return block

    return LinearOperator(rows, cols, run(apply, rows), run(adjoint_apply, cols))


def _fourier_extension(n: int, dim: int, domain: DomainSpec, oversampling: float):
    """A, Z and G = Z*A of the tensor Fourier extension frame in 1 or 2
    dimensions, with L and the collocation points.

    In 1D A is the one-FFT product of `_fft_fourier`; in 2D it is the
    separable two-GEMM product of `_separable_fourier`, with row-major
    coefficients over (n1, n2).  Z = A / L^dim.
    """
    freqs = _symmetric_frequencies(n)
    if domain.is_2d != (dim == 2):
        raise ValueError(f"fourier_extension_{dim}d needs a "
                         f"{'2D mask' if dim == 2 else '1D'} domain")
    L, full, sel = _select_grid_size(n, dim, oversampling,
                                     lambda L: _periodic_grid(L, dim), domain)
    a = _fft_fourier(freqs, L, sel) if dim == 1 else _separable_fourier(freqs, L, sel)
    return a, scale(1.0 / L**dim, a), _fourier_gram(n, dim, L, sel), L, full[sel]


def _fft_fourier(freqs: np.ndarray, L: int, sel: np.ndarray) -> LinearOperator:
    """The 1D Fourier extension A[l, j] = (-1)^n exp(2 pi i n l / L), n = freqs[j],
    for the grid indices l in sel: scatter (-1)^n c_n at n mod L, one
    unscaled inverse DFT of fast length L, gather the points sel.
    """
    at = np.mod(freqs, L)
    sign = (-1.0) ** np.abs(freqs)

    def apply(x):
        grid = np.zeros((x.shape[0], L), dtype=np.result_type(x, np.float64))
        grid[:, at] = sign * x
        return scipy.fft.ifft(grid, axis=-1, norm="forward")[:, sel]

    def adjoint_apply(y):
        grid = np.zeros((y.shape[0], L), dtype=np.result_type(y, np.float64))
        grid[:, sel] = y
        return sign * scipy.fft.fft(grid, axis=-1)[:, at]

    return _chunked(sel.size, freqs.size, apply, adjoint_apply, L)


def _separable_fourier(freqs: np.ndarray, L: int, sel: np.ndarray) -> LinearOperator:
    """The 2D Fourier extension A[(l1, l2), (j1, j2)] = E[l1, j1] E[l2, j2],
    E[l, j] = exp(i pi n_j x_l) (L x n), for the row-major grid points
    l1 * L + l2 in sel, as two GEMMs per chunk of rows.

    The first GEMM applies the rows of E that hold mask points along n1, the
    second applies all of E along n2, and the M mask points are gathered from
    that; the adjoint scatters them and runs the same GEMMs transposed.  Both
    GEMMs go through scipy's BLAS, which also runs the sketch QR, on
    Fortran-ordered views.  The largest intermediate of a row is
    L x (used rows).
    """
    n = freqs.size
    # x_l = -1 + 2l/L, so the phase pi n x_l is pi * (n (2l - L) mod 2L) / L,
    # reduced in integers before the one exp
    e = np.exp(1j * np.pi * (np.outer(2 * np.arange(L) - L, freqs) % (2 * L)) / L)
    e_conj = np.asfortranarray(e.conj())
    l1, l2 = np.divmod(sel, L)
    used, u = np.unique(l1, return_inverse=True)
    e_used = np.asfortranarray(e[used])
    gemm = scipy.linalg.blas.zgemm

    def apply(v):
        k = v.shape[0]
        # x[j2, col, j1] is the Fortran n x (n k) matrix C[j1, (j2, col)]
        x = np.ascontiguousarray(v.reshape(k, n, n).transpose(2, 0, 1), dtype=np.complex128)
        t = gemm(1.0, e_used, x.reshape(n * k, n).T)  # E[used] C: (u, (j2, col))
        w = gemm(1.0, t.T.reshape(n, k * used.size).T, e.T)  # ((col, u), l2)
        return w.T.reshape(L, k, used.size)[l2, :, u].T

    def adjoint_apply(v):
        k = v.shape[0]
        w = np.zeros((L, k, used.size), dtype=np.complex128)
        w[l2, :, u] = v.T
        y = gemm(1.0, w.reshape(L, k * used.size).T, e_conj)  # ((col, u), j2)
        x = gemm(1.0, e_used, y.T.reshape(n * k, used.size).T, trans_a=2)  # (j1, (j2, col))
        return x.T.reshape(n, k, n).transpose(1, 2, 0).reshape(k, n * n)

    return _chunked(sel.size, n * n, apply, adjoint_apply, L * used.size)


def _fourier_gram(n: int, dim: int, L: int, sel: np.ndarray) -> LinearOperator:
    """G = Z*A = A*A / L^dim of the Fourier extension frame, applied by FFT.

    G[j, k] = g(n_k - n_j) with g(d) = L^-dim sum_{l inside} exp(i pi d.x_l)
    = (-1)^(sum d) ifftn(mask)[d mod L], from one FFT of the mask indicator:
    Toeplitz in 1D, block Toeplitz with Toeplitz blocks in 2D over row-major
    indices (the discrete prolate matrix).  G v is the convolution of v with
    h(e) = g(-e), applied through a circulant embedding of fast length
    P >= 2N - 1 per axis by one precomputed kernel FFT.  G is Hermitian, so
    the adjoint runs the same row kernel.

    A block is cast to complex once, before the chunks, so that fftn never
    takes its real-input path, which rounds differently.
    """
    mask = np.zeros(L**dim)
    mask[sel] = 1.0
    g = np.fft.ifftn(mask.reshape((L,) * dim))
    d = np.arange(1 - n, n)
    sign = (-1.0) ** np.abs(d)
    P = scipy.fft.next_fast_len(2 * n - 1)
    kernel = np.zeros((P,) * dim, dtype=np.complex128)
    h = g[np.ix_(*[np.mod(-d, L)] * dim)]
    for axis in range(dim):
        h *= sign.reshape((-1,) + (1,) * (dim - 1 - axis))
    kernel[np.ix_(*[np.mod(d, P)] * dim)] = h
    kernel_hat = scipy.fft.fftn(kernel)
    axes = tuple(range(1, dim + 1))

    def convolve(x):
        k = x.shape[0]
        f = scipy.fft.fftn(x.reshape((k,) + (n,) * dim), s=(P,) * dim, axes=axes)
        f *= kernel_hat
        w = scipy.fft.ifftn(f, axes=axes, overwrite_x=True)
        return w[(slice(None),) + (slice(0, n),) * dim].reshape(k, n**dim)

    op = _chunked(n**dim, n**dim, convolve, convolve, kernel.size)

    def apply(v):
        return op.apply(np.asarray(v, dtype=np.complex128))

    return LinearOperator(op.rows, op.cols, apply, apply)


def fourier_extension_1d(n: int, domain: DomainSpec, oversampling: float = 2.0) -> AzProblem:
    """Fourier extension frame on a 1D domain inside [-1, 1].

    A maps N coefficients to samples of sum_n c_n exp(i*pi*n*x) at the grid
    points inside the domain, applied by one inverse FFT of the fast length L
    from `_select_grid_size` (see `_fft_fourier`).  Z = A / L.
    """
    a, z, g, L, grid = _fourier_extension(n, 1, domain, oversampling)
    half = (n - 1) // 2
    # frequency q*blk + r - half: exp(i pi (q*blk + r - half) t)
    # = exp(i pi q*blk t) exp(i pi (r - half) t), so each point needs
    # blk + nq (about 2 sqrt(N)) exponentials, not N
    blk = math.isqrt(n - 1) + 1
    nq = -(-n // blk)

    def evaluate(coeffs, pts):
        pts = np.asarray(pts, dtype=np.float64).ravel()
        coeffs = np.asarray(coeffs)
        tail = coeffs.shape[1:]
        c = np.zeros((nq * blk,) + tail, dtype=np.complex128)
        c[:n] = coeffs
        # (blk, nq * k): column (q, j) holds c[q*blk + r, j] over r
        c = c.reshape((nq, blk, -1)).transpose(1, 0, 2).reshape(blk, -1)
        rows = max(1, _EVAL_BLOCK_ENTRIES // c.shape[1])
        out = np.empty((pts.size,) + tail, dtype=np.complex128)
        for i in range(0, pts.size, rows):
            t = pts[i:i + rows]
            inner = np.exp(1j * np.pi * np.outer(t, np.arange(-half, blk - half))) @ c
            outer = np.exp(1j * np.pi * blk * np.outer(t, np.arange(nq)))
            inner = inner.reshape(t.size, nq, -1) * outer[:, :, None]
            out[i:i + rows] = inner.sum(axis=1).reshape((t.size,) + tail)
        return out

    return AzProblem(A=a, Z=z, label=f"fourier1d(N={n}, L={L})",
                     scale=math.sqrt(L), grid=grid, evaluate=evaluate,
                     domain=domain, gram=g)


def fourier_extension_2d(n_per_dim: int, mask: DomainSpec,
                         oversampling: float = 2.0) -> AzProblem:
    """Tensor Fourier extension frame on a masked subset of [-1, 1]^2.

    Coefficients are row-major over (n1, n2); Z = A / L^2, with L per axis
    from `_select_grid_size`.
    """
    a, z, g, L, grid = _fourier_extension(n_per_dim, 2, mask, oversampling)
    freqs = _symmetric_frequencies(n_per_dim)

    def evaluate(coeffs, pts):
        pts = np.asarray(pts, dtype=np.float64)
        c = np.asarray(coeffs).reshape(n_per_dim, n_per_dim)
        ex = np.exp(1j * np.pi * np.outer(pts[:, 0], freqs))
        ey = np.exp(1j * np.pi * np.outer(pts[:, 1], freqs))
        return np.einsum("pi,ij,pj->p", ex, c, ey)

    return AzProblem(A=a, Z=z, label=f"fourier2d(N={n_per_dim}^2, L={L})",
                     scale=float(L), grid=grid, evaluate=evaluate, domain=mask,
                     gram=g)


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


def _cheb_series_at_nodes(c: np.ndarray, kind: str) -> np.ndarray:
    """Values at the L nodes (increasing order) of the Chebyshev series whose
    L coefficients run along the last axis of c, by one DCT; c is
    overwritten."""
    if kind == "roots":
        c[..., 1:] *= 0.5
        return scipy.fft.dct(c, type=3, axis=-1)[..., ::-1]
    c[..., 1:-1] *= 0.5
    return scipy.fft.dct(c, type=1, axis=-1)[..., ::-1]


def _cheb_nodes_to_modes(u: np.ndarray, kind: str) -> np.ndarray:
    """Apply F^T along the last axis: mode k gets sum_l u_l T_k(x_l), u in
    increasing node order."""
    nat = u[..., ::-1]  # natural DCT ordering runs over decreasing x
    if kind == "roots":
        return scipy.fft.dct(nat, type=2, axis=-1) * 0.5
    # DCT-I double-counts interior terms relative to the plain sum
    y = scipy.fft.dct(nat, type=1, axis=-1)
    sign = (-1.0) ** np.arange(u.shape[-1])
    return 0.5 * (y + nat[..., :1] + sign * nat[..., -1:])


def _cheb_gram(moments: np.ndarray, h2: np.ndarray) -> LinearOperator:
    """G = Z*A of the Chebyshev frame from the moments mu_0 .. mu_{2N-2} of
    the weighted mask and the squared norms h_0^2 .. h_{N-1}^2, with no
    N x N matrix.

    T_j T_k = (T_{j+k} + T_{|j-k|}) / 2 gives
    G[j, k] = (mu_{j+k} + mu_{|j-k|}) / (2 h_j^2): the rows of a symmetric
    Toeplitz-plus-Hankel matrix T + H scaled by 1 / (2 h_j^2).  With V the
    real FFT of a real v over a length P >= 2N - 1, (T + H) v is the inverse
    real FFT of T^ V + H^ conj(V) (a convolution with mu_|d| plus a
    correlation with mu_p), so real input stays real; a complex v goes
    through as its real and imaginary parts.  G is real but not symmetric:
    G* u = (T + H)(u / h^2) / 2.
    """
    n = h2.size
    P = scipy.fft.next_fast_len(2 * n - 1, real=True)
    d = np.arange(1 - n, n)
    toeplitz = np.zeros(P)
    toeplitz[d % P] = moments[np.abs(d)]
    hankel = np.zeros(P)
    hankel[:2 * n - 1] = moments
    t_hat, h_hat = scipy.fft.rfft(toeplitz), scipy.fft.rfft(hankel)
    scaling = 0.5 / h2

    def t_plus_h(x):
        if np.iscomplexobj(x):
            return t_plus_h(x.real) + 1j * t_plus_h(x.imag)
        f = scipy.fft.rfft(x, P, axis=-1)
        g = f.conj()
        g *= h_hat
        f *= t_hat
        f += g
        return scipy.fft.irfft(f, P, axis=-1, overwrite_x=True)[:, :n]

    return _chunked(n, n, lambda x: scaling * t_plus_h(x),
                    lambda x: t_plus_h(scaling * x), P)


def chebyshev_extension(n: int, domain: DomainSpec, oversampling: float = 2.0,
                        kind: str = "roots") -> AzProblem:
    """Chebyshev extension frame: series of length N sampled at the Chebyshev
    nodes that fall inside the domain, for the fast L from
    `_select_grid_size`: the L roots of T_L, or the L + 1 extremae of T_L,
    so that their DCT-I, an FFT of length 2L, is fast too.  A applies by one
    DCT of the grid's length per column.

    Z is the matching subblock of the discrete dual W F D, so that on the
    full grid Z* A = I.  G = Z*A is a row-scaled Toeplitz-plus-Hankel matrix
    of the moments mu_p = sum_{m inside} w_m T_p(x_m), p = 0..2N-2, taken by
    one F^T pass over the weighted mask and applied by a real FFT of length
    P >= 2N - 1 (see `_cheb_gram`), so step 1 needs no Z.
    """
    if domain.is_2d:
        raise ValueError("chebyshev_extension needs a 1D domain")
    if kind not in ("roots", "extremae"):
        raise ValueError(f"unknown node kind {kind!r}")

    extra = int(kind == "extremae")
    _, nodes, sel = _select_grid_size(
        n, 1, oversampling, lambda L: transforms.chebyshev_nodes(L + extra, kind), domain)
    L = nodes.size
    w, h2 = _cheb_weights(L, kind)

    def apply(x):
        c = np.zeros((x.shape[0], L), dtype=np.result_type(x, np.float64))
        c[:, :n] = x
        return _cheb_series_at_nodes(c, kind)[:, sel]

    def adjoint_apply(y):
        u = np.zeros((y.shape[0], L), dtype=np.result_type(y, np.float64))
        u[:, sel] = y
        return _cheb_nodes_to_modes(u, kind)[:, :n]

    a = _chunked(sel.size, n, apply, adjoint_apply, L)
    z = compose(diagonal(w[sel]), a, diagonal(1.0 / h2[:n]))
    masked = np.zeros(L)
    masked[sel] = w[sel]
    # L >= 2N, so mu_0 .. mu_{2N-2} are the first 2N - 1 modes of one F^T pass
    gram = _cheb_gram(_cheb_nodes_to_modes(masked, kind)[:2 * n - 1], h2[:n])

    def evaluate(coeffs, pts):
        return np.polynomial.chebyshev.chebval(np.asarray(pts, dtype=np.float64),
                                               np.asarray(coeffs))

    return AzProblem(A=a, Z=z, label=f"chebyshev(N={n}, L={L}, {kind})",
                     scale=math.sqrt(L / 2.0), grid=nodes[sel], evaluate=evaluate,
                     domain=domain, gram=gram)


def legendre_extension(n: int, domain: DomainSpec, oversampling: float = 2.0) -> AzProblem:
    """Legendre extension frame on the L Gauss-Legendre nodes, L from
    `_select_grid_size`, with dense operators.

    Rows are points, columns are degrees 0..N-1 (A[m, j] = P_j(x_m)); Z is
    the matching subblock of W F D with the Gauss-Legendre weights W and
    D = diag(1 / h_j^2), h_j^2 = 2 / (2j + 1).  G = Z^T A is dense too: one
    GEMM at build, so step 1 needs no Z.
    """
    if domain.is_2d:
        raise ValueError("legendre_extension needs a 1D domain")

    weights: dict[int, np.ndarray] = {}

    def nodes_for(L):
        # the estimate, with Newton-polished roots at every estimate inside an
        # interval and two neighbours past each end: a root further out stays
        # out, as the estimate's error is under half the gap between roots
        x = transforms.legendre_roots_estimate(L)
        ends = np.searchsorted(x, np.array(domain.intervals), side="right")
        index = np.concatenate([np.arange(max(i - 2, 0), min(j + 2, L)) for i, j in ends])
        rule = transforms.gauss_legendre(L, index)
        x[index] = rule.nodes
        weights[L] = np.full(L, np.nan)
        weights[L][index] = rule.weights
        return x

    L, grid, sel = _select_grid_size(n, 1, oversampling, nodes_for, domain,
                                     transforms.legendre_roots_estimate)
    nodes = grid[sel]
    p = transforms.legendre_eval(n - 1, nodes)
    h2 = 2.0 / (2.0 * np.arange(n) + 1.0)

    def evaluate(coeffs, pts):
        return transforms.legendre_eval(n - 1, np.asarray(pts, dtype=np.float64)) \
            @ np.asarray(coeffs)

    z = weights[L][sel][:, None] * p / h2
    return AzProblem(A=from_dense(p), Z=from_dense(z), label=f"legendre(N={n}, L={L})",
                     scale=math.sqrt(L), grid=nodes, evaluate=evaluate, domain=domain,
                     gram=from_dense(z.T @ p))


def weighted_sum_frame(base: AzProblem, w1, w2) -> AzProblem:
    """Two weighted copies of a base frame: A = [W1*A_phi  W2*A_phi] with the
    canonical dual Z = [Winv*W1*Z_phi  Winv*W2*Z_phi], Winv = 1/(|w1|^2+|w2|^2).
    """
    if base.grid is None or base.evaluate is None:
        raise ValueError("base problem needs grid and evaluate metadata")
    w1g = _call_on_grid(w1, base.grid)
    w2g = _call_on_grid(w2, base.grid)
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
                     scale=base.scale * float(np.sqrt(wg.max())),
                     grid=base.grid, evaluate=evaluate, domain=base.domain)


def weighted_lsq(base: AzProblem, d, eps_w: float) -> WeightedAzProblem:
    """Wrap a base problem with positive row weights for W A x = W b."""
    if callable(d):
        if base.grid is None:
            raise ValueError("weight callable needs grid metadata on the problem")
        d = _call_on_grid(d, base.grid)
    d = np.asarray(d, dtype=np.float64)
    return WeightedAzProblem(base=base, d=d, eps_w=float(eps_w))


def fourier_lsq_equispaced(n: int, m: int) -> AzProblem:
    """Periodic Fourier least squares on [0, 1): N terms, M >= N equispaced
    samples x_j = j/M.  Discrete orthogonality gives the exact dual Z = A/M
    and G = Z*A = I exactly: N <= M frequencies stay distinct mod M.
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
                     scale=math.sqrt(m), grid=grid, evaluate=evaluate,
                     gram=diagonal(np.ones(n)))


def refined_grid(problem: AzProblem) -> np.ndarray:
    """An evaluation grid _REFINE times finer than the collocation grid,
    restricted to the problem domain."""
    if problem.grid is None:
        raise ValueError("problem has no grid metadata")
    grid = np.asarray(problem.grid)
    if grid.ndim == 2:
        if problem.domain is None or not problem.domain.is_2d:
            raise ValueError("2D refinement needs the mask domain")
        # the collocation points lie on the periodic grid of spacing 2/L
        L = round(2.0 / np.min(np.diff(np.unique(grid))))
        pts = _periodic_grid(L * _REFINE, 2)
        return pts[problem.domain.contains(pts)]
    if problem.domain is not None and problem.domain.intervals is not None:
        total = _REFINE * grid.size
        pieces = []
        measure = problem.domain.measure_1d()
        for lo, hi in problem.domain.intervals:
            k = max(2, int(round(total * (hi - lo) / measure)))
            pieces.append(np.linspace(lo, hi, k))
        return np.concatenate(pieces)
    lo, hi = float(grid.min()), float(grid.max())
    return np.linspace(lo, hi, _REFINE * grid.size)


def eval_error(problem: AzProblem, x, f) -> dict:
    """Max and RMS error of the approximant against f on a refined grid."""
    pts = refined_grid(problem)
    approx = np.asarray(problem.evaluate(np.asarray(x), pts))
    exact = _call_on_grid(f, pts).astype(np.complex128)
    err = np.abs(approx - exact)
    return {"max_err": float(err.max()),
            "l2_err": float(np.sqrt(np.mean(err**2)))}
