"""Problem builders: extension frames, Gram matrices, weighted sum frames.

All builders return an AzProblem whose A and Z are matrix-free operators.
Every fast operator is a pair of row kernels behind `_chunked`, which shows
a block of k columns to them as k rows and runs them a chunk of rows at a
time, so each kernel transforms along the last axis and sizes nothing
itself.  Every Fourier problem is built by one constructor,
`_fourier_problem`, in real form: with the unitary V that pairs the
coefficients of n and -n (`_pairing`, one signed flip of each axis),
A_r = A V and Z_r = Z V are real, the frame
{1, sqrt 2 cos pi m x, sqrt 2 sin pi m x}.  (A_r, Z_r, G_r) is the
problem's real_form, an AzProblem whose coefficients are the caller's map
C (in 2D it holds A_r compressed, below): the solver runs all three steps
on it, and the problem's own A = A_r C* and Z = A / L^dim are the caller's
view.  The 1D and 2D extensions
(`_fourier_extension`) take C = V and the G_r of the grid's mask;
fourier_lsq_equispaced is the 1D A_r on the whole periodic grid, with
coefficients D V, D = diag((-1)^k), and the exact G_r = I; every 1D Fourier
approximant is evaluated by one blocked series sum, `_fourier_series`.
The 1D A_r puts the half spectrum of N coefficients on a length-L grid,
takes one inverse real FFT there and gathers the M points inside the
domain; the Chebyshev A does the same with a DCT, and Z is the discrete
dual restricted the same way.  The 2D A_r is separable, with the real
L x n matrix E = [1, sqrt 2 cos(pi m x_l), sqrt 2 sin(pi m x_l)] along each
axis, and is compressed exactly per grid row (`_row_compression`): the
points of grid row l1 are E[l1, :] (x) E[S, :] = Q_S (E[l1, :] (x) R_S),
so A_r = Q A_c, with Q = blockdiag(Q_S) the real form's rows and A_c, of
K = sum min(|S|, n) rows, its A.  Every 2D operator with rows of the form
E[l1, :] (x) (a right factor per grid row) runs one kernel, `_separable`:
one GEMM along n1, then one per grid row along n2, through scipy's dgemm.
Every row kernel is written for real rows; `_chunked` takes a complex
block through its real and imaginary parts.

Every extension builder also gives the G = Z*A that its step 1 uses, so
that step 1 needs no Z.  The FFT frames build it by one rule: the product
of two frame functions has only 2N - 1 frequencies per axis (Chebyshev:
degree <= 2N - 2), so G = F_P* diag(K) F_P exactly, with F_P the frame's
own row kernels on the whole grid of fast length P >= 2N - 1 per axis and
K a real weight taken once from the mask; G x is one row kernel,
F_P* (K F_P x) (`_gram_rows`).  That is G_r of the 1D and 2D Fourier real
forms (`_fourier_gram`: F_P is the inverse real FFT of length P in 1D, and
in 2D the kernel of A_c with E_P for every grid row, since no point of the
whole P grid is missing) and the Chebyshev G, on the roots of T_P, scaled
by 1 / h^2 (`_cheb_gram`).  fourier01's G_r = I is exact, and the Legendre
G is dense.

Every builder sizes its grid by one rule, `_select_grid_size`: the smallest
fast FFT length L >= 2*oversampling*N per dimension (scipy.fft.next_fast_len)
that puts >= oversampling*N^dim points inside the domain.  A domain that
needs a grid of more than _MAX_GRID_POINTS points for that raises
DomainSizingError.

Grid convention for the Fourier builders: x_l = -1 + 2l/L, l = 0..L-1 (left
endpoint included), in each dimension.  The basis functions are
phi_n(x) = exp(i*pi*n*x), so that on the full grid the columns of A are
orthogonal with A*A = L^dim*I and Z = A/L^dim is an exact discrete dual;
the coefficients a problem takes and returns are these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.linalg.blas

from . import transforms
from .azcore import AzProblem, WeightedAzProblem
from .operators import (LinearOperator, adjoint, compose, diagonal, from_dense, hstack,
                        scale)

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


def sample_function(f, grid) -> np.ndarray:
    """Pointwise samples of f on a collocation grid, in their own dtype: f(x)
    on points of shape (M,), f(x, y) on points of shape (M, 2)."""
    grid = np.asarray(grid)
    if grid.ndim == 2:
        return np.asarray(f(grid[:, 0], grid[:, 1]))
    return np.asarray(f(grid))


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
    """The rows x cols operator of two real row kernels: apply maps a
    (k, cols) block of real rows to (k, rows) in float64, adjoint_apply
    (k, rows) to (k, cols), each along the last axis.

    A vector of shape (n,) or a block of shape (n, k) is transposed once
    into a (k, n) view, the kernel runs on chunks of _CHUNK_ENTRIES // width
    rows of it (width: the entries of the kernel's largest intermediate per
    row), a complex chunk through its real and imaginary parts, and each
    result goes into contiguous rows of a (k, m) array, whose transpose is
    returned.  That array, float64 or complex128 as the block is, is
    allocated before the first chunk runs; allocating it after the first
    chunk raised the peak resident set of a fourier_extension_2d(25) solve
    by 7 MiB.
    """
    chunk = max(1, _CHUNK_ENTRIES // width)

    def run(fn, m):
        def block(v):
            v = np.asarray(v)
            x = v.reshape(v.shape[0], -1).T
            out = np.empty((x.shape[0], m), dtype=np.result_type(x, np.float64))
            rows = (lambda xc: fn(xc.real) + 1j * fn(xc.imag)) if np.iscomplexobj(x) else fn
            for c in range(0, x.shape[0], chunk):
                out[c:c + chunk] = rows(x[c:c + chunk])
            return out.T.reshape((m,) + v.shape[1:])
        return block

    return LinearOperator(rows, cols, run(apply, rows), run(adjoint_apply, cols))


def _pairing(n: int, dim: int) -> LinearOperator:
    """V on row-major (n,)*dim coefficients, a vector or each column of a
    block: cos/sin coordinates to exp coefficients along the last axis,
    then (in 2D) along the first, and V* the same way.

    Along an axis of length n = 2h + 1, a_0 sits in slot h, a_m in the cos
    slot h + m and b_m in the sin slot h - m, and J flips the axis.  V is
    c = w (r - i J r), w = 1/sqrt 2 on the cos slots and i/sqrt 2 on the sin
    slots: c_0 = a_0 and c_{+-m} = (a_m -+ i b_m) / sqrt 2.  V* is
    r = v (c + s J c), s = 1 and v = 1/sqrt 2 on the cos slots, s = -1 and
    v = -i/sqrt 2 on the sin slots: a_m = (c_m + c_-m) / sqrt 2 and
    b_m = i (c_m - c_-m) / sqrt 2.  Both keep slot h and fill one new array
    per axis in place, so a block goes through in one call, unchunked.  The
    per-slot factors are made on each call: kept with the problem, three
    length-n arrays raised the peak resident set of the 1D benchmark
    (N = 8193) by about 0.7 MiB.
    """
    h = n // 2

    def per_axis(adjoint: bool):
        def along_last(r):
            sin = np.arange(n) < h
            flip = np.where(sin, -1.0 + 0j, 1.0 + 0j) if adjoint else -1j
            # order C: laid out like the strided (k, n) view of a block, c
            # would run the per-slot products in inner loops of length k
            c = np.multiply(r[..., ::-1], flip, order="C")
            c += r
            c *= np.where(sin, -1j if adjoint else 1j, 1.0) * math.sqrt(0.5)
            c[..., h] = r[..., h]
            return c

        def block(v):
            v = np.asarray(v)
            y = along_last(np.moveaxis(v.reshape((n,) * dim + (-1,)), -1, 0))
            if dim == 2:
                y = along_last(y.swapaxes(1, 2)).swapaxes(1, 2)
            return np.moveaxis(y, 0, -1).reshape(v.shape)
        return block

    return LinearOperator(n**dim, n**dim, per_axis(False), per_axis(True))


def _fourier_problem(n: int, dim: int, L: int, sel, grid: np.ndarray,
                     coefficients: LinearOperator, gram: LinearOperator, **view) -> AzProblem:
    """The caller's view of a Fourier problem, with its real form, on the
    collocation points grid (in the caller's coordinates): the points sel
    of the length-L grid, any numpy index into its L^dim points in 1D, the
    increasing indices of the points inside the mask in 2D.

    The real form is the AzProblem of the frame {1, sqrt 2 cos pi m x,
    sqrt 2 sin pi m x} per axis, with row-major coefficients over (n1, n2):
    its A is A_r = A V itself in 1D (`_rfft_rows`), and in 2D the compressed
    A_c of A_r = Q A_c (`_row_compression`), with rows = Q.  Its Z is
    A / L^dim, G_r is gram and its coefficients are the map C to the
    caller's basis (V, or D V for fourier01).  The view is A = A_r C* and
    Z = A / L^dim, with the grid and the label, evaluate and domain in
    view.  Both take the scale sqrt(L^dim), so that solving either gives
    the same x.
    """
    if dim == 1:
        a_r, rows = _chunked(len(grid), n, *_rfft_rows(n, L, sel)), None
    else:
        a_r, rows = _row_compression(n, L, sel)
    real = AzProblem(A=a_r, Z=scale(1.0 / L**dim, a_r), gram=gram,
                     scale=math.sqrt(L**dim), coefficients=coefficients, rows=rows)
    a = compose(real.on_samples(a_r), adjoint(coefficients))
    return AzProblem(A=a, Z=scale(1.0 / L**dim, a), scale=real.scale, grid=grid,
                     real_form=real, **view)


def _fourier_extension(n: int, dim: int, domain: DomainSpec, oversampling: float,
                       evaluate) -> AzProblem:
    """The tensor Fourier extension frame in 1 or 2 dimensions on the grid of
    `_select_grid_size`, through `_fourier_problem`: its coefficients are
    V, its G_r is `_fourier_gram`, the same kernel on a short exact grid."""
    _symmetric_frequencies(n)  # N odd and positive
    if domain.is_2d != (dim == 2):
        raise ValueError(f"fourier_extension_{dim}d needs a "
                         f"{'2D mask' if dim == 2 else '1D'} domain")
    L, full, sel = _select_grid_size(n, dim, oversampling,
                                     lambda L: _periodic_grid(L, dim), domain)
    return _fourier_problem(n, dim, L, sel, full[sel], _pairing(n, dim),
                            _fourier_gram(n, dim, L, sel),
                            label=f"fourier{dim}d(N={n}{'^2' if dim == 2 else ''}, L={L})",
                            evaluate=evaluate, domain=domain)


def _rfft_rows(n: int, L: int, sel: np.ndarray):
    """The row kernels of the real 1D Fourier extension A_r = A V, for
    A[l, j] = exp(i pi n_j x_l) = (-1)^n exp(2 pi i n l / L) at the grid
    indices l in sel, any numpy index into the L points: its columns are 1,
    sqrt 2 cos(pi m x_l) and sqrt 2 sin(pi m x_l).  apply puts the half
    spectrum (-1)^m c_m, m = 0..h, of c = V x at m, takes one unscaled
    inverse real DFT of length L and gathers the points sel; the adjoint is
    one real DFT, read back through V*.  The largest intermediate of a row
    is L entries.
    """
    h = n // 2
    sign = (-1.0) ** np.arange(h + 1)
    # (-1)^m c_m = w_m (a_m - i b_m), m = 0..h
    w = sign * np.append(1.0, np.full(h, math.sqrt(0.5)))

    def apply(x):
        spec = np.zeros((x.shape[0], L // 2 + 1), dtype=np.complex128)
        np.multiply(x[:, h:], w, out=spec.real[:, :h + 1])
        np.multiply(x[:, :h][:, ::-1], -w[1:], out=spec.imag[:, 1:h + 1])
        return scipy.fft.irfft(spec, L, axis=-1, norm="forward")[:, sel]

    def adjoint_apply(y):
        grid = np.zeros((y.shape[0], L))
        grid[:, sel] = y
        # A* y at m >= 0 is f_m, at -m its conjugate: V* gives a_0 = f_0,
        # a_m = sqrt 2 Re f_m and b_m = -sqrt 2 Im f_m
        f = sign * scipy.fft.rfft(grid, axis=-1)[:, :h + 1]
        f[:, 1:] *= math.sqrt(2.0)
        r = np.empty((y.shape[0], n))
        r[:, h:] = f.real
        r[:, :h] = -f[:, :0:-1].imag
        return r

    return apply, adjoint_apply, L


def _trig_matrix(n: int, L: int) -> np.ndarray:
    """The real L x n matrix E = E_exp V of one axis of the length-L grid:
    E[l, h] = 1, E[l, h + m] = sqrt 2 cos(pi m x_l) and
    E[l, h - m] = sqrt 2 sin(pi m x_l), h = n // 2."""
    h = n // 2
    # x_l = -1 + 2l/L, so the phase pi m x_l is pi * (m (2l - L) mod 2L) / L,
    # reduced in integers before the cos and sin
    phase = np.pi * (np.outer(2 * np.arange(L) - L, np.arange(1, h + 1)) % (2 * L)) / L
    e = np.empty((L, n))
    e[:, h] = 1.0
    e[:, h + 1:] = math.sqrt(2.0) * np.cos(phase)
    e[:, :h] = math.sqrt(2.0) * np.sin(phase[:, ::-1])
    return e


def _separable(e_left: np.ndarray, rights):
    """The row kernels of the real 2D operator whose rows are
    e_left[g, :] (x) rights[g], stacked over the grid rows g: e_left is
    u x n and rights[g] m_g x n, both C-ordered, on row-major (n1, n2)
    coefficients.  apply runs one GEMM with e_left along n1, then one per
    grid row with rights[g] along n2; the adjoint runs them transposed.
    All are scipy's dgemm, the BLAS of the sketch QR, on Fortran-ordered
    views.  The largest intermediate of a row is max(n u, sum m_g).
    """
    u, n = e_left.shape
    e_t = e_left.T  # Fortran n x u
    ends = np.cumsum([0] + [r.shape[0] for r in rights])
    gemm = scipy.linalg.blas.dgemm

    def apply(v):
        k = v.shape[0]
        # x[j1, j2, col]: its transpose is the Fortran (n k) x n matrix C^T
        x = np.ascontiguousarray(v.reshape(k, n, n).transpose(1, 2, 0))
        t = gemm(1.0, x.reshape(n, n * k).T, e_t)  # ((j2, col), g): e_left C
        out = np.empty((k, ends[-1]))
        for g, (lo, hi) in enumerate(zip(ends, ends[1:])):
            out[:, lo:hi] = gemm(1.0, t[:, g].reshape(n, k).T, rights[g].T)  # (col, i)
        return out

    def adjoint_apply(w):
        k = w.shape[0]
        wt = np.ascontiguousarray(w.T)
        t = np.empty((u, k, n))
        for g, (lo, hi) in enumerate(zip(ends, ends[1:])):
            t[g] = gemm(1.0, rights[g].T, wt[lo:hi].T, trans_b=1).T  # (col, j2)
        x = gemm(1.0, t.reshape(u, k * n).T, e_t, trans_b=1)  # ((col, j2), j1)
        return x.T.reshape(n, k, n).transpose(1, 0, 2).reshape(k, n * n)

    return apply, adjoint_apply, max(n * u, int(ends[-1]))


def _row_compression(n: int, L: int, sel: np.ndarray):
    """The real 2D Fourier extension A_r at the points sel of the L x L grid
    (increasing row-major indices l1 * L + l2) as A_r = Q A_c: the pair of
    operators (A_c, Q), A_c of shape K x n^2 and Q of shape M x K with
    orthonormal columns, K = sum over the grid rows of min(|S|, n).

    The points of grid row l1, at the columns S of that row, are the rows
    E[l1, :] (x) E[S, :] of A_r (`_trig_matrix`).  With the thin QR
    E[S, :] = Q_S R_S (scipy's LAPACK) they are Q_S (E[l1, :] (x) R_S), so
    Q = blockdiag(Q_S) and A_c stacks E[l1, :] (x) R_S over the grid rows:
    A_c is the separable kernel `_separable(E[used], R_S per grid row)`,
    of width n * (used rows) since K <= n * (used rows).  Q is one GEMM
    per grid row with its Q_S, scipy's dgemm too, of width M; its adjoint
    runs the same GEMMs transposed.
    """
    l1, l2 = np.divmod(np.arange(L * L)[sel], L)
    used, first = np.unique(l1, return_index=True)
    e = _trig_matrix(n, L)
    # each grid row's run of points among the M
    runs = list(zip(first, np.append(first[1:], l1.size)))
    # grid rows with the same columns share one QR and its stored Q_S, R_S
    # (81 grid rows, 25 distinct S on the n = 25 disk)
    factors = {}
    for lo, hi in runs:
        key = l2[lo:hi].tobytes()
        if key not in factors:
            q, r = scipy.linalg.qr(e[l2[lo:hi]], mode="economic")
            factors[key] = np.asfortranarray(q), np.ascontiguousarray(r)
    qs, rs = zip(*(factors[l2[lo:hi].tobytes()] for lo, hi in runs))
    # each grid row's block of the K rows
    ends = np.cumsum([0] + [r.shape[0] for r in rs])
    m, k_rows = l1.size, int(ends[-1])
    gemm = scipy.linalg.blas.dgemm

    def rows_apply(y):
        yt = np.ascontiguousarray(y.T)
        out = np.empty((y.shape[0], m))
        for (lo, hi), b0, b1, q in zip(runs, ends, ends[1:], qs):
            out[:, lo:hi] = gemm(1.0, yt[b0:b1].T, q, trans_b=1)
        return out

    def rows_adjoint(w):
        wt = np.ascontiguousarray(w.T)
        out = np.empty((w.shape[0], k_rows))
        for (lo, hi), b0, b1, q in zip(runs, ends, ends[1:], qs):
            out[:, b0:b1] = gemm(1.0, wt[lo:hi].T, q)
        return out

    return (_chunked(k_rows, n * n, *_separable(e[used], rs)),
            _chunked(m, k_rows, rows_apply, rows_adjoint, m))


def _fourier_gram(n: int, dim: int, L: int, sel: np.ndarray) -> LinearOperator:
    """G_r = V* Z*A V of the Fourier extension frame in 1 or 2 dimensions:
    G_r = F_P^T diag(K) F_P, with F_P the frame's own row kernels on the
    whole grid of fast length P = next_fast_len(2N - 1) per axis and a real
    weight K.  In 1D F_P is `_rfft_rows` on the P points; in 2D it is
    A_c's kernel `_separable(E_P, [E_P] * P)`, E_P = `_trig_matrix(n, P)`:
    grid row l1 holds all P points, E_P[l1, :] (x) E_P, so nothing is
    compressed, and the kernel's width is P^2.

    Z*A = A*A / L^dim has the entries g(n_k - n_j) with
    g(d) = L^-dim sum_{l inside} exp(i pi d . x_l), and the (-1)^d of
    x_l = -1 + 2l/L leaves z(d) = ifftn(mask)[d mod L] to match on the P
    grid, for |d| <= N - 1 per axis.  These differences stay apart mod
    P >= 2N - 1, so K = fftn(z) / P^dim, real since the mask is, gives G_r
    exactly.  G_r is real and symmetric: x -> F_P^T (K F_P x) is one row
    kernel, for the apply and the adjoint.
    """
    P = scipy.fft.next_fast_len(2 * n - 1, real=True)
    mask = np.zeros(L**dim)
    mask[sel] = 1.0
    d = np.arange(1 - n, n)
    z = np.zeros((P,) * dim, dtype=np.complex128)
    z[np.ix_(*[d % P] * dim)] = scipy.fft.ifftn(mask.reshape((L,) * dim))[np.ix_(*[d % L] * dim)]
    weight = scipy.fft.fftn(z).real.ravel() / P**dim
    if dim == 1:
        kernels = _rfft_rows(n, P, slice(None))
    else:
        e_p = _trig_matrix(n, P)
        kernels = _separable(e_p, [e_p] * P)
    rows, width = _gram_rows(weight, *kernels)
    return _chunked(n**dim, n**dim, rows, rows, width)


def _gram_rows(weight: np.ndarray, apply, adjoint_apply, width: int):
    """The one row kernel x -> F_P* (K F_P x) of the row kernels (apply,
    adjoint_apply, width) of F_P and the real weight K, with its width."""
    def rows(x):
        y = apply(x)
        y *= weight
        return adjoint_apply(y)
    return rows, width


def _fourier_series(coeffs, t) -> np.ndarray:
    """sum_n c_n exp(i pi n t) at the points t for the N coefficients c of the
    frequencies -(N-1)/2 .. (N-1)/2, a vector or each column of a block.

    With h = (N-1)/2, frequency q*blk + r - h gives exp(i pi (q*blk + r - h) t)
    = exp(i pi q*blk t) exp(i pi (r - h) t), so each point needs blk + nq
    (about 2 sqrt(N)) exponentials, not N; the points run in chunks of
    _EVAL_BLOCK_ENTRIES // (nq k) rows.
    """
    t_all = np.asarray(t, dtype=np.float64).ravel()
    n, tail = len(coeffs), np.shape(coeffs)[1:]
    blk = math.isqrt(n - 1) + 1
    nq = -(-n // blk)
    c = np.zeros((nq * blk,) + tail, dtype=np.complex128)
    c[:n] = coeffs
    # (blk, nq * k): column (q, j) holds c[q*blk + r, j] over r
    c = c.reshape((nq, blk, -1)).transpose(1, 0, 2).reshape(blk, -1)
    rows = max(1, _EVAL_BLOCK_ENTRIES // c.shape[1])
    out = np.empty((t_all.size,) + tail, dtype=np.complex128)
    for i in range(0, t_all.size, rows):
        t = t_all[i:i + rows]
        inner = np.exp(1j * np.pi * np.outer(t, np.arange(blk) - n // 2)) @ c
        outer = np.exp(1j * np.pi * blk * np.outer(t, np.arange(nq)))
        inner = inner.reshape(t.size, nq, -1) * outer[:, :, None]
        out[i:i + rows] = inner.sum(axis=1).reshape((t.size,) + tail)
    return out


def fourier_extension_1d(n: int, domain: DomainSpec, oversampling: float = 2.0) -> AzProblem:
    """Fourier extension frame on a 1D domain inside [-1, 1].

    A maps N coefficients to samples of sum_n c_n exp(i*pi*n*x) at the grid
    points inside the domain, for the fast length L from `_select_grid_size`:
    A = A_r V*, with A_r one inverse real FFT (see `_rfft_rows`) and V*
    the map to cos/sin coordinates, the problem's real form.  Z = A / L.
    """
    return _fourier_extension(n, 1, domain, oversampling, _fourier_series)


def fourier_extension_2d(n_per_dim: int, mask: DomainSpec,
                         oversampling: float = 2.0) -> AzProblem:
    """Tensor Fourier extension frame on a masked subset of [-1, 1]^2.

    Coefficients are row-major over (n1, n2); Z = A / L^2, with L per axis
    from `_select_grid_size`.  A = A_r V*, with V* the map to cos/sin
    coordinates along each axis and A_r the real separable product, held
    exactly compressed per grid row as A_r = Q A_c (`_row_compression`):
    the real form is A_c, Z_c = A_c / L^2 and G_r, with rows Q, so its
    steps run on K = sum over the grid rows of min(points, n) rows (1961
    for the 5025 points of the n = 25 disk) and its step 1 applies G_r.
    """
    freqs = _symmetric_frequencies(n_per_dim)

    def evaluate(coeffs, pts):
        pts = np.asarray(pts, dtype=np.float64)
        c = np.asarray(coeffs).reshape(n_per_dim, n_per_dim)
        ex = np.exp(1j * np.pi * np.outer(pts[:, 0], freqs))
        ey = np.exp(1j * np.pi * np.outer(pts[:, 1], freqs))
        return np.einsum("pi,ij,pj->p", ex, c, ey)

    return _fourier_extension(n_per_dim, 2, mask, oversampling, evaluate)


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
        return scipy.fft.dct(c, type=3, axis=-1, overwrite_x=True)[..., ::-1]
    c[..., 1:-1] *= 0.5
    return scipy.fft.dct(c, type=1, axis=-1, overwrite_x=True)[..., ::-1]


def _cheb_nodes_to_modes(u: np.ndarray, kind: str) -> np.ndarray:
    """Apply F^T along the last axis: mode k gets sum_l u_l T_k(x_l), u in
    increasing node order."""
    nat = u[..., ::-1]  # natural DCT ordering runs over decreasing x
    if kind == "roots":
        y = scipy.fft.dct(nat, type=2, axis=-1)
        y *= 0.5
        return y
    # DCT-I double-counts interior terms relative to the plain sum
    y = scipy.fft.dct(nat, type=1, axis=-1)
    sign = (-1.0) ** np.arange(u.shape[-1])
    return 0.5 * (y + nat[..., :1] + sign * nat[..., -1:])


def _cheb_rows(n: int, L: int, sel: np.ndarray, kind: str):
    """The row kernels (apply, adjoint_apply, width) of the Chebyshev
    extension A[m, k] = T_k(x_m), k < N, at the nodes sel of the L-node
    grid: apply is one DCT of the zero-padded series (`_cheb_series_at_nodes`),
    the adjoint one F^T pass (`_cheb_nodes_to_modes`)."""
    def apply(x):
        c = np.zeros((x.shape[0], L))
        c[:, :n] = x
        return _cheb_series_at_nodes(c, kind)[:, sel]

    def adjoint_apply(y):
        u = np.zeros((y.shape[0], L))
        u[:, sel] = y
        return _cheb_nodes_to_modes(u, kind)[:, :n]

    return apply, adjoint_apply, L


def _cheb_gram(moments: np.ndarray, h2: np.ndarray) -> LinearOperator:
    """G = Z*A of the Chebyshev frame from the moments mu_0 .. mu_{2N-2} of
    the weighted mask and the squared norms h_0^2 .. h_{N-1}^2, with no
    N x N matrix: G = diag(1/h^2) F_P^T diag(K) F_P, F_P the frame's own row
    kernels (`_cheb_rows`) on the P roots y_l of T_P, P = next_fast_len(2N - 1).

    T_j T_k = (T_{j+k} + T_{|j-k|}) / 2 gives
    G[j, k] = (mu_{j+k} + mu_{|j-k|}) / (2 h_j^2), so K needs
    sum_l K_l T_p(y_l) = mu_p for p <= 2N - 2.  The discrete orthogonality
    of the roots, sum_l (pi/P) T_p T_q = hat h_p^2 delta_pq for p, q < P,
    makes K = (pi/P) sum_p (mu_p / hat h_p^2) T_p(y_l) exact: one DCT of the
    moments.  Whichever nodes the frame has, G runs on roots.  G is real but
    not symmetric: G* u = F_P^T diag(K) F_P (u / h^2).
    """
    n = h2.size
    P = scipy.fft.next_fast_len(2 * n - 1, real=True)
    w, h2_p = _cheb_weights(P, "roots")
    c = np.zeros(P)
    c[:2 * n - 1] = w[:2 * n - 1] * moments / h2_p[:2 * n - 1]
    weight = _cheb_series_at_nodes(c, "roots")
    scaling = 1.0 / h2
    rows, width = _gram_rows(weight, *_cheb_rows(n, P, slice(None), "roots"))
    return _chunked(n, n, lambda x: scaling * rows(x), lambda x: rows(scaling * x), width)


def chebyshev_extension(n: int, domain: DomainSpec, oversampling: float = 2.0,
                        kind: str = "roots") -> AzProblem:
    """Chebyshev extension frame: series of length N sampled at the Chebyshev
    nodes that fall inside the domain, for the fast L from
    `_select_grid_size`: the L roots of T_L, or the L + 1 extremae of T_L,
    so that their DCT-I, an FFT of length 2L, is fast too.  A applies by one
    DCT of the grid's length per column (`_cheb_rows`).

    Z is the matching subblock of the discrete dual W F D, so that on the
    full grid Z* A = I.  G = Z*A comes from the moments
    mu_p = sum_{m inside} w_m T_p(x_m), p = 0..2N-2, taken by one F^T pass
    over the weighted mask, and runs the same kernels on the P >= 2N - 1
    roots of T_P (see `_cheb_gram`), so step 1 needs no Z.
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
    a = _chunked(sel.size, n, *_cheb_rows(n, L, sel, kind))
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
    w1g = sample_function(w1, base.grid)
    w2g = sample_function(w2, base.grid)
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
        v1 = sample_function(w1, pts) * base.evaluate(coeffs[:n], pts)
        v2 = sample_function(w2, pts) * base.evaluate(coeffs[n:], pts)
        return v1 + v2

    return AzProblem(A=a, Z=z, label=f"sumframe({base.label})",
                     scale=base.scale * float(np.sqrt(wg.max())),
                     grid=base.grid, evaluate=evaluate, domain=base.domain)


def weighted_lsq(base: AzProblem, d, eps_w: float) -> WeightedAzProblem:
    """Wrap a base problem with positive row weights for W A x = W b."""
    if callable(d):
        if base.grid is None:
            raise ValueError("weight callable needs grid metadata on the problem")
        d = sample_function(d, base.grid)
    return WeightedAzProblem(base=base, d=d, eps_w=float(eps_w))


def fourier_lsq_equispaced(n: int, m: int) -> AzProblem:
    """Periodic Fourier least squares on [0, 1): N terms exp(2 pi i k x), M >= N
    equispaced samples x_j = j/M.

    With t = 2x - 1, exp(2 pi i k x_j) = (-1)^k exp(i pi k t_j), and
    t_j = -1 + 2j/M is the whole periodic grid of length M: the
    `_fourier_problem` with L = M, every grid point and the coefficients
    C = D V, D = diag((-1)^k), so A = A_r C* with A_r the real 1D Fourier
    extension `_rfft_rows`.  Discrete orthogonality gives the exact dual
    Z = A/M, and the real form's G_r = Z_r* A_r = I exactly: N <= M
    frequencies stay distinct mod M.  The approximant is the 1D series
    `_fourier_series` of D c at 2x - 1.
    """
    freqs = _symmetric_frequencies(n)
    if m < n:
        raise ValueError("need at least as many samples as terms")
    sign = diagonal((-1.0) ** np.abs(freqs))

    def evaluate(coeffs, pts):
        return _fourier_series(sign.apply(coeffs), 2.0 * np.asarray(pts, dtype=np.float64) - 1.0)

    return _fourier_problem(n, 1, m, slice(None), np.arange(m) / m,
                            compose(sign, _pairing(n, 1)), diagonal(np.ones(n)),
                            label=f"fourier01(N={n}, M={m})", evaluate=evaluate)


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
    exact = sample_function(f, pts)
    err = np.abs(approx - exact)
    return {"max_err": float(err.max()),
            "l2_err": float(np.sqrt(np.mean(err**2)))}
