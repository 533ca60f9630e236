"""Dense kernel tests: SVD, pivoted QR, the growing Householder QR, epsilon
rank and pseudoinverse."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from azls import matrixcore as mc
from helpers import random_complex, reconstruct


class TestSvd:
    def test_identity(self):
        f = mc.svd(np.eye(3))
        assert np.allclose(f.sigma, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        f = mc.svd(np.diag([3.0, 1.0]))
        assert np.allclose(f.sigma, [3.0, 1.0])
        assert np.allclose(np.abs(f.U), np.eye(2))
        assert np.allclose(np.abs(f.V), np.eye(2))

    def test_reconstruction(self):
        a = random_complex(5, 3, seed=11)
        f = mc.svd(a)
        assert np.linalg.norm(a - reconstruct(f), "fro") <= 1e-12

    def test_orthonormal_columns(self):
        a = random_complex(7, 4, seed=3)
        f = mc.svd(a)
        assert np.linalg.norm(f.U.conj().T @ f.U - np.eye(4)) <= 1e-12
        assert np.linalg.norm(f.V.conj().T @ f.V - np.eye(4)) <= 1e-12

    def test_sigma_nonincreasing(self):
        f = mc.svd(random_complex(6, 6, seed=5))
        assert np.all(np.diff(f.sigma) <= 0)

    def test_nonfinite_rejected(self):
        a = random_complex(4, 4, seed=22)
        a[1, 2] = np.nan
        for kernel in (mc.svd, mc.singular_values):
            with pytest.raises(ValueError, match="non-finite"):
                kernel(a)

    def test_no_convergence_raises(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        for kernel in (mc.svd, mc.singular_values):
            with pytest.raises(mc.FactorizationError):
                kernel(np.eye(3))

    @pytest.mark.parametrize("real", [True, False])
    def test_singular_values_are_the_svds(self, real):
        a = random_complex(9, 6, seed=8)
        a = a.real if real else a
        sigma = mc.singular_values(a)
        assert sigma.dtype == np.float64
        assert np.max(np.abs(sigma - mc.svd(a).sigma)) <= 1e-14 * sigma[0]


class TestPivotedQr:
    def test_identity(self):
        f = mc.pivoted_qr(np.eye(3))
        assert np.allclose(f.Q, np.eye(3))
        assert np.allclose(f.R, np.eye(3))
        assert sorted(f.perm.tolist()) == [0, 1, 2]

    def test_zero_column_pivoted_last(self):
        a = np.column_stack([np.zeros(2), np.array([1.0, 0.0])])
        f = mc.pivoted_qr(a)
        assert f.perm[0] == 1

    def test_recomposition(self):
        a = random_complex(6, 4, seed=9)
        f = mc.pivoted_qr(a)
        assert np.linalg.norm(a[:, f.perm] - f.Q @ f.R, "fro") <= 1e-12

    def test_reconstruct_undoes_permutation(self):
        a = random_complex(6, 4, seed=10)
        f = mc.pivoted_qr(a)
        assert np.linalg.norm(a - reconstruct(f), "fro") <= 1e-12


class TestEpsRank:
    def test_identity(self):
        assert mc.eps_rank(np.eye(3), 0.5) == 3

    def test_small_tail(self):
        assert mc.eps_rank(np.diag([1.0, 1e-9, 1e-9]), 1e-6) == 1

    def test_constructed_rank_four(self):
        rng = np.random.default_rng(21)
        a = sum(np.outer(rng.standard_normal(12), rng.standard_normal(9))
                for _ in range(4))
        a = a + 1e-10 * rng.standard_normal((12, 9))
        assert mc.eps_rank(a, 1e-8) == 4

    def test_tail_at_r_minus_one_exceeds(self):
        # r is minimal: the tail from r - 1 on is above eps
        a, eps = np.diag([2.0, 1.0, 0.1]), 0.5
        r, sigma = mc.eps_rank(a, eps), mc.singular_values(a)
        assert r > 0
        assert np.sqrt(np.sum(sigma[r - 1:] ** 2)) > eps


class TestDenseKernels:
    def test_pseudoinverse_identity(self):
        assert np.allclose(mc.pseudoinverse(np.eye(2)), np.eye(2))

    def test_moore_penrose(self):
        a = random_complex(6, 3, seed=17)
        assert np.linalg.norm(a @ mc.pseudoinverse(a) @ a - a) <= 1e-11


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 64), st.integers(1, 48), st.integers(0, 10_000))
def test_factorizations_recompose(m, n, seed):
    a = random_complex(m, n, seed)
    tol = 1e-12 * max(1.0, np.linalg.norm(a, "fro"))
    assert np.linalg.norm(a - reconstruct(mc.svd(a)), "fro") <= tol
    assert np.linalg.norm(a - reconstruct(mc.pivoted_qr(a)), "fro") <= tol


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.lists(st.integers(1, 30), min_size=1, max_size=5),
       st.integers(0, 10_000), st.sampled_from([np.float64, np.complex128]))
def test_grown_householder_qr_recomposes(m, widths, seed, dtype):
    # blocks appended one by one, tall and wide alike, still factor the
    # whole matrix: Q has orthonormal columns and Q R gives it back; a real
    # matrix keeps a real factor, which applies Q* to a complex b too
    a = random_complex(m, sum(widths), seed)
    a = a.real.copy() if dtype is np.float64 else a
    f, start = None, 0
    for w in widths:
        f = mc.householder_qr(a[:, start:start + w], f)
        start += w
    k = min(m, a.shape[1])
    q = f.adjoint_q(np.eye(m)).conj().T
    assert f.packed.dtype == f.tau.dtype == q.dtype == dtype
    assert q.shape == (m, k) and f.R.shape == (k, a.shape[1])
    tol = 1e-12 * max(1.0, np.linalg.norm(a, "fro"))
    assert np.linalg.norm(a - q @ f.R, "fro") <= tol
    assert np.linalg.norm(q.conj().T @ q - np.eye(k), "fro") <= 1e-12 * k
    b = random_complex(m, 2, seed + 1)
    assert np.linalg.norm(f.adjoint_q(b) - q.conj().T @ b) <= tol
    assert np.linalg.norm(f.adjoint_q(b[:, 0]) - q.conj().T @ b[:, 0]) <= tol


class TestHouseholderQr:
    def test_row_mismatch_rejected(self):
        f = mc.householder_qr(random_complex(5, 2, seed=1))
        with pytest.raises(ValueError):
            mc.householder_qr(random_complex(4, 2, seed=2), f)

    @pytest.mark.parametrize("first, second", [(np.float64, np.complex128),
                                               (np.complex128, np.float64)])
    def test_mixed_dtype_rejected(self, first, second):
        # a real block would be cast into a complex factor, and a complex one
        # would lose its imaginary part in a real factor
        a = random_complex(6, 4, seed=5)
        first_block, block = (a[:, cols] if dtype is np.complex128 else a[:, cols].real
                              for dtype, cols in ((first, slice(2)), (second, slice(2, 4))))
        f = mc.householder_qr(first_block)
        with pytest.raises(ValueError, match="block is"):
            mc.householder_qr(block, f)

    def test_real_factor_applies_to_a_complex_b(self):
        a = random_complex(7, 4, seed=6).real
        f = mc.householder_qr(a)
        q, r = np.linalg.qr(a)
        b = random_complex(7, 3, seed=7)
        got = f.adjoint_q(b)
        assert got.dtype == np.complex128
        # Householder and numpy's Q agree up to the sign of each column
        signs = np.sign(np.diagonal(f.R)) * np.sign(np.diagonal(r))
        assert np.linalg.norm(got - signs[:, None] * (q.T @ b)) <= 1e-13 * np.linalg.norm(b)
        assert np.linalg.norm(f.adjoint_q(b[:, 0]) - got[:, 0]) <= 1e-13 * np.linalg.norm(b)

    def test_nonfinite_block_rejected(self):
        f = mc.householder_qr(random_complex(5, 2, seed=3))
        block = random_complex(5, 2, seed=4)
        block[2, 1] = np.nan
        with pytest.raises(ValueError):
            mc.householder_qr(block, f)


@pytest.mark.parametrize("dtype, kind", [(np.int64, np.float64), (np.float64, np.float64),
                                         (np.complex128, np.complex128)])
def test_kernels_keep_the_promoted_dtype(dtype, kind):
    # real data is factored by real LAPACK, the growing QR too
    a = np.array([[4, 1, 2], [1, 3, 0], [2, 0, 5], [1, 1, 1]], dtype=dtype)
    f, q = mc.svd(a), mc.pivoted_qr(a)
    assert f.U.dtype == f.V.dtype == q.Q.dtype == q.R.dtype == kind
    assert np.linalg.norm(reconstruct(f) - a) <= 1e-13 * np.linalg.norm(a)
    assert np.linalg.norm(reconstruct(q) - a) <= 1e-13 * np.linalg.norm(a)
    assert mc.pseudoinverse(a).dtype == kind
    assert mc.householder_qr(a).packed.dtype == kind


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 1000),
       st.floats(1e-12, 10.0), st.floats(1e-12, 10.0))
def test_eps_rank_monotone(seed, eps1, eps2):
    lo, hi = sorted([eps1, eps2])
    a = random_complex(10, 8, seed)
    assert mc.eps_rank(a, lo) >= mc.eps_rank(a, hi)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 1000))
def test_pivoted_qr_diagonal_nonincreasing(seed):
    f = mc.pivoted_qr(random_complex(12, 10, seed))
    d = np.abs(np.diagonal(f.R))
    assert np.all(d[:-1] >= d[1:] - 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1000))
def test_projector_property(seed):
    w = random_complex(9, 6, seed)
    proj = w @ mc.pseudoinverse(w)
    assert np.linalg.norm(proj @ proj - proj, "fro") <= 1e-11
    assert np.linalg.norm(proj, 2) <= 1 + 1e-11


def test_eps_rank_rejects_nonpositive():
    for eps in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            mc.eps_rank(np.eye(2), eps)
