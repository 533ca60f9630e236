"""Solver tests: dense baselines, truncated SVD/QR with their residual
bounds, randomized sketch solvers, determinism, and the Gaussian Monte Carlo."""

import re

import numpy as np
import pytest
import scipy.linalg

from azls import az_solve, default_config, frames, matrixcore as mc, operators as ops, solvers
from azls.frames import DomainSpec, sample_function
from azls.solvers import SolverConfig
from helpers import (dense_oracle, mc_gaussian_props, random_complex, spectrum_matrix,
                     step1_rhs)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.0, sketch_size=5)
        with pytest.raises(ValueError):
            SolverConfig(eps=1.0, sketch_size=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
            SolverConfig(eps=1.0, sketch_size=5, seed=-1)

    def test_fractional_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got 1.5"):
            SolverConfig(eps=1.0, sketch_size=5, seed=1.5)

    def test_fractional_sketch_size_rejected(self):
        with pytest.raises(ValueError, match="sketch_size must be an integer >= 1, got 2.5"):
            SolverConfig(eps=1.0, sketch_size=2.5)

    def test_numpy_integers_accepted(self):
        cfg = SolverConfig(eps=1.0, sketch_size=np.int64(5), seed=np.uint32(7))
        assert (cfg.sketch_size, cfg.seed) == (5, 7)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_nonfinite_eps_rejected(self, eps):
        # it would keep no singular value and return x = 0 without error
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            SolverConfig(eps=eps, sketch_size=5)


class TestDirectLsq:
    def test_identity(self):
        rep = solvers.direct_lsq(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(rep.x, [1.0, 2.0, 3.0])

    def test_mean(self):
        rep = solvers.direct_lsq(np.ones((2, 1)), np.array([1.0, 3.0]))
        assert np.isclose(rep.x[0], 2.0)

    def test_normal_equations(self):
        a = random_complex(12, 5, seed=1)
        b = np.asarray(random_complex(12, 1, seed=2)).ravel()
        rep = solvers.direct_lsq(a, b)
        assert np.max(np.abs(a.conj().T @ (b - a @ rep.x))) <= 1e-10

    def test_matches_pinv_on_rank_deficient(self):
        a = spectrum_matrix(12, 6, [3.0, 2.0, 1.0, 0.5, 0.0, 0.0], seed=7)
        b = np.asarray(random_complex(12, 1, seed=8)).ravel()
        rep = solvers.direct_lsq(a, b)
        x = np.linalg.pinv(a) @ b
        assert rep.rank_used == np.linalg.matrix_rank(a) == 4
        assert np.linalg.norm(rep.x - x) <= 1e-12 * np.linalg.norm(x)
        assert rep.residual_norm == np.linalg.norm(b - a @ rep.x)

    @pytest.mark.parametrize("a", [np.array([[1.0, np.nan], [0.0, 1.0]]),
                                   np.array([[np.inf], [1.0]]),
                                   np.zeros((0, 2)), np.ones(3)])
    def test_bad_matrix_rejected(self, a):
        with pytest.raises(ValueError):
            solvers.direct_lsq(a, np.ones(a.shape[0]))

    def test_zero_matrix(self):
        # the relative cutoff is strict, so a zero matrix keeps nothing
        rep = solvers.direct_lsq(np.zeros((3, 2)), np.ones(3))
        assert np.array_equal(rep.x, np.zeros(2))
        assert rep.rank_used == 0


class TestTsvd:
    def test_identity_all_retained(self):
        rep = solvers.tsvd_solve(np.eye(2), np.array([1.0, 1.0]), SolverConfig(0.5, 1))
        assert np.allclose(rep.x, [1.0, 1.0])
        assert rep.rank_used == 2

    def test_small_direction_truncated(self):
        rep = solvers.tsvd_solve(np.diag([1.0, 1e-12]), np.array([1.0, 1.0]),
                                 SolverConfig(1e-6, 1))
        assert np.allclose(rep.x, [1.0, 0.0])
        assert rep.rank_used == 1

    def test_residual_bound_constructed_spectrum(self):
        sigma = 2.0 ** -np.arange(1, 11)
        a = spectrum_matrix(20, 10, sigma, seed=3)
        b = np.asarray(random_complex(20, 1, seed=4)).ravel()
        eps = 1e-2
        rep = solvers.tsvd_solve(a, b, SolverConfig(eps, 2))
        assert rep.rank_used == int(np.sum(sigma >= eps))
        v = mc.pseudoinverse(a) @ b
        bound = np.linalg.norm(b - a @ v) + eps * np.linalg.norm(v)
        assert rep.residual_norm <= bound + 1e-12

    def test_tie_retained(self):
        rep = solvers.tsvd_solve(np.diag([1.0, 0.5]), np.array([1.0, 1.0]), SolverConfig(0.5, 1))
        assert rep.rank_used == 2


class CertifiedDense:
    """The dense tsvd and tqr factor the R x N core of a certified low-rank
    factor Q C, ||A - Q C||_F < eps, starting at R = sketch_size and
    doubling; a round that would take R past N/2 leaves the same
    factorization to the triangular factor R_B of A = Q R_B (Omega = I).
    A subclass sets QR; "svd" in a test name is the solver's own
    factorization, the SVD or the pivoted QR."""

    EPS = 1e-8
    QR = False

    def solve(self, a, b, cfg):
        return (solvers.tqr_solve if self.QR else solvers.tsvd_solve)(a, b, cfg)

    def reference(self, a, b):
        return dense_oracle(a, b, self.EPS, self.QR)

    @staticmethod
    def matrix(rank, dtype, seed, m=120, n=80):
        """U diag(sigma) V* of eps-rank `rank`: a graded spectrum, then a
        sub-eps tail."""
        sigma = np.concatenate([np.logspace(0, -3, rank), np.full(n - rank, 1e-14)])
        if dtype == "complex":
            return spectrum_matrix(m, n, sigma, seed=seed)
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.standard_normal((m, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return (u * sigma) @ v.T

    @pytest.mark.parametrize("dtype", ["real", "complex"])
    def test_first_round_matches_full_svd(self, dtype):
        a = self.matrix(20, dtype, seed=31)
        b = np.asarray(random_complex(120, 1, seed=32)).ravel()
        cfg = SolverConfig(self.EPS, 24, seed=3)
        q, c = solvers._low_rank_factor(a, cfg)
        assert q.dtype == c.dtype == a.dtype
        assert q.shape == (120, 24)
        assert np.linalg.norm(q.conj().T @ q - np.eye(24)) <= 1e-13
        assert np.linalg.norm(a - q @ c) < self.EPS
        ref = self.reference(a, b)
        rep = self.solve(a, b, cfg)
        assert (rep.rank_used, rep.sketch_size) == (ref.rank_used, 24)
        assert ref.rank_used == 20
        assert np.linalg.norm(rep.x - ref.x) <= 1e-8 * np.linalg.norm(ref.x)

    def test_core_is_the_only_svd(self, monkeypatch):
        a = self.matrix(20, "real", seed=33)
        calls = []
        for name in ("svd", "pivoted_qr"):
            def counted(m, name=name, fn=getattr(mc, name)):
                calls.append((name, m.shape))
                return fn(m)

            monkeypatch.setattr(mc, name, counted)
        rep = self.solve(a, np.ones(120), SolverConfig(self.EPS, 24))
        assert calls == [("pivoted_qr" if self.QR else "svd", (24, 80))]
        assert rep.sketch_size == 24

    def test_later_round_certifies(self):
        # rank 25 from R = 4: rounds of 4, 8, 16 fail, R = 32 <= N/2 certifies
        a = self.matrix(25, "complex", seed=34)
        b = np.asarray(random_complex(120, 1, seed=35)).ravel()
        cfg = SolverConfig(self.EPS, 4, seed=1)
        # the last block holds sub-eps directions, which lose their
        # orthogonality to the earlier blocks unless reorthogonalized
        q, _ = solvers._low_rank_factor(a, cfg)
        assert np.linalg.norm(q.conj().T @ q - np.eye(32)) <= 1e-13
        rep = self.solve(a, b, cfg)
        ref = self.reference(a, b)
        assert (rep.rank_used, rep.sketch_size) == (25, 32)
        assert np.linalg.norm(rep.x - ref.x) <= 1e-8 * np.linalg.norm(ref.x)

    @pytest.mark.parametrize("sketch_size", [4, 41])
    def test_rank_above_half_finishes_at_omega_identity(self, sketch_size):
        # R = 4 runs rounds to 32 first; R = 41 > N/2 goes to Omega = I at once
        a = self.matrix(50, "complex", seed=36)
        b = np.asarray(random_complex(120, 1, seed=37)).ravel()
        rep = self.solve(a, b, SolverConfig(self.EPS, sketch_size, seed=2))
        ref = self.reference(a, b)
        assert (rep.rank_used, rep.sketch_size) == (50, 80)
        assert np.linalg.norm(rep.x - ref.x) <= 1e-8 * np.linalg.norm(ref.x)

    @pytest.mark.parametrize("shape", [(120, 80), (80, 80), (50, 80)])
    @pytest.mark.parametrize("a_dtype, b_dtype", [("real", "real"), ("real", "complex"),
                                                  ("complex", "real"),
                                                  ("complex", "complex")])
    def test_omega_identity_matches_oracle(self, shape, a_dtype, b_dtype, monkeypatch):
        # a tall, square or wide B of eps-rank 45 > N/2 leaves the rounds
        # for the core of the QR of B; x has the promoted dtype
        m, n = shape
        a = self.matrix(45, a_dtype, seed=42, m=max(m, n), n=n)[:m]
        b = np.asarray(random_complex(m, 1, seed=43)).ravel()
        b = b if b_dtype == "complex" else b.real
        factored = []
        for name in ("svd", "pivoted_qr"):
            def counted(core, name=name, fn=getattr(mc, name)):
                factored.append(core.shape)
                return fn(core)

            monkeypatch.setattr(mc, name, counted)
        rep = self.solve(a, b, SolverConfig(self.EPS, 4, seed=2))
        assert rep.sketch_size == n
        assert factored == [(min(m, n), n)]
        ref = self.reference(a, b)
        assert rep.rank_used == ref.rank_used
        assert rep.x.dtype == ref.x.dtype == np.result_type(a, b)
        assert np.linalg.norm(rep.x - ref.x) <= 1e-8 * np.linalg.norm(ref.x)

    def test_fixed_seed_same_bits(self):
        a = self.matrix(25, "real", seed=38)
        b = np.asarray(random_complex(120, 1, seed=39)).ravel()
        cfg = SolverConfig(self.EPS, 4, seed=9)
        x1, x2 = (self.solve(a, b, cfg).x for _ in range(2))
        assert np.array_equal(x1, x2)
        assert not np.array_equal(x1, self.solve(a, b, SolverConfig(self.EPS, 4, 10)).x)

    def test_nonfinite_matrix_rejected(self):
        a = self.matrix(20, "real", seed=41)
        a[3, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            self.solve(a, np.ones(120), SolverConfig(self.EPS, 24))


class TestCertifiedTsvd(CertifiedDense):
    def test_takes_no_scipy_kernel(self, monkeypatch):
        # the rounds, the Omega = I QR and the core SVD run numpy's kernels;
        # the tqr core's pivoted QR is scipy's, since numpy has none
        def unusable(*args, **kwargs):
            raise AssertionError("scipy kernel taken")

        for name in ("svd", "qr"):
            monkeypatch.setattr(scipy.linalg, name, unusable)
        # rank 20 certifies at R = 24; rank 50 > N/2 finishes at Omega = I
        for rank, sketch_size in ((20, 24), (50, 80)):
            rep = solvers.tsvd_solve(self.matrix(rank, "real", seed=40), np.ones(120),
                                     SolverConfig(self.EPS, 24))
            assert (rep.rank_used, rep.sketch_size) == (rank, sketch_size)


class TestCertifiedTqr(CertifiedDense):
    QR = True


class TestTqr:
    def test_identity(self):
        rep = solvers.tqr_solve(np.eye(3), np.array([1.0, 2.0, 3.0]), SolverConfig(0.5, 1))
        assert np.allclose(rep.x, [1.0, 2.0, 3.0])
        assert rep.rank_used == 3

    def test_truncated_diag(self):
        rep = solvers.tqr_solve(np.diag([2.0, 1e-13]), np.array([2.0, 1.0]),
                                SolverConfig(1e-6, 1))
        assert np.allclose(rep.x, [1.0, 0.0])
        assert rep.rank_used == 1

    def test_residual_bound_trailing_block(self):
        a = random_complex(16, 8, seed=5)
        f = mc.pivoted_qr(a)
        eps = 1e-6
        b = np.asarray(random_complex(16, 1, seed=6)).ravel()
        rep = solvers.tqr_solve(a, b, SolverConfig(eps, 1))
        r = rep.rank_used
        assert r == int(np.sum(np.abs(np.diagonal(f.R)) >= eps))
        r22_norm = np.linalg.norm(f.R[r:, r:], 2) if r < f.R.shape[0] else 0.0
        v = mc.pseudoinverse(a) @ b
        bound = np.linalg.norm(b - a @ v) + r22_norm * np.linalg.norm(v)
        assert rep.residual_norm <= bound + 1e-12

    def test_singular_block_dropped(self):
        # a zero diagonal is below every eps, so it is never back-solved
        b = np.ones(3)
        rep = solvers.tqr_solve(np.zeros((3, 2)), b, SolverConfig(1e-8, 1))
        assert np.array_equal(rep.x, np.zeros(2))
        assert rep.rank_used == 0
        assert rep.residual_norm == np.linalg.norm(b)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            solvers.tqr_solve(np.eye(2), np.zeros(2), SolverConfig(0.0, 1))


class TestZeroRankExit:
    """tsvd and tqr keep nothing of a matrix with ||A||_F < eps (sigma_1 and
    |R_11| are both at most ||A||_F), so they return x = 0 unfactored."""

    SOLVES = [(solvers.tsvd_solve, False), (solvers.tqr_solve, True)]

    @pytest.mark.parametrize("solve, qr", SOLVES)
    def test_below_eps_does_not_factor(self, solve, qr, monkeypatch):
        a = 1e-12 * random_complex(9, 5, seed=2)
        b = np.asarray(random_complex(9, 1, seed=3)).ravel()
        x_factored, _ = solvers._truncated_solve(a, b, 1e-8, qr)

        def unusable(*args, **kwargs):
            raise AssertionError("factored")

        monkeypatch.setattr(mc, "svd", unusable)
        monkeypatch.setattr(mc, "pivoted_qr", unusable)
        rep = solve(a, b, SolverConfig(1e-8, 1))
        assert rep.rank_used == 0
        assert rep.x.dtype == x_factored.dtype == np.complex128
        assert np.array_equal(rep.x, x_factored)
        assert rep.residual_norm == np.linalg.norm(b)
        # a real matrix and a real b give a real zero
        assert solve(a.real, b.real, SolverConfig(1e-8, 1)).x.dtype == np.float64

    @pytest.mark.parametrize("solve, qr", SOLVES)
    def test_at_eps_factors(self, solve, qr, monkeypatch):
        # ||A||_F = 1.2 eps although every singular value is 0.6 eps
        a = 0.6e-8 * np.vstack([np.eye(4), np.zeros((2, 4))])
        calls = []
        for name in ("svd", "pivoted_qr"):
            fn = getattr(mc, name)
            monkeypatch.setattr(mc, name, lambda m, fn=fn: calls.append(m) or fn(m))
        rep = solve(a, np.ones(6), SolverConfig(1e-8, 1))
        assert len(calls) == 1
        assert rep.rank_used == 0
        assert np.array_equal(rep.x, np.zeros(4))


class TestRandomizedTsvd:
    def test_zero_operator(self):
        zero = ops.from_dense(np.zeros((6, 4)))
        b = np.ones(6)
        rep = solvers.randomized_tsvd_solve(zero, b, SolverConfig(eps=1e-8, sketch_size=4))
        assert np.allclose(rep.x, 0.0)
        assert rep.rank_used == 0
        assert np.isclose(rep.residual_norm, np.linalg.norm(b))

    def test_full_sketch_exact(self):
        b = np.asarray(random_complex(10, 1, seed=7)).ravel()
        # eps sits below the sketch's own spectrum so nothing is truncated
        rep = solvers.randomized_tsvd_solve(
            ops.from_dense(np.eye(10)), b, SolverConfig(eps=1e-8, sketch_size=10, seed=1))
        assert np.max(np.abs(rep.x - b)) <= 1e-10

    def test_deterministic(self):
        a = ops.from_dense(random_complex(12, 8, seed=8))
        b = np.asarray(random_complex(12, 1, seed=9)).ravel()
        cfg = SolverConfig(eps=1e-8, sketch_size=6, seed=42)
        x1 = solvers.randomized_tsvd_solve(a, b, cfg).x
        x2 = solvers.randomized_tsvd_solve(a, b, cfg).x
        assert np.array_equal(x1, x2)

    def test_adaptive_growth(self):
        # rank 6 matrix, initial sketch 3: adaptation must widen the sketch
        sigma = np.array([1.0] * 6 + [1e-14] * 4)
        a = spectrum_matrix(15, 10, sigma, seed=10)
        b = a @ np.ones(10)
        cfg = SolverConfig(eps=1e-6, sketch_size=3, seed=0)
        rep = solvers.randomized_tsvd_solve(ops.from_dense(a), b, cfg)
        assert rep.sketch_size > 3
        assert rep.residual_norm <= 1e-8 * np.linalg.norm(b)


class TestRandomizedTqr:
    def test_zero_operator(self):
        rep = solvers.randomized_tqr_solve(
            ops.from_dense(np.zeros((5, 4))), np.ones(5),
            SolverConfig(eps=1e-8, sketch_size=4))
        assert np.allclose(rep.x, 0.0)

    def test_full_sketch_exact(self):
        b = np.asarray(random_complex(8, 1, seed=11)).ravel()
        rep = solvers.randomized_tqr_solve(
            ops.from_dense(np.eye(8)), b, SolverConfig(eps=1e-8, sketch_size=8, seed=3))
        assert np.max(np.abs(rep.x - b)) <= 1e-10


def _unusable(v):
    raise AssertionError("applied")


def _unapplied(a):
    """An operator of a's shape that fails when applied."""
    return ops.LinearOperator(a.shape[0], a.shape[1], _unusable, _unusable)


CONTRACT_CFG = SolverConfig(eps=1e-8, sketch_size=4)
# every public solver, on a matrix (dense) or an operator that must not be
# applied before its input is checked (randomized)
PUBLIC_SOLVERS = {
    "tsvd": lambda a, b: solvers.tsvd_solve(a, b, CONTRACT_CFG),
    "tqr": lambda a, b: solvers.tqr_solve(a, b, CONTRACT_CFG),
    "direct": solvers.direct_lsq,
    "rand-tsvd": lambda a, b: solvers.randomized_tsvd_solve(_unapplied(a), b, CONTRACT_CFG),
    "rand-tqr": lambda a, b: solvers.randomized_tqr_solve(_unapplied(a), b, CONTRACT_CFG),
}


class TestInputContract:
    """Every public solver rejects a bad b, and a matrix or operator with no
    columns, with one ValueError before any apply."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", PUBLIC_SOLVERS)
    def test_nonfinite_b(self, name, bad):
        b = np.ones(10, dtype=complex)
        b[3] = bad
        with pytest.raises(ValueError, match="b contains non-finite"):
            PUBLIC_SOLVERS[name](random_complex(10, 6, seed=1), b)

    @pytest.mark.parametrize("shape", [(9,), (11,), (10, 1)])
    @pytest.mark.parametrize("name", PUBLIC_SOLVERS)
    def test_wrong_length_b(self, name, shape):
        with pytest.raises(ValueError, match=re.escape(f"b has shape {shape}, expected (10,)")):
            PUBLIC_SOLVERS[name](random_complex(10, 6, seed=1), np.ones(shape))

    @pytest.mark.parametrize("name", PUBLIC_SOLVERS)
    def test_no_columns(self, name):
        with pytest.raises(ValueError, match="expected a nonempty"):
            PUBLIC_SOLVERS[name](np.zeros((10, 0)), np.ones(10))


# every public solver, on a matrix (dense) or its operator (randomized)
APPLIED_SOLVERS = {
    **PUBLIC_SOLVERS,
    "rand-tsvd": lambda a, b: solvers.randomized_tsvd_solve(ops.from_dense(a), b, CONTRACT_CFG),
    "rand-tqr": lambda a, b: solvers.randomized_tqr_solve(ops.from_dense(a), b, CONTRACT_CFG),
}


@pytest.mark.parametrize("name", APPLIED_SOLVERS)
def test_x_has_the_promoted_dtype(name):
    # no solver casts b: a real matrix with a real b gives a float64 x, and a
    # complex matrix or a complex b a complex128 one
    a = random_complex(12, 8, seed=4)
    b = np.asarray(random_complex(12, 1, seed=5)).ravel()
    solve = APPLIED_SOLVERS[name]
    assert solve(a.real, b.real).x.dtype == np.float64
    for a_in, b_in in ((a, b), (a.real, b), (a, b.real)):
        assert solve(a_in, b_in).x.dtype == np.complex128


def explicit_sketch_solve(a, b, cfg, qr):
    """The randomized solve written out: draw Omega from default_rng(seed) in
    the solver's block order, factor the whole of A Omega each round, and
    stop once the kept rank k < R or R = N.  Returns (x, k, R)."""
    n = a.shape[1]
    rng = np.random.default_rng(cfg.seed)
    omega = rng.standard_normal((n, min(cfg.sketch_size, n)))
    while True:
        s = a @ omega
        if qr:
            q, r, perm = scipy.linalg.qr(s, mode="economic", pivoting=True)
            k = int(np.sum(np.abs(np.diagonal(r)) >= cfg.eps))
            y = np.zeros(s.shape[1], dtype=complex)
            y[perm[:k]] = np.linalg.solve(r[:k, :k], q[:, :k].conj().T @ b)
        else:
            u, sigma, vh = np.linalg.svd(s, full_matrices=False)
            k = int(np.sum(sigma >= cfg.eps))
            y = vh[:k].conj().T @ ((u[:, :k].conj().T @ b) / sigma[:k])
        big = omega.shape[1]
        if k < big or big >= n:
            return omega @ y, k, big
        omega = np.concatenate(
            [omega, rng.standard_normal((n, min(big, n - big)))], axis=1)


class TestGrowingSketch:
    # rank 25 with a graded spectrum: from a sketch of 3 the solver grows
    # 3 -> 6 -> 12 -> 24 -> 40, four doublings
    sigma = np.concatenate([np.logspace(0, -6, 25), np.full(15, 1e-15)])

    @pytest.mark.parametrize("solve, qr", [(solvers.randomized_tsvd_solve, False),
                                           (solvers.randomized_tqr_solve, True)])
    def test_matches_explicit_sketch(self, solve, qr):
        a = spectrum_matrix(60, 40, self.sigma, seed=17)
        b = np.asarray(random_complex(60, 1, seed=18)).ravel()
        cfg = SolverConfig(eps=1e-8, sketch_size=3, seed=4)
        x_ref, k_ref, r_ref = explicit_sketch_solve(a, b, cfg, qr)
        assert (k_ref, r_ref) == (25, 40)
        rep = solve(ops.from_dense(a), b, cfg)
        assert (rep.rank_used, rep.sketch_size) == (k_ref, r_ref)
        assert np.linalg.norm(rep.x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)
        assert np.array_equal(solve(ops.from_dense(a), b, cfg).x, rep.x)

    @pytest.mark.parametrize("solve", [solvers.randomized_tsvd_solve,
                                       solvers.randomized_tqr_solve])
    def test_wide_operator(self, solve):
        # R outgrows M = 6: the factor stops adding reflectors and keeps growing R.
        # The graded spectrum projects its first round (R = 3) to 15, below
        # N = 20, so the rounds run; a flat one goes to Omega = I
        # (TestOmegaIdentityRoute::test_wide_operator_routes)
        a = spectrum_matrix(20, 6, np.logspace(0, -2, 6), seed=19).conj().T
        b = np.asarray(random_complex(6, 1, seed=20)).ravel()
        rep = solve(ops.from_dense(a), b, SolverConfig(eps=1e-8, sketch_size=3, seed=1))
        assert (rep.rank_used, rep.sketch_size) == (6, 12)
        assert rep.residual_norm <= 1e-13 * np.linalg.norm(b)

    def test_one_round_schedule(self):
        # widths s, s, 2s, 4s, ..., the last clipped so that they sum to N;
        # the sketch's Omega after k rounds is the first k blocks
        cfg = SolverConfig(eps=1e-8, sketch_size=3, seed=4)
        blocks = list(solvers._gaussian_blocks(40, cfg))
        assert [block.shape for block in blocks] == [(40, w) for w in (3, 3, 6, 12, 16)]
        rounds = list(solvers._sketch(ops.from_dense(random_complex(60, 40, seed=17)), cfg))
        assert len(rounds) == len(blocks)
        for k, (omega, _) in enumerate(rounds, start=1):
            assert np.array_equal(omega, np.hstack(blocks[:k]))

    @pytest.mark.parametrize("solve", [solvers.randomized_tsvd_solve,
                                       solvers.randomized_tqr_solve])
    def test_nan_from_apply_raises(self, solve):
        a = random_complex(10, 8, seed=21)

        def apply(v):
            out = a @ v
            out[3] = np.nan
            return out

        op = ops.LinearOperator(10, 8, apply, lambda v: a.conj().T @ v)
        with pytest.raises(ValueError, match="non-finite"):
            solve(op, np.ones(10), SolverConfig(eps=1e-8, sketch_size=4))


class TestValuesOnlyRounds:
    """A round that only grows the sketch is certified by a triangular
    inverse and factors nothing; the core is factored once, on the round
    that makes x.  A first round that would grow also takes its core's
    singular values, once, for the projected rank."""

    PROBLEMS = {
        # saturates: its first round (R = 45) keeps every direction and
        # projects past N = 81, so it finishes at Omega = I
        "2d-disk-9": lambda: frames.fourier_extension_2d(9, frames.named_mask("disk")),
        "1d-65": lambda: frames.fourier_extension_1d(65, DomainSpec.interval(-0.5, 0.5)),
    }

    @staticmethod
    def rhs(p):
        f = np.exp if p.grid.ndim == 1 else (lambda x, y: np.exp(x + y))
        return sample_function(f, p.grid)

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_one_full_svd_per_solve(self, name, monkeypatch):
        p = self.PROBLEMS[name]()
        calls = {"svd": [], "svdvals": []}
        for fn in calls:
            def counted(a, *args, fn=fn, kernel=getattr(scipy.linalg, fn), **kwargs):
                calls[fn].append(a.shape)
                return kernel(a, *args, **kwargs)

            monkeypatch.setattr(scipy.linalg, fn, counted)
        cfg = default_config(p, seed=5)
        rep = az_solve(p, self.rhs(p), step1="rand-tsvd", config=cfg)
        assert calls["svd"] == [(rep.sketch_size, rep.sketch_size)]
        # the 2D first round keeps all of R = 45 and projects; the 1D one
        # keeps fewer than R and stops, with no projection
        first = cfg.sketch_size
        assert calls["svdvals"] == ([(first, first)] if name == "2d-disk-9" else [])

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_matches_full_svd_every_round(self, name):
        p = self.PROBLEMS[name]()
        b = self.rhs(p)
        op = p.step1_operator()
        rhs = step1_rhs(p, b)
        cfg = default_config(p, seed=5)
        for omega, factor in solvers._sketch(op, cfg):
            y, k = solvers._truncated_solve(factor.R, factor.adjoint_q(rhs), cfg.eps,
                                            svd=solvers._core_svd)
            # x = Omega y in einsum's own loops, as the solver forms it
            x, r = np.einsum("ij,j->i", omega, y), omega.shape[1]
            if k == r == cfg.sketch_size and solvers._projected_rank(factor.R, cfg.eps) >= op.cols:
                # the first round routes: x = y on the QR of the materialized B
                factor = mc.householder_qr(ops.materialize(op))
                x, k = solvers._truncated_solve(factor.R, factor.adjoint_q(rhs), cfg.eps,
                                                svd=solvers._core_svd)
                r = op.cols
                break
            if k < r or r >= op.cols:
                break
        assert (r == op.cols) == (name == "2d-disk-9")
        rep = solvers.randomized_tsvd_solve(op, rhs, cfg)
        assert (rep.rank_used, rep.sketch_size) == (k, r)
        assert np.array_equal(rep.x, x)

    def test_tqr_rounds_take_no_values(self, monkeypatch):
        # no SVD with vectors: the first round's projection takes only the
        # singular values of its core (scipy.linalg.svdvals), and the
        # Omega = I core is factored by the one pivoted QR
        def unusable(a):
            raise AssertionError("SVD taken")

        qr, calls = mc.pivoted_qr, []

        def counted_qr(a):
            calls.append(a.shape)
            return qr(a)

        monkeypatch.setattr(mc, "svd", unusable)
        monkeypatch.setattr(scipy.linalg, "svd", unusable)
        monkeypatch.setattr(mc, "pivoted_qr", counted_qr)
        p = self.PROBLEMS["2d-disk-9"]()
        rep = az_solve(p, self.rhs(p), step1="rand-tqr", config=default_config(p, seed=5))
        assert rep.sketch_size == p.A.cols
        assert calls == [(p.A.cols, p.A.cols)]

    @pytest.mark.parametrize("tail, certified", [(2.5e-8, True), (1.5e-8, False),
                                                 (0.5e-8, False)])
    def test_certificate_is_sufficient(self, tail, certified):
        # sigma_min = tail against eps = 1e-8: certified only with room to
        # spare, and never when a truncation at eps would drop a direction
        sigma = np.concatenate([np.logspace(0, -4, 11), [tail]])
        t = mc.householder_qr(spectrum_matrix(12, 12, sigma, seed=7)).R
        assert solvers._keeps_every_direction(t, 1e-8) == certified
        assert not solvers._keeps_every_direction(t[:, :-1], 1e-8)  # not square
        if certified:
            assert np.min(mc.svd(t).sigma) >= 1e-8
            assert np.min(np.abs(np.diagonal(mc.pivoted_qr(t).R))) >= 1e-8


class TestOmegaIdentityRoute:
    """A sketch whose first round keeps every direction and projects its
    rank to N or past it, or whose first round is already R = N, finishes
    at Omega = I under MATERIALIZE_CAP: the truncated core of the QR of the
    materialized B, x = y, the minimum-norm x of the dense truncation."""

    @pytest.mark.parametrize("rho, eps", [(0.5, 1e-8), (0.7, 1e-12), (0.9, 1e-6)])
    def test_projection_of_a_geometric_decay(self, rho, eps):
        # sigma_i = rho^i, jittered by up to 20%, reaches eps at log eps / log rho
        rng = np.random.default_rng(3)
        sigma = rho ** np.arange(40) * (1 + 0.2 * rng.uniform(-1, 1, 40))
        t = mc.householder_qr(spectrum_matrix(40, 40, np.sort(sigma)[::-1], seed=4)).R
        crossing = np.log(eps) / np.log(rho)
        assert abs(solvers._projected_rank(t, eps) - crossing) <= 0.25 * crossing

    @pytest.mark.parametrize("tilt", [0.0, 1e-3])
    def test_flat_spectrum_reaches_past_any_n(self, tilt):
        # a flat tail, or one that falls 0.1% a step, reaches eps only past the cap
        sigma = np.exp(tilt * np.arange(30))[::-1]
        t = spectrum_matrix(30, 30, sigma, seed=5)
        assert solvers._projected_rank(t, 1e-8) >= ops.MATERIALIZE_CAP

    @pytest.mark.parametrize("width, first", [(4, 0), (6, 2), (7, 3), (9, 4)])
    def test_fit_takes_the_last_half_and_at_least_four(self, width, first):
        # the line runs through sigma_first .. sigma_{R-1}: the last half of
        # the core, and at least its last four.  The last two of the core of
        # 4 (a first round of a 13-column planted pair) alone project 10.5,
        # short of N = 13
        log_sigma = np.append([2.11, 1.38, 1.04], -1.26 - 0.7 * np.arange(width - 3))

        def crossing(i):
            slope, intercept = np.polyfit(i, log_sigma[i], 1)
            return (np.log(1e-8) - intercept) / slope

        want = crossing(np.arange(first, width))
        assert abs(solvers._projected_rank(np.diag(np.exp(log_sigma)), 1e-8) - want) \
            <= 1e-9 * want
        if width == 4:
            assert want >= 13 > crossing(np.arange(2, 4))

    def test_fewer_than_two_points_project_nothing(self):
        assert solvers._projected_rank(np.array([[2.0]]), 1e-8) == 0
        assert solvers._projected_rank(np.diag([2.0, 1e-3]), 1e-8) == 0

    @staticmethod
    def disk_step1(n):
        """The step-1 operator and right-hand side of the real form of the
        2D disk of n^2 coefficients, for b = exp(x + y)."""
        p = frames.fourier_extension_2d(n, frames.named_mask("disk"))
        b = sample_function(lambda x, y: np.exp(x + y), p.grid)
        return p, p.step1_operator(), step1_rhs(p, b)

    @staticmethod
    def count_rounds(monkeypatch):
        rounds, sketch = [], solvers._sketch

        def counted(a, config):
            for omega, factor in sketch(a, config):
                rounds.append(omega.shape[1])
                yield omega, factor

        monkeypatch.setattr(solvers, "_sketch", counted)
        return rounds

    @pytest.mark.parametrize("qr", [False, True], ids=["rand-tsvd", "rand-tqr"])
    @pytest.mark.parametrize("n", [9, 13])
    def test_routed_solve_is_the_dense_truncation(self, n, qr, monkeypatch):
        # at eps = 1e-6 scale the step-1 x is fixed to about 1e-9 by B; at the
        # default 1e-10 scale a rounding-level change of B moves the dense
        # x itself by up to 10% at n = 13
        p, op, rhs = self.disk_step1(n)
        cfg = default_config(p, seed=5, eps=1e-6 * p.scale)
        rounds = self.count_rounds(monkeypatch)
        solve = solvers.randomized_tqr_solve if qr else solvers.randomized_tsvd_solve
        rep = solve(op, rhs, cfg)
        assert rounds == [cfg.sketch_size]
        assert rep.sketch_size == op.cols == n * n
        b = ops.materialize(op)
        ref = dense_oracle(b, rhs, cfg.eps, qr)
        assert rep.rank_used == ref.rank_used > cfg.sketch_size
        if not qr:
            # CertifiedDense's tolerance
            assert np.linalg.norm(rep.x - ref.x) <= 1e-8 * np.linalg.norm(ref.x)
            return
        # the disk is symmetric under x <-> y, so columns (j1, j2) and
        # (j2, j1) of B have equal norms, and rounding decides which of such
        # a pair the pivoted QR keeps at the cut: the pivoted QR of B and of
        # its R pick differently with the BLAS thread count alone (n = 13).
        # x is the truncation of the R the route factors, to the same 1e-8;
        # its columns are the dense truncation's up to those swaps, and its
        # residual is the dense truncation's
        f = mc.householder_qr(b)
        own = dense_oracle(f.R, f.adjoint_q(rhs), cfg.eps, qr)
        assert np.linalg.norm(rep.x - own.x) <= 1e-8 * np.linalg.norm(own.x)
        kept = [sorted(np.minimum(c, c % n * n + c // n))
                for c in (np.flatnonzero(rep.x), np.flatnonzero(ref.x))]
        assert len(kept[0]) == rep.rank_used and kept[0] == kept[1]
        assert abs(rep.residual_norm - ref.residual_norm) <= 1e-10 * ref.residual_norm

    def test_unrouted_first_round_takes_no_projection(self, monkeypatch):
        # the 1D first round keeps fewer than its R directions: it never asks
        # for the projection, and x is Omega y of the rounds, bitwise
        p = frames.fourier_extension_1d(65, DomainSpec.interval(-0.5, 0.5))
        b = sample_function(np.exp, p.grid)
        op = p.step1_operator()
        rhs = b - p.A.apply(p.Z.adjoint_apply(b))
        cfg = default_config(p, seed=5)
        omega, factor = next(solvers._sketch(op, cfg))
        y, k = solvers._truncated_solve(factor.R, factor.adjoint_q(rhs), cfg.eps,
                                        svd=solvers._core_svd)
        assert k < omega.shape[1] < op.cols

        def unusable(*args, **kwargs):
            raise AssertionError("singular values taken")

        monkeypatch.setattr(scipy.linalg, "svdvals", unusable)
        rep = solvers.randomized_tsvd_solve(op, rhs, cfg)
        assert (rep.rank_used, rep.sketch_size) == (k, omega.shape[1])
        assert np.array_equal(rep.x, np.einsum("ij,j->i", omega, y))

    @pytest.mark.parametrize("solve", [solvers.randomized_tsvd_solve,
                                       solvers.randomized_tqr_solve])
    def test_wide_operator_routes(self, solve, monkeypatch):
        # a flat 6 x 20 B: the first round (R = 3) projects past N = 20, and
        # the Omega = I core of the QR of B is its 6 x 20 R
        a = random_complex(6, 20, seed=19)
        b = np.asarray(random_complex(6, 1, seed=20)).ravel()
        rounds = self.count_rounds(monkeypatch)
        rep = solve(ops.from_dense(a), b, SolverConfig(eps=1e-8, sketch_size=3, seed=1))
        assert rounds == [3]
        assert (rep.rank_used, rep.sketch_size) == (6, 20)
        # the SVD gives pinv(a) b; the pivoted QR its basic solution
        ref = dense_oracle(a, b, 1e-8, solve is solvers.randomized_tqr_solve)
        if solve is solvers.randomized_tsvd_solve:
            assert np.linalg.norm(ref.x - np.linalg.pinv(a) @ b) <= 1e-12 * np.linalg.norm(ref.x)
        assert np.linalg.norm(rep.x - ref.x) <= 1e-8 * np.linalg.norm(ref.x)

    @pytest.mark.parametrize("solve", [solvers.randomized_tsvd_solve,
                                       solvers.randomized_tqr_solve])
    def test_first_round_at_n(self, solve, monkeypatch):
        # R = N from the start takes Omega = I with no sketch round, under
        # the cap; over it, the one Gaussian round makes x = Omega y
        sigma = np.concatenate([np.logspace(0, -3, 8), np.full(4, 1e-14)])
        a = spectrum_matrix(30, 12, sigma, seed=21)
        b = np.asarray(random_complex(30, 1, seed=22)).ravel()
        cfg = SolverConfig(eps=1e-8, sketch_size=12, seed=2)
        rounds = self.count_rounds(monkeypatch)
        rep = solve(ops.from_dense(a), b, cfg)
        assert (rounds, rep.rank_used, rep.sketch_size) == ([], 8, 12)
        ref = dense_oracle(a, b, cfg.eps, solve is solvers.randomized_tqr_solve)
        assert np.linalg.norm(rep.x - ref.x) <= 1e-8 * np.linalg.norm(ref.x)
        monkeypatch.setattr(solvers, "MATERIALIZE_CAP", 11)
        over = solve(ops.from_dense(a), b, cfg)
        assert (rounds, over.rank_used, over.sketch_size) == ([12], 8, 12)
        assert not np.array_equal(over.x, rep.x)


class TestSketchLibrary:
    """numpy and scipy each bundle an OpenBLAS; the sketch loop keeps its
    dense kernels (QR, certificate, core SVD) in scipy's, and its norms and
    matrix-vector products off BLAS, so that neither library waits on the
    other's idle worker threads."""

    def test_rand_tsvd_takes_no_numpy_svd(self, monkeypatch):
        p = frames.fourier_extension_2d(9, frames.named_mask("disk"))
        b = sample_function(lambda x, y: np.exp(x + y), p.grid)
        cfg = default_config(p, seed=5)
        ref = az_solve(p, b, step1="rand-tsvd", config=cfg)

        def unusable(*args, **kwargs):
            raise AssertionError("numpy SVD taken")

        monkeypatch.setattr(np.linalg, "svd", unusable)
        rep = az_solve(p, b, step1="rand-tsvd", config=cfg)
        assert rep.sketch_size == p.A.cols
        assert np.array_equal(rep.x, ref.x)

    @pytest.mark.parametrize("step1", ["rand-tsvd", "rand-tqr"])
    def test_solve_takes_no_numpy_norm(self, step1, monkeypatch):
        # the residual norms of the solver and of az_solve are sums of squares
        p = frames.fourier_extension_2d(9, frames.named_mask("disk"))
        b = sample_function(lambda x, y: np.exp(x + y), p.grid)
        cfg = default_config(p, seed=5)
        ref = az_solve(p, b, step1=step1, config=cfg)

        def unusable(*args, **kwargs):
            raise AssertionError("numpy norm taken")

        monkeypatch.setattr(np.linalg, "norm", unusable)
        rep = az_solve(p, b, step1=step1, config=cfg)
        assert np.array_equal(rep.x, ref.x)
        assert rep.residual_norm == ref.residual_norm

    def test_certificate_takes_no_numpy_norm(self, monkeypatch):
        t = mc.householder_qr(spectrum_matrix(12, 12, np.logspace(0, -4, 12), seed=7)).R

        def unusable(*args, **kwargs):
            raise AssertionError("numpy norm taken")

        monkeypatch.setattr(np.linalg, "norm", unusable)
        assert solvers._keeps_every_direction(t, 1e-8)
        assert not solvers._keeps_every_direction(t, 1e-3)

    def test_core_svd_failure_raises(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(scipy.linalg, "svd", fail)
        a = ops.from_dense(random_complex(12, 8, seed=3))
        with pytest.raises(mc.FactorizationError):
            solvers.randomized_tsvd_solve(a, np.ones(12), SolverConfig(eps=1e-8, sketch_size=8))


def test_baseline_dominance_well_conditioned():
    sigma = np.linspace(10.0, 1.0, 6)
    a = spectrum_matrix(9, 6, sigma, seed=12)
    b = np.asarray(random_complex(9, 1, seed=13)).ravel()
    x_ref = solvers.direct_lsq(a, b).x
    cfg = SolverConfig(eps=1e-8, sketch_size=6, seed=5)
    candidates = [
        solvers.tsvd_solve(a, b, SolverConfig(0.5, 2)).x,
        solvers.tqr_solve(a, b, SolverConfig(0.5, 1)).x,
        solvers.randomized_tsvd_solve(ops.from_dense(a), b, cfg).x,
        solvers.randomized_tqr_solve(ops.from_dense(a), b, cfg).x,
    ]
    for x in candidates:
        assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_truncation_threshold_consistency():
    sigma = np.array([1.0, 0.5, 0.2, 0.09, 0.01])
    a = spectrum_matrix(8, 5, sigma, seed=14)
    eps = 0.1
    rep = solvers.tsvd_solve(a, np.ones(8), SolverConfig(eps, 1))
    assert rep.rank_used == int(np.sum(sigma >= eps))


def test_residual_recomputed():
    a = random_complex(10, 4, seed=15)
    b = np.asarray(random_complex(10, 1, seed=16)).ravel()
    rep = solvers.tsvd_solve(a, b, SolverConfig(1e-10, 2))
    assert abs(rep.residual_norm - np.linalg.norm(b - a @ rep.x)) \
        <= 1e-12 * max(1.0, rep.residual_norm)


class TestGaussianMonteCarlo:
    def test_preconditions(self):
        with pytest.raises(ValueError):
            mc_gaussian_props(5, 3, 200, seed=0)
        with pytest.raises(ValueError):
            mc_gaussian_props(5, 5, 50, seed=0)

    def test_small_run(self):
        stats = mc_gaussian_props(5, 5, 200, seed=0)
        assert abs(stats.mean_pinv_fro - stats.expected_pinv_fro) \
            <= 0.08 * stats.expected_pinv_fro
        assert stats.tail_fraction <= stats.tail_bound + 0.05
        # Frobenius norm of the sketch itself: E ~ sqrt(r (r+p))
        assert stats.mean_fro <= np.sqrt(5 * 10) + 1.0
