"""Solver tests: dense baselines, truncated SVD/QR with their residual
bounds, randomized sketch solvers, determinism, and the Gaussian Monte Carlo."""

import numpy as np
import pytest
import scipy.linalg

from azls import az_solve, default_config, frames, matrixcore as mc, operators as ops, solvers
from azls.frames import DomainSpec, sample_function
from azls.solvers import SolverConfig
from helpers import mc_gaussian_props, random_complex, spectrum_matrix


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
        # each would keep no singular value and return x = 0 without error
        for call in (lambda: SolverConfig(eps=eps, sketch_size=5),
                     lambda: solvers.tsvd_solve(np.eye(2), np.ones(2), eps),
                     lambda: solvers.tqr_solve(np.eye(2), np.ones(2), eps)):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                call()


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
        rep = solvers.tsvd_solve(np.eye(2), np.array([1.0, 1.0]), eps=0.5)
        assert np.allclose(rep.x, [1.0, 1.0])
        assert rep.rank_used == 2

    def test_small_direction_truncated(self):
        rep = solvers.tsvd_solve(np.diag([1.0, 1e-12]), np.array([1.0, 1.0]), eps=1e-6)
        assert np.allclose(rep.x, [1.0, 0.0])
        assert rep.rank_used == 1

    def test_residual_bound_constructed_spectrum(self):
        sigma = 2.0 ** -np.arange(1, 11)
        a = spectrum_matrix(20, 10, sigma, seed=3)
        b = np.asarray(random_complex(20, 1, seed=4)).ravel()
        eps = 1e-2
        rep = solvers.tsvd_solve(a, b, eps)
        assert rep.rank_used == int(np.sum(sigma >= eps))
        v = mc.pseudoinverse(a) @ b
        bound = np.linalg.norm(b - a @ v) + eps * np.linalg.norm(v)
        assert rep.residual_norm <= bound + 1e-12

    def test_tie_retained(self):
        rep = solvers.tsvd_solve(np.diag([1.0, 0.5]), np.array([1.0, 1.0]), eps=0.5)
        assert rep.rank_used == 2


class TestTqr:
    def test_identity(self):
        rep = solvers.tqr_solve(np.eye(3), np.array([1.0, 2.0, 3.0]), eps=0.5)
        assert np.allclose(rep.x, [1.0, 2.0, 3.0])
        assert rep.rank_used == 3

    def test_truncated_diag(self):
        rep = solvers.tqr_solve(np.diag([2.0, 1e-13]), np.array([2.0, 1.0]), eps=1e-6)
        assert np.allclose(rep.x, [1.0, 0.0])
        assert rep.rank_used == 1

    def test_residual_bound_trailing_block(self):
        a = random_complex(16, 8, seed=5)
        f = mc.pivoted_qr(a)
        eps = 1e-6
        b = np.asarray(random_complex(16, 1, seed=6)).ravel()
        rep = solvers.tqr_solve(a, b, eps)
        r = rep.rank_used
        assert r == int(np.sum(np.abs(np.diagonal(f.R)) >= eps))
        r22_norm = np.linalg.norm(f.R[r:, r:], 2) if r < f.R.shape[0] else 0.0
        v = mc.pseudoinverse(a) @ b
        bound = np.linalg.norm(b - a @ v) + r22_norm * np.linalg.norm(v)
        assert rep.residual_norm <= bound + 1e-12

    def test_singular_block_dropped(self):
        # a zero diagonal is below every eps, so it is never back-solved
        b = np.ones(3)
        rep = solvers.tqr_solve(np.zeros((3, 2)), b, eps=1e-8)
        assert np.array_equal(rep.x, np.zeros(2))
        assert rep.rank_used == 0
        assert rep.residual_norm == np.linalg.norm(b)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            solvers.tqr_solve(np.eye(2), np.zeros(2), eps=0.0)


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
        rep = solve(a, b, 1e-8)
        assert rep.rank_used == 0
        assert rep.x.dtype == x_factored.dtype == np.complex128
        assert np.array_equal(rep.x, x_factored)
        assert rep.residual_norm == np.linalg.norm(b)

    @pytest.mark.parametrize("solve, qr", SOLVES)
    def test_at_eps_factors(self, solve, qr, monkeypatch):
        # ||A||_F = 1.2 eps although every singular value is 0.6 eps
        a = 0.6e-8 * np.vstack([np.eye(4), np.zeros((2, 4))])
        calls = []
        for name in ("svd", "pivoted_qr"):
            fn = getattr(mc, name)
            monkeypatch.setattr(mc, name, lambda m, fn=fn: calls.append(m) or fn(m))
        rep = solve(a, np.ones(6), 1e-8)
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
        # R outgrows M = 6: the factor stops adding reflectors and keeps growing R
        a = random_complex(6, 20, seed=19)
        b = np.asarray(random_complex(6, 1, seed=20)).ravel()
        rep = solve(ops.from_dense(a), b, SolverConfig(eps=1e-8, sketch_size=3, seed=1))
        assert (rep.rank_used, rep.sketch_size) == (6, 12)
        assert rep.residual_norm <= 1e-13 * np.linalg.norm(b)

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
    that makes x."""

    PROBLEMS = {
        # saturates: the sketch grows to R = N = 81
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
        svd, calls = scipy.linalg.svd, []

        def counted_svd(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "svd", counted_svd)
        rep = az_solve(p, self.rhs(p), step1="rand-tsvd", config=default_config(p, seed=5))
        assert calls == [(rep.sketch_size, rep.sketch_size)]

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_matches_full_svd_every_round(self, name):
        p = self.PROBLEMS[name]()
        b = self.rhs(p)
        op = ops.az_step1_operator(p.A, p.Z, p.gram)
        rhs = b - p.A.apply(p.Z.adjoint_apply(b))
        cfg = default_config(p, seed=5)
        for omega, factor in solvers._sketch(op, cfg):
            y, k = solvers._truncated_solve(factor.R, factor.adjoint_q(rhs), cfg.eps,
                                            svd=solvers._core_svd)
            if k < omega.shape[1] or omega.shape[1] >= op.cols:
                break
        rep = solvers.randomized_tsvd_solve(op, rhs, cfg)
        assert (rep.rank_used, rep.sketch_size) == (k, omega.shape[1])
        assert np.array_equal(rep.x, omega @ y)

    def test_tqr_rounds_take_no_values(self, monkeypatch):
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


class TestSketchLibrary:
    """numpy and scipy each bundle an OpenBLAS; the sketch loop keeps its
    dense kernels (QR, certificate, core SVD) in scipy's, so that neither
    library waits on the other's idle worker threads."""

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
        solvers.tsvd_solve(a, b, eps=0.5).x,
        solvers.tqr_solve(a, b, eps=0.5).x,
        solvers.randomized_tsvd_solve(ops.from_dense(a), b, cfg).x,
        solvers.randomized_tqr_solve(ops.from_dense(a), b, cfg).x,
    ]
    for x in candidates:
        assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_truncation_threshold_consistency():
    sigma = np.array([1.0, 0.5, 0.2, 0.09, 0.01])
    a = spectrum_matrix(8, 5, sigma, seed=14)
    eps = 0.1
    rep = solvers.tsvd_solve(a, np.ones(8), eps)
    assert rep.rank_used == int(np.sum(sigma >= eps))


def test_residual_recomputed():
    a = random_complex(10, 4, seed=15)
    b = np.asarray(random_complex(10, 1, seed=16)).ravel()
    rep = solvers.tsvd_solve(a, b, eps=1e-10)
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
