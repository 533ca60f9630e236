"""Three-step algorithm tests: the residual identity, step-count contract,
an injected step-1 vector, non-finite input, the weighted variant's limits,
and the splitting check."""

import dataclasses
import functools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from azls import (AzProblem, SolveReport, WeightedAzProblem, az_solve,
                  az_weighted_solve, default_config)
from azls import azcore, frames, matrixcore as mc, operators as ops, solvers
from azls.azcore import STEP1_SOLVERS
from azls.frames import DomainSpec, sample_function
from azls.solvers import SolverConfig
from helpers import (OFF_CENTRE, counted, dense_oracle, dense_problem, random_complex,
                     splitting_certificate)


def injected_step1(x1):
    """A step-1 solver that ignores its system and returns x1."""
    return lambda op, rhs: SolveReport(x=x1, residual_norm=0.0, rank_used=0)


def record_step1_dtypes(monkeypatch, problem=None):
    """The dtypes that the step-1 kernels see from now on, in call order:
    each materialized step-1 matrix, and the matrix that each sketch QR,
    SVD, pivoted QR and sketch-core SVD factors.  Given a problem with a real
    form, also the input and output of every apply and adjoint apply of its
    A_r, Z_r and G_r, inside step 1 and out, made on the problem returned
    next to the list."""
    dtypes = []

    def record(module, fn_name, of_result=False):
        fn = getattr(module, fn_name)

        def recorded(a, *args):
            out = fn(a, *args)
            dtypes.append(np.asarray(out if of_result else a).dtype)
            return out
        monkeypatch.setattr(module, fn_name, recorded)

    record(azcore, "materialize", of_result=True)
    for module, fn_name in ((mc, "householder_qr"), (mc, "svd"), (mc, "pivoted_qr"),
                            (solvers, "_core_svd")):
        record(module, fn_name)
    if problem is None:
        return dtypes

    def run(fn):
        def recorded(v):
            out = fn(v)
            dtypes.extend((np.asarray(v).dtype, np.asarray(out).dtype))
            return out
        return recorded

    def recorded_op(op):
        if op is None:
            return None
        return ops.LinearOperator(op.rows, op.cols, run(op.apply), run(op.adjoint_apply))

    real = problem.real_form
    return dtypes, dataclasses.replace(problem, real_form=dataclasses.replace(
        real, A=recorded_op(real.A), Z=recorded_op(real.Z), gram=recorded_op(real.gram)))


class TestAzSolve:
    def test_exact_dual_solves_in_step_two(self):
        a = np.vstack([np.diag([1.0, 2.0]), np.zeros((1, 2))])
        z = mc.pseudoinverse(a).conj().T
        b = np.array([1.0, 4.0, 0.5])
        rep = az_solve(dense_problem(a, z), b, step1="tsvd",
                       config=SolverConfig(eps=1e-10, sketch_size=2))
        assert np.linalg.norm(rep.x1) <= 1e-10
        assert np.allclose(rep.x, mc.pseudoinverse(a) @ b)

    def test_zero_z_reduces_to_step1_solver(self):
        a = random_complex(8, 5, seed=0)
        z = np.zeros((8, 5))
        b = np.asarray(random_complex(8, 1, seed=1)).ravel()
        cfg = SolverConfig(eps=1e-8, sketch_size=5)
        rep = az_solve(dense_problem(a, z), b, step1="tsvd", config=cfg)
        ref = dense_oracle(a, b, cfg.eps)
        assert np.allclose(rep.x, ref.x, atol=1e-12)

    def test_fourier_extension_matches_dense_oracle(self):
        p = frames.fourier_extension_1d(201, DomainSpec.interval(-0.5, 0.5), 2.0)
        b = sample_function(np.exp, p.grid)
        cfg = default_config(p, seed=2)
        rep = az_solve(p, b, step1="rand-tsvd", config=cfg)
        assert rep.residual_norm / np.max(np.abs(b)) <= 1e-8
        oracle = dense_oracle(ops.materialize(p.A), b, cfg.eps)
        assert abs(rep.residual_norm - oracle.residual_norm) <= 1e-8

    def test_b_length_checked(self):
        p = dense_problem(np.eye(3), np.eye(3))
        with pytest.raises(ValueError):
            az_solve(p, np.zeros(4))

    @pytest.mark.parametrize("step1", ["tsvd", "tqr", "rand-tsvd", "rand-tqr"])
    def test_az_residual_identity(self, step1):
        # final residual vector equals the step-1 residual vector
        for seed in range(5):
            a = random_complex(12, 7, seed=3 * seed)
            z = 0.2 * random_complex(12, 7, seed=3 * seed + 1)
            b = np.asarray(random_complex(12, 1, seed=3 * seed + 2)).ravel()
            cfg = SolverConfig(eps=1e-6, sketch_size=7, seed=seed)
            rep = az_solve(dense_problem(a, z), b, step1=step1, config=cfg)
            lhs = b - a @ rep.x
            step1_res = (b - a @ rep.x1) - a @ (z.conj().T @ (b - a @ rep.x1))
            assert np.linalg.norm(lhs - step1_res) <= 1e-12 * np.linalg.norm(b)

    def test_step_count_contract(self):
        a_op, a_counter = counted(ops.from_dense(random_complex(9, 5, seed=11)))
        z_op, z_counter = counted(ops.from_dense(0.3 * random_complex(9, 5, seed=12)))
        problem = AzProblem(A=a_op, Z=z_op)
        b = np.asarray(random_complex(9, 1, seed=13)).ravel()
        snapshot = {}

        def step1(op, rhs):
            rep = solvers.tsvd_solve(ops.materialize(op), rhs, SolverConfig(1e-8, 5))
            snapshot["a"] = a_counter.applies
            snapshot["z"] = z_counter.adjoint_applies
            return rep

        az_solve(problem, b, step1=step1,
                 config=SolverConfig(eps=1e-8, sketch_size=5))
        # beyond step 1: two A-applies (step 2 and the residual) and one Z*-apply
        assert a_counter.applies - snapshot["a"] == 2
        assert z_counter.adjoint_applies - snapshot["z"] == 1

    def test_dense_tqr_factors_once(self, monkeypatch):
        calls = []
        qr = mc.pivoted_qr
        monkeypatch.setattr(mc, "pivoted_qr", lambda a: calls.append(a.shape) or qr(a))
        p = frames.chebyshev_extension(33, DomainSpec.interval(-0.5, 0.5))
        b = sample_function(np.exp, p.grid)
        az_solve(p, b, step1="tqr", config=default_config(p))
        assert len(calls) == 1

    def test_determinism(self):
        p = frames.fourier_extension_1d(61, DomainSpec.interval(-0.5, 0.5), 2.0)
        b = sample_function(np.exp, p.grid)
        cfg = default_config(p, seed=7)
        x1 = az_solve(p, b, step1="rand-tsvd", config=cfg).x
        x2 = az_solve(p, b, step1="rand-tsvd", config=cfg).x
        assert np.array_equal(x1, x2)


class TestStep1Override:
    def test_exact_solution_passthrough(self):
        a = random_complex(6, 4, seed=20)
        z = 0.1 * random_complex(6, 4, seed=21)
        x_true = np.asarray(random_complex(4, 1, seed=22)).ravel()
        b = a @ x_true
        rep = az_solve(dense_problem(a, z), b, step1=injected_step1(x_true))
        assert rep.residual_norm <= 1e-10
        assert np.allclose(rep.x, x_true, atol=1e-10)

    def test_zero_forces_dual_solve(self):
        a = random_complex(6, 4, seed=23)
        z = random_complex(6, 4, seed=24)
        b = np.asarray(random_complex(6, 1, seed=25)).ravel()
        rep = az_solve(dense_problem(a, z), b, step1=injected_step1(np.zeros(4)))
        assert np.allclose(rep.x, z.conj().T @ b)

    def test_injected_step1_inequalities(self):
        for seed in range(20):
            a = random_complex(20, 12, seed=300 + seed)
            z = 0.2 * random_complex(20, 12, seed=400 + seed)
            b = np.asarray(random_complex(20, 1, seed=500 + seed)).ravel()
            x_tilde = np.asarray(random_complex(12, 1, seed=600 + seed)).ravel()
            tau = np.linalg.norm(b - a @ x_tilde)
            c = np.linalg.norm(x_tilde)
            rep = az_solve(dense_problem(a, z), b, step1=injected_step1(x_tilde))
            norm_izam = np.linalg.norm(np.eye(20) - a @ z.conj().T, 2)
            norm_zstar = np.linalg.norm(z.conj().T, 2)
            assert rep.residual_norm <= norm_izam * tau + 1e-10
            assert np.linalg.norm(rep.x) <= c + norm_zstar * tau + 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            az_solve(dense_problem(np.eye(3), np.eye(3)), np.zeros(3),
                     step1=injected_step1(np.zeros(4)))


class TestNonFinite:
    """A NaN or inf in b, or in the x1 a step 1 returns, raises a ValueError
    that names it instead of returning a NaN x and residual."""

    @staticmethod
    def fourier_problem():
        p = frames.fourier_extension_1d(65, DomainSpec.interval(-0.5, 0.5))
        return p, sample_function(np.exp, p.grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("step1", STEP1_SOLVERS)
    def test_nonfinite_b(self, step1, bad):
        p, b = self.fourier_problem()
        b[3] = bad
        with pytest.raises(ValueError, match="b contains non-finite"):
            az_solve(p, b, step1=step1, config=default_config(p, seed=0))

    def test_nonfinite_x1(self):
        p, b = self.fourier_problem()
        x1 = np.ones(p.A.cols, dtype=complex)
        x1[5] = np.nan
        with pytest.raises(ValueError, match="x1 with non-finite"):
            az_solve(p, b, step1=injected_step1(x1))

    @pytest.mark.parametrize("step1", STEP1_SOLVERS)
    def test_weighted_nonfinite_b(self, step1):
        p = frames.fourier_lsq_equispaced(21, 43)
        b = sample_function(np.exp, p.grid)
        b[3] = np.nan
        wp = WeightedAzProblem(base=p, d=0.1 + np.asarray(p.grid), eps_w=0.2)
        with pytest.raises(ValueError, match="b contains non-finite"):
            az_weighted_solve(wp, b, step1=step1)


class TestWeighted:
    def test_eps_pinv_boundary_retained(self):
        # with x1 = 0 and Z = I, x = x2 = Z~* (d b) = keep * b: a weight equal
        # to eps_w is kept, one below it dropped
        for eps_w, kept in ((2.0, [0.0, 1.0, 1.0]), (np.nextafter(2.0, 3.0), [0.0, 0.0, 1.0])):
            wp = WeightedAzProblem(base=dense_problem(np.eye(3), np.eye(3)),
                                   d=np.array([1.0, 2.0, 4.0]), eps_w=eps_w)
            rep = az_weighted_solve(wp, np.ones(3), step1=injected_step1(np.zeros(3)))
            assert np.array_equal(rep.x, kept)

    @pytest.mark.parametrize("shape", [(), (1,), (31, 1), (30,)])
    def test_b_shape_checked_before_weighting(self, shape):
        # d * b would broadcast a scalar, a length-1 or an (M, 1) b
        p = frames.fourier_lsq_equispaced(15, 31)
        wp = frames.weighted_lsq(p, 0.5 + np.asarray(p.grid), 1e-2)
        with pytest.raises(ValueError, match=re.escape(f"b has shape {shape}, expected (31,)")):
            az_weighted_solve(wp, np.full(shape, 5.0))

    def test_nonpositive_weights_rejected(self):
        base = dense_problem(np.eye(3), np.eye(3))
        with pytest.raises(ValueError):
            WeightedAzProblem(base=base, d=np.array([1.0, 0.0, 1.0]), eps_w=0.1)
        with pytest.raises(ValueError):
            WeightedAzProblem(base=base, d=np.array([1.0, np.nan, 1.0]), eps_w=0.1)

    def test_nan_eps_w_rejected(self):
        # NaN would fail every d >= eps_w test and drop all weights, so x2 = 0
        base = dense_problem(np.eye(3), np.eye(3))
        with pytest.raises(ValueError, match="eps_w must be nonnegative"):
            WeightedAzProblem(base=base, d=np.ones(3), eps_w=float("nan"))
        WeightedAzProblem(base=base, d=np.ones(3), eps_w=float("inf"))

    @pytest.mark.parametrize("step1", ["tsvd", "rand-tsvd"])
    @pytest.mark.parametrize("eps_w", [0.0, 1e-2, 1.0])
    def test_is_an_az_problem(self, eps_w, step1):
        # the weighted solve is az_solve on (W A_r, pinv(W_eps) Z_r) of the
        # base's real form with d b, at scale base.scale * max d, mapped back
        # by the real form's coefficients
        p = frames.fourier_lsq_equispaced(61, 123)
        b = sample_function(lambda x: np.sin(2 * np.pi * x) + np.mod(x + 0.5, 1.0), p.grid)
        d = (np.asarray(p.grid) - 0.5) ** 2
        rep = az_weighted_solve(frames.weighted_lsq(p, d, eps_w), b, step1=step1)
        real = p.real_form
        explicit = AzProblem(
            A=ops.compose(ops.diagonal(d), real.A),
            Z=ops.compose(ops.diagonal(np.where(d >= eps_w, 1.0 / d, 0.0)), real.Z),
            scale=p.scale * float(d.max()), coefficients=real.coefficients)
        ref = az_solve(explicit, d * b, step1=step1)
        assert rep.rank_used == ref.rank_used
        assert np.linalg.norm(rep.x - ref.x) <= 1e-13 * np.linalg.norm(ref.x)

    def test_eps_w_zero_gives_unweighted_solution(self):
        p = frames.fourier_lsq_equispaced(21, 43)
        b = sample_function(lambda x: np.exp(np.sin(2 * np.pi * x)), p.grid)
        d = 0.1 + (np.asarray(p.grid) - 0.3) ** 2
        wp = WeightedAzProblem(base=p, d=d, eps_w=0.0)
        rep = az_weighted_solve(wp, b, step1="tsvd")
        x_unweighted = p.Z.adjoint_apply(b)
        assert np.linalg.norm(rep.x - x_unweighted) <= 1e-12 * np.linalg.norm(b)

    def test_eps_w_above_max_solves_weighted_directly(self):
        p = frames.fourier_lsq_equispaced(15, 31)
        b = sample_function(lambda x: np.cos(2 * np.pi * x) ** 2, p.grid)
        d = 0.5 + np.asarray(p.grid)
        wp = WeightedAzProblem(base=p, d=d, eps_w=float(d.max()) + 1.0)
        rep = az_weighted_solve(wp, b, step1="tsvd")
        assert np.linalg.norm(rep.x2) <= 1e-14 * max(1.0, np.linalg.norm(rep.x))
        wa = d[:, None] * ops.materialize(p.A)
        oracle = solvers.direct_lsq(wa, d * b)
        assert np.linalg.norm(rep.x - oracle.x) <= 1e-8 * max(1.0, np.linalg.norm(oracle.x))

    def test_uniform_weights_match_unweighted(self):
        p = frames.fourier_lsq_equispaced(15, 31)
        b = sample_function(lambda x: np.sin(4 * np.pi * x) + 2.0, p.grid)
        a = ops.materialize(p.A)
        d = np.full(31, 3.7)
        x_w = solvers.direct_lsq(d[:, None] * a, d * b).x
        x_u = solvers.direct_lsq(a, b).x
        assert np.linalg.norm(x_w - x_u) <= 1e-10 * max(1.0, np.linalg.norm(x_u))


class TestSplitting:
    def test_exact_moore_penrose_case(self):
        w = random_complex(10, 6, seed=30)
        zeros_a = np.zeros((10, 6))
        zeros_z = np.zeros((6, 10))
        rep = splitting_certificate(w, zeros_a, zeros_a, zeros_z, zeros_z, rank_cap=0)
        assert rep.eps_rank == 0
        assert rep.holds

    def test_seeded_rank_cap(self):
        rng = np.random.default_rng(31)
        w = random_complex(24, 16, seed=32)
        l1 = rng.standard_normal((24, 3)) @ rng.standard_normal((3, 16))
        l2 = rng.standard_normal((16, 3)) @ rng.standard_normal((3, 24))
        e1 = rng.standard_normal((24, 16))
        e1 *= 1e-8 / np.linalg.norm(e1)
        e2 = rng.standard_normal((16, 24))
        e2 *= 1e-8 / np.linalg.norm(e2)
        rep = splitting_certificate(w, l1, e1, l2, e2, rank_cap=9)
        assert rep.holds

    def test_noise_free_rank_bound(self):
        rng = np.random.default_rng(33)
        w = random_complex(12, 9, seed=34)
        l1 = rng.standard_normal((12, 2)) @ rng.standard_normal((2, 9))
        l2 = rng.standard_normal((9, 2)) @ rng.standard_normal((2, 12))
        rep = splitting_certificate(w, l1, np.zeros((12, 9)), l2,
                                    np.zeros((9, 12)), rank_cap=6)
        a, zstar = rep.A, rep.Z.conj().T
        diff = a - a @ zstar @ a
        sigma = np.linalg.svd(diff, compute_uv=False)
        exact_rank = int(np.sum(sigma > 1e-12 * max(1.0, sigma[0])))
        assert exact_rank <= 6


def test_renormalization_covariance():
    p = frames.fourier_lsq_equispaced(15, 31)
    b = sample_function(lambda x: np.exp(np.cos(2 * np.pi * x)), p.grid)
    cfg = SolverConfig(eps=1e-10 * p.scale, sketch_size=15, seed=0)
    base_res = az_solve(p, b, step1="tsvd", config=cfg).residual_norm
    rng = np.random.default_rng(35)
    d = rng.uniform(0.5, 2.0, 31)
    a1 = ops.compose(ops.diagonal(d), p.A)
    z1 = ops.compose(ops.diagonal(1.0 / d), p.Z)
    scaled = AzProblem(A=a1, Z=z1, scale=p.scale)
    rep = az_solve(scaled, d * b, step1="tsvd", config=cfg)
    # residual of the original system recovered from the scaled one
    res = np.linalg.norm(b - ops.materialize(p.A) @ rep.x)
    assert abs(res - base_res) <= 1e-10 * max(1.0, base_res)


class TestFourierGram:
    PROBLEMS = {
        "1d-65": lambda: frames.fourier_extension_1d(65, DomainSpec.interval(-0.5, 0.5)),
        "1d-1025": lambda: frames.fourier_extension_1d(1025, DomainSpec.interval(-0.5, 0.5)),
        "2d-disk-9": lambda: frames.fourier_extension_2d(9, frames.named_mask("disk")),
    }

    @staticmethod
    def rhs(p):
        f = np.exp if p.grid.ndim == 1 else (lambda x, y: np.exp(x + y))
        return sample_function(f, p.grid)

    @pytest.mark.parametrize("step1", ["rand-tsvd", "rand-tqr", "tsvd"])
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_agrees_with_generic_form(self, name, step1):
        # step 1 runs on the real form, so its G_r is dropped there too
        p = self.PROBLEMS[name]()
        b = self.rhs(p)
        cfg = default_config(p, seed=5)
        rep = az_solve(p, b, step1=step1, config=cfg)
        generic = dataclasses.replace(p, real_form=dataclasses.replace(p.real_form, gram=None))
        ref = az_solve(generic, b, step1=step1, config=cfg)
        assert rep.rank_used == ref.rank_used
        assert rep.sketch_size == ref.sketch_size
        # a residual at the rounding floor (1e-12 ||b|| in 1D) moves by 1e-5 of
        # itself between BLAS thread counts, so it is compared against 1e-9 ||b||
        assert abs(rep.residual_norm - ref.residual_norm) \
            <= 1e-6 * max(ref.residual_norm, 1e-9 * np.linalg.norm(b))
        # x is fixed only to about eps_mach sigma_1 / eps, with sigma_1 ~ scale
        tol = 10 * np.finfo(np.float64).eps * p.scale / cfg.eps
        assert np.linalg.norm(rep.x - ref.x) <= tol * np.linalg.norm(ref.x)

    @pytest.mark.parametrize("name, step1", [("1d-65", "tsvd"), ("1d-65", "rand-tsvd"),
                                             ("1d-1025", "rand-tqr"),
                                             ("2d-disk-9", "rand-tsvd")])
    def test_z_adjoint_applied_twice(self, name, step1):
        # all three steps run on the real form, so the complex Z is never
        # applied.  Z_r* is applied once for the right-hand side and once in
        # step 2; step 1 applies G_r and never Z_r, in 2D as in 1D
        p = self.PROBLEMS[name]()
        z, counter = counted(p.Z)
        z_r, real_counter = counted(p.real_form.Z)
        q = dataclasses.replace(p, Z=z, real_form=dataclasses.replace(p.real_form, Z=z_r))
        cfg = default_config(p, seed=5)
        step1_counters = []

        def counted_step1(op, rhs):
            op, step1_counter = counted(op)
            step1_counters.append(step1_counter)
            return STEP1_SOLVERS[step1](op, rhs, cfg)

        az_solve(q, self.rhs(p), step1=counted_step1)
        assert counter.applies == counter.adjoint_applies == 0
        (step1_counter,) = step1_counters
        assert step1_counter.applies > 0
        assert p.real_form.gram is not None
        assert real_counter.adjoint_applies == 2
        assert real_counter.applies == 0

    def test_weighted_and_sum_frames_do_not_use_it(self):
        base = self.PROBLEMS["1d-65"]()

        def unusable(v):
            raise AssertionError("G applied")

        n = base.A.cols
        poisoned = dataclasses.replace(base, real_form=dataclasses.replace(
            base.real_form, gram=ops.LinearOperator(n, n, unusable, unusable)))
        d = 0.5 + np.abs(np.asarray(base.grid))
        rep = az_weighted_solve(frames.weighted_lsq(poisoned, d, 0.6), self.rhs(base),
                                step1="rand-tsvd", config=default_config(base, seed=5))
        assert np.all(np.isfinite(rep.x))
        summed = frames.weighted_sum_frame(base, lambda x: np.ones_like(x), np.abs)
        assert summed.gram is None

    @pytest.mark.parametrize("step1", ["tsvd", "tqr", "rand-tsvd"])
    @pytest.mark.parametrize("kind", ["roots", "extremae"])
    @pytest.mark.parametrize("n", [129, 513])
    def test_chebyshev_agrees_with_generic_form(self, n, kind, step1):
        p = frames.chebyshev_extension(n, DomainSpec.interval(-0.5, 0.5), kind=kind)
        b = self.rhs(p)
        cfg = default_config(p, seed=5)
        rep = az_solve(p, b, step1=step1, config=cfg)
        ref = az_solve(dataclasses.replace(p, gram=None), b, step1=step1, config=cfg)
        assert rep.rank_used == ref.rank_used
        assert rep.sketch_size == ref.sketch_size
        assert abs(rep.residual_norm - ref.residual_norm) \
            <= 1e-6 * max(ref.residual_norm, 1e-9 * np.linalg.norm(b))
        tol = 10 * np.finfo(np.float64).eps * p.scale / cfg.eps
        assert np.linalg.norm(rep.x - ref.x) <= tol * np.linalg.norm(ref.x)

    @staticmethod
    def weighted_lsq_problem(eps_w):
        base = frames.fourier_lsq_equispaced(61, 123)
        grid = np.asarray(base.grid)
        d = (grid - 0.5) ** 2
        eps_w = 2.0 * d.max() if eps_w == "above-max" else eps_w
        b = np.sin(2 * np.pi * grid) + np.mod(grid + 0.5, 1.0) - 0.5
        return frames.weighted_lsq(base, d, eps_w), b

    @pytest.mark.parametrize("step1", ["tsvd", "tqr", "rand-tsvd"])
    @pytest.mark.parametrize("eps_w", [0.0, "above-max"])
    def test_weighted_agrees_with_generic_form(self, eps_w, step1):
        # the generic form: the weighted pair with G~ = Z~* A~ composed
        wp, b = self.weighted_lsq_problem(eps_w)
        base, d = wp.base, wp.d
        generic = AzProblem(A=ops.compose(ops.diagonal(d), base.A),
                            Z=ops.compose(ops.diagonal(np.where(d >= wp.eps_w, 1.0 / d, 0.0)),
                                          base.Z),
                            scale=base.scale * float(d.max()))
        cfg = default_config(generic, seed=5)
        rep = az_weighted_solve(wp, b, step1=step1, config=cfg)
        ref = az_solve(generic, d * b, step1=step1, config=cfg)
        assert rep.rank_used == ref.rank_used
        assert abs(rep.residual_norm - ref.residual_norm) \
            <= 1e-6 * max(ref.residual_norm, 1e-9 * np.linalg.norm(d * b))
        tol = 10 * np.finfo(np.float64).eps * generic.scale / cfg.eps
        assert np.linalg.norm(rep.x - ref.x) <= tol * np.linalg.norm(ref.x)

    @pytest.mark.parametrize("step1", ["tsvd", "rand-tsvd"])
    @pytest.mark.parametrize("eps_w", [0.0, "above-max"])
    def test_weighted_step1_never_applies_z(self, eps_w, step1):
        # no weight dropped (G~ = G_r = I) or every weight dropped (G~ = 0):
        # the solve runs on the real form, whose Z_r* is applied for the
        # right-hand side and in step 2 only, and never applies the complex Z
        wp, b = self.weighted_lsq_problem(eps_w)
        base = wp.base
        z, counter = counted(base.Z)
        z_r, real_counter = counted(base.real_form.Z)
        wrapped = dataclasses.replace(wp, base=dataclasses.replace(
            base, Z=z, real_form=dataclasses.replace(base.real_form, Z=z_r)))
        az_weighted_solve(wrapped, b, step1=step1)
        assert real_counter.adjoint_applies == 2
        assert real_counter.applies == 0
        assert counter.applies == counter.adjoint_applies == 0

    @pytest.mark.parametrize("kind", ["roots", "extremae"])
    def test_chebyshev_step1_never_applies_z(self, kind):
        p = frames.chebyshev_extension(65, DomainSpec.interval(-0.5, 0.5), kind=kind)
        z, counter = counted(p.Z)
        az_solve(dataclasses.replace(p, Z=z), self.rhs(p), step1="tsvd",
                 config=default_config(p, seed=5))
        assert counter.adjoint_applies == 2
        assert counter.applies == 0

    def test_gram_shape_checked(self):
        p = frames.chebyshev_extension(65, DomainSpec.interval(-0.5, 0.5))
        with pytest.raises(ValueError, match="gram has shape"):
            dataclasses.replace(p, gram=ops.from_dense(np.eye(3)))

    def test_gram_next_to_a_real_form_rejected(self):
        # the solve takes G and the coefficient map from the real form, so a
        # gram or coefficients beside it would go unused
        p = self.PROBLEMS["1d-65"]()
        n = p.A.cols
        for name in ("gram", "coefficients"):
            with pytest.raises(ValueError, match=f"{name} and real_form both given"):
                dataclasses.replace(p, **{name: ops.diagonal(2.0 * np.ones(n))})
        assert p.gram is None and p.coefficients is None

    def test_real_form_must_match(self):
        # a real form of another shape, or with a real form of its own, would
        # be solved in coordinates that its coefficients do not map from
        p = self.PROBLEMS["1d-65"]()
        for real in (self.PROBLEMS["2d-disk-9"]().real_form, p):
            with pytest.raises(ValueError, match="real form does not match"):
                dataclasses.replace(p, real_form=real)

    def test_rows_checked(self):
        # rows maps the problem's rows to the caller's samples, and the solve
        # takes it from the real form, as it takes G
        p = frames.fourier_extension_2d(3, frames.named_mask("disk"))
        real = p.real_form
        with pytest.raises(ValueError, match="rows has shape"):
            dataclasses.replace(real, rows=ops.from_dense(np.eye(real.A.rows + 1)))
        with pytest.raises(ValueError, match="rows and real_form both given"):
            dataclasses.replace(p, rows=ops.from_dense(np.eye(p.A.rows)))
        with pytest.raises(ValueError, match="real form does not match"):
            dataclasses.replace(p, real_form=dataclasses.replace(real, rows=None))

    def test_coefficients_shape_checked(self):
        p = self.PROBLEMS["1d-65"]()
        n = p.A.cols
        with pytest.raises(ValueError, match="coefficients has shape"):
            dataclasses.replace(p.real_form, coefficients=ops.from_dense(np.eye(n + 2)))
        with pytest.raises(ValueError, match="coefficients has shape"):
            dataclasses.replace(p, coefficients=ops.from_dense(np.eye(n, n - 1)))


class TestRealForm:
    """The Fourier frames run all three steps on their real form, in float64
    for a real b."""

    PROBLEMS = {
        "1d-asymmetric-129": lambda: frames.fourier_extension_1d(
            129, DomainSpec.interval(-0.3, 0.6)),
        "2d-off-centre-9": lambda: frames.fourier_extension_2d(9, OFF_CENTRE),
        # fourier01: G_r = I, so the unweighted step 1 is exactly 0
        "fourier01-61": lambda: frames.fourier_lsq_equispaced(61, 123),
    }

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_basis_change_leaves_the_truncated_svd_alone(self, name):
        # the truncated SVD does not depend on a unitary change of basis, so
        # the dense tsvd keeps the rank and the step-1 residual of the complex
        # form; x1 is fixed only to about eps_mach sigma_1 / eps, as in
        # TestFourierGram (the 1D x1 moves 2e-7 here, the 2D one 1e-9)
        p = self.PROBLEMS[name]()
        b = TestFourierGram.rhs(p)
        cfg = default_config(p, seed=5)
        rep = az_solve(p, b, step1="tsvd", config=cfg)
        ref = az_solve(dataclasses.replace(p, real_form=None), b, step1="tsvd", config=cfg)
        assert rep.rank_used == ref.rank_used
        assert abs(rep.residual_norm - ref.residual_norm) \
            <= 1e-6 * max(ref.residual_norm, 1e-9 * np.linalg.norm(b))
        tol = 10 * np.finfo(np.float64).eps * p.scale / cfg.eps
        assert np.linalg.norm(rep.x1 - ref.x1) <= tol * np.linalg.norm(ref.x1)

    @pytest.mark.parametrize("step1", STEP1_SOLVERS)
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_real_form_solves_alone(self, name, step1):
        # the problem and its real form share the scale, so the default
        # config and every step of the solve are the same: x is bitwise
        p = self.PROBLEMS[name]()
        b = TestFourierGram.rhs(p)
        for rhs in (b, b + 1j * np.cos(3 * b)):
            rep, ref = az_solve(p, rhs, step1=step1), az_solve(p.real_form, rhs, step1=step1)
            for field in ("x", "x1", "x2"):
                assert np.array_equal(getattr(rep, field), getattr(ref, field)), field
            assert rep.residual_norm == ref.residual_norm
            assert (rep.rank_used, rep.sketch_size) == (ref.rank_used, ref.sketch_size)

    @pytest.mark.parametrize("eps_w", [None, 0.0, 0.6, "above-max"])
    @pytest.mark.parametrize("step1", STEP1_SOLVERS)
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_step1_runs_real(self, name, step1, eps_w, monkeypatch):
        # a real b: every step-1 matrix, sketch block and core factorization,
        # and every A_r, Z_r and G_r apply in and out of step 1, is float64,
        # on the problem and on its weighted problems (no weight, some or all
        # weights dropped: each rule for G~); x is complex, the coefficients
        # of the exp basis, and the residual is the complex form's
        p = self.PROBLEMS[name]()
        b = TestFourierGram.rhs(p)
        cfg = default_config(p, seed=5)

        def solve(base):
            if eps_w is None:
                return az_solve(base, b, step1=step1, config=cfg)
            d = 0.5 + np.abs(np.asarray(base.grid)).reshape(base.A.rows, -1).sum(axis=1)
            cut = 2.0 * d.max() if eps_w == "above-max" else eps_w
            return az_weighted_solve(frames.weighted_lsq(base, d, cut), b, step1=step1,
                                     config=cfg)

        ref = solve(dataclasses.replace(p, real_form=None))
        dtypes, recorded = record_step1_dtypes(monkeypatch, p)
        rep = solve(recorded)
        assert dtypes and all(dtype == np.float64 for dtype in dtypes)
        assert rep.x.dtype == rep.x1.dtype == rep.x2.dtype == np.complex128
        assert rep.residual_norm <= 10 * max(ref.residual_norm, 1e-9 * np.linalg.norm(b))


class TestCompressedRows:
    """The 2D real form solves on A_c, with A_r = rows A_c: on rows* b, with
    the residual on the caller's samples."""

    @staticmethod
    def disk():
        return frames.fourier_extension_2d(9, frames.named_mask("disk"))

    @pytest.mark.parametrize("step1", ["tsvd", "rand-tsvd"])
    def test_residual_counts_b_outside_the_range(self, step1):
        # b = A x0 + w, w orthogonal to the columns of rows and so to
        # range(A): rows* b drops w, and the reported residual keeps it
        p = self.disk()
        real, rows = p.real_form, p.real_form.rows
        rng = np.random.default_rng(11)
        x0 = rng.standard_normal(p.A.cols) + 1j * rng.standard_normal(p.A.cols)
        g = rng.standard_normal(p.A.rows) + 1j * rng.standard_normal(p.A.rows)
        w = g - rows.apply(rows.adjoint_apply(g))
        b = p.A.apply(x0) + w
        rep = az_solve(p, b, step1=step1, config=default_config(p, seed=5))
        want = np.linalg.norm(b - p.A.apply(rep.x))
        assert abs(rep.residual_norm - want) <= 1e-12 * want
        compressed = np.linalg.norm(
            rows.adjoint_apply(b) - real.A.apply(real.coefficients.adjoint_apply(rep.x)))
        assert compressed <= 1e-6 * want

    @pytest.mark.parametrize("eps_w", [0.0, "above-max"])
    def test_weighted_base_is_the_materialized_weighted_system(self, eps_w):
        # the weighted pair of the 2D disk, W A and pinv(W_eps) Z on the
        # caller's samples, against the three steps on its dense matrices
        # with the truncated SVD as step 1
        p = self.disk()
        d = sample_function(lambda x, y: 0.5 + x**2, p.grid)
        cut = 2.0 * d.max() if eps_w == "above-max" else eps_w
        rep = az_weighted_solve(frames.weighted_lsq(p, d, cut),
                                sample_function(lambda x, y: np.exp(x + y), p.grid))
        a = d[:, None] * ops.materialize(p.A)
        z = np.where(d >= cut, 1.0 / d, 0.0)[:, None] * ops.materialize(p.Z)
        b = d * sample_function(lambda x, y: np.exp(x + y), p.grid)
        cfg = default_config(dense_problem(a, z, scale=p.scale * float(d.max())))
        zb, za = z.conj().T @ b, z.conj().T @ a
        step1 = solvers.tsvd_solve(a - a @ za, b - a @ zb, cfg)
        x = step1.x + z.conj().T @ (b - a @ step1.x)
        assert rep.rank_used == step1.rank_used
        assert np.linalg.norm(rep.x - x) <= 1e-8 * np.linalg.norm(x)

    def test_weighted_real_form_takes_one_weight_per_sample(self):
        # the real form as the base has K rows and M samples: d has M
        # entries, and weighting it is weighting the view
        p = self.disk()
        real = p.real_form
        assert real.A.rows < real.sample_rows == p.A.rows
        d = sample_function(lambda x, y: 0.5 + x**2, p.grid)
        b = sample_function(lambda x, y: np.exp(x + y), p.grid)
        got = az_weighted_solve(frames.weighted_lsq(real, d, 0.6), b)
        want = az_weighted_solve(frames.weighted_lsq(p, d, 0.6), b)
        assert got.rank_used == want.rank_used
        np.testing.assert_array_equal(got.x, want.x)
        with pytest.raises(ValueError, match="sample count"):
            frames.weighted_lsq(real, np.ones(real.A.rows), 0.0)


def complexified(op):
    """op with its input and output promoted to complex128, so that every
    dense step on it runs complex LAPACK: the oracle for real arithmetic."""
    def cast(fn):
        return lambda v: np.asarray(fn(np.asarray(v, dtype=np.complex128)),
                                    dtype=np.complex128)
    return ops.LinearOperator(op.rows, op.cols, cast(op.apply), cast(op.adjoint_apply))


_HALF = DomainSpec.interval(-0.5, 0.5)


@functools.lru_cache(maxsize=None)
def real_frame(name):
    """A real frame (an AzProblem or a WeightedAzProblem) and its complex
    oracle: the same operators, promoted to complex128."""
    if name == "weighted-chebyshev-129":
        base = frames.chebyshev_extension(129, _HALF)
        d = 0.1 + np.asarray(base.grid) ** 2
        real = frames.weighted_lsq(base, d, 0.15)
        oracle = dataclasses.replace(real, base=dataclasses.replace(
            base, A=complexified(base.A), Z=complexified(base.Z)))
        return real, oracle
    kind, n = name.rsplit("-", 1)
    real = {"chebyshev-roots": lambda: frames.chebyshev_extension(int(n), _HALF),
            "chebyshev-extremae": lambda: frames.chebyshev_extension(
                int(n), _HALF, kind="extremae"),
            "legendre": lambda: frames.legendre_extension(int(n), _HALF),
            "sumframe": lambda: frames.weighted_sum_frame(
                frames.chebyshev_extension(int(n), _HALF),
                lambda x: np.ones_like(x), np.abs)}[kind]()
    return real, dataclasses.replace(real, A=complexified(real.A), Z=complexified(real.Z))


@pytest.mark.parametrize("step1", STEP1_SOLVERS)
@pytest.mark.parametrize("name", ["chebyshev-roots-64", "chebyshev-roots-513",
                                  "chebyshev-extremae-64", "chebyshev-extremae-513",
                                  "legendre-201", "legendre-401", "sumframe-32",
                                  "weighted-chebyshev-129"])
def test_real_frames_agree_with_complex_arithmetic(name, step1, monkeypatch):
    real, oracle = real_frame(name)
    p = real.base if isinstance(real, WeightedAzProblem) else real
    x = np.asarray(p.grid)

    def solve(q, b):
        if isinstance(q, WeightedAzProblem):
            return az_weighted_solve(q, b, step1=step1)
        return az_solve(q, b, step1=step1, config=default_config(p, seed=5))

    b = np.exp(x) + 1j * np.cos(5 * x)
    rep, ref = solve(real, b), solve(oracle, b)
    assert rep.rank_used == ref.rank_used
    assert abs(rep.residual_norm - ref.residual_norm) \
        <= 1e-6 * max(ref.residual_norm, 1e-9 * np.linalg.norm(b))
    # x is fixed only to about eps_mach sigma_1 / eps, with sigma_1 ~ scale and
    # the default eps = 1e-10 scale
    tol = 10 * np.finfo(np.float64).eps / 1e-10
    assert np.linalg.norm(rep.x - ref.x) <= tol * np.linalg.norm(ref.x)
    # a real b is solved in float64 from b to x, with the rank and the x of
    # the same b as a complex vector
    b = np.exp(x)
    ref = solve(real, b.astype(complex))
    dtypes = record_step1_dtypes(monkeypatch)
    rep = solve(real, b)
    assert dtypes and all(dtype == np.float64 for dtype in dtypes)
    assert rep.x.dtype == rep.x1.dtype == rep.x2.dtype == np.float64
    assert rep.rank_used == ref.rank_used
    assert np.linalg.norm(rep.x - ref.x) <= tol * np.linalg.norm(ref.x)


@pytest.mark.parametrize("step1", ["rand-tsvd", "rand-tqr"])
def test_small_sketch_grows_to_the_rank(step1):
    # a sketch of 5 keeps all 5 directions of a rank-29 step-1 system; it
    # must grow rather than return a residual of 1e-2 ||b||
    p = frames.fourier_extension_1d(65, DomainSpec.interval(-0.5, 0.5))
    b = sample_function(np.exp, p.grid)
    cfg = SolverConfig(eps=1e-10 * p.scale, sketch_size=5)
    rep = az_solve(p, b, step1=step1, config=cfg)
    assert rep.sketch_size > 5
    assert rep.residual_norm <= 1e-10 * np.linalg.norm(b)


# Properties of the contract on random dense (A, Z) pairs with a planted
# low-rank plunge: sizes M <= 60, real or complex, a bounded example count.
PAIRS = st.tuples(st.integers(2, 30), st.integers(0, 30), st.integers(1, 4),
                  st.booleans(), st.integers(0, 10_000))


def planted_pair(pair):
    """(A, Z, b, r) for Z = W, a random M x N W with orthonormal columns
    (so Z* = W^+), and A = W + L + E, L of rank r and E of norm 1e-10:
    (I - A Z*) A = -A W* (L + E) is rank r plus noise far below eps = 1e-8."""
    n, extra, r, complex_, seed = pair
    m, r = n + extra, min(r, n)
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    w, _ = np.linalg.qr(draw(m, n))
    e = draw(m, n)
    a = w + draw(m, r) @ draw(r, n) / n + 1e-10 * e / np.linalg.norm(e)
    return a, w, draw(m), r


def residual_identity_gap(a, z, b, rep):
    """||(b - A x) - (I - A Z*)(b - A x1)|| over the rounding scale of its terms."""
    r1 = b - a @ rep.x1
    gap = np.linalg.norm((b - a @ rep.x) - (r1 - a @ (z.conj().T @ r1)))
    norm_a = np.linalg.norm(a, 2)
    return gap / (np.linalg.norm(b) + norm_a * np.linalg.norm(rep.x1)) / (1 + norm_a)


@settings(max_examples=25, deadline=None)
@given(PAIRS, st.sampled_from(sorted(STEP1_SOLVERS)), st.booleans())
def test_residual_identity_property(pair, step1, coefficients):
    # with coefficients, the planted pair is the real form of the caller's
    # pair (A V*, Z V*) for a random orthogonal V, and the identity holds in
    # the caller's coordinates
    a, z, b, r = planted_pair(pair)
    cfg = SolverConfig(eps=1e-8, sketch_size=min(a.shape[1], r + 4), seed=pair[-1])
    problem = dense_problem(a, z)
    if coefficients:
        n = a.shape[1]
        v, _ = np.linalg.qr(np.random.default_rng(pair[-1] + 1).standard_normal((n, n)))
        a, z = a @ v.T, z @ v.T
        problem = dataclasses.replace(dense_problem(a, z), real_form=dataclasses.replace(
            problem, coefficients=ops.from_dense(v)))
    rep = az_solve(problem, b, step1=step1, config=cfg)
    assert rep.rank_used == r
    assert residual_identity_gap(a, z, b, rep) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(PAIRS, st.sampled_from(sorted(STEP1_SOLVERS)))
def test_fixed_seed_repeats_x_bitwise(pair, step1):
    a, z, b, r = planted_pair(pair)
    cfg = SolverConfig(eps=1e-8, sketch_size=min(a.shape[1], r + 4), seed=pair[-1])
    first = az_solve(dense_problem(a, z), b, step1=step1, config=cfg)
    again = az_solve(dense_problem(a, z), b.copy(), step1=step1, config=cfg)
    assert np.array_equal(first.x, again.x)
    assert first.rank_used == again.rank_used


# Pairs whose plunge takes half of N or more: a sketch of max(4, N/3) keeps
# all of its first round and projects past N, so it finishes at Omega = I
# (3000 random draws of this family all route).  The examples are first
# rounds of R = 4 whose core's last two sigmas alone project short of N.
SATURATING_PAIRS = st.integers(12, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 30), st.integers((n + 1) // 2, n), st.booleans(),
    st.integers(0, 10_000)))


@settings(max_examples=25, deadline=None)
@given(SATURATING_PAIRS)
@example((13, 10, 7, False, 5228))
@example((13, 22, 7, False, 4621))
@example((12, 6, 6, False, 4820))
@example((13, 11, 7, False, 9035))
def test_routed_x1_is_the_dense_minimum_norm_x1(pair):
    # the randomized step 1 that routes to Omega = I returns the x1 of the
    # dense truncated SVD of B = (I - A Z*) A, and no larger a norm
    a, z, b, r = planted_pair(pair)
    n = a.shape[1]
    cfg = SolverConfig(eps=1e-8, sketch_size=max(4, n // 3), seed=pair[-1])
    rep = az_solve(dense_problem(a, z), b, step1="rand-tsvd", config=cfg)
    zs = z.conj().T
    ref = dense_oracle(a - a @ (zs @ a), b - a @ (zs @ b), cfg.eps)
    assert rep.rank_used == ref.rank_used == r
    assert rep.sketch_size == n
    assert np.linalg.norm(rep.x1 - ref.x) <= 1e-8 * np.linalg.norm(ref.x)
    assert np.linalg.norm(rep.x1) <= np.linalg.norm(ref.x) * (1 + 1e-8)


@settings(max_examples=25, deadline=None)
@given(PAIRS, st.integers(0, 10_000))
def test_injected_x1_property(pair, seed):
    # any x1 gives the residual identity, and the bounds
    # ||b - A x|| <= ||I - A Z*|| tau and ||x|| <= ||x1|| + ||Z*|| tau for
    # tau = ||b - A x1||
    a, z, b, _ = planted_pair(pair)
    x1 = np.random.default_rng(seed).standard_normal(a.shape[1])
    rep = az_solve(dense_problem(a, z), b, step1=injected_step1(x1))
    assert np.array_equal(rep.x1, x1)
    assert residual_identity_gap(a, z, b, rep) <= 1e-13
    tau = np.linalg.norm(b - a @ x1)
    slack = 1e-12 * (np.linalg.norm(b) + np.linalg.norm(a, 2) * np.linalg.norm(x1))
    assert rep.residual_norm <= np.linalg.norm(np.eye(a.shape[0]) - a @ z.conj().T, 2) * tau \
        + slack
    assert np.linalg.norm(rep.x) <= np.linalg.norm(x1) + np.linalg.norm(z, 2) * tau + slack
