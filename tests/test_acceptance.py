"""Acceptance suite: thirteen end-to-end criteria, one test and one verdict
line per criterion.  Tolerances are pinned; oracle constants were computed
independently and frozen here."""

import math
import time

import numpy as np

from azls import (SolveReport, WeightedAzProblem, az_solve, az_weighted_solve,
                  default_config)
from azls import frames, matrixcore as mc, operators as ops, solvers
from azls.cli import main as cli_main
from azls.frames import DomainSpec, eval_error, sample_function
from azls.solvers import SolverConfig
from helpers import (dense_oracle, dense_problem, mc_gaussian_props, random_complex,
                     spectrum_matrix, splitting_certificate)


def verdict(num, desc, ok):
    line = f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_residual_identity():
    """Final residual vector equals the step-1 residual vector for every
    step-1 solver, 50 seeds, 40x25."""
    ok = True
    for seed in range(50):
        a = random_complex(40, 25, seed=3 * seed)
        z = 0.2 * random_complex(40, 25, seed=3 * seed + 1)
        b = np.asarray(random_complex(40, 1, seed=3 * seed + 2)).ravel()
        for step1 in ("tsvd", "tqr", "rand-tsvd", "rand-tqr"):
            cfg = SolverConfig(eps=1e-6, sketch_size=25, seed=seed)
            rep = az_solve(dense_problem(a, z), b, step1=step1, config=cfg)
            r1 = b - a @ rep.x1
            step1_res = r1 - a @ (z.conj().T @ r1)
            ok &= bool(np.linalg.norm((b - a @ rep.x) - step1_res)
                       <= 1e-12 * np.linalg.norm(b))
    verdict(1, "three-step residual identity, 4 solvers x 50 seeds", ok)


def injected_step1(x1):
    """A step-1 solver that ignores its system and returns x1."""
    return lambda op, rhs: SolveReport(x=x1, residual_norm=0.0, rank_used=0)


def test_criterion_02_override_inequalities():
    """Residual and coefficient-norm bounds for an arbitrary injected
    step-1 vector, 20 seeds."""
    ok = True
    for seed in range(20):
        a = random_complex(20, 12, seed=700 + seed)
        z = 0.2 * random_complex(20, 12, seed=800 + seed)
        b = np.asarray(random_complex(20, 1, seed=900 + seed)).ravel()
        x_tilde = np.asarray(random_complex(12, 1, seed=1000 + seed)).ravel()
        rep = az_solve(dense_problem(a, z), b, step1=injected_step1(x_tilde))
        tau = np.linalg.norm(b - a @ x_tilde)
        ok &= bool(rep.residual_norm
                   <= np.linalg.norm(np.eye(20) - a @ z.conj().T, 2) * tau + 1e-10)
        ok &= bool(np.linalg.norm(rep.x)
                   <= np.linalg.norm(x_tilde) + np.linalg.norm(z.conj().T, 2) * tau + 1e-10)
    verdict(2, "injected-step-1 residual and norm inequalities, 20 seeds", ok)


def test_criterion_03_splitting_certificate():
    """A = W + L1 + E1, Z* = W-pinv + L2 + E2 with rank(L_i) <= 3 and
    noise 1e-8 keeps the plunge epsilon rank at or below 9."""
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        w = random_complex(24, 16, seed=3000 + seed)
        l1 = rng.standard_normal((24, 3)) @ rng.standard_normal((3, 16))
        l2 = rng.standard_normal((16, 3)) @ rng.standard_normal((3, 24))
        e1 = rng.standard_normal((24, 16))
        e1 *= 1e-8 / np.linalg.norm(e1)
        e2 = rng.standard_normal((16, 24))
        e2 *= 1e-8 / np.linalg.norm(e2)
        rep = splitting_certificate(w, l1, e1, l2, e2, rank_cap=9)
        ok &= rep.holds
    verdict(3, "low-rank splitting certificate, rank cap 9, 10 seeds", ok)


def test_criterion_04_truncation_residual_bounds():
    """Truncated-SVD and truncated-QR residual bounds on a constructed
    spectrum sigma_k = 2^-k, with v the minimum-norm least-squares witness."""
    sigma = 2.0 ** -np.arange(1, 11)
    a = spectrum_matrix(20, 10, sigma, seed=4000)
    b = np.asarray(random_complex(20, 1, seed=4001)).ravel()
    v = mc.pseudoinverse(a) @ b
    base = np.linalg.norm(b - a @ v)
    f = mc.pivoted_qr(a)
    ok = True
    for eps in (1e-1, 1e-3, 1e-6):
        rep = dense_oracle(a, b, eps)
        ok &= bool(rep.residual_norm <= base + eps * np.linalg.norm(v) + 1e-12)
        rep_qr = solvers.tqr_solve(a, b, SolverConfig(eps, 1))
        r = rep_qr.rank_used
        ok &= r == int(np.sum(np.abs(np.diagonal(f.R)) >= eps))
        r22 = np.linalg.norm(f.R[r:, r:], 2) if r < f.R.shape[0] else 0.0
        ok &= bool(rep_qr.residual_norm <= base + r22 * np.linalg.norm(v) + 1e-12)
    verdict(4, "truncated SVD/QR residual bounds at three thresholds", ok)


def test_criterion_05_randomized_end_to_end_bounds():
    """Randomized solvers on a 60x40 matrix of epsilon rank 5: the residual
    obeys |b - A x| <= |b - A v| + eps (1 + kappa) |v| with the frozen
    high-probability kappa for each solver (8.56 sqrt(5) for the SVD variant,
    32.9088 for the QR variant); 200 seeds each, zero violations expected."""
    eps = 1e-8
    r, p = 5, 20
    sigma = np.concatenate([[1.0, 0.5, 0.1, 0.05, 0.01],
                            np.full(35, 1e-9 / math.sqrt(35))])
    a = spectrum_matrix(60, 40, sigma, seed=5000)
    assert mc.eps_rank(a, eps) == r
    a_op = ops.from_dense(a)
    rng = np.random.default_rng(5001)
    b = a @ (rng.standard_normal(40) + 1j * rng.standard_normal(40))
    v = mc.pseudoinverse(a) @ b
    base = np.linalg.norm(b - a @ v)
    norm_v = np.linalg.norm(v)
    kappa_svd = 8.56 * math.sqrt(r)
    u = 2.0 + math.sqrt(2.0 * p)
    kappa_qr = (1.0 + math.sqrt(r + p) + u) * math.e * math.sqrt(3.0 * r / (p + 1))
    assert abs(kappa_qr - 32.9088) <= 1e-3
    ok = True
    for seed in range(200):
        cfg = SolverConfig(eps=eps, sketch_size=r + p, seed=seed)
        res_svd = solvers.randomized_tsvd_solve(a_op, b, cfg).residual_norm
        res_qr = solvers.randomized_tqr_solve(a_op, b, cfg).residual_norm
        ok &= bool(res_svd <= base + eps * (1.0 + kappa_svd) * norm_v)
        ok &= bool(res_qr <= base + eps * (1.0 + kappa_qr) * norm_v)
    verdict(5, "randomized end-to-end residual bounds, 200 seeds", ok)


def test_criterion_06_gaussian_monte_carlo():
    """Mean Frobenius norm of the pseudoinverse of an r x (r+p) Gaussian
    sketch matches sqrt(r/(p-1)); the s=2 tail frequency stays under the
    s^-p bound plus sampling slack."""
    stats = mc_gaussian_props(5, 5, 2000, seed=6000, tail_s=2.0)
    expected = math.sqrt(5.0 / 4.0)
    mean_ok = abs(stats.mean_pinv_fro - expected) <= 0.03 * expected
    tail_ok = stats.tail_fraction <= 2.0 ** -5 + 0.02
    verdict(6, "Gaussian pseudoinverse Monte Carlo (mean and tail)", mean_ok and tail_ok)


def test_criterion_07_discrete_dualities():
    """Full-grid dual pairs: Z*A = I for the Fourier, Chebyshev (both node
    families), and Legendre constructions; Legendre quadrature orthogonality."""

    def defect(p):
        za = ops.materialize(ops.compose(ops.adjoint(p.Z), p.A))
        return np.max(np.abs(za - np.eye(p.A.cols)))

    full = DomainSpec.interval(-1.0, 1.0)
    ok = defect(frames.fourier_extension_1d(201, full)) <= 1e-11
    ok &= defect(frames.chebyshev_extension(64, full, kind="roots")) <= 1e-11
    ok &= defect(frames.chebyshev_extension(64, full, kind="extremae")) <= 1e-11
    ok &= defect(frames.legendre_extension(64, full)) <= 1e-11
    from azls import transforms
    rule = transforms.gauss_legendre(64)
    vand = transforms.legendre_eval(63, rule.nodes)
    gram = vand.T @ (rule.weights[:, None] * vand)
    ok &= bool(np.max(np.abs(gram - np.diag(2.0 / (2.0 * np.arange(64) + 1.0))))
               <= 1e-10)
    verdict(7, "full-grid discrete dualities and Legendre orthogonality", ok)


def test_criterion_08_fourier_clustering_and_plunge():
    """The half-interval Fourier extension spectrum splits into a cluster at
    sqrt(L) and a cluster at zero, and the plunge rank grows at most
    logarithmically (increment <= 10 per doubling of N)."""
    p = frames.fourier_extension_1d(201, DomainSpec.interval(-0.5, 0.5), 2.0)
    a = ops.materialize(p.A)
    top = p.scale  # sqrt of the underlying periodic grid size
    s = np.linalg.svd(a, compute_uv=False)
    near_top = np.abs(s - top) <= 0.05 * top
    near_zero = s <= 0.05 * top
    cluster_ok = float(np.mean(near_top | near_zero)) >= 0.8
    count_ok = int(near_top.sum()) >= 80
    growth_ok = True
    prev = None
    for n in (51, 101, 201, 401):
        q = frames.fourier_extension_1d(n, DomainSpec.interval(-0.5, 0.5), 2.0)
        aq = ops.materialize(q.A)
        zq = ops.materialize(q.Z)
        rank = mc.eps_rank(aq - aq @ zq.conj().T @ aq, 1e-10 * q.scale)
        if prev is not None:
            growth_ok &= (rank - prev) <= 10
        prev = rank
    verdict(8, "two-cluster spectrum and logarithmic plunge growth",
            cluster_ok and count_ok and growth_ok)


def test_criterion_09_gram_clustering():
    """Gram-matrix singular values on the two-interval domain cluster at 1
    and at 0 with at most a narrow plunge (golden counts: 23/23/5 at N=51)."""
    dom = DomainSpec.union([[-0.75, -0.25], [0.0, 0.5]])
    g = frames.gram_fourier(51, dom)
    s = np.linalg.svd(g, compute_uv=False)
    high = int(np.sum(s >= 0.9))
    low = int(np.sum(s <= 0.1))
    mid = len(s) - high - low
    verdict(9, "Gram spectrum two-cluster counts (>=18 / >=18 / <=14)",
            high >= 18 and low >= 18 and mid <= 14)


def test_criterion_10_approximation_accuracy():
    """Five approximation targets hit frozen error levels and land within
    10x of the dense truncated-SVD oracle residual."""
    half = DomainSpec.interval(-0.5, 0.5)
    singular = lambda x: np.cos(2 * np.pi * x) + np.abs(x) * np.sin(1 + 2 * np.pi * x)
    sum_frame = frames.weighted_sum_frame(
        frames.chebyshev_extension(32, half, 2.0),
        lambda x: np.ones_like(x), np.abs)
    disk = DomainSpec.from_mask(
        lambda x, y: (x**2 + y**2 <= 0.5**2) & (x**2 + y**2 >= 0.15**2))
    f2d = lambda x, y: np.exp(x) * np.cos(2.0 * y)
    cases = [
        (frames.fourier_extension_1d(201, half, 2.0), np.exp, 1e-8, 1e-10),
        (frames.chebyshev_extension(64, half, 2.0), np.exp, 1e-10, 1e-12),
        (frames.legendre_extension(40, half, 2.0), np.exp, 1e-8, 1e-10),
        (sum_frame, singular, 1e-6, 1e-10),
        (frames.fourier_extension_2d(17, disk, 2.0), f2d, 1e-4, 1e-10),
    ]
    ok = True
    for i, (p, f, tol, eps_rel) in enumerate(cases):
        b = sample_function(f, p.grid)
        cfg = default_config(p, seed=10 + i, eps=eps_rel * p.scale)
        rep = az_solve(p, b, step1="rand-tsvd", config=cfg)
        err = eval_error(p, rep.x, f)["max_err"]
        oracle = dense_oracle(ops.materialize(p.A), b, cfg.eps)
        floor = max(oracle.residual_norm, 1e-14 * np.linalg.norm(b))
        ok &= bool(err <= tol)
        ok &= bool(rep.residual_norm <= 10.0 * floor)
    verdict(10, "five approximation targets within tolerance and 10x oracle", ok)


def test_criterion_11_weighted_limits_and_sweep():
    """Weighted solves: the eps_w = 0 limit is the unweighted dual solution,
    eps_w > max(d) matches the dense weighted oracle, and the sweep on the
    N=121 jump problem has monotone rank and (almost) monotone error."""
    p = frames.fourier_lsq_equispaced(121, 243)
    grid = np.asarray(p.grid)
    f = lambda x: np.sin(2 * np.pi * x) + np.mod(x + 0.5, 1.0) - 0.5
    b = sample_function(f, grid)
    d = (grid - 0.5) ** 2
    a = ops.materialize(p.A)
    x_unweighted = p.Z.adjoint_apply(b)
    x_oracle = solvers.direct_lsq(d[:, None] * a, d * b).x

    rep0 = az_weighted_solve(WeightedAzProblem(base=p, d=d, eps_w=0.0), b)
    zero_ok = np.linalg.norm(rep0.x - x_unweighted) <= 1e-12 * np.linalg.norm(b)

    big = float(d.max()) * 2.0
    rep_big = az_weighted_solve(WeightedAzProblem(base=p, d=d, eps_w=big), b)
    big_ok = np.linalg.norm(rep_big.x - x_oracle) \
        <= 1e-8 * max(1.0, np.linalg.norm(x_oracle))

    ranks, dists = [], []
    for eps_w in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1):
        rep = az_weighted_solve(WeightedAzProblem(base=p, d=d, eps_w=eps_w), b)
        ranks.append(rep.rank_used)
        dists.append(float(np.linalg.norm(rep.x - x_oracle)))
    rank_ok = all(b_ >= a_ for a_, b_ in zip(ranks, ranks[1:]))
    inversions = sum(b_ > a_ * 1.01 for a_, b_ in zip(dists, dists[1:]))
    sweep_ok = rank_ok and inversions <= 1 and dists[-1] <= 1e-6
    verdict(11, "weighted limits and threshold sweep on the jump problem",
            zero_ok and big_ok and sweep_ok)


def test_criterion_12_complexity_trend():
    """Log-log timing slope of the randomized three-step solve stays at or
    below 1.5 over the top half of N = 2^4..2^12, while the dense direct
    solver's slope is at least 2.5 over its top range."""
    half = DomainSpec.interval(-0.5, 0.5)

    def warm_median(solve):
        runs = []
        for _ in range(4):
            t0 = time.perf_counter()
            solve()
            runs.append(time.perf_counter() - t0)
        return float(np.median(runs[1:]))  # first run warms caches

    def az_time(n):
        p = frames.fourier_extension_1d(n, half, 2.0)
        b = sample_function(np.exp, p.grid)
        cfg = default_config(p, seed=0)
        return warm_median(lambda: az_solve(p, b, step1="rand-tsvd", config=cfg))

    def direct_time(n):
        p = frames.fourier_extension_1d(n, half, 2.0)
        a = ops.materialize(p.A)
        b = sample_function(np.exp, p.grid)
        return warm_median(lambda: np.linalg.lstsq(a, b, rcond=None))

    def fitted_slope(ns, ts, tail):
        lx = np.log(np.asarray(ns[-tail:], dtype=float))
        ly = np.log(np.asarray(ts[-tail:], dtype=float))
        return float(np.polyfit(lx, ly, 1)[0])

    az_ns = [2**k + 1 for k in range(4, 13)]
    az_ts = [az_time(n) for n in az_ns]
    az_slope = fitted_slope(az_ns, az_ts, tail=5)

    direct_ns = [2**k - 1 for k in range(8, 12)]
    direct_ts = [direct_time(n) for n in direct_ns]
    direct_slope = fitted_slope(direct_ns, direct_ts, tail=3)

    verdict(12, f"timing slopes: three-step {az_slope:.2f} <= 1.5, "
                f"direct {direct_slope:.2f} >= 2.5",
            az_slope <= 1.5 and direct_slope >= 2.5)


def test_criterion_13_determinism(tmp_path):
    """Repeated solves and CLI runs with the same seed are bit-identical."""
    p = frames.fourier_extension_1d(61, DomainSpec.interval(-0.5, 0.5), 2.0)
    b = sample_function(np.exp, p.grid)
    cfg = default_config(p, seed=17)
    x1 = az_solve(p, b, step1="rand-tsvd", config=cfg).x
    x2 = az_solve(p, b, step1="rand-tsvd", config=cfg).x
    solve_ok = np.array_equal(x1, x2)
    f1, f2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    args = ["approx", "--problem", "fourier1d", "--n", "31",
            "--function", "exp", "--seed", "9"]
    cli_ok = (cli_main(args + ["--out", str(f1)]) == 0
              and cli_main(args + ["--out", str(f2)]) == 0
              and f1.read_bytes() == f2.read_bytes())
    verdict(13, "bit-identical repeated solves and CLI reruns", solve_ok and cli_ok)
