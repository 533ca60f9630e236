"""Problem-builder tests: domain handling, basis entries, discrete dualities,
spectrum structure, sum frames, weighted wrappers, and error evaluation."""

import re

import numpy as np
import pytest
import scipy.fft

from azls import az_solve, default_config, frames, matrixcore as mc
from azls import operators as ops, transforms
from azls.frames import DomainSpec, eval_error, sample_function


def duality_defect(problem):
    za = ops.materialize(ops.compose(ops.adjoint(problem.Z), problem.A))
    return np.max(np.abs(za - np.eye(problem.A.cols)))


# domains too small for any grid of at most frames._MAX_GRID_POINTS points
TINY_INTERVAL = DomainSpec.interval(0.0, 1e-9)
TINY_MASK = DomainSpec.from_mask(lambda x, y: x**2 + y**2 <= 1e-8)


def assert_sizing_error_under_cap(monkeypatch, build):
    """build() raises DomainSizingError, and the size search builds no
    candidate grid, exact or estimated, of more than the cap's points."""
    select = frames._select_grid_size
    sizes = []

    def watch(points, dim):
        return lambda L: sizes.append(L**dim) or points(L)

    def watched(n, dim, oversampling, points, domain, estimate=None):
        return select(n, dim, oversampling, watch(points, dim), domain,
                      estimate and watch(estimate, dim))

    monkeypatch.setattr(frames, "_select_grid_size", watched)
    with pytest.raises(frames.DomainSizingError, match="domain too small"):
        build()
    assert sizes and max(sizes) <= frames._MAX_GRID_POINTS


SMALL_DISK = DomainSpec.from_mask(lambda x, y: x**2 + y**2 <= 0.3**2)
GRID_RULE_BUILDERS = {
    **{f"{name}-{dom_name}": (lambda build=build, dom=dom: build(dom))
       for name, build in {
           "fourier1d": lambda dom: frames.fourier_extension_1d(65, dom),
           "fourier1d-ov-1.2": lambda dom: frames.fourier_extension_1d(31, dom, 1.2),
           "chebyshev-roots": lambda dom: frames.chebyshev_extension(65, dom),
           "chebyshev-extremae": lambda dom: frames.chebyshev_extension(
               65, dom, kind="extremae"),
           "legendre": lambda dom: frames.legendre_extension(33, dom),
       }.items()
       for dom_name, dom in {"narrow": DomainSpec.interval(-0.1, 0.1),
                             "union": DomainSpec.union([[-0.9, -0.8], [0.5, 0.55]])}.items()},
    "fourier2d-disk": lambda: frames.fourier_extension_2d(9, frames.named_mask("disk")),
    "fourier2d-small-disk": lambda: frames.fourier_extension_2d(5, SMALL_DISK),
}


@pytest.mark.parametrize("name", sorted(GRID_RULE_BUILDERS))
def test_grid_length_is_fast(name):
    # every frame's transform length, where the search starts and where it
    # grows (the narrow and union domains and the small disk), is a fast FFT
    # length: the grid's L, or L - 1 for the L extremae, whose DCT-I is an
    # FFT of length 2(L - 1)
    L = int(re.search(r"L=(\d+)", GRID_RULE_BUILDERS[name]().label).group(1))
    if "extremae" in name:
        L -= 1
    assert L == scipy.fft.next_fast_len(L)


class TestDomainSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DomainSpec.union([])
        with pytest.raises(ValueError):
            DomainSpec.union([[0.5, 0.4]])
        with pytest.raises(ValueError):
            DomainSpec.union([[-0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(ValueError):
            DomainSpec.interval(-1.5, 0.0)

    def test_contains_and_measure(self):
        dom = DomainSpec.union([[-0.5, 0.0], [0.25, 0.5]])
        assert np.array_equal(dom.contains(np.array([-0.3, 0.1, 0.3])),
                              [True, False, True])
        assert np.isclose(dom.measure_1d(), 0.75)

    def test_contains_mask_points(self):
        disk = frames.named_mask("disk")
        pts = np.array([[0.0, 0.0], [0.7, 0.7], [-0.5, 0.5]])
        assert np.array_equal(disk.contains(pts), [True, False, True])
        with pytest.raises(ValueError):
            disk.contains(np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            DomainSpec.interval(-0.5, 0.5).contains(pts)

    def test_named_masks(self):
        disk = frames.named_mask("disk")
        assert disk.is_2d
        assert bool(disk.mask(np.array(0.0), np.array(0.0)))
        punctured = frames.named_mask("punctured-disk")
        assert not bool(punctured.mask(np.array(0.0), np.array(0.0)))
        assert bool(punctured.mask(np.array(0.5), np.array(0.0)))
        with pytest.raises(ValueError):
            frames.named_mask("triangle")


class TestFourier1d:
    def test_entries(self):
        p = frames.fourier_extension_1d(7, DomainSpec.interval(-0.5, 0.5), 2.0)
        a = ops.materialize(p.A)
        freqs = np.arange(-3, 4)
        expected = np.exp(1j * np.pi * np.outer(p.grid, freqs))
        assert np.max(np.abs(a - expected)) <= 1e-12

    def test_evaluate_in_blocks(self, monkeypatch):
        # N = 1025 splits into 32 frequency blocks of 33 (the last padded);
        # 50 points a chunk puts two chunk boundaries and a partial chunk in 137
        p = frames.fourier_extension_1d(1025, DomainSpec.interval(-0.5, 0.5), 2.0)
        monkeypatch.setattr(frames, "_EVAL_BLOCK_ENTRIES", 32 * 50)
        pts = np.linspace(-0.5, 0.5, 137)
        rng = np.random.default_rng(3)
        c = rng.standard_normal((1025, 2)) + 1j * rng.standard_normal((1025, 2))
        direct = np.exp(1j * np.pi * np.outer(pts, np.arange(-512, 513))) @ c
        assert np.max(np.abs(p.evaluate(c, pts) - direct)) <= 1e-12 * np.sum(np.abs(c))
        assert np.max(np.abs(p.evaluate(c[:, 0], pts) - direct[:, 0])) \
            <= 1e-12 * np.sum(np.abs(c[:, 0]))

    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            frames.fourier_extension_1d(8, DomainSpec.interval(-0.5, 0.5), 2.0)

    def test_full_domain_exact_dual(self):
        p = frames.fourier_extension_1d(15, DomainSpec.interval(-1.0, 1.0), 2.0)
        assert duality_defect(p) <= 1e-12
        a = ops.materialize(p.A)
        z = ops.materialize(p.Z)
        assert np.max(np.abs(a - a @ z.conj().T @ a)) <= 1e-11

    def test_clustering_near_sqrt_l(self):
        p = frames.fourier_extension_1d(201, DomainSpec.interval(-0.5, 0.5), 2.0)
        s = np.linalg.svd(ops.materialize(p.A), compute_uv=False)
        sq = p.scale  # sqrt(L)
        near_top = np.abs(s - sq) <= 0.05 * sq
        near_zero = s <= 0.05 * sq
        # two tight clusters with a thin plunge between them
        assert np.mean(near_top | near_zero) >= 0.8
        assert near_top.sum() >= 80
        sz = np.linalg.svd(ops.materialize(p.Z), compute_uv=False)
        assert np.sum(np.abs(sz - 1 / sq) <= 0.05 / sq) >= 80

    def test_sizing_error(self, monkeypatch):
        assert_sizing_error_under_cap(monkeypatch, lambda: frames.fourier_extension_1d(
            15, TINY_INTERVAL, 2.0))


class TestFourier2d:
    def test_full_mask_exact_dual(self):
        full = DomainSpec.from_mask(
            lambda x, y: np.ones_like(np.asarray(x), dtype=bool))
        p = frames.fourier_extension_2d(5, full, 2.0)
        assert duality_defect(p) <= 1e-12

    def test_adjoint_consistency(self):
        p = frames.fourier_extension_2d(7, frames.named_mask("disk"), 2.0)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(49) + 1j * rng.standard_normal(49)
        v = rng.standard_normal(p.A.rows) + 1j * rng.standard_normal(p.A.rows)
        assert abs(np.vdot(v, p.A.apply(u)) - np.vdot(p.A.adjoint_apply(v), u)) \
            <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v)

    @pytest.mark.parametrize("mask", ["disk", "punctured-disk", "square"])
    @pytest.mark.parametrize("n", [5, 9, 25])
    def test_matches_dense_tensor_product(self, n, mask):
        # the oracle is the rows inside the mask of E (x) E, with
        # E[l, j] = exp(i pi n_j x_l), for a vector and for blocks of one
        # column, of a chunk less one and of a chunk and three more
        p = frames.fourier_extension_2d(n, frames.named_mask(mask))
        freqs = np.arange(n) - n // 2
        ex, ey = (np.exp(1j * np.pi * np.outer(p.grid[:, axis], freqs)) for axis in (0, 1))
        dense = (ex[:, :, None] * ey[:, None, :]).reshape(p.A.rows, n * n)
        L = round(2.0 / np.min(np.diff(np.unique(p.grid))))
        chunk = max(1, frames._CHUNK_ENTRIES // (L * np.unique(p.grid[:, 0]).size))
        rng = np.random.default_rng(n)
        for k in ((), (1,), (chunk - 1,), (chunk + 3,)):
            u = rng.standard_normal((n * n,) + k) + 1j * rng.standard_normal((n * n,) + k)
            v = rng.standard_normal((p.A.rows,) + k) + 1j * rng.standard_normal((p.A.rows,) + k)
            for op, mat in ((p.A, dense), (p.Z, dense / L**2)):
                for got, ref in ((op.apply(u), mat @ u),
                                 (op.adjoint_apply(v), mat.conj().T @ v)):
                    assert got.shape == ref.shape
                    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_small_mask_grows_grid(self, n):
        # the starting grid L = 4n holds fewer than 2N points of this disk
        disk = DomainSpec.from_mask(lambda x, y: x**2 + y**2 <= 0.3**2)
        start = disk.contains(frames._periodic_grid(4 * n, 2)).sum()
        assert start < 2 * n * n
        p = frames.fourier_extension_2d(n, disk, 2.0)
        assert p.A.rows >= 2 * n * n
        assert np.all(disk.contains(p.grid))

    def test_sizing_error(self, monkeypatch):
        assert_sizing_error_under_cap(monkeypatch, lambda: frames.fourier_extension_2d(
            5, TINY_MASK, 2.0))

    def test_cluster_fraction_tracks_area(self):
        p = frames.fourier_extension_2d(9, frames.named_mask("disk"), 2.0)
        s = np.linalg.svd(ops.materialize(p.A), compute_uv=False)
        L = 36
        rho = np.pi * 0.8**2 / 4.0
        frac = np.mean(s >= 0.95 * L)
        assert abs(frac - rho) <= 0.15


GRAM_BUILDERS = {
    "1d-half-65": lambda: frames.fourier_extension_1d(65, DomainSpec.interval(-0.5, 0.5)),
    "1d-half-1025": lambda: frames.fourier_extension_1d(1025, DomainSpec.interval(-0.5, 0.5)),
    "1d-union": lambda: frames.fourier_extension_1d(
        65, DomainSpec.union([[-0.9, -0.8], [0.5, 0.55]])),
    # odd grid lengths from the oversampling: L = 75 and 135
    "1d-odd-75": lambda: frames.fourier_extension_1d(31, DomainSpec.interval(-0.9, 0.9), 1.2),
    "1d-odd-135": lambda: frames.fourier_extension_1d(29, DomainSpec.interval(-0.9, 0.9), 2.3),
    **{f"2d-{mask}-{n}": (lambda mask=mask, n=n:
                          frames.fourier_extension_2d(n, frames.named_mask(mask)))
       for mask in ("disk", "punctured-disk", "square") for n in (5, 9, 25)},
    **{f"cheb-{kind}-{name}": (lambda kind=kind, n=n, dom=dom:
                               frames.chebyshev_extension(n, dom, kind=kind))
       for kind in ("roots", "extremae") for name, (n, dom) in {
           "half-65": (65, DomainSpec.interval(-0.5, 0.5)),
           "half-513": (513, DomainSpec.interval(-0.5, 0.5)),
           "union-65": (65, DomainSpec.union([[-0.9, -0.5], [0.2, 0.6]])),
           "left-end-33": (33, DomainSpec.interval(-1.0, 0.3)),
           "right-end-33": (33, DomainSpec.interval(-0.2, 1.0)),
       }.items()},
    "legendre-half-65": lambda: frames.legendre_extension(65, DomainSpec.interval(-0.5, 0.5)),
    "legendre-union-65": lambda: frames.legendre_extension(
        65, DomainSpec.union([[-0.9, -0.5], [0.2, 0.6]])),
    "fourier01-61": lambda: frames.fourier_lsq_equispaced(61, 123),
    "fourier01-square-61": lambda: frames.fourier_lsq_equispaced(61, 61),
}


@pytest.mark.parametrize("name", sorted(GRAM_BUILDERS))
def test_gram_is_z_adjoint_a(name):
    p = GRAM_BUILDERS[name]()
    assert p.gram.shape == (p.A.cols, p.A.cols)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((p.A.cols, 4)) + 1j * rng.standard_normal((p.A.cols, 4))
    ref = p.Z.adjoint_apply(p.A.apply(v))
    assert np.linalg.norm(p.gram.apply(v) - ref) <= 1e-13 * np.linalg.norm(ref)
    assert np.linalg.norm(p.gram.apply(v[:, 1]) - ref[:, 1]) \
        <= 1e-13 * np.linalg.norm(ref[:, 1])


FOURIER1D_DOMAINS = {
    "half": DomainSpec.interval(-0.5, 0.5),
    "narrow": DomainSpec.interval(-0.1, 0.1),
    # the rows sit in two runs of grid indices with a gap between them
    "union": DomainSpec.union([[-0.9, -0.8], [0.5, 0.55]]),
}
FOURIER1D_BUILDERS = {
    **{f"{name}-{n}": (lambda dom=dom, n=n: frames.fourier_extension_1d(n, dom))
       for name, dom in FOURIER1D_DOMAINS.items() for n in (1, 5, 65, 1025)},
    # odd grid lengths from the oversampling: L = 75 and 135
    "odd-75": lambda: frames.fourier_extension_1d(31, DomainSpec.interval(-0.9, 0.9), 1.2),
    "odd-135": lambda: frames.fourier_extension_1d(29, DomainSpec.interval(-0.9, 0.9), 2.3),
}


def grid_indices(p):
    """L and the grid indices l of the collocation points x_l = -1 + 2l/L."""
    L = round(p.scale**2)
    return L, np.rint((np.asarray(p.grid) + 1.0) * L / 2.0).astype(np.int64)


def exact_fourier_1d(p):
    """The 1D Fourier extension A with its phases reduced mod L in integers:
    (-1)^n exp(2 pi i ((l n) mod L) / L)."""
    L, rows = grid_indices(p)
    half = (p.A.cols - 1) // 2
    freqs = np.arange(-half, half + 1)
    return (-1.0) ** np.abs(freqs) * np.exp(2j * np.pi * (np.outer(rows, freqs) % L) / L)


@pytest.mark.parametrize("name", sorted(FOURIER1D_BUILDERS))
def test_chirp_fourier_matches_exact_phases(name, monkeypatch):
    # the one-FFT A against its entries; chunks of 3 columns, so that a block
    # of 7 runs two full chunks and a partial one
    L, _ = grid_indices(FOURIER1D_BUILDERS[name]())
    monkeypatch.setattr(frames, "_CHUNK_ENTRIES", 3 * L)
    p = FOURIER1D_BUILDERS[name]()
    exact = exact_fourier_1d(p)
    rng = np.random.default_rng(7)
    for k in (None, 7):
        shape = (p.A.cols,) if k is None else (p.A.cols, k)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w = rng.standard_normal((p.A.rows,) + shape[1:]) \
            + 1j * rng.standard_normal((p.A.rows,) + shape[1:])
        ref, ref_adj = exact @ v, exact.conj().T @ w
        got, got_adj = p.A.apply(v), p.A.adjoint_apply(w)
        assert got.shape == ref.shape and got_adj.shape == ref_adj.shape
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        assert np.linalg.norm(got_adj - ref_adj) <= 1e-13 * np.linalg.norm(ref_adj)
        # dot test: <w, A v> = <A* w, v>
        assert abs(np.vdot(w, got) - np.vdot(got_adj, v)) \
            <= 1e-13 * np.linalg.norm(ref) * np.linalg.norm(w)


class TestGram:
    def test_full_interval_identity(self):
        g = frames.gram_fourier(9, DomainSpec.interval(-1.0, 1.0))
        assert np.max(np.abs(g - np.eye(9))) <= 1e-12

    def test_diagonal_half_measure(self):
        dom = DomainSpec.union([[-0.75, -0.25], [0.0, 0.5]])
        g = frames.gram_fourier(11, dom)
        assert np.allclose(np.diagonal(g).real, dom.measure_1d() / 2)

    def test_hermitian_psd(self):
        g = frames.gram_fourier(21, DomainSpec.union([[-0.5, 0.25]]))
        assert np.max(np.abs(g - g.conj().T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(g)) >= -1e-12

    def test_matches_quadrature(self):
        dom = DomainSpec.union([[-0.6, -0.1], [0.2, 0.7]])
        g = frames.gram_fourier(7, dom)
        freqs = np.arange(-3, 4)
        x = np.concatenate([np.linspace(lo, hi, 20001) for lo, hi in dom.intervals])
        approx = np.empty((7, 7), dtype=complex)
        for i, n in enumerate(freqs):
            for j, m in enumerate(freqs):
                vals = 0.5 * np.exp(1j * np.pi * (n - m) * x)
                approx[i, j] = np.trapezoid(vals.reshape(2, -1),
                                            x.reshape(2, -1), axis=1).sum()
        assert np.max(np.abs(g - approx)) <= 1e-7

    def test_two_cluster_spectrum(self):
        dom = DomainSpec.union([[-0.75, -0.25], [0.0, 0.5]])
        s = np.linalg.svd(frames.gram_fourier(51, dom), compute_uv=False)
        assert np.sum(s >= 0.9) >= 18
        assert np.sum(s <= 0.1) >= 18
        assert np.sum((s > 0.1) & (s < 0.9)) <= 14


class TestChebyshev:
    @pytest.mark.parametrize("kind,L", [("roots", 256), ("extremae", 243)])
    def test_full_grid_duality(self, kind, L):
        # the oversampling that sizes the grid at the fast L = ceil(2 * ov * 64);
        # the extremae grid holds the L + 1 extrema of T_L
        p = frames.chebyshev_extension(64, DomainSpec.interval(-1.0, 1.0),
                                       (L - 0.5) / 128, kind=kind)
        assert p.label == f"chebyshev(N=64, L={L + (kind == 'extremae')}, {kind})"
        assert duality_defect(p) <= 1e-11

    def test_entries_are_chebyshev_values(self):
        p = frames.chebyshev_extension(16, DomainSpec.interval(-0.5, 0.5), 2.0)
        a = ops.materialize(p.A)
        nodes = np.asarray(p.grid)
        expected = np.cos(np.outer(np.arccos(nodes), np.arange(16)))
        assert np.max(np.abs(a - expected)) <= 1e-11

    def test_plunge_rank_growth(self):
        prev = None
        for n in (51, 101, 201):
            p = frames.chebyshev_extension(n, DomainSpec.interval(-0.5, 0.5), 2.0)
            a = ops.materialize(p.A)
            z = ops.materialize(p.Z)
            r = mc.eps_rank(a - a @ z.conj().T @ a, 1e-10 * p.scale).r
            if prev is not None:
                assert r - prev <= 10
            prev = r

    def test_approximates_exp(self):
        p = frames.chebyshev_extension(64, DomainSpec.interval(-0.5, 0.5), 2.0)
        b = sample_function(np.exp, p.grid)
        cfg = default_config(p, seed=1, eps=1e-12 * p.scale)
        rep = az_solve(p, b, step1="rand-tsvd", config=cfg)
        assert eval_error(p, rep.x, np.exp)["max_err"] <= 1e-10

    @pytest.mark.parametrize("kind", ["roots", "extremae"])
    @pytest.mark.parametrize("n", [65, 513])
    def test_gram_dot_test(self, kind, n):
        # G is real and not symmetric; its adjoint is (T + H)(D^-1 u) / 2
        p = frames.chebyshev_extension(n, DomainSpec.interval(-0.9, 0.9), kind=kind)
        rng = np.random.default_rng(5)
        v = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        u = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        lhs = np.vdot(u, p.gram.apply(v))
        rhs = np.vdot(p.gram.adjoint_apply(u), v)
        g = ops.materialize(p.gram)
        assert abs(lhs - rhs) <= 1e-14 * np.linalg.norm(g) * np.linalg.norm(u) \
            * np.linalg.norm(v)
        assert np.linalg.norm(g - g.T) > 1e-3 * np.linalg.norm(g)

    @pytest.mark.parametrize("kind", ["roots", "extremae"])
    def test_step1_materializes_real(self, kind):
        p = frames.chebyshev_extension(65, DomainSpec.interval(-0.5, 0.5), kind=kind)
        assert ops.materialize(p.gram).dtype == np.float64
        step1 = ops.materialize(ops.az_step1_operator(p.A, p.Z, p.gram))
        assert step1.dtype == np.float64
        ref = ops.materialize(ops.az_step1_operator(p.A, p.Z))
        assert np.linalg.norm(step1 - ref) <= 1e-14 * np.linalg.norm(ops.materialize(p.A))


class TestLegendre:
    def test_full_grid_duality(self):
        p = frames.legendre_extension(64, DomainSpec.interval(-1.0, 1.0))
        assert duality_defect(p) <= 1e-10

    def test_pinned_full_grid_polishes_every_node(self):
        p = frames.legendre_extension(401, DomainSpec.interval(-1.0, 1.0))
        assert p.label == "legendre(N=401, L=1617)"
        assert np.array_equal(p.grid, transforms.gauss_legendre(1617).nodes)
        assert duality_defect(p) <= 1e-11

    @pytest.mark.parametrize("dom", [DomainSpec.interval(-0.5, 0.5),
                                     DomainSpec.union([[-0.9, -0.8], [0.5, 0.55]])])
    def test_step1_with_gram_is_bitwise_the_composed_one(self, dom):
        # G = Z^T A is the same GEMM that Z* composed with A runs on eye(N)
        p = frames.legendre_extension(401, dom)
        step1 = ops.materialize(ops.az_step1_operator(p.A, p.Z, p.gram))
        assert np.array_equal(step1, ops.materialize(ops.az_step1_operator(p.A, p.Z)))

    def test_plunge_is_isolated(self):
        p = frames.legendre_extension(40, DomainSpec.interval(-0.5, 0.5), 2.0)
        a = ops.materialize(p.A)
        z = ops.materialize(p.Z)
        r = mc.eps_rank(a - a @ z.conj().T @ a, 1e-8 * p.scale).r
        assert r <= 20

    @pytest.mark.parametrize("dom", [DomainSpec.interval(-0.5, 0.5),
                                     DomainSpec.interval(-0.1, 0.1),
                                     DomainSpec.union([[-0.9, -0.8], [0.5, 0.55]]),
                                     DomainSpec.interval(0.9, 1.0),
                                     DomainSpec.interval(-1.0, -0.95)])
    def test_sizing_builds_only_the_final_rule(self, monkeypatch, dom):
        gauss_legendre = transforms.gauss_legendre
        rules = {}

        def rule(L):
            if L not in rules:
                rules[L] = gauss_legendre(L)
            return rules[L]

        for n in (5, 31, 64, 201, 401):
            built = []
            monkeypatch.setattr(transforms, "gauss_legendre", lambda L, index=None:
                                built.append(L) or gauss_legendre(L, index))
            p = frames.legendre_extension(n, dom)
            monkeypatch.setattr(transforms, "gauss_legendre", gauss_legendre)
            # the sizing loop run on the full Gauss-Legendre rule at every candidate
            L, _, sel = frames._select_grid_size(n, 1, 2.0, lambda L: rule(L).nodes, dom)
            assert built == [L]
            # same size and each node within 2 ulp: the same selection, as
            # neighbouring nodes lie far more than 2 ulp apart
            assert p.grid.size == sel.size
            assert np.max(np.abs(p.grid - rules[L].nodes[sel])) <= 2 * np.spacing(1.0)

    def test_polishes_only_the_kept_nodes(self, monkeypatch):
        # Newton work is O(M L) on the M kept nodes, not O(L^2) on all L
        value_and_derivative = transforms._legendre_value_and_derivative
        sizes = []
        monkeypatch.setattr(transforms, "_legendre_value_and_derivative",
                            lambda L, x: sizes.append(x.size) or value_and_derivative(L, x))
        p = frames.legendre_extension(401, DomainSpec.interval(-0.1, 0.1))
        assert p.label == "legendre(N=401, L=12600)"
        assert 1 <= len(sizes) <= 3
        assert max(sizes) <= p.grid.size + 8

    @pytest.mark.parametrize("dom", [DomainSpec.interval(0.9, 1.0),
                                     DomainSpec.interval(-1.0, -0.95)])
    def test_approximates_exp_at_the_endpoints(self, dom):
        # Tricomi's estimate is weakest next to +-1
        for n in (40, 201):
            p = frames.legendre_extension(n, dom)
            b = sample_function(np.exp, p.grid)
            rep = az_solve(p, b, step1="tsvd", config=default_config(p, seed=2))
            assert eval_error(p, rep.x, np.exp)["max_err"] <= 1e-8

    def test_misleading_estimate_falls_back_to_exact_points(self):
        # an estimate that puts every point inside meets the target at once;
        # the exact count falls short, so the search goes on as without it
        narrow = DomainSpec.interval(-0.2, 0.2)

        def grid(L):
            return frames._periodic_grid(L, 1)

        exact = frames._select_grid_size(31, 1, 2.0, grid, narrow)
        guided = frames._select_grid_size(31, 1, 2.0, grid, narrow,
                                          estimate=lambda L: np.zeros(L))
        assert exact[0] == guided[0] > 4 * 31
        assert np.array_equal(exact[2], guided[2])

    def test_roots_estimate_near_nodes(self):
        for L in (1, 2, 7, 64, 401, 2410):
            est = transforms.legendre_roots_estimate(L)
            nodes = transforms.gauss_legendre(L).nodes
            assert np.max(np.abs(est - nodes)) <= 0.2 / L**2
            assert np.array_equal(est, -est[::-1])

    def test_approximates_exp(self):
        p = frames.legendre_extension(40, DomainSpec.interval(-0.5, 0.5), 2.0)
        b = sample_function(np.exp, p.grid)
        rep = az_solve(p, b, step1="rand-tsvd", config=default_config(p, seed=2))
        assert eval_error(p, rep.x, np.exp)["max_err"] <= 1e-8


class TestSumFrame:
    def test_degenerate_second_weight(self):
        base = frames.chebyshev_extension(8, DomainSpec.interval(-0.5, 0.5), 2.0)
        p = frames.weighted_sum_frame(base, lambda x: np.ones_like(x),
                                      lambda x: np.zeros_like(x))
        za = ops.materialize(ops.compose(ops.adjoint(p.Z), p.A))
        za_base = ops.materialize(ops.compose(ops.adjoint(base.Z), base.A))
        assert np.max(np.abs(za[:8, :8] - za_base)) <= 1e-11
        assert np.max(np.abs(za[8:, :])) <= 1e-11
        assert np.max(np.abs(za[:, 8:])) <= 1e-11

    def test_positivity_required(self):
        base = frames.chebyshev_extension(8, DomainSpec.interval(-0.5, 0.5), 2.0)
        with pytest.raises(ValueError, match="dual frame does not exist"):
            frames.weighted_sum_frame(base, lambda x: np.zeros_like(x),
                                      lambda x: np.zeros_like(x))

    def test_singular_function_approximation(self):
        base = frames.chebyshev_extension(32, DomainSpec.interval(-0.5, 0.5), 2.0)
        p = frames.weighted_sum_frame(base, lambda x: np.ones_like(x), np.abs)
        f = lambda x: np.cos(2 * np.pi * x) + np.abs(x) * np.sin(1 + 2 * np.pi * x)
        b = sample_function(f, p.grid)
        rep = az_solve(p, b, step1="rand-tsvd", config=default_config(p, seed=3))
        assert eval_error(p, rep.x, f)["max_err"] <= 1e-6

    def test_frame_of_frames_composes(self):
        base = frames.chebyshev_extension(16, DomainSpec.interval(-0.5, 0.5), 2.0)
        p = frames.weighted_sum_frame(base, lambda x: 1.0 + 0.0 * x,
                                      lambda x: x**2)
        assert p.A.shape == (base.A.rows, 32)


class TestWeightedWrappers:
    def test_weighted_lsq_callable(self):
        base = frames.fourier_lsq_equispaced(11, 23)
        wp = frames.weighted_lsq(base, lambda x: 1.0 + x, eps_w=0.5)
        assert np.allclose(wp.d, 1.0 + np.asarray(base.grid))

    def test_eps_w_between_levels_zeroes_small_rows(self):
        from azls.azcore import weighted_eps_pinv
        d = np.array([0.1, 0.1, 2.0, 2.0])
        out = weighted_eps_pinv(d, 1.0)
        assert np.allclose(out, [0.0, 0.0, 0.5, 0.5])


class TestSamplingAndErrors:
    def test_in_span_reproduction(self):
        p = frames.fourier_extension_1d(15, DomainSpec.interval(-0.5, 0.5), 2.0)
        phi0 = lambda x: np.ones_like(np.asarray(x), dtype=float)
        b = sample_function(phi0, p.grid)
        cfg = default_config(p, eps=1e-12 * p.scale)
        rep = az_solve(p, b, step1="tsvd", config=cfg)
        assert eval_error(p, rep.x, phi0)["max_err"] <= 1e-12

    def test_gibbs_overshoot_persists(self):
        p = frames.fourier_lsq_equispaced(121, 243)
        f = lambda x: np.sin(2 * np.pi * x) + np.mod(x + 0.5, 1.0) - 0.5
        b = sample_function(f, p.grid)
        x = p.Z.adjoint_apply(b)
        fine = np.linspace(0.45, 0.55, 2001)
        approx = p.evaluate(x, fine)
        err = np.max(np.abs(approx - f(fine)))
        assert err >= 0.05

    def test_refined_grid_2d_spacing(self):
        mask = frames.named_mask("disk")
        p = frames.fourier_extension_2d(9, mask, 2.0)
        L = round(p.scale)
        assert L == 36
        pts = frames.refined_grid(p)
        assert np.isclose(np.min(np.diff(np.unique(pts[:, 0]))), 2.0 / (L * 4))
        assert np.all(mask.contains(pts))

    def test_refined_grid_finer_and_inside(self):
        dom = DomainSpec.union([[-0.5, -0.1], [0.2, 0.5]])
        p = frames.fourier_extension_1d(21, dom, 2.0)
        pts = frames.refined_grid(p)
        assert pts.size >= 4 * np.asarray(p.grid).size * 0.9
        assert np.all(dom.contains(pts))


BUILDERS = [
    lambda: frames.fourier_extension_1d(31, DomainSpec.interval(-0.5, 0.5), 2.0),
    lambda: frames.chebyshev_extension(32, DomainSpec.interval(-0.5, 0.5), 2.0),
    lambda: frames.chebyshev_extension(32, DomainSpec.interval(-0.5, 0.5), 2.0,
                                       kind="extremae"),
    lambda: frames.legendre_extension(32, DomainSpec.interval(-0.5, 0.5), 2.0),
    lambda: frames.fourier_extension_2d(5, frames.named_mask("disk"), 2.0),
]


@pytest.mark.parametrize("build", BUILDERS)
def test_fast_apply_matches_dense(build, monkeypatch):
    # the dense matrices come from a build at the default chunk budget, the
    # operators under test from one at 200 entries, which puts 1 to 3 columns
    # in a chunk of every fast operator here: a block of 7 runs through full
    # chunks and a partial one, in C and in Fortran order
    ref = build()
    widths = []
    chunked = frames._chunked
    monkeypatch.setattr(frames, "_CHUNK_ENTRIES", 200)
    monkeypatch.setattr(frames, "_chunked",
                        lambda *args: widths.append(args[-1]) or chunked(*args))
    p = build()
    assert all(200 // w <= 3 for w in widths)
    rng = np.random.default_rng(1)
    for name in ("A", "Z", "gram"):
        op = getattr(p, name)
        if op is None:
            continue
        dense = ops.materialize(getattr(ref, name))
        for k in ((), (7,)):
            u = rng.standard_normal((op.cols,) + k) + 1j * rng.standard_normal((op.cols,) + k)
            v = rng.standard_normal((op.rows,) + k) + 1j * rng.standard_normal((op.rows,) + k)
            ref_u, ref_v = dense @ u, dense.conj().T @ v
            for order in "CF":
                got = op.apply(np.asarray(u, order=order))
                got_adj = op.adjoint_apply(np.asarray(v, order=order))
                assert got.shape == ref_u.shape and got_adj.shape == ref_v.shape
                assert np.linalg.norm(got - ref_u) <= 1e-11 * max(1.0, np.linalg.norm(ref_u))
                assert np.linalg.norm(got_adj - ref_v) <= 1e-11 * max(1.0, np.linalg.norm(ref_v))
            # dot test: <v, op u> = <op* v, u>
            assert abs(np.vdot(v, got) - np.vdot(got_adj, u)) \
                <= 1e-13 * np.linalg.norm(dense) * np.linalg.norm(u) * np.linalg.norm(v)


def test_restriction_monotonicity():
    # shrinking the domain never shrinks the plunge rank beyond +2 jitter
    n = 41
    ranks = []
    for hi in (0.8, 0.5, 0.3):
        p = frames.fourier_extension_1d(n, DomainSpec.interval(-0.5, hi), 2.0)
        a = ops.materialize(p.A)
        z = ops.materialize(p.Z)
        ranks.append(mc.eps_rank(a - a @ z.conj().T @ a, 1e-10 * p.scale).r)
    assert ranks[1] >= ranks[0] - 2
    assert ranks[2] >= ranks[1] - 2


SIZED_BUILDERS = {
    "fourier1d": lambda n, ov: frames.fourier_extension_1d(
        n, DomainSpec.interval(-0.5, 0.5), ov),
    "fourier2d": lambda n, ov: frames.fourier_extension_2d(
        n, frames.named_mask("disk"), ov),
    "chebyshev": lambda n, ov: frames.chebyshev_extension(
        n, DomainSpec.interval(-0.5, 0.5), ov),
    "legendre": lambda n, ov: frames.legendre_extension(
        n, DomainSpec.interval(-0.5, 0.5), ov),
}


@pytest.mark.parametrize("name", sorted(SIZED_BUILDERS))
@pytest.mark.parametrize("ov", [0.0, 0.5, float("nan"), float("inf"), -2.0])
def test_grid_sizing_rejects_bad_oversampling(name, ov):
    # below 1 the promise of >= oversampling*N points inside is no bound at all
    with pytest.raises(ValueError, match="oversampling must be finite and >= 1"):
        SIZED_BUILDERS[name](5, ov)


@pytest.mark.parametrize("name", sorted(SIZED_BUILDERS))
def test_grid_sizing_accepts_oversampling_one(name):
    p = SIZED_BUILDERS[name](5, 1.0)
    assert p.grid.shape[0] >= p.A.cols


@pytest.mark.parametrize("name", ["chebyshev", "legendre"])
@pytest.mark.parametrize("n", [0, -3])
def test_grid_sizing_rejects_n_below_one(name, n):
    with pytest.raises(ValueError, match="N must be >= 1"):
        SIZED_BUILDERS[name](n, 2.0)


# the Fourier builders' sizing errors are TestFourier1d and TestFourier2d's
@pytest.mark.parametrize("build", [
    lambda: frames.chebyshev_extension(17, TINY_INTERVAL, kind="roots"),
    lambda: frames.chebyshev_extension(17, TINY_INTERVAL, kind="extremae"),
    lambda: frames.legendre_extension(17, TINY_INTERVAL),
], ids=["chebyshev-roots", "chebyshev-extremae", "legendre"])
def test_too_small_domain_stops_at_the_grid_cap(monkeypatch, build):
    assert_sizing_error_under_cap(monkeypatch, build)


def test_grid_sizing_checks_before_any_points():
    def points(L):
        raise AssertionError("points built for an invalid request")

    dom = DomainSpec.interval(-0.5, 0.5)
    with pytest.raises(ValueError, match="N must be >= 1"):
        frames._select_grid_size(0, 1, 2.0, points, dom)
    with pytest.raises(ValueError, match="oversampling"):
        frames._select_grid_size(9, 1, float("nan"), points, dom)
