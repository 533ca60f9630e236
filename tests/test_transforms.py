"""Transform and quadrature tests: the length-L DFTs of the Fourier
extension frame on its full periodic grid against the dense definition,
Legendre recurrence and Gauss rules, and the Chebyshev transforms at the
roots of T_L."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from azls import frames, transforms
from azls.frames import DomainSpec


# the fast FFT lengths up to 40, the only grid lengths the grid rule gives
FAST_LENGTHS = [L for L in range(2, 41) if scipy.fft.next_fast_len(L) == L]


def full_grid_fourier(L):
    """Fourier extension on the whole grid of fast length L >= 2, with the most
    frequencies the grid rule allows (N the largest odd number <= L/2): A is
    N columns of a length-L inverse DFT, A[l, j] = exp(i pi n_j x_l) with
    x_l = -1 + 2l/L, and Z* = A*/L the matching forward DFT."""
    n = (L // 2 - 1) | 1
    # the oversampling that sizes the grid at L = ceil(2 * oversampling * N)
    p = frames.fourier_extension_1d(n, DomainSpec.interval(-1.0, 1.0),
                                    max(1.0, (L - 0.5) / (2 * n)))
    assert p.label == f"fourier1d(N={n}, L={L})"
    return p


def dense_fourier(p):
    n = p.A.cols
    return np.exp(1j * np.pi * np.outer(p.grid, np.arange(n) - (n - 1) // 2))


def full_grid_chebyshev(L):
    """Chebyshev extension of N = L/2 terms on all L roots of T_L (L even): Z*
    maps the values at the roots (increasing order) to the first N Chebyshev
    coefficients."""
    p = frames.chebyshev_extension(L // 2, DomainSpec.interval(-1.0, 1.0), 1.0, kind="roots")
    assert p.label == f"chebyshev(N={L // 2}, L={L}, roots)"
    return p


class TestDft:
    def test_delta(self):
        p = full_grid_fourier(6)
        assert np.allclose(p.A.apply(np.array([0, 1, 0])), np.ones(6))

    def test_constant(self):
        L = 9
        out = full_grid_fourier(L).A.adjoint_apply(np.ones(L))
        expected = np.zeros(3, dtype=complex)
        expected[1] = L
        assert np.allclose(out, expected, atol=1e-12)

    def test_round_trip_length_810(self):
        p = full_grid_fourier(810)
        rng = np.random.default_rng(8)
        v = rng.standard_normal(405) + 1j * rng.standard_normal(405)
        back = p.Z.adjoint_apply(p.A.apply(v))
        assert np.linalg.norm(back - v) <= 1e-12 * np.linalg.norm(v)

    @pytest.mark.parametrize("L", [L for L in FAST_LENGTHS if L <= 32] + [210, 810])
    def test_matches_dense_definition(self, L):
        p = full_grid_fourier(L)
        dense = dense_fourier(p)
        rng = np.random.default_rng(L)
        v = rng.standard_normal(p.A.cols) + 1j * rng.standard_normal(p.A.cols)
        w = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        assert np.linalg.norm(p.A.apply(v) - dense @ v) <= 1e-11 * np.linalg.norm(v) * L
        assert np.linalg.norm(p.A.adjoint_apply(w) - dense.conj().T @ w) \
            <= 1e-11 * np.linalg.norm(w) * L


class TestLegendreEval:
    def test_low_degrees(self):
        x = np.array([-0.7, 0.0, 0.3, 1.0])
        p = transforms.legendre_eval(2, x)
        assert np.allclose(p[:, 0], 1.0)
        assert np.allclose(p[:, 1], x)
        assert np.isclose(p[1, 2], -0.5)

    def test_value_at_one(self):
        p = transforms.legendre_eval(20, np.array([1.0]))
        assert np.allclose(p, 1.0)

    def test_discrete_orthogonality(self):
        L = 64
        rule = transforms.gauss_legendre(L)
        p = transforms.legendre_eval(L - 1, rule.nodes)
        gram = (p * rule.weights[:, None]).T @ p
        h2 = 2.0 / (2 * np.arange(L) + 1)
        assert np.max(np.abs(gram - np.diag(h2))) <= 1e-10

    @pytest.mark.parametrize("L", [2, 50, 257])
    def test_newton_step_values_match_table(self, L):
        x = -np.cos(np.pi * (4 * np.arange(L) + 3) / (4 * L + 2))
        pl, dpl = transforms._legendre_value_and_derivative(L, x)
        p = transforms.legendre_eval(L, x)
        assert np.array_equal(pl, p[:, L])
        assert np.array_equal(dpl, L * (p[:, L - 1] - x * p[:, L]) / (1.0 - x**2))


class TestGaussLegendre:
    def test_l1(self):
        rule = transforms.gauss_legendre(1)
        assert np.allclose(rule.nodes, [0.0])
        assert np.allclose(rule.weights, [2.0])

    def test_l2(self):
        rule = transforms.gauss_legendre(2)
        assert np.allclose(rule.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)])
        assert np.allclose(rule.weights, [1.0, 1.0])

    def test_moment_x8(self):
        rule = transforms.gauss_legendre(64)
        assert abs(np.sum(rule.weights * rule.nodes**8) - 2.0 / 9.0) <= 1e-12

    @pytest.mark.parametrize("L", [3, 10, 33, 64, 128])
    def test_rule_invariants(self, L):
        rule = transforms.gauss_legendre(L)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 2.0) <= 1e-12
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) <= 1e-14
        assert np.max(np.abs(rule.weights - rule.weights[::-1])) <= 1e-13

    @pytest.mark.parametrize("L", [2, 3, 64, 401, 2410])
    def test_subset_matches_full_rule(self, L):
        full = transforms.gauss_legendre(L)
        assert np.array_equal(full.nodes, -full.nodes[::-1])
        assert np.array_equal(full.weights, full.weights[::-1])
        mid = np.arange(L // 3, L - L // 3)
        ends = np.array([0, L - 1])
        union = np.unique(np.concatenate([ends, mid[::2], [L // 2]]))
        for index in (np.arange(L), mid, ends, union):
            rule = transforms.gauss_legendre(L, index)
            assert np.max(np.abs(rule.nodes - full.nodes[index])) <= 2 * np.spacing(1.0)
            assert np.max(np.abs(rule.weights / full.weights[index] - 1.0)) <= 1e-13

    def test_newton_failure_names_the_node(self, monkeypatch):
        monkeypatch.setattr(transforms, "_NEWTON_CAP", 0)
        with pytest.raises(RuntimeError, match="node index 0"):
            transforms.gauss_legendre(64)
        with pytest.raises(RuntimeError, match="node index 7"):
            transforms.gauss_legendre(64, [7, 9])

    def test_exactness_high_degree(self):
        L = 12
        rule = transforms.gauss_legendre(L)
        for k in range(0, 2 * L, 3):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.sum(rule.weights * rule.nodes**k) - exact) <= 1e-10


class TestChebyshev:
    def test_node_kinds(self):
        roots = transforms.chebyshev_nodes(4, "roots")
        assert np.all(np.diff(roots) > 0)
        assert np.allclose(np.cos(4 * np.arccos(roots)), 0.0, atol=1e-12)
        ext = transforms.chebyshev_nodes(5, "extremae")
        assert ext[0] == -1.0 and ext[-1] == 1.0

    def test_constant(self):
        c = full_grid_chebyshev(6).Z.adjoint_apply(np.full(6, 3.25))
        assert c.shape == (3,)
        assert np.isclose(c[0], 3.25)
        assert np.max(np.abs(c[1:])) <= 1e-12

    def test_t3_at_eight_roots(self):
        nodes = transforms.chebyshev_nodes(8, "roots")
        values = np.cos(3 * np.arccos(nodes))
        c = full_grid_chebyshev(8).Z.adjoint_apply(values)
        expected = np.zeros(4)
        expected[3] = 1.0
        assert np.max(np.abs(c - expected)) <= 1e-12

    def test_round_trip_degree_15(self):
        rng = np.random.default_rng(15)
        # two series, one per row; the DCT overwrites its input, so it gets a copy
        c = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
        for kind in ("roots", "extremae"):
            values = frames._cheb_series_at_nodes(c.copy(), kind)
            nodes = transforms.chebyshev_nodes(16, kind)
            for row, coeffs in zip(values, c):
                direct = np.polynomial.chebyshev.chebval(nodes, coeffs)
                assert np.max(np.abs(row - direct)) <= 1e-11

    def test_transform_matches_vandermonde(self):
        L = 12
        nodes = transforms.chebyshev_nodes(L, "roots")
        vander = np.cos(np.outer(np.arccos(nodes), np.arange(L)))
        rng = np.random.default_rng(2)
        values = rng.standard_normal(L)
        c = full_grid_chebyshev(L).Z.adjoint_apply(values)
        assert np.max(np.abs(np.linalg.solve(vander, values)[:L // 2] - c)) <= 1e-11

    def test_discrete_inner_product_weights(self):
        # transform rows diagonalize sum_l T_i(x_l) T_j(x_l) with weight pi/L
        L = 16
        nodes = transforms.chebyshev_nodes(L, "roots")
        t = np.cos(np.outer(np.arccos(nodes), np.arange(L)))
        gram = (np.pi / L) * t.T @ t
        h2 = np.full(L, np.pi / 2)
        h2[0] = np.pi
        assert np.max(np.abs(gram - np.diag(h2))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FAST_LENGTHS), st.integers(0, 500))
def test_dft_linear_and_invertible(L, seed):
    p = full_grid_fourier(L)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(p.A.cols) + 1j * rng.standard_normal(p.A.cols)
    v = rng.standard_normal(p.A.cols) + 1j * rng.standard_normal(p.A.cols)
    lhs = p.A.apply(2.0 * u - 1j * v)
    rhs = 2.0 * p.A.apply(u) - 1j * p.A.apply(v)
    assert np.linalg.norm(lhs - rhs) <= 1e-11 * (np.linalg.norm(u) + np.linalg.norm(v) + 1)
    assert np.linalg.norm(p.Z.adjoint_apply(p.A.apply(u)) - u) \
        <= 1e-12 * max(1.0, np.linalg.norm(u))
