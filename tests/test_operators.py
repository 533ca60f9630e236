"""Operator combinator tests: materialization agrees with dense algebra,
adjoints are consistent, and the step-1 operator has the expected structure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from azls import frames, matrixcore as mc, operators as ops
from azls.frames import DomainSpec
from helpers import counted, random_complex


def dft_operator(L):
    return ops.LinearOperator(
        L, L,
        lambda v: np.fft.fft(v, axis=0),
        lambda v: np.conj(np.fft.fft(np.conj(np.asarray(v, dtype=np.complex128)), axis=0)))


def dot_test(op, seed, k=3, rtol=1e-13):
    """<op v, w> = <v, op* w> on random complex blocks and single vectors."""
    for v, w in ((random_complex(op.cols, k, seed), random_complex(op.rows, k, seed + 1)),
                 (random_complex(op.cols, 1, seed + 2)[:, 0],
                  random_complex(op.rows, 1, seed + 3)[:, 0])):
        av, aw = op.apply(v), op.adjoint_apply(w)
        assert av.shape == w.shape and aw.shape == v.shape
        scale = np.linalg.norm(av) * np.linalg.norm(w) + np.linalg.norm(v) * np.linalg.norm(aw)
        assert abs(np.vdot(w, av) - np.vdot(aw, v)) <= rtol * scale


class TestDenseBridge:
    def test_from_dense_identity(self):
        op = ops.from_dense(np.eye(2))
        out = op.apply(np.array([1.0, 1j]))
        assert np.allclose(out, [1.0, 1j])

    def test_materialize_round_trip(self):
        a = random_complex(4, 3, seed=0)
        assert np.array_equal(ops.materialize(ops.from_dense(a)), a)

    def test_materialize_composed_diagonal(self):
        op = ops.compose(ops.diagonal([2.0, 2.0, 2.0]), ops.from_dense(np.eye(3)))
        assert np.allclose(ops.materialize(op), np.diag([2.0, 2.0, 2.0]))

    def test_materialize_dft(self):
        op = dft_operator(8)
        k, l = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        dense = np.exp(-2j * np.pi * k * l / 8)
        assert np.max(np.abs(ops.materialize(op) - dense)) <= 1e-12

    def test_materialize_cap(self):
        big = ops.LinearOperator(2, 5000, lambda v: v[:2], lambda v: v)
        with pytest.raises(ValueError):
            ops.materialize(big)


class TestCombinators:
    def test_hstack(self):
        h = ops.hstack(ops.from_dense(np.eye(2)), ops.from_dense(np.eye(2)))
        assert np.allclose(h.apply(np.array([1.0, 2.0, 3.0, 4.0])), [4.0, 6.0])

    def test_composed_dft_submatrix(self):
        L, m, n = 16, 8, 5
        rows = np.arange(m)
        cols = np.arange(n)
        eye = np.eye(L)
        op = ops.compose(ops.from_dense(eye[rows]), dft_operator(L), ops.from_dense(eye[:, cols]))
        k, l = np.meshgrid(np.arange(L), np.arange(L), indexing="ij")
        dense = np.exp(-2j * np.pi * k * l / L)[np.ix_(rows, cols)]
        assert np.max(np.abs(ops.materialize(op) - dense)) <= 1e-12

    def test_scale(self):
        a = random_complex(3, 3, seed=4)
        op = ops.scale(2.0 + 1j, ops.from_dense(a))
        assert np.allclose(ops.materialize(op), (2.0 + 1j) * a)
        assert np.allclose(ops.materialize(ops.adjoint(op)), (2.0 - 1j) * a.conj().T)

    def test_variadic_compose(self):
        a, b, c = (random_complex(4, 5, 1), random_complex(5, 3, 2),
                   random_complex(3, 6, 3))
        op = ops.compose(*(ops.from_dense(m) for m in (a, b, c)))
        assert op.shape == (4, 6)
        assert np.max(np.abs(ops.materialize(op) - a @ b @ c)) <= 1e-12
        assert np.max(np.abs(ops.materialize(ops.adjoint(op)) - (a @ b @ c).conj().T)) \
            <= 1e-12
        with pytest.raises(ops.ShapeMismatchError):
            ops.compose(ops.from_dense(a), ops.from_dense(c), ops.from_dense(b))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ops.ShapeMismatchError):
            ops.compose(ops.from_dense(np.eye(2)), ops.from_dense(np.eye(3)))
        with pytest.raises(ops.ShapeMismatchError):
            ops.hstack(ops.from_dense(np.eye(2)), ops.from_dense(np.eye(3)))


class TestAzStep1Operator:
    def test_zero_z_gives_a(self):
        a = random_complex(5, 3, seed=1)
        z = np.zeros((5, 3))
        op = ops.az_step1_operator(ops.from_dense(a), ops.from_dense(z))
        assert np.max(np.abs(ops.materialize(op) - a)) <= 1e-12

    def test_pinv_adjoint_z_gives_zero(self):
        a = np.diag([2.0, 3.0])
        z = mc.pseudoinverse(a).conj().T
        op = ops.az_step1_operator(ops.from_dense(a), ops.from_dense(z))
        assert np.max(np.abs(ops.materialize(op))) <= 1e-12

    def test_matches_dense_algebra(self):
        a = random_complex(7, 4, seed=6)
        z = random_complex(7, 4, seed=7)
        op = ops.az_step1_operator(ops.from_dense(a), ops.from_dense(z))
        dense = a - a @ z.conj().T @ a
        assert np.max(np.abs(ops.materialize(op) - dense)) <= 1e-11

    def test_composed_gram_matches_oracle(self):
        # without a fast gram, G = Z*A is composed from the two operators
        a = random_complex(40, 17, seed=8)
        z = random_complex(40, 17, seed=9) / 40
        op = ops.az_step1_operator(ops.from_dense(a), ops.from_dense(z))
        oracle = a - a @ z.conj().T @ a
        for apply, mat, v in ((op.apply, oracle, random_complex(17, 5, seed=10)),
                              (op.adjoint_apply, oracle.conj().T,
                               random_complex(40, 5, seed=11))):
            for x in (v, v[:, 0]):
                ref = mat @ x
                assert np.linalg.norm(apply(x) - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_fourier_plunge_rank(self):
        # measured oracle: the N=31 half-interval extension has a plunge
        # of epsilon rank 24 at the 1e-10 absolute threshold
        p = frames.fourier_extension_1d(31, DomainSpec.interval(-0.5, 0.5), 2.0)
        op = ops.az_step1_operator(p.A, p.Z)
        r = mc.eps_rank(ops.materialize(op), 1e-10).r
        assert 20 <= r <= 28

    def test_eps_rank_matches_dense(self):
        for seed in range(20):
            a = random_complex(10, 6, seed=100 + seed)
            z = 0.1 * random_complex(10, 6, seed=200 + seed)
            op = ops.az_step1_operator(ops.from_dense(a), ops.from_dense(z))
            dense = a - a @ z.conj().T @ a
            eps = 0.3
            assert mc.eps_rank(ops.materialize(op), eps).r == mc.eps_rank(dense, eps).r


FOURIER_PROBLEMS = [
    lambda: frames.fourier_extension_1d(65, DomainSpec.interval(-0.5, 0.5)),
    lambda: frames.fourier_extension_1d(1025, DomainSpec.union([[-0.9, -0.8], [0.5, 0.55]])),
    lambda: frames.fourier_extension_2d(9, frames.named_mask("punctured-disk")),
    lambda: frames.fourier_extension_2d(25, frames.named_mask("disk")),
]


@pytest.mark.parametrize("build", FOURIER_PROBLEMS,
                         ids=["1d-65", "1d-union-1025", "2d-punctured-9", "2d-disk-25"])
class TestGramStep1Operator:
    def test_dot_tests_without_z(self, build):
        p = build()
        dot_test(p.gram, seed=20)
        z, counter = counted(p.Z)
        dot_test(ops.az_step1_operator(p.A, z, p.gram), seed=30)
        assert counter.applies == counter.adjoint_applies == 0

    def test_matches_generic_form(self, build):
        p = build()
        fast = ops.az_step1_operator(p.A, p.Z, p.gram)
        generic = ops.az_step1_operator(p.A, p.Z)
        v = random_complex(p.A.cols, 3, seed=40)
        w = random_complex(p.A.rows, 3, seed=41)
        # both are accurate to eps_mach ||A|| ||v||, and scale ~ ||A||
        assert np.linalg.norm(fast.apply(v) - generic.apply(v)) \
            <= 1e-14 * p.scale * np.linalg.norm(v)
        assert np.linalg.norm(fast.adjoint_apply(w) - generic.adjoint_apply(w)) \
            <= 1e-14 * p.scale * np.linalg.norm(w)


DTYPES = {"int": np.array([3, 1, 4, 1]), "real": np.array([0.5, 2.0, -1.0, 3.0]),
          "complex": np.array([0.5, 2.0j, -1.0, 3.0 - 1.0j])}


def _promoted(*kinds):
    return np.result_type(*(DTYPES[k] for k in kinds), np.float64)


def _combinators(d):
    """Each combinator built on the length-4 data d, as (name, operator)."""
    mat = np.outer(d, d[::-1])[:, :3] + np.eye(4, 3)
    return [
        ("from_dense", ops.from_dense(mat)),
        ("diagonal", ops.diagonal(d)),
        ("compose", ops.compose(ops.diagonal(d), ops.from_dense(mat))),
        ("hstack", ops.hstack(ops.from_dense(mat), ops.from_dense(mat))),
        ("az_step1_operator", ops.az_step1_operator(ops.from_dense(mat),
                                                    ops.from_dense(0.1 * mat))),
    ]


class TestDtypePromotion:
    """A combinator returns the promotion of its input, its data and float64:
    real on real stays float64, complex on either side gives complex128 and
    integers become float64."""

    @pytest.mark.parametrize("data", sorted(DTYPES))
    @pytest.mark.parametrize("given", sorted(DTYPES))
    def test_combinators(self, data, given):
        expected = _promoted(data, given)
        for name, op in _combinators(DTYPES[data]):
            for k in ((), (2,)):  # a vector and a block
                v = np.resize(DTYPES[given], (op.cols,) + k)
                w = np.resize(DTYPES[given], (op.rows,) + k)
                assert op.apply(v).dtype == expected, name
                assert op.adjoint_apply(w).dtype == expected, name
            assert ops.materialize(op).dtype == _promoted(data), name

    @pytest.mark.parametrize("build, dtype", [
        (lambda: frames.chebyshev_extension(33, DomainSpec.interval(-0.5, 0.5)), np.float64),
        (lambda: frames.chebyshev_extension(33, DomainSpec.interval(-0.5, 0.5),
                                            kind="extremae"), np.float64),
        (lambda: frames.legendre_extension(33, DomainSpec.interval(-0.5, 0.5)), np.float64),
        (lambda: frames.weighted_sum_frame(
            frames.chebyshev_extension(17, DomainSpec.interval(-0.5, 0.5)),
            lambda x: np.ones_like(x), np.abs), np.float64),
        (lambda: frames.fourier_extension_1d(33, DomainSpec.interval(-0.5, 0.5)),
         np.complex128),
        (lambda: frames.fourier_extension_2d(5, frames.named_mask("disk")), np.complex128),
        (lambda: frames.fourier_lsq_equispaced(9, 19), np.complex128),
    ], ids=["chebyshev-roots", "chebyshev-extremae", "legendre", "sumframe", "fourier1d",
            "fourier2d", "fourier01"])
    def test_step1_operator_materializes_real_for_real_frames(self, build, dtype):
        p = build()
        assert ops.materialize(ops.az_step1_operator(p.A, p.Z, p.gram)).dtype == dtype


FOURIER1D_PROBLEMS = {
    "half-5": lambda: frames.fourier_extension_1d(5, DomainSpec.interval(-0.5, 0.5)),
    "narrow-65": lambda: frames.fourier_extension_1d(65, DomainSpec.interval(-0.1, 0.1)),
    "half-1025": lambda: frames.fourier_extension_1d(1025, DomainSpec.interval(-0.5, 0.5)),
    "union-1025": lambda: frames.fourier_extension_1d(
        1025, DomainSpec.union([[-0.9, -0.8], [0.5, 0.55]])),
    # an odd grid length from the oversampling: L = 75
    "odd-75": lambda: frames.fourier_extension_1d(31, DomainSpec.interval(-0.9, 0.9), 1.2),
}


@pytest.mark.parametrize("name", sorted(FOURIER1D_PROBLEMS))
def test_chirp_fourier_adjoint_and_columns(name):
    p = FOURIER1D_PROBLEMS[name]()
    dot_test(p.A, seed=70)
    dot_test(ops.az_step1_operator(p.A, p.Z, p.gram), seed=80)
    # at N = 1025 a chunk of A holds 63 columns (half, L = 4116) and 9 (union,
    # L = 27440): 100 span several
    for apply, block in ((p.A.apply, random_complex(p.A.cols, 100, seed=90)),
                         (p.A.adjoint_apply, random_complex(p.A.rows, 100, seed=91))):
        stacked = np.stack([apply(c) for c in block.T], axis=1)
        assert np.linalg.norm(apply(block) - stacked) <= 1e-14 * np.linalg.norm(stacked)


def test_gram_shape_checked():
    a = ops.from_dense(random_complex(5, 3, seed=60))
    with pytest.raises(ops.ShapeMismatchError):
        ops.az_step1_operator(a, a, ops.from_dense(np.eye(5)))


def test_counted_wrapper():
    op, counter = counted(ops.from_dense(np.eye(3)))
    op.apply(np.zeros(3))
    op.apply(np.zeros(3))
    op.adjoint_apply(np.zeros(3))
    assert counter.applies == 2
    assert counter.adjoint_applies == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1000))
def test_adjoint_consistency_and_involution(seed):
    a = random_complex(6, 4, seed)
    op = ops.from_dense(a)
    rng = np.random.default_rng(seed + 1)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    lhs = np.vdot(v, op.apply(u))
    rhs = np.vdot(op.adjoint_apply(v), u)
    assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v)
    twice = ops.adjoint(ops.adjoint(op))
    assert np.allclose(twice.apply(u), op.apply(u))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 16), st.integers(1, 16), st.integers(1, 16),
       st.integers(0, 500))
def test_combinator_materialize_matches_dense(m, k, n, seed):
    a = random_complex(k, n, seed)
    b = random_complex(m, k, seed + 1)
    composed = ops.compose(ops.from_dense(b), ops.from_dense(a))
    assert np.max(np.abs(ops.materialize(composed) - b @ a)) <= 1e-11 * (1 + m * k * n)
    stacked = ops.hstack(ops.from_dense(a), ops.from_dense(a))
    assert np.max(np.abs(ops.materialize(stacked) - np.hstack([a, a]))) <= 1e-11


def test_block_apply_convention():
    a = random_complex(5, 3, seed=9)
    op = ops.from_dense(a)
    block = random_complex(3, 4, seed=10)
    assert np.allclose(op.apply(block), a @ block)
    assert ops.materialize(op).shape == (5, 3)
