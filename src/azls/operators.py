"""Matrix-free linear operators and combinators.

An operator maps C^N -> C^M and always carries its adjoint.  Apply callables
accept a vector of shape (N,) or a block of column vectors of shape (N, k);
every combinator preserves that convention and applies a block in one
call.  Operators are immutable and safe to share.  This module holds only
that algebra: the combinators scale, weight, stack and chain operators.
The AZ step-1 operator is AzProblem.step1_operator in azcore, and the fast
frame operators themselves are FFT, DCT and GEMM row kernels in frames.

Dtypes follow numpy promotion: a combinator returns the promotion of its
input, its own data and float64, so real data on real input stays float64
(integers become float64) and complex on either side gives complex128.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

MATERIALIZE_CAP = 4096


class ShapeMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class LinearOperator:
    """Matrix-free M-by-N map with mandatory adjoint."""

    rows: int
    cols: int
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint_apply: Callable[[np.ndarray], np.ndarray]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)


def _promote(v) -> np.ndarray:
    """v as an array of the promotion of its dtype and float64."""
    v = np.asarray(v)
    return v.astype(np.result_type(v, np.float64), copy=False)


def from_dense(mat) -> LinearOperator:
    mat = _promote(mat)
    m, n = mat.shape
    mh = mat.conj().T
    return LinearOperator(m, n, lambda v: mat @ v, lambda v: mh @ v)


def materialize(op: LinearOperator) -> np.ndarray:
    """Dense matrix of an operator, built by applying it to basis vectors;
    past MATERIALIZE_CAP columns, a ValueError that says how to get under it."""
    if op.cols > MATERIALIZE_CAP:
        raise ValueError(f"refusing to materialize {op.shape} operator "
                         f"(cap {MATERIALIZE_CAP} columns); reduce N so the operators "
                         f"fit under the materialization cap")
    return _promote(op.apply(np.eye(op.cols)))


def adjoint(op: LinearOperator) -> LinearOperator:
    return LinearOperator(op.cols, op.rows, op.adjoint_apply, op.apply)


def scale(c: complex, op: LinearOperator) -> LinearOperator:
    cbar = np.conj(c)
    return LinearOperator(op.rows, op.cols,
                          lambda v: c * op.apply(v),
                          lambda v: cbar * op.adjoint_apply(v))


def _dmul(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    return d[:, None] * v if v.ndim == 2 else d * v


def diagonal(d) -> LinearOperator:
    d = _promote(d)
    dbar = d.conj()
    n = d.shape[0]
    return LinearOperator(n, n,
                          lambda v: _dmul(d, _promote(v)),
                          lambda v: _dmul(dbar, _promote(v)))


def compose(*ops: LinearOperator) -> LinearOperator:
    """Product ops[0] ops[1] ... ops[-1]: applies the last operator first."""
    for b, a in zip(ops, ops[1:]):
        if b.cols != a.rows:
            raise ShapeMismatchError(f"cannot compose {b.shape} after {a.shape}")

    def apply(v):
        for op in reversed(ops):
            v = op.apply(v)
        return v

    def adjoint_apply(v):
        for op in ops:
            v = op.adjoint_apply(v)
        return v

    return LinearOperator(ops[0].rows, ops[-1].cols, apply, adjoint_apply)


def hstack(a1: LinearOperator, a2: LinearOperator) -> LinearOperator:
    """[A1 A2] acting on stacked coefficients (first a1.cols, then a2.cols)."""
    if a1.rows != a2.rows:
        raise ShapeMismatchError(f"row mismatch: {a1.shape} vs {a2.shape}")
    n1 = a1.cols

    def apply(v):
        v = _promote(v)
        return a1.apply(v[:n1]) + a2.apply(v[n1:])

    def adjoint_apply(v):
        v = _promote(v)
        return np.concatenate([a1.adjoint_apply(v), a2.adjoint_apply(v)], axis=0)

    return LinearOperator(a1.rows, n1 + a2.cols, apply, adjoint_apply)
