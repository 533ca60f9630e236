"""Nodes and quadrature primitives: Chebyshev nodes, Legendre evaluation and
Gauss-Legendre rules.  The Chebyshev DCTs are row kernels in frames.

A Gauss-Legendre rule can be asked for a subset of its L nodes only: Newton
polishes Tricomi's estimate of each asked-for root on its own, at O(L) per
node and sweep, so a frame that keeps M of the L nodes pays O(M L).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NEWTON_CAP = 100


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes in (-1,1) and positive weights on [-1,1]; the nodes of a full
    rule are strictly increasing."""

    nodes: np.ndarray
    weights: np.ndarray


def legendre_eval(n: int, x) -> np.ndarray:
    """Values of P_0 .. P_n at the points x, via the three-term recurrence.

    Returns an array of shape (len(x), n + 1).
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(np.abs(x) > 1 + 1e-14):
        raise ValueError("Legendre evaluation points must lie in [-1, 1]")
    out = np.empty((x.size, n + 1))
    out[:, 0] = 1.0
    if n >= 1:
        out[:, 1] = x
    for k in range(1, n):
        out[:, k + 1] = ((2 * k + 1) * x * out[:, k] - k * out[:, k - 1]) / (k + 1)
    return out


def _legendre_value_and_derivative(L: int, x: np.ndarray):
    """P_L(x) and P_L'(x): legendre_eval's recurrence, keeping two rows."""
    plm1, pl = np.ones_like(x), x
    for k in range(1, L):
        plm1, pl = pl, ((2 * k + 1) * x * pl - k * plm1) / (k + 1)
    dpl = L * (plm1 - x * pl) / (1.0 - x**2)
    return pl, dpl


def legendre_roots_estimate(L: int) -> np.ndarray:
    """Tricomi's asymptotic estimate of the L roots of P_L, increasing.

    x_k = (1 - 1/(8L^2) + 1/(8L^3)) cos(pi (4k - 1) / (4L + 2)), k = L..1,
    symmetrized so that x[::-1] == -x bitwise.  Its error is O(L^-4) away
    from the endpoints (1.5e-12 on |x| < 0.95 at L = 804) and below 0.2/L^2
    near them, far under the gap between neighbouring roots.  It is the
    Newton start of `gauss_legendre`.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    x = -(1.0 - 1.0 / (8.0 * L**2) + 1.0 / (8.0 * L**3)) \
        * np.cos(np.pi * (4 * np.arange(L) + 3) / (4 * L + 2))
    return 0.5 * (x - x[::-1])


def gauss_legendre(L: int, index=None) -> QuadratureRule:
    """Gauss-Legendre nodes and weights on [-1, 1] of the roots of P_L at
    `index`, any numpy index into the L increasing roots (None: all of them).

    Newton iteration from Tricomi's estimate (`legendre_roots_estimate`),
    one O(L) recurrence per node and sweep.  A node stops once its step is
    below 1e-15 and its iterates do not depend on the other nodes, so a
    subset costs O(L) per node and gives bitwise the values of the full
    rule.  The recurrence maps x to -x exactly and the start is
    antisymmetric, so the full rule is too.  The weights take P_L' from the
    last sweep, moved to the polished node to first order.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    ids = np.arange(L) if index is None else np.arange(L)[index]
    x = legendre_roots_estimate(L)[ids]
    dpl = np.empty_like(x)
    todo = np.arange(x.size)
    for _ in range(_NEWTON_CAP):
        if not todo.size:
            break
        xt = x[todo]
        pl, d = _legendre_value_and_derivative(L, xt)
        dx = pl / d
        x[todo] = xt - dx
        # convergence is judged by the Newton step, not |P_L| itself: near the
        # endpoints dP_L grows like L^2 and amplifies an O(eps) root residual
        done = np.abs(dx) < 1e-15
        # P_L' at the new node, to first order: P_L'' = 2x P_L' / (1 - x^2) at a root
        dpl[todo[done]] = (d * (1.0 - 2.0 * xt * dx / (1.0 - xt**2)))[done]
        todo = todo[~done]
    if todo.size:
        raise RuntimeError(f"Newton iteration did not converge for node index {ids[todo[0]]}")
    w = 2.0 / ((1.0 - x**2) * dpl**2)
    return QuadratureRule(nodes=x, weights=w)


def chebyshev_nodes(L: int, kind: str = "roots") -> np.ndarray:
    """Chebyshev points of the first ('roots') or second ('extremae') kind.

    Returned in increasing order.  'roots' are the zeros of T_L; 'extremae'
    are the L extrema of T_{L-1} including the endpoints (requires L >= 2).
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if kind == "roots":
        return -np.cos(np.pi * (2 * np.arange(L) + 1) / (2 * L))
    if kind == "extremae":
        if L < 2:
            raise ValueError("extremae grid needs L >= 2")
        return -np.cos(np.pi * np.arange(L) / (L - 1))
    raise ValueError(f"unknown node kind {kind!r}")
