"""The three closed-loop workloads: their problems, right-hand sides and solves.

A workload is a fixed round of solves.  `build_round(name, seed)` builds every
problem of one round and samples every right-hand side; the benchmark calls it
once for set-up and again before each later round, so that every round solves
on fresh problem objects and nothing computed in one round can be reused in
the next.  All inputs are drawn from `seed`; the program only receives the
problems, the sampled `b` and the solver config.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from azls import azcore, frames

WORKLOADS = ("fourier1d-many-rhs", "fourier2d-one-rhs", "dense-real-frames")

# fourier1d-many-rhs: one problem, several right-hand sides per round
F1_N = 8193
F1_RHS = 4
# fourier2d-one-rhs: n^2 coefficients, one solve per mask per round
F2_N = 25
F2_MASKS = ("disk", "punctured-disk")
F2_BAND = 8  # trigonometric polynomial degree per axis, inside the frame's band
# dense-real-frames
CHEB_N = 513
LEG_N = 401
LSQ_N = 301
LSQ_M = 2 * LSQ_N + 1  # odd, so no grid point sits on the zero of the weight
EPS_W = (0.0, 1e-4, 1e-2, None)  # None: 2 * max(d), above every weight


@dataclass
class Case:
    """One solve: a problem, its right-hand side, the step-1 solver and the
    data the independent checks need (`truth`)."""

    name: str
    problem: object  # azcore.AzProblem or azcore.WeightedAzProblem
    b: np.ndarray
    step1: str
    config: object | None
    truth: dict = field(default_factory=dict)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _config_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _smooth_params(rng: np.random.Generator) -> tuple[float, float, float]:
    """exp(a x) cos(w x + c): smooth and non-periodic on the domain."""
    return float(rng.uniform(-2.0, 2.0)), float(rng.uniform(5.0, 60.0)), \
        float(rng.uniform(0.0, 2.0 * np.pi))


def smooth(params, x: np.ndarray) -> np.ndarray:
    a, w, c = params
    return np.exp(a * x) * np.cos(w * x + c)


def trig2d(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sum_{j,k} coeffs[j, k] exp(i pi (j x + k y)), j, k = -K..K, at (x, y) rows."""
    k = (coeffs.shape[0] - 1) // 2
    freqs = np.arange(-k, k + 1)
    ex = np.exp(1j * np.pi * np.outer(pts[:, 0], freqs))
    ey = np.exp(1j * np.pi * np.outer(pts[:, 1], freqs))
    return np.einsum("pi,ij,pj->p", ex, coeffs, ey)


def _fourier1d(seed: int) -> list[Case]:
    rng = _rng(seed, 1)
    problem = frames.fourier_extension_1d(F1_N, frames.DomainSpec.interval(-0.5, 0.5))
    cases = []
    for i in range(F1_RHS):
        params = _smooth_params(rng)
        cfg = azcore.default_config(problem, seed=_config_seed(rng))
        cases.append(Case(f"rhs{i}", problem, smooth(params, problem.grid).astype(np.complex128),
                          "rand-tsvd", cfg,
                          {"kind": "fourier1d", "f": params, "points_seed": _config_seed(rng)}))
    return cases


def _fourier2d(seed: int) -> list[Case]:
    rng = _rng(seed, 2)
    cases = []
    for mask in F2_MASKS:
        problem = frames.fourier_extension_2d(F2_N, frames.named_mask(mask))
        size = 2 * F2_BAND + 1
        decay = 1.0 + np.add.outer(np.arange(-F2_BAND, F2_BAND + 1) ** 2,
                                   np.arange(-F2_BAND, F2_BAND + 1) ** 2)
        coeffs = (rng.standard_normal((size, size))
                  + 1j * rng.standard_normal((size, size))) / decay
        cfg = azcore.default_config(problem, seed=_config_seed(rng))
        cases.append(Case(mask, problem, trig2d(coeffs, problem.grid), "rand-tsvd", cfg,
                          {"kind": "fourier2d", "mask": mask, "coeffs": coeffs,
                           "points_seed": _config_seed(rng)}))
    return cases


def _dense(seed: int) -> list[Case]:
    rng = _rng(seed, 3)
    half = frames.DomainSpec.interval(-0.5, 0.5)
    cases = []
    for kind, problem, step1s in (
            ("chebyshev", frames.chebyshev_extension(CHEB_N, half), ("tsvd", "tqr")),
            ("legendre", frames.legendre_extension(LEG_N, half), ("tsvd", "rand-tqr"))):
        b = smooth(_smooth_params(rng), problem.grid).astype(np.complex128)
        for step1 in step1s:
            cfg = azcore.default_config(problem, seed=_config_seed(rng))
            cases.append(Case(f"{kind}-{step1}", problem, b, step1, cfg, {"kind": kind}))

    base = frames.fourier_lsq_equispaced(LSQ_N, LSQ_M)
    grid = np.asarray(base.grid)
    freq = int(rng.integers(1, 6))
    shift = float(rng.uniform(0.0, 1.0))
    b = (np.sin(2 * np.pi * freq * grid) + np.mod(grid + shift, 1.0) - 0.5).astype(np.complex128)
    d = (grid - 0.5) ** 2
    for eps_w in EPS_W:
        label = f"weighted-{eps_w:g}" if eps_w is not None else "weighted-above-max"
        eps_w = 2.0 * float(d.max()) if eps_w is None else eps_w
        cases.append(Case(label, frames.weighted_lsq(base, d, eps_w), b,
                          "tsvd", None, {"kind": "weighted"}))
    return cases


_ROUNDS = {"fourier1d-many-rhs": _fourier1d, "fourier2d-one-rhs": _fourier2d,
             "dense-real-frames": _dense}


def build_round(name: str, seed: int) -> list[Case]:
    """Build every problem of one round of the workload and sample every b."""
    return _ROUNDS[name](seed)


def solve(case: Case, problem=None):
    """Run the program's solver on a case; `problem` overrides case.problem
    (the traced run passes a copy with wrapped operators)."""
    problem = case.problem if problem is None else problem
    if isinstance(problem, azcore.WeightedAzProblem):
        return azcore.az_weighted_solve(problem, case.b, step1=case.step1)
    return azcore.az_solve(problem, case.b, step1=case.step1, config=case.config)
