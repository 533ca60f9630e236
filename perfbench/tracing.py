"""Spans around the calls into each layer of azls, recorded from outside.

Nothing in the program changes: `install` replaces the module-level functions
that azls looks up at call time (problem constructors, transforms,
`materialize`, the step-1 dispatch, the sketch generator, SVD and pivoted QR,
`az_solve` and `az_weighted_solve`) with wrappers that open a span, and
`wrap_problem` wraps a problem's `A` and `Z`.  A span records its name, start,
end, parent span, its top-level span (one solve, or one problem
construction), the phase (set-up or solve) and a few counts.  Spans stay in
memory and are written out when the run ends; `per_layer` turns them into
the metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

from azls import azcore, frames, matrixcore, solvers, transforms

CONSTRUCTORS = ("fourier_extension_1d", "fourier_extension_2d", "chebyshev_extension",
                "legendre_extension", "fourier_lsq_equispaced", "weighted_lsq")
OPERATOR_SPANS = ("frames.A.apply", "frames.A.adjoint", "frames.Z.apply",
                  "frames.Z.adjoint", "operators.materialize")


class Tracer:
    """An in-memory span recorder; records only while `active` is true."""

    def __init__(self):
        self.spans: list[dict] = []
        self.active = False
        self.phase = "setup"
        self._stack: list[dict] = []

    def wrap(self, name, fn, attrs=None):
        """`fn`, recording a span called `name` for each call while active;
        `attrs(args, result)` adds counts to the span."""
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = {"id": len(self.spans), "name": name, "phase": self.phase,
                    "parent": None if parent is None else parent["id"],
                    "root": len(self.spans) if parent is None else parent["root"],
                    "start": time.perf_counter()}
            self.spans.append(span)
            self._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, out))
            return out
        return wrapper

    def note(self, key, value, add=True):
        """Add to (or set) a count on the innermost open span."""
        if self.active and self._stack:
            span = self._stack[-1]
            span[key] = span.get(key, 0) + value if add else value


def _cols(args, _out):
    v = args[0]
    return {"cols": v.shape[1] if getattr(v, "ndim", 1) == 2 else 1}


def _svd_flop(args, _out):
    # Golub & Van Loan's R-SVD count for U1, Sigma and V: 6 m n^2 + 20 n^3
    # real flops (m >= n); a complex flop counts as 4 real ones.  Counts are
    # integers so that their per-solve means repeat exactly.
    m, n = max(args[0].shape), min(args[0].shape)
    factor = 4 if args[0].dtype.kind == "c" else 1
    return {"flop": factor * (6 * m * n * n + 20 * n**3)}


def _qr_flop(args, _out):
    # Householder QR, 2 n^2 (m - n/3), plus forming the thin Q, the same again
    m, n = max(args[0].shape), min(args[0].shape)
    factor = 4 if args[0].dtype.kind == "c" else 1
    return {"flop": factor * (4 * n * n * m - (4 * n**3) // 3)}


def _materialize_cols(args, _out):
    return {"cols": args[0].cols}


def _rank(_args, out):
    return {"rank": out.rank_used}


def install(tracer: Tracer):
    """Patch azls's module-level functions; returns a function that undoes it."""
    patches = [(frames, name, "frames.build", None) for name in CONSTRUCTORS]
    patches += [
        (transforms, "gauss_legendre", "transforms.gauss_legendre", None),
        (transforms, "legendre_eval", "transforms.legendre_eval", None),
        (azcore, "materialize", "operators.materialize", _materialize_cols),
        (azcore, "_solve_step1", "solvers.step1", _rank),
        (azcore, "az_solve", "azcore.solve", None),
        (azcore, "az_weighted_solve", "azcore.solve", None),
        (matrixcore, "svd", "matrixcore.svd", _svd_flop),
        (matrixcore, "pivoted_qr", "matrixcore.qr", _qr_flop),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, *_ in patches]
    for module, name, span, attrs in patches:
        setattr(module, name, tracer.wrap(span, getattr(module, name), attrs))

    sketch = solvers._sketch

    def traced_sketch(a, config):
        for omega, atil in sketch(a, config):
            tracer.note("sketch_rounds", 1)
            tracer.note("sketch_cols", omega.shape[1], add=False)
            yield omega, atil

    saved.append((solvers, "_sketch", sketch))
    solvers._sketch = traced_sketch

    def restore():
        for module, name, fn in saved:
            setattr(module, name, fn)
    return restore


def _wrap_operator(tracer: Tracer, label: str, op):
    return dataclasses.replace(
        op, apply=tracer.wrap(f"{label}.apply", op.apply, _cols),
        adjoint_apply=tracer.wrap(f"{label}.adjoint", op.adjoint_apply, _cols))


def wrap_problem(tracer: Tracer, problem):
    """A copy of the problem whose A and Z record spans."""
    if isinstance(problem, azcore.WeightedAzProblem):
        return dataclasses.replace(problem, base=wrap_problem(tracer, problem.base))
    return dataclasses.replace(problem, A=_wrap_operator(tracer, "frames.A", problem.A),
                               Z=_wrap_operator(tracer, "frames.Z", problem.Z))


def per_layer(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics: solve-phase figures per solve, set-up figures per set-up."""
    def dur(s):
        return s["end"] - s["start"]

    solve, setup = defaultdict(list), defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        (solve if s["phase"] == "solve" else setup)[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    n = max(1, len(solve["azcore.solve"]))

    def total(name, key=None):
        return sum(dur(s) if key is None else s.get(key, 0) for s in solve[name]) / n

    m = {}
    for op in ("A", "Z"):
        for kind in ("apply", "adjoint"):
            m[f"frames.{op}.{kind}_s"] = total(f"frames.{op}.{kind}")
            m[f"frames.{op}.{kind}_cols"] = total(f"frames.{op}.{kind}", "cols")
    m["frames.build_s"] = sum(dur(s) for s in setup["frames.build"])
    m["transforms.gauss_legendre_s"] = sum(dur(s) for s in setup["transforms.gauss_legendre"])
    m["transforms.gauss_legendre_calls"] = len(setup["transforms.gauss_legendre"])
    m["transforms.legendre_eval_calls"] = len(setup["transforms.legendre_eval"])
    m["operators.materialize_s"] = total("operators.materialize")
    m["operators.materialize_cols"] = total("operators.materialize", "cols")

    step1 = solve["solvers.step1"]
    m["solvers.step1_s"] = total("solvers.step1")
    m["solvers.sketch_apply_s"] = sum(
        dur(c) for s in step1 for c in children[s["id"]] if c["name"] in OPERATOR_SPANS) / n
    m["solvers.self_s"] = sum(
        dur(s) - sum(dur(c) for c in children[s["id"]]) for s in step1) / n
    for key in ("sketch_rounds", "sketch_cols", "rank"):
        m[f"solvers.{key}"] = total("solvers.step1", key)

    for short, name in (("svd", "matrixcore.svd"), ("qr", "matrixcore.qr")):
        m[f"matrixcore.{short}_s"] = total(name)
        m[f"matrixcore.{short}_calls"] = len(solve[name]) / n
        m[f"matrixcore.{short}_gflop"] = total(name, "flop") / 1e9

    m["azcore.solve_s"] = total("azcore.solve")
    rhs = finish = 0.0
    for s in solve["azcore.solve"]:
        inner = [c for c in children[s["id"]] if c["name"] == "solvers.step1"]
        if inner:
            rhs += inner[0]["start"] - s["start"]
            finish += s["end"] - inner[-1]["end"]
    m["azcore.rhs_s"] = rhs / n
    m["azcore.finish_s"] = finish / n
    return m
