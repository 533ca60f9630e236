"""Experiment runner producing data files: singular-value spectra, rank
growth of A - A Z* A, wall-clock timings, approximation-error reports, and
the weighted-threshold sweep.

Every subcommand is deterministic given --seed and writes CSV (default) or
JSON through a temp-file-plus-rename so no partial outputs survive a crash.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import statistics
import sys
import time

import numpy as np

from . import azcore, frames, matrixcore as mc, operators as ops, solvers
from .azcore import az_solve, az_weighted_solve, default_config
from .frames import DomainSpec

PROBLEM_CHOICES = ("fourier1d", "fourier2d", "gram", "chebyshev", "legendre",
                   "sumframe", "weighted")
FUNCTION_CHOICES = ("exp", "phi0", "cos", "singular", "jump")
APPROX_SOLVERS = ("az-rand-svd", "az-rand-qr", "az-tsvd", "az-tqr", "direct")
STEP1_BY_SOLVER = {"az-rand-svd": "rand-tsvd", "az-rand-qr": "rand-tqr",
                   "az-tsvd": "tsvd", "az-tqr": "tqr"}


class CliError(ValueError):
    """Raised for precondition violations; the top level prints one line."""


def _parse_domain(text: str | None, default: list) -> DomainSpec:
    data = default if text is None else json.loads(text)
    try:
        return DomainSpec.union(data)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad --domain {text!r}: {exc}") from exc


def _reject(args, forbidden: dict) -> None:
    for flag, value in forbidden.items():
        if value is not None:
            raise CliError(f"{flag} does not apply to problem "
                           f"{args.problem!r}")


def build_problem(args) -> azcore.AzProblem:
    """Construct the AzProblem named by the selector flags (not gram)."""
    sel = args.problem
    n = args.n
    if n is None:
        raise CliError("--n is required for this subcommand")
    ov = args.oversampling
    if sel == "fourier1d":
        _reject(args, {"--mask": args.mask})
        dom = _parse_domain(args.domain, [[-0.5, 0.5]])
        return frames.fourier_extension_1d(n, dom, ov)
    if sel == "fourier2d":
        _reject(args, {"--domain": args.domain})
        return frames.fourier_extension_2d(
            n, frames.named_mask(args.mask or "punctured-disk"), ov)
    if sel == "chebyshev":
        _reject(args, {"--mask": args.mask})
        dom = _parse_domain(args.domain, [[-0.5, 0.5]])
        return frames.chebyshev_extension(n, dom, ov, kind=args.nodes)
    if sel == "legendre":
        _reject(args, {"--mask": args.mask})
        dom = _parse_domain(args.domain, [[-0.5, 0.5]])
        return frames.legendre_extension(n, dom, ov)
    if sel == "sumframe":
        _reject(args, {"--mask": args.mask})
        dom = _parse_domain(args.domain, [[-0.5, 0.5]])
        base = frames.chebyshev_extension(n, dom, ov, kind=args.nodes)
        return frames.weighted_sum_frame(base, lambda x: np.ones_like(x),
                                         np.abs)
    if sel == "weighted":
        _reject(args, {"--mask": args.mask, "--domain": args.domain})
        return frames.fourier_lsq_equispaced(n, 2 * n + 1)
    raise CliError(f"problem {sel!r} is not valid for this subcommand")


def select_function(name: str, two_d: bool):
    """Test functions; phi0 is the constant first basis function everywhere."""
    if name == "exp":
        return (lambda x, y: np.exp(x + y)) if two_d else np.exp
    if name == "phi0":
        if two_d:
            return lambda x, y: np.ones_like(np.asarray(x), dtype=float)
        return lambda x: np.ones_like(np.asarray(x), dtype=float)
    if name == "cos":
        if two_d:
            return lambda x, y: np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        return lambda x: np.cos(2 * np.pi * x)
    if name == "singular":
        if two_d:
            raise CliError("function 'singular' is 1D only")
        return lambda x: np.cos(2 * np.pi * x) + np.abs(x) * np.sin(1 + 2 * np.pi * x)
    if name == "jump":
        if two_d:
            raise CliError("function 'jump' is 1D only")
        # periodic sawtooth: single jump at x = 0.5 (mod 1)
        return lambda x: np.sin(2 * np.pi * x) + np.mod(x + 0.5, 1.0) - 0.5
    raise CliError(f"unknown function {name!r}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_records(records: list[dict], fieldnames: list[str], out: str,
                  fmt: str) -> None:
    """Serialize records and atomically rename into place."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        for rec in records:
            writer.writerow([_fmt(rec[k]) for k in fieldnames])
        payload = buf.getvalue()
    elif fmt == "json":
        payload = json.dumps([{k: rec[k] for k in fieldnames}
                              for rec in records], indent=2) + "\n"
    else:
        raise CliError(f"unknown format {fmt!r}")
    tmp = out + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(payload)
    os.replace(tmp, out)


def checksum(x: np.ndarray) -> str:
    """Short deterministic digest of a solution vector."""
    data = np.ascontiguousarray(np.asarray(x, dtype=np.complex128))
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def _spectra_matrices(args) -> tuple[np.ndarray, np.ndarray]:
    """(A, Z) dense pair for the spectrum command; gram uses (G, (G^+)*)."""
    if args.problem == "gram":
        _reject(args, {"--mask": args.mask})
        if args.n is None:
            raise CliError("--n is required")
        dom = _parse_domain(args.domain, [[-0.5, 0.5]])
        g = frames.gram_fourier(args.n, dom)
        return g, mc.pseudoinverse(g).conj().T
    return _materialize_pair(build_problem(args))


def _materialize_pair(problem) -> tuple[np.ndarray, np.ndarray]:
    """Dense (A, Z) of a problem; a CliError when they exceed the cap."""
    try:
        return ops.materialize(problem.A), ops.materialize(problem.Z)
    except ValueError as exc:
        raise CliError(f"{exc}; reduce N so the operators fit under the "
                       f"materialization cap") from exc


def cmd_singvals(args) -> None:
    a, z = _spectra_matrices(args)
    sig_a = mc.svd(a).sigma
    zstar = z.conj().T
    sig_z = mc.svd(zstar).sigma
    sig_d = mc.svd(a - a @ zstar @ a).sigma
    records = [{"index": i, "sigma_a": float(sig_a[i]),
                "sigma_zstar": float(sig_z[i]),
                "sigma_plunge": float(sig_d[i])}
               for i in range(len(sig_a))]
    write_records(records, ["index", "sigma_a", "sigma_zstar", "sigma_plunge"],
                  args.out, args.format)


def _n_list(args) -> list[int]:
    if args.n_list:
        return [int(s) for s in args.n_list.split(",")]
    if args.n is not None:
        return [args.n]
    raise CliError("provide --n or --n-list")


def cmd_rankgrowth(args) -> None:
    records = []
    for n in _n_list(args):
        sub = argparse.Namespace(**vars(args))
        sub.n = n
        problem = build_problem(sub)
        a, z = _materialize_pair(problem)
        eps = args.eps if args.eps is not None else 1e-10 * problem.scale
        report = mc.eps_rank(a - a @ z.conj().T @ a, eps)
        records.append({"n": n, "eps": eps, "eps_rank": report.r})
    write_records(records, ["n", "eps", "eps_rank"], args.out, args.format)


def _timed_solve(problem, b, solver: str, seed: int):
    """One solve returning (x, seconds); dense work excludes materialization."""
    if solver == "direct":
        a = ops.materialize(problem.A)
        t0 = time.perf_counter()
        x = solvers.direct_lsq(a, b).x
        return x, time.perf_counter() - t0
    config = default_config(problem, seed=seed)
    t0 = time.perf_counter()
    rep = az_solve(problem, b, step1=STEP1_BY_SOLVER[solver], config=config)
    return rep.x, time.perf_counter() - t0


def cmd_timing(args) -> None:
    if args.solver not in APPROX_SOLVERS:
        raise CliError(f"timing solver must be one of {APPROX_SOLVERS}")
    ns = _n_list(args)
    records = []
    prev = None
    for i, n in enumerate(ns):
        sub = argparse.Namespace(**vars(args))
        sub.n = n
        problem = build_problem(sub)
        f = select_function("exp", problem.grid is not None
                            and np.asarray(problem.grid).ndim == 2)
        b = frames.sample_function(f, problem.grid)
        seed = args.seed + i
        runs = []
        xs = []
        for rep in range(4):  # first run is the discarded warmup
            x, seconds = _timed_solve(problem, b, args.solver, seed)
            if rep > 0:
                runs.append(seconds)
                xs.append(x)
        median = statistics.median(runs)
        if not all(np.array_equal(x, xs[0]) for x in xs):
            raise CliError("nondeterministic solve despite fixed seed")
        exponent = ""
        if prev is not None:
            exponent = float(np.log(median / prev[1]) / np.log(n / prev[0]))
        records.append({"n": n, "seconds": median, "exponent": exponent,
                        "checksum": checksum(xs[0])})
        prev = (n, median)
    write_records(records, ["n", "seconds", "exponent", "checksum"],
                  args.out, args.format)


def cmd_approx(args) -> None:
    if args.solver not in APPROX_SOLVERS:
        raise CliError(f"approx solver must be one of {APPROX_SOLVERS}")
    problem = build_problem(args)
    two_d = np.asarray(problem.grid).ndim == 2
    f = select_function(args.function, two_d)
    b = frames.sample_function(f, problem.grid)
    if args.solver == "direct":
        rep = solvers.direct_lsq(ops.materialize(problem.A), b)
        x, residual, rank = rep.x, rep.residual_norm, rep.rank_used
    else:
        config = default_config(problem, seed=args.seed, eps=args.eps)
        rep = az_solve(problem, b, step1=STEP1_BY_SOLVER[args.solver],
                       config=config)
        x, residual, rank = rep.x, rep.residual_norm, rep.rank_used
    err = frames.eval_error(problem, x, f)
    record = {"n": args.n, "function": args.function, "solver": args.solver,
              "max_err": err["max_err"], "l2_err": err["l2_err"],
              "residual": residual, "rank_used": rank,
              "checksum": checksum(x)}
    write_records([record], list(record.keys()), args.out, args.format)


def cmd_weighted(args) -> None:
    if not args.eps_w_list:
        raise CliError("--eps-w-list is required")
    eps_ws = [float(s) for s in args.eps_w_list.split(",")]
    if any(e < 0 for e in eps_ws):
        raise CliError("eps_w values must be nonnegative")
    n = args.n if args.n is not None else 121
    problem = frames.fourier_lsq_equispaced(n, 2 * n + 1)
    f = select_function("jump", False)
    b = frames.sample_function(f, problem.grid)
    d = (np.asarray(problem.grid) - 0.5) ** 2
    a_dense = ops.materialize(problem.A)
    x_unweighted = problem.Z.adjoint_apply(b)
    x_oracle = frames.weighted_oracle_solve(a_dense, d, b)
    records = []
    for eps_w in eps_ws:
        wp = frames.weighted_lsq(problem, d, eps_w)
        rep = az_weighted_solve(wp, b, step1="tsvd")
        records.append({
            "eps_w": eps_w,
            "rank_step1": rep.rank_used,
            "diff_weighted": float(np.linalg.norm(rep.x - x_oracle)),
            "diff_unweighted": float(np.linalg.norm(x_oracle - x_unweighted)),
        })
    write_records(records, ["eps_w", "rank_step1", "diff_weighted",
                            "diff_unweighted"], args.out, args.format)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--problem", choices=PROBLEM_CHOICES, default="fourier1d")
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--n-list", default=None,
                     help="comma-separated N sweep")
    sub.add_argument("--domain", default=None,
                     help='JSON interval list, e.g. "[[-0.5,0.5]]"')
    sub.add_argument("--mask", choices=("disk", "punctured-disk", "square"),
                     default=None, help="2D domain for fourier2d")
    sub.add_argument("--nodes", choices=("roots", "extremae"), default="roots",
                     help="Chebyshev node family")
    sub.add_argument("--solver", default="az-rand-svd")
    sub.add_argument("--eps", type=float, default=None,
                     help="absolute truncation threshold (default 1e-10*scale)")
    sub.add_argument("--eps-w-list", default=None,
                     help="comma-separated weight thresholds")
    sub.add_argument("--oversampling", type=float, default=2.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="azls", description="Experiments for low-rank-corrected least "
        "squares: spectra, rank growth, timings, errors, weight sweeps.")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, func in (("singvals", cmd_singvals),
                       ("rankgrowth", cmd_rankgrowth),
                       ("timing", cmd_timing),
                       ("approx", cmd_approx),
                       ("weighted", cmd_weighted)):
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "approx":
            sub.add_argument("--function", choices=FUNCTION_CHOICES,
                             default="exp")
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.out is None:
        args.out = f"azls-{args.subcommand}.{args.format}"
    try:
        args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
