"""Experiment runner producing data files: singular-value spectra, rank
growth of the step-1 matrix (I - A Z*) A, wall-clock timings,
approximation-error reports, and the weighted-threshold sweep.

Every subcommand is deterministic (given --seed where it solves) and writes
CSV (default) or JSON through a temp-file-plus-rename so no partial outputs
survive a crash.  Each takes only the flags it reads; argparse rejects the
rest, and a selector flag the --problem ignores is a CliError.
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

# The selector flags each --problem reads; giving it any other is an error.
SELECTORS = {"fourier1d": ("domain", "oversampling"),
             "fourier2d": ("mask", "oversampling"),
             "gram": ("domain",),
             "chebyshev": ("domain", "nodes", "oversampling"),
             "legendre": ("domain", "oversampling"),
             "sumframe": ("domain", "nodes", "oversampling"),
             "weighted": ()}
# Test functions of (x, y=0.0); phi0 is the constant first basis function.
FUNCTIONS = {
    "exp": lambda x, y=0.0: np.exp(x + y),
    "phi0": lambda x, y=0.0: np.ones_like(np.asarray(x), dtype=float),
    "cos": lambda x, y=0.0: np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y),
    "singular": lambda x, y=0.0: np.cos(2 * np.pi * x) + np.abs(x) * np.sin(1 + 2 * np.pi * x),
    # periodic sawtooth: single jump at x = 0.5 (mod 1)
    "jump": lambda x, y=0.0: np.sin(2 * np.pi * x) + np.mod(x + 0.5, 1.0) - 0.5,
}
APPROX_SOLVERS = ("az-rand-svd", "az-rand-qr", "az-tsvd", "az-tqr", "direct")
STEP1_BY_SOLVER = {"az-rand-svd": "rand-tsvd", "az-rand-qr": "rand-tqr",
                   "az-tsvd": "tsvd", "az-tqr": "tqr"}


class CliError(ValueError):
    """Raised for precondition violations; the top level prints one line."""


def _parse_domain(text: str | None) -> DomainSpec:
    try:
        return DomainSpec.union([[-0.5, 0.5]] if text is None else json.loads(text))
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad --domain {text!r}: {exc}") from exc


def _check_selectors(args, n: int | None) -> None:
    if n is None:
        raise CliError("--n is required for this subcommand")
    for flag in ("domain", "mask", "nodes", "oversampling"):
        if getattr(args, flag) is not None and flag not in SELECTORS[args.problem]:
            raise CliError(f"--{flag} does not apply to problem {args.problem!r}")


def build_problem(args, n: int | None) -> azcore.AzProblem:
    """Construct the AzProblem of size n named by the selector flags (not gram)."""
    _check_selectors(args, n)
    sel = args.problem
    if sel == "gram":
        raise CliError(f"problem {sel!r} is not valid for this subcommand")
    ov = 2.0 if args.oversampling is None else args.oversampling
    if sel == "weighted":
        return frames.fourier_lsq_equispaced(n, 2 * n + 1)
    if sel == "fourier2d":
        return frames.fourier_extension_2d(
            n, frames.named_mask(args.mask or "punctured-disk"), ov)
    dom = _parse_domain(args.domain)
    if sel == "fourier1d":
        return frames.fourier_extension_1d(n, dom, ov)
    if sel == "legendre":
        return frames.legendre_extension(n, dom, ov)
    cheb = frames.chebyshev_extension(n, dom, ov, kind=args.nodes or "roots")
    if sel == "chebyshev":
        return cheb
    return frames.weighted_sum_frame(cheb, lambda x: np.ones_like(x), np.abs)


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
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(payload)
        os.replace(tmp, out)
    except OSError as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise CliError(f"cannot write --out {out}: {exc.strerror}") from exc


def _check_out(out: str) -> None:
    """Fail before any work when --out cannot be written: its directory must
    exist and be writable, and out itself must not be a directory."""
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise CliError(f"cannot write --out {out}: no directory {parent}")
    if os.path.isdir(out) or not os.access(parent, os.W_OK):
        raise CliError(f"cannot write --out {out}")


def checksum(x: np.ndarray) -> str:
    """Short digest of x cast to complex128: a float64 x and its complex twin share it."""
    data = np.ascontiguousarray(np.asarray(x, dtype=np.complex128))
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def _spectra_problem(args) -> azcore.AzProblem:
    """The problem of the spectrum command; gram is the pair (G, (G^+)*)."""
    if args.problem != "gram":
        return build_problem(args, args.n)
    _check_selectors(args, args.n)
    g = frames.gram_fourier(args.n, _parse_domain(args.domain))
    return azcore.AzProblem(A=ops.from_dense(g),
                            Z=ops.from_dense(mc.pseudoinverse(g).conj().T))


def cmd_singvals(args) -> None:
    p = _spectra_problem(args)
    # A, Z and the plunge (I - A Z*) A in step 1's coordinates: V unitary keeps the sigmas
    f = p.real_form or p
    a, z, plunge = map(ops.materialize, (f.A, f.Z, p.step1_operator()))
    sig_a, sig_z, sig_d = (mc.singular_values(m) for m in (a, z.conj().T, plunge))
    records = [{"index": i, "sigma_a": float(sig_a[i]),
                "sigma_zstar": float(sig_z[i]),
                "sigma_plunge": float(sig_d[i])}
               for i in range(len(sig_a))]
    write_records(records, ["index", "sigma_a", "sigma_zstar", "sigma_plunge"],
                  args.out, args.format)


def _comma_list(text: str, flag: str, parse) -> list:
    """The items of a comma-separated flag value; an empty value, or an item
    that parse rejects or that is NaN, is a CliError naming the flag."""
    if not text:
        raise CliError(f"{flag} is empty")
    items = []
    for item in text.split(","):
        try:
            value = parse(item)
        except ValueError:
            value = None
        if value is None or value != value:  # unparsed or NaN
            raise CliError(f"bad {flag} item {item!r}")
        items.append(value)
    return items


def _n_list(args) -> list[int]:
    if args.n_list is None:
        if args.n is None:
            raise CliError("provide --n or --n-list")
        return [args.n]
    ns = _comma_list(args.n_list, "--n-list", int)
    if args.n is not None:
        raise CliError("give --n or --n-list, not both")
    if len(set(ns)) < len(ns):
        raise CliError(f"--n-list repeats an item: {args.n_list!r}")
    return ns


def cmd_rankgrowth(args) -> None:
    records = []
    for n in _n_list(args):
        problem = build_problem(args, n)
        plunge = ops.materialize(problem.step1_operator())
        eps = default_config(problem, eps=args.eps).eps
        records.append({"n": n, "eps": eps, "eps_rank": mc.eps_rank(plunge, eps)})
    write_records(records, ["n", "eps", "eps_rank"], args.out, args.format)


def _sample(problem, name: str):
    """The test function called name and its samples on the problem's grid."""
    if name in ("singular", "jump") and np.asarray(problem.grid).ndim == 2:
        raise CliError(f"function {name!r} is 1D only")
    f = FUNCTIONS[name]
    return f, frames.sample_function(f, problem.grid)


def _solve(problem, b, args, seed: int):
    """One solve with --solver and --eps, returning (report, seconds); the
    seconds of the direct solve leave out materializing A, and --eps does
    not apply to it."""
    if args.solver == "direct":
        if args.eps is not None:
            raise CliError("--eps does not apply to --solver direct")
        a = ops.materialize(problem.A)
        t0 = time.perf_counter()
        return solvers.direct_lsq(a, b), time.perf_counter() - t0
    config = default_config(problem, seed=seed, eps=args.eps)
    t0 = time.perf_counter()
    rep = az_solve(problem, b, step1=STEP1_BY_SOLVER[args.solver], config=config)
    return rep, time.perf_counter() - t0


def cmd_timing(args) -> None:
    records = []
    prev = None
    for i, n in enumerate(_n_list(args)):
        problem = build_problem(args, n)
        _, b = _sample(problem, "exp")
        # the first run is the discarded warmup
        runs = [_solve(problem, b, args, args.seed + i) for _ in range(4)][1:]
        median = statistics.median(seconds for _, seconds in runs)
        xs = [rep.x for rep, _ in runs]
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
    problem = build_problem(args, args.n)
    f, b = _sample(problem, args.function)
    rep, _ = _solve(problem, b, args, args.seed)
    err = frames.eval_error(problem, rep.x, f)
    record = {"n": args.n, "function": args.function, "solver": args.solver,
              "max_err": err["max_err"], "l2_err": err["l2_err"],
              "residual": rep.residual_norm, "rank_used": rep.rank_used,
              "checksum": checksum(rep.x), "sketch_size": rep.sketch_size}
    write_records([record], list(record.keys()), args.out, args.format)


def cmd_weighted(args) -> None:
    if args.eps_w_list is None:
        raise CliError("--eps-w-list is required")
    eps_ws = _comma_list(args.eps_w_list, "--eps-w-list", float)
    if any(e < 0 for e in eps_ws):
        raise CliError("eps_w values must be nonnegative")
    n = args.n if args.n is not None else 121
    problem = frames.fourier_lsq_equispaced(n, 2 * n + 1)
    _, b = _sample(problem, "jump")
    d = (np.asarray(problem.grid) - 0.5) ** 2
    a_dense = ops.materialize(problem.A)
    x_unweighted = problem.Z.adjoint_apply(b)
    x_oracle = solvers.direct_lsq(d[:, None] * a_dense, d * b).x
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


FLAGS = {
    "--problem": dict(choices=tuple(SELECTORS), default="fourier1d"),
    "--n": dict(type=int),
    "--domain": dict(help='JSON interval list (default "[[-0.5,0.5]]")'),
    "--mask": dict(choices=("disk", "punctured-disk", "square"),
                   help="2D domain for fourier2d (default punctured-disk)"),
    "--nodes": dict(choices=("roots", "extremae"),
                    help="Chebyshev node family (default roots)"),
    "--oversampling": dict(type=float, help="grid oversampling (default 2)"),
    "--n-list": dict(help="comma-separated N sweep"),
    "--eps": dict(type=float,
                  help="absolute truncation threshold (default 1e-10*scale)"),
    "--solver": dict(choices=APPROX_SOLVERS, default="az-rand-svd"),
    "--seed": dict(type=int, default=0),
    "--function": dict(choices=tuple(FUNCTIONS), default="exp"),
    "--eps-w-list": dict(help="comma-separated weight thresholds"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--out": dict(),
}
_PROBLEM_FLAGS = ("--problem", "--n", "--domain", "--mask", "--nodes",
                  "--oversampling")
_SWEEP_FLAGS = _PROBLEM_FLAGS + ("--n-list", "--eps")
# Each subcommand and the flags it reads, besides --format and --out.
COMMANDS = {
    "singvals": (cmd_singvals, _PROBLEM_FLAGS),
    "rankgrowth": (cmd_rankgrowth, _SWEEP_FLAGS),
    "timing": (cmd_timing, _SWEEP_FLAGS + ("--solver", "--seed")),
    "approx": (cmd_approx, _PROBLEM_FLAGS + ("--solver", "--eps", "--seed",
                                             "--function")),
    "weighted": (cmd_weighted, ("--n", "--eps-w-list")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="azls", description="Experiments for low-rank-corrected least "
        "squares: spectra, rank growth, timings, errors, weight sweeps.")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, flags) in COMMANDS.items():
        # no prefixes: weighted would take --eps as --eps-w-list
        sub = subs.add_parser(name, allow_abbrev=False)
        for flag in flags + ("--format", "--out"):
            sub.add_argument(flag, **FLAGS[flag])
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.out is None:
        args.out = f"azls-{args.subcommand}.{args.format}"
    try:
        _check_out(args.out)
        args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
