"""Solve benchmark for azls: closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fourier1d-many-rhs --seed 1 --seconds 16 --trace 0

With --trace 0 it prints setup_s, first_solve_s, solve_s and peak_mb; with
--trace 1 it prints the per-layer metrics of a traced run and writes the spans
to perfbench/out/.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

The parent process imports no numpy.  It starts WORKERS fresh interpreters of
this file one after another, so there is a single caller and no two solves
overlap.  Each worker imports azls, builds the workload's problems, then
solves whole rounds until its share of --seconds has passed; each end-to-end
metric is the median over the workers.  A traced run is one worker that gets
all of --seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("fourier1d-many-rhs", "fourier2d-one-rhs", "dense-real-frames")
WORKERS = 4
RUN_LIMIT_S = 170.0
END_TO_END = (("setup_s", "s"), ("first_solve_s", "s"), ("solve_s", "s"), ("peak_mb", "MiB"))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _threads() -> str:
    return str(len(os.sched_getaffinity(0)))


# --------------------------------------------------------------- worker side

@contextlib.contextmanager
def _untraced(tracer):
    """Record no spans inside the block: benchmark work, not the program's."""
    if tracer is not None:
        tracer.active = False
    try:
        yield
    finally:
        if tracer is not None:
            tracer.active = True


def _worker(args) -> dict:
    """Set up in this fresh interpreter, solve whole rounds for --seconds,
    check every answer; the result as a dict."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import azls  # set-up time starts here: numpy and scipy load with azls

    if not Path(azls.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"azls imported from {azls.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        tracer.active = True
    import workloads

    cases = workloads.build_round(args.workload, args.seed)
    t_setup = time.perf_counter()
    result = {"setup_s": t_setup - t0}

    import checks
    refs = checks.References()
    failures: list[str] = []
    attempted = failed = solved = rounds = 0
    solve_time = 0.0
    if tracer is not None:
        tracer.phase = "solve"
    while True:
        for case in cases:
            problem = None if tracer is None else tracing.wrap_problem(tracer, case.problem)
            attempted += 1
            t = time.perf_counter()
            try:
                rep = workloads.solve(case, problem)
            except Exception as exc:  # a failed solve is counted, the loop goes on
                failed += 1
                print(f"{case.name}: solve failed: {exc!r}", file=sys.stderr)
                continue
            done = time.perf_counter()
            solve_time += done - t
            solved += 1
            result.setdefault("first_solve_s", done - t)
            with _untraced(tracer):
                failures += [f"round {rounds} {case.name}: {e}" for e in refs.check(case, rep)]
        rounds += 1
        if time.perf_counter() - t_setup >= args.seconds:
            break
        with _untraced(tracer):  # fresh problems for the next round, untimed
            cases = workloads.build_round(args.workload, args.seed)

    result.update(attempted=attempted, failed=failed, failures=failures, rounds=rounds,
                  solve_s=solve_time / solved if solved else None,
                  peak_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.active = False
        restore()
        result["per_layer"] = tracing.per_layer(tracer.spans)
        result["spans"] = tracer.spans
    return result


# --------------------------------------------------------------- parent side

def _spawn(args, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--worker"]
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = _threads()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _per_layer_unit(name: str) -> str:
    if name.endswith("_gflop"):
        return "GFLOP"
    return "s" if name.endswith("_s") else "count"


def _parent(args) -> int:
    if not (SRC / "azls" / "__init__.py").is_file():
        print(f"no azls sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # on SIGTERM, subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        runs = [_spawn(args, args.seconds, deadline)]
    else:
        runs = [_spawn(args, args.seconds / WORKERS, deadline) for _ in range(WORKERS)]
    failures = [f for r in runs for f in r["failures"]]
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    if args.trace:
        run = runs[0]
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "blas_threads": _threads(),
            "rounds": run["rounds"], "solves": attempted - failed,
            "traced_solve_s": run["solve_s"], "per_layer": run["per_layer"],
            "spans": run["spans"]}))
        metrics = {name: {"value": value, "unit": _per_layer_unit(name)}
                   for name, value in run["per_layer"].items()}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in runs if r.get(name)),
                          "unit": unit} for name, unit in END_TO_END}
    print(f"{args.workload} seed={args.seed} workers={len(runs)} "
          f"rounds={[r['rounds'] for r in runs]} attempted={attempted} failed={failed} "
          f"blas_threads={_threads()}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.worker:
        print(json.dumps(_worker(args)))
        return 0
    return _parent(args)


if __name__ == "__main__":
    sys.exit(main())
