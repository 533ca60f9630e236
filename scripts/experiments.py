#!/usr/bin/env python3
"""Experiment sweeps of the `azls` CLI, each writing CSVs into results/.

    python scripts/experiments.py                 # every experiment
    python scripts/experiments.py spectra timing  # only the named ones

- spectra: singular-value spectra of A, of Z* and of the plunge operator
  (I - A Z*) A for each frame family.
- rankgrowth: epsilon rank of the plunge operator as N doubles; it should
  grow at most logarithmically with N for the extension frames.
- timing: wall time of the three-step solver with a randomized SVD in step
  1, which should scale roughly like N log^2 N on the 1D Fourier extension,
  against a dense direct solve, which scales cubically and so stops earlier.
- approx: approximation errors of the frame families on smooth and
  non-smooth targets, solved with the three-step algorithm.
- weighted: weight-threshold sweep on a target with a jump at x = 0.5,
  where the weight (x - 0.5)^2 vanishes; small thresholds reproduce the
  unweighted (Gibbs-afflicted) solution, large ones enforce the weighted
  fit everywhere.
"""

import pathlib
import sys

from azls.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"

AZ_NS = ",".join(str(2**k + 1) for k in range(4, 13))
DIRECT_NS = ",".join(str(2**k - 1) for k in range(4, 12))

# (experiment, output file in results/, azls arguments)
RUNS = [
    ("spectra", "spectrum-fourier1d.csv",
     ["singvals", "--problem", "fourier1d", "--n", "201"]),
    ("spectra", "spectrum-chebyshev.csv",
     ["singvals", "--problem", "chebyshev", "--n", "201"]),
    ("spectra", "spectrum-legendre.csv",
     ["singvals", "--problem", "legendre", "--n", "40"]),
    ("spectra", "spectrum-gram.csv",
     ["singvals", "--problem", "gram", "--n", "51", "--domain", "[[-0.75,-0.25],[0,0.5]]"]),
    ("spectra", "spectrum-fourier2d.csv",
     ["singvals", "--problem", "fourier2d", "--n", "9", "--mask", "disk"]),
    ("rankgrowth", "rankgrowth-fourier1d.csv",
     ["rankgrowth", "--problem", "fourier1d", "--n-list", "51,101,201,401"]),
    ("rankgrowth", "rankgrowth-chebyshev.csv",
     ["rankgrowth", "--problem", "chebyshev", "--n-list", "51,101,201,401"]),
    ("rankgrowth", "rankgrowth-legendre.csv",
     ["rankgrowth", "--problem", "legendre", "--n-list", "20,40,80"]),
    ("timing", "timing-az.csv",
     ["timing", "--problem", "fourier1d", "--solver", "az-rand-svd", "--n-list", AZ_NS]),
    ("timing", "timing-direct.csv",
     ["timing", "--problem", "fourier1d", "--solver", "direct", "--n-list", DIRECT_NS]),
    ("approx", "approx-fourier1d-exp.csv",
     ["approx", "--problem", "fourier1d", "--n", "201", "--function", "exp"]),
    ("approx", "approx-chebyshev-exp.csv",
     ["approx", "--problem", "chebyshev", "--n", "64", "--function", "exp"]),
    ("approx", "approx-legendre-exp.csv",
     ["approx", "--problem", "legendre", "--n", "40", "--function", "exp"]),
    ("approx", "approx-sumframe-singular.csv",
     ["approx", "--problem", "sumframe", "--n", "32", "--function", "singular"]),
    ("approx", "approx-fourier2d-disk.csv",
     ["approx", "--problem", "fourier2d", "--n", "9", "--mask", "disk", "--function", "exp"]),
    ("weighted", "weighted-sweep.csv",
     ["weighted", "--n", "121", "--eps-w-list", "0,1e-6,1e-5,1e-4,1e-3,1e-2,1e-1,1,10"]),
]

EXPERIMENTS = tuple(dict.fromkeys(experiment for experiment, _, _ in RUNS))


def run(names=()) -> int:
    """Run the rows of the named experiments (all when none is named)."""
    unknown = sorted(set(names) - set(EXPERIMENTS))
    if unknown:
        print(f"error: unknown experiment {', '.join(unknown)}; choose from "
              f"{', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for experiment, name, args in RUNS:
        if names and experiment not in names:
            continue
        out = OUT / name
        code = main([*args, "--out", str(out)])
        if code != 0:
            return code
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
