"""Self-tests of the solve benchmark: every check rejects a wrong answer, and
short runs with a non-default seed pass.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 7
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


ALL = ("rhs0", "punctured-disk", "chebyshev-tqr", "legendre-rand-tqr", "weighted-0",
       "weighted-0.01", "weighted-above-max")


@pytest.fixture(scope="module")
def solved():
    """One solved case of each kind, (case, report) by case name."""
    out = {}
    for name in workloads.WORKLOADS:
        for case in workloads.build_round(name, SEED):
            if case.name in ALL and case.name not in out:
                out[case.name] = (case, workloads.solve(case))
    return out


def _perturbed(case, rep, scale=1e-6, seed=0):
    rng = np.random.default_rng(seed)
    dx = rng.standard_normal(rep.x.shape) + 1j * rng.standard_normal(rep.x.shape)
    return dx * scale * max(1.0, float(np.linalg.norm(rep.x))) / np.linalg.norm(dx)


def _consistent_wrong(case, rep, scale=1e-3):
    """An AZ output for a wrong step-1 solution: x1 is off, steps 2-3 are
    exact, so the residual identity still holds and only the workload's own
    check can reject it."""
    problem = case.problem
    base = getattr(problem, "base", problem)
    d, pinv = checks._weights(problem)
    b = case.b if d is None else d * case.b
    x1 = rep.x1 + _perturbed(case, rep, scale)
    ax1 = base.A.apply(x1)
    r1 = b - (ax1 if d is None else d * ax1)
    x = x1 + base.Z.adjoint_apply(r1 if d is None else pinv * r1)
    ax = base.A.apply(x)
    res = float(np.linalg.norm(b - (ax if d is None else d * ax)))
    return dataclasses.replace(rep, x=x, x1=x1, x2=x - x1, residual_norm=res)


@pytest.mark.parametrize("label", ALL)
def test_right_answer_passes(solved, label):
    case, rep = solved[label]
    assert checks.References().check(case, rep) == []


@pytest.mark.parametrize("label", ALL)
def test_perturbed_x_fails(solved, label):
    case, rep = solved[label]
    bad = dataclasses.replace(rep, x=rep.x + _perturbed(case, rep))
    assert checks.References().check(case, bad)


@pytest.mark.parametrize("label", ALL)
def test_dropped_step2_fails(solved, label):
    case, rep = solved[label]
    if not np.any(rep.x2):
        pytest.skip("x2 is zero for this case")
    bad = dataclasses.replace(rep, x=rep.x1)
    assert checks.References().check(case, bad)


@pytest.mark.parametrize("label", ALL)
def test_nan_fails(solved, label):
    case, rep = solved[label]
    x = rep.x.copy()
    x[3] = np.nan
    assert checks.References().check(case, dataclasses.replace(rep, x=x))


@pytest.mark.parametrize("label", ALL)
def test_wrong_reported_residual_fails(solved, label):
    case, rep = solved[label]
    bad = dataclasses.replace(rep, residual_norm=2.0 * rep.residual_norm + 1e-6)
    assert checks.residual_identity(case, bad)


# eps_w = 0 is left out: with the exact dual, steps 2-3 undo any x1; the
# intermediate eps_w solves are checked by the residual identity alone.
@pytest.mark.parametrize("label", ("rhs0", "punctured-disk", "chebyshev-tqr",
                                   "legendre-rand-tqr", "weighted-above-max"))
def test_workload_check_catches_wrong_step1(solved, label):
    case, rep = solved[label]
    bad = _consistent_wrong(case, rep)
    assert checks.residual_identity(case, bad) == []
    assert checks.References().check(case, bad)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_with_other_seed_passes(workload):
    proc = _run(["--workload", workload, "--seed", "12345", "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_counts_repeat_exactly():
    runs = []
    for _ in range(2):
        proc = _run(["--workload", "dense-real-frames", "--seed", "3", "--seconds", "1",
                     "--trace", "1"])
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in runs:
        assert result["correct"] is True
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for name, unit in names.items():
        if unit != "s":
            assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run(["--workload", "fourier1d-many-rhs", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
