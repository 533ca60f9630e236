"""Command-line interface tests: file outputs, determinism, formats, and
precondition diagnostics."""

import csv
import json

import numpy as np
import pytest

from azls import AzProblem, cli, frames, matrixcore, operators
from azls.cli import build_parser, main
from azls.frames import DomainSpec


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# The default problem of each (--problem, --mask) pair the plunge tests run.
HALF = DomainSpec.interval(-0.5, 0.5)
PROBLEMS = {
    ("fourier1d", None): lambda n: frames.fourier_extension_1d(n, HALF),
    ("chebyshev", None): lambda n: frames.chebyshev_extension(n, HALF),
    ("fourier2d", "disk"): lambda n: frames.fourier_extension_2d(n, frames.named_mask("disk")),
}


def dense_plunge(problem):
    """A - A Z* A from the dense A and Z: a reference apart from step 1's operator."""
    a = operators.materialize(problem.A)
    z = operators.materialize(problem.Z)
    return a - a @ z.conj().T @ a


def assert_solver_rejected_before_any_build(tmp_path, monkeypatch, capsys, argv):
    """A --solver outside APPROX_SOLVERS is argparse's bad choice, exit code
    2, and fails before a problem is built."""
    def build(*_):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(cli, "build_problem", build)
    out = tmp_path / "solver.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--problem", "fourier1d", "--solver", "magic", "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid choice: 'magic'" in capsys.readouterr().err
    assert not out.exists()


class TestSingvals:
    def test_columns_and_rows(self, tmp_path):
        out = tmp_path / "sv.csv"
        code = main(["singvals", "--problem", "legendre", "--n", "40",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["index", "sigma_a", "sigma_zstar", "sigma_plunge"]
        assert len(rows) == 41
        spectra = [float(r[3]) for r in rows[1:]]
        assert spectra == sorted(spectra, reverse=True)

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["singvals", "--problem", "fourier1d", "--n", "31"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("problem, n", [("fourier1d", 51), ("chebyshev", 40)])
    def test_plunge_is_the_dense_product(self, tmp_path, problem, n):
        out = tmp_path / "sv.csv"
        assert main(["singvals", "--problem", problem, "--n", str(n), "--out", str(out)]) == 0
        sigma = np.array([float(r[3]) for r in read_csv(out)[1:]])
        ref = np.linalg.svd(dense_plunge(PROBLEMS[problem, None](n)), compute_uv=False)
        assert np.max(np.abs(sigma - ref)) <= 1e-12 * ref[0]

    @pytest.mark.parametrize("problem, mask, n", [("fourier1d", None, 65),
                                                  ("fourier2d", "disk", 9)])
    def test_fourier_spectra_are_the_complex_ones(self, tmp_path, monkeypatch,
                                                  problem, mask, n):
        # singvals and rankgrowth run on the real form: a float64 A, Z and
        # plunge whose singular values and eps rank are those of the complex
        # A, Z* and (I - A Z*) A with Z* composed, each read from an SVD that
        # forms no singular vectors
        p = PROBLEMS[problem, mask](n)
        a, z, plunge = (operators.materialize(op)
                        for op in (p.A, p.Z, AzProblem(A=p.A, Z=p.Z).step1_operator()))
        ref = [np.linalg.svd(m, compute_uv=False) for m in (a, z.conj().T, plunge)]
        rank = matrixcore.eps_rank(plunge, 1e-10 * p.scale)
        singular_values, dtypes = matrixcore.singular_values, []

        def recorded(m):
            dtypes.append(np.asarray(m).dtype)
            return singular_values(m)

        def unused(m):
            raise AssertionError("singular vectors formed")

        monkeypatch.setattr(matrixcore, "singular_values", recorded)
        monkeypatch.setattr(matrixcore, "svd", unused)
        flags = ["--problem", problem, "--n", str(n)] + ([] if mask is None else ["--mask", mask])
        sv, rg = tmp_path / "sv.csv", tmp_path / "rg.csv"
        assert main(["singvals", *flags, "--out", str(sv)]) == 0
        rows = read_csv(sv)[1:]
        for column, want in enumerate(ref, start=1):
            got = np.array([float(r[column]) for r in rows])
            assert np.max(np.abs(got - want)) <= 1e-13 * want[0]
        assert main(["rankgrowth", *flags, "--out", str(rg)]) == 0
        assert int(read_csv(rg)[1][2]) == rank
        assert dtypes == [np.float64] * 4

    def test_weighted_is_the_orthogonal_real_form(self, tmp_path):
        # fourier01 on all M = 2N + 1 grid points: A_r* A_r = M I, so every
        # sigma of A is sqrt M and of Z* 1/sqrt M, and its exact G_r = I
        # makes the plunge A_r (I - G_r) exactly zero
        out = tmp_path / "sv.csv"
        n, m = 15, 31
        assert main(["singvals", "--problem", "weighted", "--n", str(n), "--out", str(out)]) == 0
        sigma = np.array([[float(v) for v in r[1:]] for r in read_csv(out)[1:]])
        assert sigma.shape == (n, 3)
        assert np.max(np.abs(sigma[:, 0] / np.sqrt(m) - 1)) <= 1e-13
        assert np.max(np.abs(sigma[:, 1] * np.sqrt(m) - 1)) <= 1e-13
        assert np.all(sigma[:, 2] == 0)

    def test_gram_selector(self, tmp_path):
        out = tmp_path / "g.csv"
        code = main(["singvals", "--problem", "gram", "--n", "51",
                     "--domain", "[[-0.75,-0.25],[0,0.5]]", "--out", str(out)])
        assert code == 0
        sig = [float(r[1]) for r in read_csv(out)[1:]]
        assert sum(s >= 0.9 for s in sig) >= 18


class TestRankgrowth:
    def test_growth_table(self, tmp_path):
        out = tmp_path / "rg.csv"
        code = main(["rankgrowth", "--problem", "fourier1d",
                     "--n-list", "51,101,201", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        ranks = [int(r[2]) for r in rows[1:]]
        assert len(ranks) == 3
        assert ranks[1] - ranks[0] <= 10
        assert ranks[2] - ranks[1] <= 10

    @pytest.mark.parametrize("problem, mask, ns", [("fourier1d", None, [51, 101]),
                                                   ("fourier2d", "disk", [9])])
    def test_ranks_are_the_dense_products(self, tmp_path, problem, mask, ns):
        out = tmp_path / "rg.csv"
        flags = [] if mask is None else ["--mask", mask]
        assert main(["rankgrowth", "--problem", problem, *flags,
                     "--n-list", ",".join(map(str, ns)), "--out", str(out)]) == 0
        ranks = [int(r[2]) for r in read_csv(out)[1:]]
        ref = [matrixcore.eps_rank(dense_plunge(p), 1e-10 * p.scale)
               for p in map(PROBLEMS[problem, mask], ns)]
        assert ranks == ref

    def test_full_domain_rank_zero(self, tmp_path):
        out = tmp_path / "rg0.csv"
        code = main(["rankgrowth", "--problem", "fourier1d", "--n", "15",
                     "--domain", "[[-1,1]]", "--out", str(out)])
        assert code == 0
        # the full periodic grid yields an exact dual: plunge rank 0
        assert int(read_csv(out)[1][2]) == 0


class TestTiming:
    def test_single_row_and_checksum_determinism(self, tmp_path):
        a, b = tmp_path / "t1.csv", tmp_path / "t2.csv"
        args = ["timing", "--problem", "fourier1d", "--n-list", "33,65",
                "--solver", "az-rand-svd", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        rows_a, rows_b = read_csv(a), read_csv(b)
        assert rows_a[0] == ["n", "seconds", "exponent", "checksum"]
        assert len(rows_a) == 3
        # seconds vary run to run but the solutions must not
        assert [r[3] for r in rows_a] == [r[3] for r in rows_b]

    @pytest.mark.parametrize("solver", ["az-rand-qr", "az-tqr"])
    def test_every_approx_solver_accepted(self, tmp_path, solver):
        out = tmp_path / "ts.csv"
        assert main(["timing", "--problem", "fourier1d", "--n-list", "17,33",
                     "--solver", solver, "--out", str(out)]) == 0
        assert len(read_csv(out)) == 3

    def test_direct_solver(self, tmp_path):
        out = tmp_path / "td.csv"
        assert main(["timing", "--problem", "fourier1d", "--n", "33",
                     "--solver", "direct", "--out", str(out)]) == 0
        assert len(read_csv(out)) == 2
        # timing and approx run the same direct solve on the same samples
        approx = tmp_path / "ad.csv"
        assert main(["approx", "--problem", "fourier1d", "--n", "33",
                     "--solver", "direct", "--out", str(approx)]) == 0
        assert read_csv(out)[1][3] == read_csv(approx)[1][7]

    def test_reads_eps_as_approx_does(self, tmp_path):
        # same n, seed, solver and eps: the same solve, so the same x
        args = ["--problem", "fourier1d", "--n", "33", "--seed", "4",
                "--solver", "az-rand-svd", "--eps", "1e-4"]
        timing, approx = tmp_path / "t.csv", tmp_path / "a.csv"
        assert main(["timing", *args, "--out", str(timing)]) == 0
        assert main(["approx", *args, "--out", str(approx)]) == 0
        assert read_csv(timing)[1][3] == read_csv(approx)[1][7]
        default = tmp_path / "d.csv"
        assert main(["timing", *args[:-2], "--out", str(default)]) == 0
        assert read_csv(default)[1][3] != read_csv(timing)[1][3]

    def test_unknown_solver(self, tmp_path, monkeypatch, capsys):
        assert_solver_rejected_before_any_build(
            tmp_path, monkeypatch, capsys, ["timing", "--n-list", "9,17"])


class TestApprox:
    def test_unknown_solver(self, tmp_path, monkeypatch, capsys):
        assert_solver_rejected_before_any_build(
            tmp_path, monkeypatch, capsys, ["approx", "--n", "9"])

    def test_exp_report(self, tmp_path):
        out = tmp_path / "ap.csv"
        code = main(["approx", "--problem", "fourier1d", "--n", "101",
                     "--function", "exp", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        rec = dict(zip(rows[0], rows[1]))
        assert float(rec["max_err"]) <= 1e-8
        assert int(rec["rank_used"]) > 0

    @pytest.mark.parametrize("flags, sketch", [
        # one sketch round short of N = 101; the dense tqr finished at
        # Omega = I (rank 23 > N/2); lstsq, which has no sketch
        (["--problem", "fourier1d", "--n", "101"], 46),
        (["--problem", "legendre", "--n", "40", "--solver", "az-tqr"], 40),
        (["--problem", "fourier1d", "--n", "101", "--solver", "direct"], 0),
    ])
    def test_sketch_size_column(self, tmp_path, flags, sketch):
        # the R of the factor x came from, after checksum so that the
        # earlier columns keep their indices
        out = tmp_path / "sk.csv"
        assert main(["approx", *flags, "--out", str(out)]) == 0
        header, row = read_csv(out)
        assert header[-2:] == ["checksum", "sketch_size"]
        assert int(row[-1]) == sketch

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "ap.json"
        code = main(["approx", "--problem", "chebyshev", "--n", "32",
                     "--function", "cos", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert isinstance(data, list) and len(data) == 1
        assert data[0]["function"] == "cos"

    def test_invalid_combination_rejected(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        code = main(["approx", "--problem", "fourier1d", "--n", "31",
                     "--mask", "disk", "--out", str(out)])
        assert code == 1
        assert "does not apply" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_domain_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "dom.csv"
        code = main(["approx", "--problem", "fourier1d", "--n", "31",
                     "--domain", "[[0,0.5", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad --domain")
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--problem", "chebyshev", "--n", "0"], "N must be >= 1"),
        (["--n", "31", "--oversampling", "0"], "oversampling"),
        (["--n", "31", "--oversampling", "nan"], "oversampling"),
    ])
    def test_bad_size_diagnostic(self, tmp_path, capsys, flags, message):
        out = tmp_path / "size.csv"
        assert main(["approx", *flags, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_too_small_domain_diagnostic(self, tmp_path, capsys):
        # no grid under the size search's cap puts 2N points in [0, 1e-9]
        out = tmp_path / "tiny.csv"
        code = main(["approx", "--problem", "fourier1d", "--n", "17",
                     "--domain", "[[0,1e-9]]", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: domain too small")
        assert not out.exists()

    def test_even_n_diagnostic(self, tmp_path, capsys):
        out = tmp_path / "even.csv"
        code = main(["approx", "--problem", "fourier1d", "--n", "30",
                     "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestWeighted:
    def test_sweep_monotone(self, tmp_path):
        out = tmp_path / "w.csv"
        code = main(["weighted", "--n", "61",
                     "--eps-w-list", "0,0.001,0.01,0.1,1", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        ranks = [int(r[1]) for r in rows[1:]]
        assert ranks == sorted(ranks)
        diffs = [float(r[2]) for r in rows[2:]]
        inversions = sum(b > a * 1.01 for a, b in zip(diffs, diffs[1:]))
        assert inversions <= 1

    def test_requires_list(self, tmp_path, capsys):
        assert main(["weighted", "--out", str(tmp_path / "w.csv")]) == 1
        assert "eps-w-list" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["rankgrowth", "--n", "15", "--n-list", "33"], "give --n or --n-list, not both"),
    (["timing", "--n-list", ""], "--n-list is empty"),
    (["rankgrowth", "--n-list", "33,x"], "bad --n-list item 'x'"),
    (["weighted", "--eps-w-list", ""], "--eps-w-list is empty"),
    (["weighted", "--eps-w-list", "0,abc"], "bad --eps-w-list item 'abc'"),
    (["weighted", "--eps-w-list", "0,nan"], "bad --eps-w-list item 'nan'"),
    # a repeated N gives the timing exponent log(t2/t1)/log(1) = -inf
    (["timing", "--n-list", "17,33,17"], "--n-list repeats an item: '17,33,17'"),
])
def test_list_flag_diagnostic(tmp_path, capsys, argv, message):
    out = tmp_path / "list.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["singvals", "--problem", "fourier1d", "--n", "65"],
    ["rankgrowth", "--problem", "chebyshev", "--n", "65"],
    ["approx", "--problem", "fourier1d", "--n", "65", "--solver", "direct"],
    ["timing", "--problem", "weighted", "--n", "65", "--solver", "direct"],
    ["weighted", "--n", "65", "--eps-w-list", "0"],
    # the dense step-1 solvers materialize the step-1 operator inside the solve
    ["approx", "--problem", "fourier1d", "--n", "65", "--solver", "az-tsvd"],
    ["approx", "--problem", "chebyshev", "--n", "65", "--solver", "az-tqr"],
])
def test_over_the_cap_is_one_line_with_the_hint(tmp_path, monkeypatch, capsys, argv):
    # every command that materializes an operator past the cap says how to get under it
    monkeypatch.setattr(operators, "MATERIALIZE_CAP", 64)
    out = tmp_path / "cap.csv"
    assert main([*argv, "--out", str(out)]) == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("error: refusing to materialize")
    assert err.endswith("(cap 64 columns); reduce N so the operators fit under the "
                        "materialization cap")
    assert not out.exists()


def test_factorization_error_is_one_line(tmp_path, monkeypatch, capsys):
    def fail(a):
        raise matrixcore.FactorizationError("SVD failed to converge")
    monkeypatch.setattr(matrixcore, "singular_values", fail)
    code = main(["singvals", "--problem", "legendre", "--n", "10",
                 "--out", str(tmp_path / "sv.csv")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: SVD failed to converge"]


def test_unwritable_out_is_one_line(tmp_path, monkeypatch, capsys):
    # the check comes before any work: a solve here would fail the test
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking --out")

    monkeypatch.setattr(cli, "az_solve", no_solve)
    out = tmp_path / "missing" / "x.csv"
    code = main(["approx", "--problem", "fourier1d", "--n", "31", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"--out {out}:" in err[0] and ".tmp" not in err[0]
    assert not out.parent.exists()


def test_out_that_is_a_directory_is_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_problem", lambda *args: pytest.fail("built a problem"))
    code = main(["singvals", "--n", "15", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: cannot write --out {tmp_path}\n"


def test_failed_write_names_out(tmp_path, monkeypatch):
    # a write that fails after the check (a full disk, say) still names the
    # path given, not its temporary file
    out = tmp_path / "x.csv"

    def unwritable(*args, **kwargs):
        raise PermissionError(13, "Permission denied", str(out) + ".tmp")

    monkeypatch.setattr(cli, "open", unwritable, raising=False)
    with pytest.raises(cli.CliError, match=f"cannot write --out {out}: Permission denied$"):
        cli.write_records([{"n": 1}], ["n"], str(out), "csv")


def test_failed_rename_removes_the_temporary_file(tmp_path, monkeypatch):
    # the rename fails after the temporary file is written (a full disk, say):
    # the error names --out, the old output stays and no .tmp is left
    out = tmp_path / "x.csv"
    out.write_text("old\n")

    def full(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", full)
    with pytest.raises(cli.CliError, match=f"cannot write --out {out}: No space left"):
        cli.write_records([{"n": 1}], ["n"], str(out), "csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]
    assert out.read_text() == "old\n"


def test_partial_output_never_left_behind(tmp_path):
    out = tmp_path / "never.csv"
    main(["singvals", "--problem", "fourier1d", "--n", "30", "--out", str(out)])
    assert not out.exists()
    assert not (tmp_path / "never.csv.tmp").exists()


# A command line that each subcommand runs, and a value for every flag.
VALID = {"singvals": ["--n", "15"], "rankgrowth": ["--n", "15"],
         "timing": ["--n", "15"], "approx": ["--n", "15"],
         "weighted": ["--n", "15", "--eps-w-list", "0"]}
VALUES = {"--problem": "fourier1d", "--domain": "[[-0.5,0.5]]", "--mask": "disk",
          "--nodes": "roots", "--oversampling": "2", "--n-list": "15",
          "--solver": "direct", "--eps": "1e-8", "--eps-w-list": "0",
          "--seed": "1"}
# The (subcommand, flag) pairs the subcommand does not read.
UNREAD = ([("singvals", f) for f in ("--n-list", "--solver", "--eps",
                                    "--eps-w-list", "--seed")]
          + [("rankgrowth", f) for f in ("--solver", "--eps-w-list", "--seed")]
          + [("timing", "--eps-w-list")]
          + [("approx", f) for f in ("--n-list", "--eps-w-list")]
          + [("weighted", f) for f in ("--problem", "--domain", "--mask",
                                       "--nodes", "--oversampling", "--n-list",
                                       "--solver", "--eps", "--seed")])


@pytest.mark.parametrize("command, flag", UNREAD)
def test_unread_flag_rejected(tmp_path, capsys, command, flag):
    out = tmp_path / "unread.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, *VALID[command], flag, VALUES[flag], "--out", str(out)])
    assert exc.value.code != 0
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_accepted_pairs():
    subs = next(a for a in build_parser()._actions if a.dest == "subcommand").choices
    pairs = {(name, opt) for name, sub in subs.items() for a in sub._actions
             for opt in a.option_strings if opt.startswith("--") and opt != "--help"}
    assert len(pairs) == 46
    assert not pairs & set(UNREAD)


@pytest.mark.parametrize("problem, flag", [
    ("fourier1d", "--nodes"), ("fourier2d", "--nodes"), ("gram", "--nodes"),
    ("legendre", "--nodes"), ("weighted", "--nodes"),
    ("gram", "--oversampling"), ("weighted", "--oversampling"),
])
def test_selector_the_problem_ignores_rejected(tmp_path, capsys, problem, flag):
    out = tmp_path / "sel.csv"
    code = main(["singvals", "--problem", problem, "--n", "15",
                 flag, VALUES[flag], "--out", str(out)])
    assert code == 1
    assert "does not apply" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["approx", "timing"])
def test_eps_with_direct_solver_rejected(tmp_path, capsys, command):
    # the direct solve has no truncation, so --eps would be ignored
    out = tmp_path / "eps.csv"
    code = main([command, "--problem", "fourier1d", "--n", "65", "--solver", "direct",
                 "--eps", "1e-3", "--out", str(out)])
    assert code == 1
    assert "--eps does not apply" in capsys.readouterr().err
    assert not out.exists()
