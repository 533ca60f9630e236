"""The experiments script: every row is a valid `azls` command line, and the
rows write the results/ files the sweeps have always written.  Nothing here
runs a sweep."""

import importlib.util
import pathlib

from azls.cli import build_parser

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "experiments.py"

OUTPUTS = {
    "spectrum-fourier1d.csv", "spectrum-chebyshev.csv", "spectrum-legendre.csv",
    "spectrum-gram.csv", "spectrum-fourier2d.csv",
    "rankgrowth-fourier1d.csv", "rankgrowth-chebyshev.csv", "rankgrowth-legendre.csv",
    "timing-az.csv", "timing-direct.csv",
    "approx-fourier1d-exp.csv", "approx-chebyshev-exp.csv", "approx-legendre-exp.csv",
    "approx-sumframe-singular.csv", "approx-fourier2d-disk.csv",
    "weighted-sweep.csv",
}


def load_script():
    spec = importlib.util.spec_from_file_location("experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rows_parse_and_write_the_known_outputs():
    script = load_script()
    parser = build_parser()
    names = []
    for experiment, name, args in script.RUNS:
        parsed = parser.parse_args([*args, "--out", name])
        assert parsed.out == name and parsed.format == "csv"
        assert name.startswith(parsed.subcommand.replace("singvals", "spectrum"))
        names.append(name)
    assert len(names) == len(set(names))
    assert set(names) == OUTPUTS


def test_runs_only_the_named_experiments(tmp_path, monkeypatch):
    script = load_script()
    calls = []
    monkeypatch.setattr(script, "main", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr(script, "OUT", tmp_path)
    assert script.run(["weighted", "spectra"]) == 0
    assert [argv[0] for argv in calls] == ["singvals"] * 5 + ["weighted"]
    assert all(argv[-1].startswith(str(tmp_path)) for argv in calls)

    calls.clear()
    assert script.run(["no-such-experiment"]) == 2
    assert calls == []
