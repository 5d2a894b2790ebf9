"""The shipped scripts, run in-process at small sizes."""

from __future__ import annotations

import importlib.util
import warnings
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SHORT = ("trace length 2000 is below the recommended minimum 10000; "
         "compression overhead may dominate the ratios")


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, prefixes", [
    ("fit_roundtrip", ["", "original: ", "regenerated: "]),
    ("run_reference_points", ["uniform: ", "skewed: ", "bursty: ", "skewed_bursty: "]),
])
def test_warnings_go_to_stderr_one_line_each(name, prefixes, tmp_path, capsys):
    """Every warning of a script's fit and analyses is one ``warning:`` line
    on stderr, none of them a Python warning, and stdout carries none."""
    main = load_script(name).main
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # none may escape main
        assert main(["--length", "2000", "--compressor", "deflate", "--trials", "1",
                     "--outdir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert all(ln.startswith("warning: ") for ln in lines), err
    for prefix in prefixes:
        assert f"warning: {prefix}{SHORT}" in lines
    assert not [ln for ln in out.splitlines() if ln.startswith("warning:")]


@pytest.mark.parametrize("name, argv, code, shown", [
    ("fit_roundtrip", ["--trials", "0"], 2, "0"),
    ("fit_roundtrip", ["--seed", "-1"], 2, "-1"),
    ("run_reference_points", ["--length", "0"], 2, "0"),
    ("run_reference_points", ["--n", "1"], 2, "1"),
    ("run_reference_points", ["--level", "12"], 3, "12"),
    ("fit_roundtrip", ["--trace", "{in}/missing.csv"], 2, "{in}/missing.csv: file not found"),
    ("fit_roundtrip", ["--trace", "{in}/short_row.csv"], 2, "line 2"),
    ("run_reference_points", ["--outdir", "{in}/a_file"], 2, "{in}/a_file"),
], ids=["trials-0", "seed-minus-1", "length-0", "n-1", "level-12", "missing-trace",
        "short-row-trace", "outdir-is-a-file"])
def test_bad_argument_ends_in_one_error_line(name, argv, code, shown, tmp_path, capsys):
    """A bad option value or input file exits with the code of its kind and
    one ``error:`` line (after argparse's usage line, for a value argparse
    rejects), not a traceback, and writes nothing."""
    inputs, outdir = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    (inputs / "short_row.csv").write_text("a,b\nc\n")
    (inputs / "a_file").write_text("")
    main = load_script(name).main
    try:
        result = main(["--outdir", str(outdir), *(a.format(**{"in": inputs}) for a in argv)])
    except SystemExit as e:
        result = e.code
    assert result == code
    out, err = capsys.readouterr()
    errors = [ln for ln in err.splitlines() if "error: " in ln]
    assert len(errors) == 1 and err.rstrip().endswith(errors[0]), err
    assert shown.format(**{"in": inputs}) in errors[0]
    assert not outdir.exists()
