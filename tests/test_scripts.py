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


@pytest.mark.parametrize("name, argv", [
    ("fit_roundtrip", ["--trials", "0"]),
    ("fit_roundtrip", ["--seed", "-1"]),
    ("run_reference_points", ["--length", "0"]),
    ("run_reference_points", ["--n", "1"]),
    ("run_reference_points", ["--level", "12"]),
], ids=["trials-0", "seed-minus-1", "length-0", "n-1", "level-12"])
def test_bad_argument_ends_in_one_error_line(name, argv, tmp_path, capsys):
    """A bad option value exits non-zero with one ``error:`` line (after
    argparse's usage line, for a value argparse rejects), not a traceback."""
    main = load_script(name).main
    try:
        code = main([*argv, "--outdir", str(tmp_path)])
    except SystemExit as e:
        code = e.code
    assert code != 0
    out, err = capsys.readouterr()
    errors = [ln for ln in err.splitlines() if "error: " in ln]
    assert len(errors) == 1 and err.rstrip().endswith(errors[0]), err
    assert argv[1] in errors[0]
    assert not list(tmp_path.iterdir())
