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
