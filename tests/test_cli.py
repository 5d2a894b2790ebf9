"""End-to-end CLI behavior: subcommands, artifacts, and exit codes.

Everything runs in-process through main(argv) with the fast DEFLATE backend
and short traces; numeric fidelity at scale is the acceptance suite's job.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecomplexity import entropy, load_report, solve_zipf_exponent, spec_from_json
from tracecomplexity.cli import main
from tracecomplexity.reports import REPORT_SCHEMA

GEN = ["generate", "--target", "0.4", "0.4", "--n", "16", "--length", "20000",
       "--seed", "3"]
FAST = ["--compressor", "deflate", "--trials", "2"]


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "t.csv"
    assert main(GEN + ["--output", str(path)]) == 0
    return path


class TestGenerate:
    def test_writes_trace_and_spec(self, trace_file, capsys):
        assert trace_file.exists()
        spec = spec_from_json((trace_file.parent / "t.csv.spec.json").read_text())
        assert spec.length == 20000
        assert spec.repeat_p == pytest.approx(0.7570, abs=1e-3)

    def test_prints_solved_parameters(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert main(GEN + ["--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert f"zipf exponent: {solve_zipf_exponent(16, 0.4):.6f}\n" in printed
        assert "repeat probability: 0.757003" in printed

    def test_zipf_exponent_solved_once(self, tmp_path, monkeypatch):
        """The printed exponent comes from the solve that built the spec."""
        calls = []
        real = entropy.zipf_matrix
        # every bisection step of the solver builds one matrix

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(entropy, "zipf_matrix", counted)
        solve_zipf_exponent(16, 0.4)
        one_solve = len(calls)
        calls.clear()
        assert main(GEN + ["--output", str(tmp_path / "g.csv")]) == 0
        assert len(calls) == one_solve

    def test_replay_identical(self, trace_file, tmp_path):
        replayed = tmp_path / "replay.csv"
        spec_path = str(trace_file) + ".spec.json"
        assert main(["generate", "--spec", spec_path, "--output", str(replayed)]) == 0
        assert replayed.read_bytes() == trace_file.read_bytes()

    def test_fit_mode(self, trace_file, tmp_path, capsys):
        out = tmp_path / "fit.csv"
        assert main(["generate", "--fit", str(trace_file), "--output", str(out)]
                    + FAST) == 0
        assert "repeat probability" in capsys.readouterr().out
        fitted = spec_from_json((tmp_path / "fit.csv.spec.json").read_text())
        assert 0.6 < fitted.repeat_p <= 1.0

    def test_fit_warning_is_one_line(self, tmp_path, capsys):
        """The fit's warning reaches the user as one line, as analyze's do."""
        const = tmp_path / "const.csv"
        const.write_text("4,7\n" * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # none may escape main
            assert main(["generate", "--fit", str(const), "--output",
                         str(tmp_path / "fit.csv")]) == 0
        out, err = capsys.readouterr()
        assert "fitted matrix entropy: 0.000000 bits\n" in out
        lines = [ln for ln in err.splitlines() if not ln.startswith("trace written")]
        assert lines == ["warning: trace has a single repeated pair; "
                         "repeat probability pinned to 1"]

    def test_fit_warns_on_short_trace(self, tmp_path, capsys):
        """A fit measures the trace as analyze does, and warns as it does
        when the trace is short."""
        short = tmp_path / "short.csv"
        assert main(["generate", "--target", "0.4", "0.4", "--length", "2000",
                     "--output", str(short)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # none may escape main
            assert main(["generate", "--fit", str(short), "--output",
                         str(tmp_path / "fit.csv")] + FAST) == 0
        warned = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("warning:")]
        assert warned == ["warning: trace length 2000 is below the recommended minimum "
                          "10000; compression overhead may dominate the ratios"]

    def test_target_default_length(self, tmp_path):
        out = tmp_path / "default.csv"
        assert main(["generate", "--target", "0.4", "0.4", "--output", str(out)]) == 0
        spec = spec_from_json((tmp_path / "default.csv.spec.json").read_text())
        assert spec.length == 1_000_000

    def test_degenerate_target_needs_flag(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["generate", "--target", "0.5", "0", "--output", str(out)]) == 3
        assert "degenerate" in capsys.readouterr().err

    def test_degenerate_target_with_flag(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["generate", "--target", "0.5", "0", "--allow-degenerate",
                     "--length", "100", "--output", str(out)]) == 0
        assert "matrix entropy: 0.000000 bits\n" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(set(lines)) == 1

    def test_target_out_of_range(self, tmp_path, capsys):
        assert main(["generate", "--target", "2", "0.5",
                     "--output", str(tmp_path / "x.csv")]) == 3
        assert "outside" in capsys.readouterr().err

    def test_mutually_exclusive_sources(self, trace_file, tmp_path, capsys):
        code = main(["generate", "--target", "1", "1", "--fit", str(trace_file),
                     "--output", str(tmp_path / "x.csv")])
        assert code == 1

    def test_missing_source(self, tmp_path):
        assert main(["generate", "--output", str(tmp_path / "x.csv")]) == 1


class TestAnalyze:
    def test_table_and_report(self, trace_file, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        assert main(["analyze", str(trace_file), "--seed", "1",
                     "--output", str(report_path)] + FAST) == 0
        printed = capsys.readouterr().out
        assert "temporal" in printed and "t" in printed
        report = load_report(report_path)
        assert report.entries == 20000
        assert 0.0 < report.point.overall < 1.1

    def test_reports_reproducible_minus_timestamp(self, trace_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["analyze", str(trace_file), "--seed", "1",
                         "--output", str(path)] + FAST) == 0
        strip = lambda p: [ln for ln in p.read_text().splitlines()
                           if "created_at" not in ln]
        assert strip(a) == strip(b)

    def test_slices_flag(self, trace_file, tmp_path, capsys):
        report_path = tmp_path / "s.json"
        assert main(["analyze", str(trace_file), "--slices",
                     "--output", str(report_path)] + FAST) == 0
        report = load_report(report_path)
        assert set(report.slices) == {"source", "destination"}
        assert report.slices["source"].uniform_mode == "single"

    def test_missing_file_exit_two(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        assert main(["analyze", str(missing)] + FAST) == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_empty_file_names_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["analyze", str(empty)] + FAST) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\nc\n")
        assert main(["analyze", str(bad)] + FAST) == 2
        assert "line 2" in capsys.readouterr().err

    def test_format_flags(self, tmp_path):
        f = tmp_path / "semi.csv"
        f.write_text("hdr\n1;2;x\n2;1;x\n" * 1)
        assert main(["analyze", str(f), "--delimiter", ";", "--skip-rows", "1"]
                    + FAST) == 0


#: Reports that each set one field the reader refuses: a setting that is
#: gone, an integer spelled as a bool, a string or a fraction, a name that is
#: not a string, or a compressed size below 1 byte, past 64 bits or missing.
#: The name is the fixture file's; the value replaces the field at the dotted
#: path.
BAD_REPORT_FIELDS = {
    "report_dict_size": ("compressor.dict_size", 65536),
    "report_level_null": ("compressor.level", None),
    "report_level_string": ("compressor.level", "6"),
    "report_level_fraction": ("compressor.level", 6.5),
    "report_seed_fraction": ("seed.seed", 1.5),
    "report_seed_string": ("seed.seed", "7"),
    "report_seed_bool": ("seed.seed", True),
    "report_stream_fraction": ("seed.stream", [0.5]),
    "report_trials_bool": ("trials", True),
    "report_trials_fraction": ("trials", 2.5),
    "report_trials_string": ("trials", "3"),
    "report_entries_fraction": ("trace.entries", 10.5),
    "report_n_ids_string": ("trace.n_ids", "16"),
    "report_source_id_count_bool": ("trace.source_id_count", True),
    "report_dest_id_count_fraction": ("trace.dest_id_count", 3.5),
    "report_name_number": ("trace.name", 7),
    "report_c_original_string": ("point.c_original", "x"),
    "report_c_original_zero": ("point.c_original", 0),
    "report_c_original_fraction": ("point.c_original", 1.5),
    "report_c_original_bool": ("point.c_original", True),
    "report_c_original_huge": ("point.c_original", 10 ** 400),
    "report_c_shuffled_trials_negative": ("point.c_shuffled_trials", [10, -1]),
    "report_c_uniform_trials_empty": ("point.c_uniform_trials", []),
}

#: Reports that each set a field the reader recomputes from the sizes, so
#: they load as if it were unset.
RECOMPUTED_REPORT_FIELDS = {
    "report_temporal_string": ("point.temporal", "x"),
    "report_temporal_null": ("point.temporal", None),
}

# Bad inputs, each of which ends in an exit code and one stderr line. The
# paths name files that the bad_inputs fixture writes.
BAD_INPUTS = [
    (["analyze", "{tiny}", "--trials", "0"], 1),
    (["generate", "--fit", "{tiny}", "--trials", "0", "--output", "{out}"], 1),
    (["analyze", "{tiny}", "--source-col", "-5"], 1),
    (["analyze", "{tiny}", "--dest-col", "-3"], 1),
    (["analyze", "{header}", "--skip-rows", "-5"], 1),
    (["analyze", "{tiny}", "--delimiter", ""], 1),
    (["analyze", "{tiny}", "--uniform-mode", "single"], 1),
    (["analyze", "{tiny}", "--seed", "-1"], 1),
    (["generate", "--target", "0.5", "0.5", "--seed", "-1", "--output", "{out}"], 1),
    (["generate", "--target", "0.4", "0.4", "--length", "0", "--output", "{out}"], 1),
    (["generate", "--target", "0.4", "0.4", "--length", "-5", "--output", "{out}"], 1),
    (["generate", "--target", "0.4", "0.4", "--n", "1", "--output", "{out}"], 1),
    (["analyze", "{latin1}"], 2),
    (["generate", "--spec", "{latin1}", "--output", "{out}"], 2),
    (["analyze", "{huge_id}"], 2),
    (["matrix", "{huge_id}", "--output", "{out}"], 2),
    (["generate", "--fit", "{huge_id}", "--output", "{out}"], 2),
    (["map", "{partial_report}", "--output", "{out}"], 2),
    (["map", "{list_slices_report}", "--output", "{out}"], 2),
    (["map", "{list_report}", "--output", "{out}"], 2),
    (["generate", "--spec", "{spec_by_path}", "--output", "{out}"], 2),
    (["generate", "--spec", "{spec_nan}", "--output", "{out}"], 2),
    (["generate", "--spec", "{spec_negative_id}", "--output", "{out}"], 2),
    (["generate", "--spec", "{spec_id_past_n}", "--output", "{out}"], 2),
    (["generate", "--spec", "{spec_negative_seed}", "--output", "{out}"], 2),
    (["generate", "--spec", "{spec_negative_stream}", "--output", "{out}"], 2),
    (["generate", "--spec", "{spec_repeat_p_2}", "--output", "{out}"], 2),
    (["generate", "--spec", "{spec_length_0}", "--output", "{out}"], 2),
    (["map", "{zstd_report}", "--output", "{out}"], 2),
    (["analyze", "{tiny}", "--level", "99"], 3),
    (["analyze", "{tiny}", "--compressor", "deflate", "--level", "99"], 3),
    # there is no dictionary-size option: a command line that sets one fails
    (["analyze", "{tiny}", "--dict-size", "1"], 1),
    (["analyze", "{tiny}", "--compressor", "deflate", "--dict-size", "65536"], 1),
    *[(["map", "{%s}" % name, "--output", "{out}"], 2) for name in BAD_REPORT_FIELDS],
    *[(["map", "{%s}" % name, "--output", "{out}"], 0) for name in RECOMPUTED_REPORT_FIELDS],
]


@pytest.fixture
def bad_inputs(tmp_path, report_file):
    files = {name: tmp_path / name for name in
             ("tiny", "header", "latin1", "huge_id", "partial_report", "list_slices_report",
              "list_report", "spec_by_path", "spec_nan", "spec_negative_id",
              "spec_id_past_n", "spec_negative_seed", "spec_negative_stream",
              "spec_repeat_p_2", "spec_length_0", "spec_string_length", "spec_string_cell",
              "zstd_report", "out", *BAD_REPORT_FIELDS, *RECOMPUTED_REPORT_FIELDS)}
    files["tiny"].write_text("a,b\nb,a\nc,d\n")
    files["header"].write_text("src,dst\na,b\nb,a\n")
    files["huge_id"].write_text("a,b\n" + "c" * 200_000 + ",d\n")
    files["latin1"].write_bytes("caf\xe9,b\nb,a\n".encode("latin-1"))
    files["partial_report"].write_text(json.dumps({"schema": REPORT_SCHEMA}))
    files["list_slices_report"].write_text(json.dumps(
        {"schema": REPORT_SCHEMA, "slices": [1]}))
    files["list_report"].write_text("[]")
    (tmp_path / "m.csv").write_text("source,destination,probability\n0,1,1.0\n")
    files["spec_by_path"].write_text(json.dumps(
        {"schema": "trace-generator-spec/1", "repeat_p": 0.5, "length": 10,
         "matrix": {"path": "m.csv", "n": 2}}))
    for name, cells in (("spec_nan", [[0, 0, float("nan")], [0, 1, float("nan")]]),
                        ("spec_negative_id", [[-1, 0, 1.0]]),
                        ("spec_id_past_n", [[0, 7, 1.0]])):
        files[name].write_text(json.dumps(
            {"schema": "trace-generator-spec/1", "repeat_p": 0.5, "length": 10,
             "matrix": {"cells": cells, "n": 2}}))
    for name, seed in (("spec_negative_seed", {"seed": -1}),
                       ("spec_negative_stream", {"seed": 1, "stream": [0, -3]})):
        files[name].write_text(json.dumps(
            {"schema": "trace-generator-spec/1", "repeat_p": 0.5, "length": 10, "seed": seed,
             "matrix": {"cells": [[0, 0, 1.0]], "n": 1}}))
    for name, repeat_p, length, cell in (("spec_repeat_p_2", 2, 10, [0, 0, 1.0]),
                                         ("spec_length_0", 0.5, 0, [0, 0, 1.0]),
                                         ("spec_string_length", 0.5, "100", [0, 0, 1.0]),
                                         ("spec_string_cell", 0.5, 10, ["0", 0, 1.0])):
        files[name].write_text(json.dumps(
            {"schema": "trace-generator-spec/1", "repeat_p": repeat_p, "length": length,
             "matrix": {"cells": [cell], "n": 1}}))
    files["zstd_report"].write_text(json.dumps(
        {**json.loads(report_file.read_text()), "compressor": {"name": "zstd", "level": 99}}))
    for name, (field, value) in {**BAD_REPORT_FIELDS, **RECOMPUTED_REPORT_FIELDS}.items():
        doc = json.loads(report_file.read_text())
        *parents, key = field.split(".")
        owner = doc
        for parent in parents:
            owner = owner[parent]
        owner[key] = value
        files[name].write_text(json.dumps(doc))
    return {name: str(path) for name, path in files.items()}


@pytest.mark.parametrize("argv, code", BAD_INPUTS,
                         ids=[" ".join(argv) for argv, _ in BAD_INPUTS])
def test_bad_input_exit_code(bad_inputs, capsys, argv, code):
    assert main([arg.format(**bad_inputs) for arg in argv]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err


def test_non_utf8_trace_names_file(bad_inputs, capsys):
    assert main(["analyze", bad_inputs["latin1"]]) == 2
    assert bad_inputs["latin1"] in capsys.readouterr().err


def test_non_utf8_spec_names_file(bad_inputs, capsys):
    assert main(["generate", "--spec", bad_inputs["latin1"], "--output", bad_inputs["out"]]) == 2
    assert bad_inputs["latin1"] in capsys.readouterr().err


@pytest.mark.parametrize("name", ["spec_repeat_p_2", "spec_length_0", "spec_string_length",
                                  "spec_string_cell"])
def test_bad_spec_setting_names_file(bad_inputs, capsys, name):
    assert main(["generate", "--spec", bad_inputs[name], "--output", bad_inputs["out"]]) == 2
    assert bad_inputs[name] in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(BAD_REPORT_FIELDS))
def test_bad_report_field_names_file_and_field(bad_inputs, capsys, name):
    assert main(["map", bad_inputs[name], "--output", bad_inputs["out"]]) == 2
    err = capsys.readouterr().err
    assert bad_inputs[name] in err
    assert BAD_REPORT_FIELDS[name][0].rpartition(".")[2] in err.replace(bad_inputs[name], "")


def test_report_with_null_dict_size_loads(report_file, tmp_path):
    """Every report written while a dictionary size was a setting holds
    ``"dict_size": null``; those load, and measured the same handle."""
    doc = json.loads(report_file.read_text())
    doc["compressor"]["dict_size"] = None
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    assert load_report(old).compressor == load_report(report_file).compressor


def test_loaded_point_states_the_stored_block(report_file):
    """A report's ratios and means are recomputed on load, and they are
    the ones it wrote."""
    doc = json.loads(report_file.read_text())
    report = load_report(report_file)
    assert report.point.as_dict() == doc["point"]
    assert {k: v.as_dict() for k, v in report.slices.items()} == doc["slices"]


def test_oversized_field_names_line(bad_inputs, capsys):
    assert main(["analyze", bad_inputs["huge_id"]]) == 2
    assert "line 2: field larger than field limit" in capsys.readouterr().err


@pytest.fixture(scope="module")
def report_file(trace_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("maps") / "r.json"
    assert main(["analyze", str(trace_file), "--slices",
                 "--output", str(path)] + FAST) == 0
    return path


class TestMapCommand:
    def test_svg_and_csv(self, report_file, tmp_path):
        svg = tmp_path / "map.svg"
        assert main(["map", str(report_file), "--output", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")
        csv_lines = (tmp_path / "map.csv").read_text().splitlines()
        assert csv_lines[0] == "name,temporal,non_temporal,overall"
        assert len(csv_lines) == 2

    def test_csv_values_match_report_exactly(self, report_file, tmp_path):
        svg = tmp_path / "m.svg"
        assert main(["map", str(report_file), "--output", str(svg)]) == 0
        point = load_report(report_file).point
        _, t, nt, o = (tmp_path / "m.csv").read_text().splitlines()[1].split(",")
        assert float(t) == point.temporal
        assert float(nt) == point.non_temporal
        assert float(o) == point.overall

    def test_hand_edited_ratio_not_drawn(self, report_file, tmp_path):
        doc = json.loads(report_file.read_text())
        doc["point"]["temporal"] = 0.123
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        assert main(["map", str(edited), "--output", str(tmp_path / "m.svg")]) == 0
        _, t, _, _ = (tmp_path / "m.csv").read_text().splitlines()[1].split(",")
        assert float(t) == load_report(report_file).point.temporal != 0.123

    def test_slices_add_points(self, report_file, tmp_path):
        svg = tmp_path / "s.svg"
        assert main(["map", str(report_file), "--slices", "--output", str(svg)]) == 0
        assert len((tmp_path / "s.csv").read_text().splitlines()) == 4

    def test_malformed_report_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["map", str(bad), "--output", str(tmp_path / "m.svg")]) == 2

    @pytest.mark.parametrize("key, value", [("schema", "trace-complexity-report/1"),
                                            ("compressor", {}),
                                            ("compressor", {"name": "zstd", "level": 99}),
                                            ("point.uniform_mode", 7),
                                            ("point.warnings", "ab")],
                             ids=["old-schema", "compressor-without-name",
                                  "unknown-compressor", "uniform-mode-number",
                                  "warnings-string"])
    def test_bad_report_named(self, report_file, tmp_path, capsys, key, value):
        doc = json.loads(report_file.read_text())
        *outer, inner = key.split(".")
        functools.reduce(dict.__getitem__, outer, doc)[inner] = value
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        assert main(["map", str(report_file), str(old),
                     "--output", str(tmp_path / "m.svg")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(old) in err[0], err

    def test_zero_reports_usage_error(self, tmp_path):
        assert main(["map", "--output", str(tmp_path / "m.svg")]) == 1

    def test_text_encoding_report_refused(self, report_file, tmp_path, capsys):
        """A version 1 report measured the old text encoding, so its ratios
        are not comparable with version 2 ones."""
        doc = json.loads(report_file.read_text())
        assert doc["schema"] == "trace-complexity-report/2"
        doc["schema"] = "trace-complexity-report/1"
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        assert main(["map", str(old), "--output", str(tmp_path / "m.svg")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "old text encoding" in err and "re-analyse" in err
        assert not (tmp_path / "m.svg").exists()


class TestMatrixCommand:
    def test_dense_csv_and_svg(self, trace_file, tmp_path):
        out = tmp_path / "m.csv"
        svg = tmp_path / "m.svg"
        assert main(["matrix", str(trace_file), "--output", str(out),
                     "--svg", str(svg), "--log-scale"]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()]
        cells = [float(v) for row in rows for v in row]
        assert len(rows) == 16 and all(len(r) == 16 for r in rows)
        assert sum(cells) == pytest.approx(1.0, abs=1e-9)
        assert svg.read_text().startswith("<svg")

    def test_constant_trace_single_hot_cell(self, tmp_path):
        f = tmp_path / "const.csv"
        f.write_text("4,4\n" * 100)
        out = tmp_path / "m.csv"
        assert main(["matrix", str(f), "--output", str(out)]) == 0
        cells = [float(v) for r in out.read_text().splitlines() for v in r.split(",")]
        assert sorted(cells)[-1] == 1.0 and sum(cells) == 1.0

    def test_single_pair_entropy_is_positive_zero(self, tmp_path, capsys):
        f = tmp_path / "pair.csv"
        f.write_text("1,2\n" * 3)
        assert main(["matrix", str(f), "--output", str(tmp_path / "m.csv")]) == 0
        assert capsys.readouterr().out == ("pairs: 1, joint entropy: 0.000000 bits, "
                                           "normalized: 0.000000\n")

    def test_heatmap_memory_below_a_quarter_of_the_svg(self, tmp_path):
        """The heatmap is written a row at a time: at 256 IDs the command's
        peak (numpy reports its buffers to tracemalloc) stays below a
        quarter of the SVG it writes."""
        rng = np.random.default_rng(0)
        ids = np.concatenate([np.arange(256), rng.integers(0, 256, 3000)])
        trace = tmp_path / "t.csv"
        trace.write_text("".join(f"h{s},h{d}\n" for s, d in zip(ids, np.roll(ids, 7))))
        argv = ["matrix", str(trace), "--output", str(tmp_path / "m.csv"),
                "--svg", str(tmp_path / "m.svg"), "--log-scale"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0  # imports what the command uses before it is measured
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        size = (tmp_path / "m.svg").stat().st_size
        assert (tmp_path / "m.svg").read_text().count("<rect") == 1 + 256 * 256
        assert peak < size / 4


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "trace-complexity" in capsys.readouterr().out

    @pytest.mark.parametrize("layer, n, message, line", [
        ("entropy.zipf_matrix", "70000", "Unable to allocate 36.5 GiB for an array with "
         "shape (4900000000,) and data type float64",
         "error: out of memory: Unable to allocate 36.5 GiB for an array with shape "
         "(4900000000,) and data type float64\n"),
        ("cli.generate", "16", "", "error: out of memory: an allocation failed\n"),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_is_one_line(self, tmp_path, capsys, layer, n, message, line):
        """--n 70000 asks zipf_matrix for 4.9e9 cells, more than memory
        holds. The command exits 3 with one line. The failing layer is
        mocked, so no such allocation is made."""
        module, name = layer.split(".")
        with mock.patch(f"tracecomplexity.{module}.{name}", side_effect=MemoryError(message)):
            code = main(["generate", "--target", "0.4", "0.4", "--n", n, "--length", "10",
                         "--output", str(tmp_path / "x.csv")])
        assert code == 3
        assert capsys.readouterr().err == line


# --- Fuzzing main(argv) ------------------------------------------------------

#: What an input file can hold: traces good and bad, specs, reports, JSON
#: that is neither, and bytes that are not UTF-8.
SPEC_DOC = {"schema": "trace-generator-spec/1", "repeat_p": 0.5, "length": 20,
            "seed": {"seed": 1, "stream": [2]},
            "matrix": {"n": 2, "cells": [[0, 0, 0.5], [1, 1, 0.5]]}}
SPEC_MUTATIONS = [("repeat_p", 2.0), ("repeat_p", "x"), ("length", 0), ("length", 1.5),
                  ("length", None), ("seed", {"seed": -1}), ("seed", {"seed": 1, "stream": [-2]}),
                  ("seed", {"seed": 1, "stream": "ab"}),
                  ("name", 5), ("matrix", {"n": 0, "cells": [[0, 0, 1.0]]}),
                  ("matrix", {"n": 2, "cells": [[0, 0, 0.7]]}),
                  ("matrix", {"n": 2, "cells": []}), ("matrix", {"n": "two", "cells": []}),
                  ("matrix", {"n": 2 ** 70, "cells": [[2 ** 66, 0, 1.0]]}),
                  ("matrix", [1, 2]), ("schema", "other")]
SPECS = st.one_of(st.just(json.dumps(SPEC_DOC)), st.sampled_from(SPEC_MUTATIONS).map(
    lambda kv: json.dumps({**SPEC_DOC, kv[0]: kv[1]})))
TEXT_FILES = st.one_of(
    st.sampled_from(["a,b\nb,a\nc,d\n", "1,2\n", "src,dst\n3,4\n4,3\n", "", "\n\n",
                     "a;b\nb;a\n", "\"q\",r\nr,\"q\"\n", "a,,b\n", "a\n", "\u00e9,b\nb,a\n",
                     "[]", "{}", "{"]),
    SPECS,
    st.text(st.sampled_from(list("ab01,;\t \"\r\n\u00e9")), max_size=60),
)
FILES = st.one_of(TEXT_FILES.map(str.encode), st.binary(max_size=30))

#: Options of each subcommand: (flag, good values, bad values); a flag
#: without values is a switch.
FORMAT_OPTIONS = [("--delimiter", [",", ";", "\t", '"'], ["", "ab"]),
                  ("--source-col", ["0", "1", "3"], ["-1", "x"]),
                  ("--dest-col", ["0", "1", "3"], ["-2"]),
                  ("--skip-rows", ["0", "1", "5"], ["-1", "x"])]
COMPRESSOR_OPTIONS = [("--compressor", ["deflate", "lzma"], ["zstd"]),
                      ("--level", ["0", "1", "10", "-1"], ["x"])]
COMMON = [("--seed", ["0", "7", str(2 ** 70)], ["-1", "x"]), ("--trials", ["1", "2"], ["0"])]
SWITCH = ([], [])
OPTIONS = {
    "analyze": FORMAT_OPTIONS + COMPRESSOR_OPTIONS + COMMON + [
        ("--uniform-mode", ["auto", "pair", "columnwise"], ["single"]),
        ("--slices", *SWITCH), ("--name", ["n"], []), ("--output", ["{out}", "{dir}"], [])],
    "generate": FORMAT_OPTIONS + COMPRESSOR_OPTIONS + COMMON + [
        ("--n", ["2", "3", "17"], ["-1", "1", "x"]), ("--allow-degenerate", *SWITCH),
        ("--spec-output", ["{out}.json", "{dir}"], [])],
    "map": [("--slices", *SWITCH), ("--csv", ["{out}.csv", "{dir}"], [])],
    "matrix": FORMAT_OPTIONS + [("--log-scale", *SWITCH), ("--svg", ["{out}.svg", "{dir}"], [])],
}


@st.composite
def cli_calls(draw):
    """A command line for main and the bytes of its input file ``{in}``.
    Half the command lines parse; the others may hold any bad value."""
    parses = draw(st.booleans())

    def value(good, bad=()):
        return draw(st.sampled_from(list(good) + ([] if parses else list(bad))))

    command = value(sorted(OPTIONS), ["", "--version", "frobnicate"])
    argv = [command] if command else []
    data = draw(FILES)
    if command == "generate":
        source = value(["--target", "--spec", "--fit"], ["--target --spec"])
        if "--target" in source:
            fractions = ["0", "0.3", "0.5", "0.8", "1", "-0.5", "1.5", "nan"]
            argv += ["--target", value(fractions, ["x"]), value(fractions)]
        if "--spec" in source:
            argv += ["--spec", "{in}"]
            data = draw(st.one_of(SPECS.map(str.encode), st.just(data)))
        if "--fit" in source:
            argv += ["--fit", "{in}"]
        # always a length, so a target never makes the default million entries
        argv += ["--length", value(["1", "30", "200"], ["0", "-2", "x"])]
        argv += ["--output", value(["{out}", "{dir}", "{missing}/o"])]
    elif command == "map":
        argv += draw(st.lists(st.sampled_from(["{in}", "{report}", "{missing}"]),
                              min_size=parses, max_size=3))
        argv += ["--output", value(["{out}.svg", "{dir}"])]
    elif command in ("analyze", "matrix"):
        argv.append(value(["{in}", "{in}", "{missing}"]))
        if command == "matrix":
            argv += ["--output", value(["{out}", "{dir}"])]
    if command in OPTIONS:
        for flag, good, bad in draw(st.lists(st.sampled_from(OPTIONS[command]), max_size=4,
                                             unique_by=lambda option: option[0])):
            argv += [flag, value(good, bad)] if good else [flag]
    if not parses and draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "x", "-"])))
    return argv, data


@pytest.fixture(scope="module")
def fuzz_dir(report_file, tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return {"in": str(root / "in"), "out": str(root / "out"), "dir": str(root),
            "missing": str(root / "missing"), "report": str(report_file)}


@settings(max_examples=150)
@given(call=cli_calls())
def test_fuzz_main_exit_code(fuzz_dir, call):
    """Whatever the command line and input file, main returns 0, 1, 2 or 3
    and lets no exception escape."""
    argv, data = call
    with open(fuzz_dir["in"], "wb") as fh:
        fh.write(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(**fuzz_dir) for arg in argv])
    assert code in (0, 1, 2, 3), (argv, data, err.getvalue())
