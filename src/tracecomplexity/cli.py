"""Command-line surface: analyze, generate, map, matrix.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or malformed
input), 3 solver or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .complexity import (DEFAULT_LEVELS, complexity_of_slices, default_compressor,
                         trace_complexity)
from .entropy import empirical_matrix, joint_entropy, normalized_nontemporal
from .errors import ConfigError, DataError, SolverError
from .generator import (MapTarget, generate, spec_from_json, spec_from_target,
                        spec_from_trace, write_spec)
from .reports import AnalysisReport, load_report
from .svgplots import MapPoint, complexity_map_svg, matrix_heatmap_chunks, write_map_csv
from .trace import CsvFormat, load_trace, write_trace
from .transforms import RngSeed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3


class _Parser(argparse.ArgumentParser):
    # argparse prints the usage and exits 2 on usage errors by default; the
    # contract here is one line and exit code 1.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """An argparse type for integers no smaller than ``low``."""
    # argparse names this function in its "invalid integer value" message
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value
    return integer


def _delimiter(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"expected one character, got {text!r}")
    return text


def _add_format_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("trace format")
    g.add_argument("--delimiter", type=_delimiter, default=",",
                   help="field delimiter (default: ,)")
    g.add_argument("--source-col", type=_int_at_least(0), default=0,
                   help="source ID column index")
    g.add_argument("--dest-col", type=_int_at_least(0), default=1,
                   help="destination ID column index")
    g.add_argument("--skip-rows", type=_int_at_least(0), default=0,
                   help="header rows to skip")


def _add_compressor_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("compressor")
    g.add_argument("--compressor", choices=sorted(DEFAULT_LEVELS), default=None,
                   help="backend (default: lzma, or $TRACE_COMPLEXITY_COMPRESSOR)")
    g.add_argument("--level", type=int, default=None, help="compression level")
    g.add_argument("--dict-size", type=int, default=None,
                   help="lzma dictionary size in bytes (default: sized to each buffer "
                        "of up to 8 MiB at levels 6-9, else the preset's)")


def _format(args) -> CsvFormat:
    return CsvFormat(delimiter=args.delimiter, source_column=args.source_col,
                     dest_column=args.dest_col, skip_rows=args.skip_rows)


def _print_point_row(label: str, point, out) -> None:
    print(f"{label:<24} {point.temporal:>9.4f} {point.non_temporal:>13.4f} "
          f"{point.overall:>9.4f}", file=out)


def _emit_warnings(messages, prefix: str = "") -> None:
    for w in messages:
        print(f"warning: {prefix}{w}", file=sys.stderr)


def cmd_analyze(args) -> int:
    trace = load_trace(args.trace, _format(args), name=args.name)
    compressor = default_compressor(args.compressor, args.level, args.dict_size)
    seed = RngSeed(args.seed)
    mode = None if args.uniform_mode == "auto" else args.uniform_mode
    point = trace_complexity(trace, compressor, trials=args.trials, seed=seed,
                             uniform_mode=mode)
    _emit_warnings(point.warnings)
    slices = None
    if args.slices:
        src_pt, dst_pt = complexity_of_slices(trace, compressor, trials=args.trials,
                                              seed=seed)
        slices = {"source": src_pt, "destination": dst_pt}
        _emit_warnings(src_pt.warnings, "source slice: ")
        _emit_warnings(dst_pt.warnings, "destination slice: ")

    print(f"{'trace':<24} {'temporal':>9} {'non-temporal':>13} {'overall':>9}")
    _print_point_row(trace.name, point, sys.stdout)
    if slices:
        _print_point_row(f"  {trace.name}:source", slices["source"], sys.stdout)
        _print_point_row(f"  {trace.name}:destination", slices["destination"], sys.stdout)

    report = AnalysisReport.build(trace, point, compressor, args.trials, seed,
                                  slices=slices, trace_path=args.trace)
    if args.output:
        Path(args.output).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"report written to {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_generate(args) -> int:
    seed = RngSeed(args.seed)
    if args.target is not None:
        x, y = args.target
        target = MapTarget(x=x, y=y, n_ids=args.n)
        spec = spec_from_target(target, seed=seed, allow_degenerate=args.allow_degenerate)
        if spec.zipf_exponent is not None:
            print(f"zipf exponent: {spec.zipf_exponent:.6f}")
        else:
            print("degenerate single-pair matrix")
        print(f"matrix entropy: {joint_entropy(spec.matrix):.6f} bits")
        print(f"repeat probability: {spec.repeat_p:.6f}")
    elif args.spec is not None:
        try:
            spec = spec_from_json(Path(args.spec).read_text(encoding="utf-8"))
        except UnicodeDecodeError as e:
            raise DataError(f"{args.spec}: not UTF-8 text ({e.reason})") from e
    else:
        fmt = _format(args)
        original = load_trace(args.fit, fmt)
        compressor = default_compressor(args.compressor, args.level, args.dict_size)
        spec = spec_from_trace(original, trials=args.trials, compressor=compressor,
                               seed=seed)
        _emit_warnings(spec.warnings)
        print(f"fitted matrix entropy: {joint_entropy(spec.matrix):.6f} bits")
        print(f"repeat probability: {spec.repeat_p:.6f}")
    if args.length is not None:
        spec = replace(spec, length=args.length)
    if args.spec is not None:
        print(f"loaded spec {spec.name!r}: repeat probability {spec.repeat_p:.6f}, "
              f"length {spec.length}")

    write_trace(generate(spec), args.output)  # the trace is freed before the spec is written
    spec_path = args.spec_output or (str(args.output) + ".spec.json")
    write_spec(spec, spec_path)
    print(f"trace written to {args.output} ({spec.length} entries); "
          f"spec written to {spec_path}", file=sys.stderr)
    return EXIT_OK


def cmd_map(args) -> int:
    points: list[MapPoint] = []
    for path in args.reports:
        report = load_report(path)
        p = report.point
        points.append(MapPoint(report.trace_name, p.temporal, p.non_temporal, p.overall))
        if args.slices and report.slices:
            for which, sp in sorted(report.slices.items()):
                points.append(MapPoint(f"{report.trace_name}:{which}",
                                       sp.temporal, sp.non_temporal, sp.overall))
    svg = complexity_map_svg(points)
    Path(args.output).write_text(svg, encoding="utf-8")
    csv_path = args.csv or str(Path(args.output).with_suffix(".csv"))
    write_map_csv(points, csv_path)
    print(f"map written to {args.output}; points to {csv_path}", file=sys.stderr)
    return EXIT_OK


def cmd_matrix(args) -> int:
    trace = load_trace(args.trace, _format(args))
    matrix = empirical_matrix(trace)
    dense = matrix.write_dense_csv(args.output)
    try:
        suffix = f", normalized: {normalized_nontemporal(matrix):.6f}"
    except SolverError:
        suffix = " (single ID; no normalization)"
    print(f"pairs: {matrix.support_size}, joint entropy: "
          f"{joint_entropy(matrix):.6f} bits{suffix}")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.writelines(matrix_heatmap_chunks(dense, log_scale=args.log_scale))
    print(f"dense matrix written to {args.output}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trace-complexity",
                     description="Measure and synthesize packet-trace complexity.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="measure a trace's complexity point")
    p.add_argument("trace", help="trace CSV path")
    p.add_argument("--name", default=None, help="trace label (default: file stem)")
    _add_format_args(p)
    _add_compressor_args(p)
    p.add_argument("--trials", type=_int_at_least(1), default=3,
                   help="randomization trials (default: 3)")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="base RNG seed (default: 0)")
    p.add_argument("--uniform-mode", choices=["auto", "pair", "columnwise"],
                   default="auto", help="uniform-counterpart sampling mode")
    p.add_argument("--slices", action="store_true",
                   help="also measure source and destination columns separately")
    p.add_argument("--output", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="synthesize a trace")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--target", nargs=2, type=float, metavar=("X", "Y"),
                     help="complexity-map target (temporal, non-temporal)")
    src.add_argument("--spec", default=None, help="generator spec JSON to replay")
    src.add_argument("--fit", default=None, help="trace CSV to fit a spec from")
    p.add_argument("--n", type=int, default=16, help="ID count for --target (default: 16)")
    p.add_argument("--length", type=int, default=None,
                   help="entries to generate (default: 1000000, or the spec/fit length)")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="base RNG seed (default: 0)")
    p.add_argument("--allow-degenerate", action="store_true",
                   help="accept y=0 targets via a single-pair matrix")
    p.add_argument("--trials", type=_int_at_least(1), default=3,
                   help="trials for --fit analysis")
    _add_format_args(p)
    _add_compressor_args(p)
    p.add_argument("--output", required=True, help="trace CSV output path")
    p.add_argument("--spec-output", default=None,
                   help="spec JSON output path (default: <output>.spec.json)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("map", help="draw the complexity map from reports")
    p.add_argument("reports", nargs="+", help="analysis report JSON paths")
    p.add_argument("--output", required=True, help="SVG output path")
    p.add_argument("--csv", default=None,
                   help="points CSV output path (default: alongside the SVG)")
    p.add_argument("--slices", action="store_true", help="include per-column slice points")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("matrix", help="export a trace's traffic matrix")
    p.add_argument("trace", help="trace CSV path")
    _add_format_args(p)
    p.add_argument("--output", required=True, help="dense matrix CSV output path")
    p.add_argument("--svg", default=None, help="also write an SVG heatmap here")
    p.add_argument("--log-scale", action="store_true", help="log color scale for the heatmap")
    p.set_defaults(func=cmd_matrix)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ConfigError, SolverError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as e:
        print(f"error: {e.filename or e}: file not found", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
