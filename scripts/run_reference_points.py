#!/usr/bin/env python3
"""Generate and analyze the four reference presets, then draw the map.

Writes, under --outdir: one trace CSV + spec JSON + analysis report per
preset, a points CSV with the exact measured values, and the complexity-map
SVG. The defaults (n=16, one million entries, LZMA) take a few minutes on a
laptop; pass --length 100000 --compressor deflate for a quick look.
Each analysis's warnings go to stderr, one line each.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from tracecomplexity import (REFERENCE_TARGETS, AnalysisReport, MapPoint, RngSeed,
                             complexity_map_svg, default_compressor, generate,
                             reference_presets, trace_complexity, write_map_csv,
                             write_spec, write_trace)
from tracecomplexity.complexity import DEFAULT_LEVELS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out/reference", help="output directory")
    parser.add_argument("--n", type=int, default=16, help="IDs per preset (default: 16)")
    parser.add_argument("--length", type=int, default=1_000_000,
                        help="entries per trace (default: 1000000)")
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--compressor", choices=sorted(DEFAULT_LEVELS), default=None)
    parser.add_argument("--level", type=int, default=None)
    args = parser.parse_args(argv)

    comp = default_compressor(args.compressor, args.level)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    seed = RngSeed(args.seed)
    presets = reference_presets(n_ids=args.n, length=args.length, seed=seed)

    points = []
    print(f"{'preset':<16} {'target':<12} {'measured (T, NT)':<22} seconds")
    for name, spec in presets.items():
        t0 = time.monotonic()
        trace = generate(spec)
        write_trace(trace, outdir / f"{name}.csv")
        write_spec(spec, outdir / f"{name}.spec.json")
        point = trace_complexity(trace, comp, trials=args.trials, seed=seed)
        for w in point.warnings:
            print(f"warning: {name}: {w}", file=sys.stderr)
        report = AnalysisReport.build(trace, point, comp, args.trials, seed,
                                      trace_path=str(outdir / f"{name}.csv"))
        (outdir / f"{name}.report.json").write_text(report.to_json() + "\n")
        points.append(MapPoint(name, point.temporal, point.non_temporal, point.overall))
        tx, ty = REFERENCE_TARGETS[name]
        print(f"{name:<16} ({tx}, {ty})".ljust(29)
              + f" ({point.temporal:.4f}, {point.non_temporal:.4f})".ljust(23)
              + f" {time.monotonic() - t0:7.1f}")

    (outdir / "map.svg").write_text(complexity_map_svg(points))
    write_map_csv(points, outdir / "points.csv")
    print(f"map and points written under {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
