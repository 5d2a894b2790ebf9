#!/usr/bin/env python3
"""Fit a generator spec to a trace, regenerate, and compare map points.

With --trace, fits the given CSV; otherwise synthesizes a demo trace first
(skewed + bursty preset). Prints the original and regenerated complexity
points and their L-infinity distance, and writes the fitted spec JSON.
Warnings of the fit and of the two analyses go to stderr, one line each.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tracecomplexity import (MapTarget, RngSeed, default_compressor, generate,
                             load_trace, spec_from_target, spec_from_trace,
                             trace_complexity, write_spec, write_trace)
from tracecomplexity.complexity import DEFAULT_LEVELS


def _warn(messages, prefix: str = "") -> None:
    for w in messages:
        print(f"warning: {prefix}{w}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", default=None, help="trace CSV to fit (default: demo)")
    parser.add_argument("--length", type=int, default=200_000,
                        help="demo/regenerated trace length (default: 200000)")
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--compressor", choices=sorted(DEFAULT_LEVELS), default=None)
    parser.add_argument("--outdir", default="out/fit", help="output directory")
    args = parser.parse_args(argv)

    comp = default_compressor(args.compressor)
    seed = RngSeed(args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    if args.trace:
        original = load_trace(args.trace)
    else:
        demo_spec = spec_from_target(MapTarget(0.4, 0.4, 16), length=args.length,
                                     seed=seed.derive(1), name="demo")
        original = generate(demo_spec)
        write_trace(original, outdir / "demo.csv")
        print(f"demo trace: p={demo_spec.repeat_p:.4f}, {args.length} entries")

    fitted = spec_from_trace(original, trials=args.trials, compressor=comp, seed=seed)
    _warn(fitted.warnings)
    write_spec(fitted, outdir / "fitted.spec.json")
    regen = generate(fitted)
    write_trace(regen, outdir / "regenerated.csv")

    p_orig = trace_complexity(original, comp, trials=args.trials, seed=seed)
    p_regen = trace_complexity(regen, comp, trials=args.trials, seed=seed)
    _warn(p_orig.warnings, "original: ")
    _warn(p_regen.warnings, "regenerated: ")
    dist = max(abs(p_orig.temporal - p_regen.temporal),
               abs(p_orig.non_temporal - p_regen.non_temporal))
    print(f"original:    T={p_orig.temporal:.4f}  NT={p_orig.non_temporal:.4f}")
    print(f"regenerated: T={p_regen.temporal:.4f}  NT={p_regen.non_temporal:.4f}")
    print(f"fitted repeat probability: {fitted.repeat_p:.4f}")
    print(f"L-infinity distance: {dist:.4f}")
    print(f"artifacts under {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
