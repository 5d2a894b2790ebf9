#!/usr/bin/env python3
"""Benchmark of tracecomplexity: one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-cli --seed 1 --seconds 20 --trace 0

Set-up imports the package from ``src/`` and writes the workload's inputs;
it is repeated and its median reported as ``setup_s``. Then the workload
runs whole passes (see ``workloads.py``) until ``--seconds`` have elapsed,
and each timing is the median over passes. Every pass's outputs are
checked; a failed check fails its operation. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 1`` untraced and traced passes alternate. The traced ones
report the per-layer metrics of ``tracing.py`` (median over traced passes)
and ``tracing.overhead_frac``, the traced wall time over the untraced one,
minus one. Spans are written to ``.perfbench-work/`` when the run ends.

``baseline.json`` holds, per workload and seed, a digest of the measured
values (compressed sizes, printed ratios and entropies). A run prints whether
it matches. A mismatch is reported, not counted as a failure: it flags a
change of the measurement for review. The file also records the seed
baseline: each metric's median and spread over seeds 1-10, and one traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy  # noqa: F401  (imported before set-up is timed: the flow-log writer needs it)

import tracing
from workloads import FULL_SIZES, WORKLOADS, Pass, Program

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench-work"
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 40

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "entries_per_s": "1/s",
                    "peak_rss_mb": "MB", "point_err_max": "ratio", "setup_s": "s"}


def _load_program(root: Path, script_names) -> Program:
    """Import the package afresh from ``root/src``, and the named scripts."""
    for name in [n for n in sys.modules
                 if n == "tracecomplexity" or n.startswith("tracecomplexity.")]:
        del sys.modules[name]
    package = importlib.import_module("tracecomplexity")
    if Path(package.__file__).resolve().parent != (root / "src" / "tracecomplexity").resolve():
        raise RuntimeError(f"imported tracecomplexity from {package.__file__}, not {root}/src")
    scripts = {}
    for name in script_names:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      root / "scripts" / f"{name}.py")
        scripts[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scripts[name])
    return Program(package=package, cli=importlib.import_module("tracecomplexity.cli"),
                   complexity=sys.modules["tracecomplexity.complexity"],
                   reports=sys.modules["tracecomplexity.reports"], scripts=scripts)


def _digest(passes: list[Pass]) -> str:
    values = [[op.name, op.sizes, op.measured] for op in passes[0].ops]
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        sizes: dict = FULL_SIZES) -> dict:
    """Run one workload; return the result object and print the report lines."""
    os.environ.pop("TRACE_COMPLEXITY_COMPRESSOR", None)
    work_root = root / WORK_DIR
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        return _run(WORKLOADS[workload], seed, seconds, trace, root, sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(cls, seed, seconds, trace, root, sizes, workdir) -> dict:
    workload = cls(workdir, seed, sizes[cls.name])
    setups = []
    while (len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS) \
            and len(setups) < SETUP_MAX_REPEATS:
        t0 = time.perf_counter()
        prog = _load_program(root, getattr(cls, "scripts", ()))
        workload.write_inputs(prog)
        setups.append(time.perf_counter() - t0)

    tracer = tracing.Tracer() if trace else None
    passes: list[Pass] = []
    walls: list[float] = []
    cpus: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        p = Pass(tracer if traced else None)
        if traced:
            tracer.install(prog.scripts.values())
            first = len(tracer.spans)
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            workload.run_pass(prog, p)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_walls.append(wall)
            layers.append(tracer.layer_metrics(first, len(tracer.spans)))
        else:
            walls.append(wall)
            cpus.append(cpu)
        passes.append(p)
        # Start no pass that would end after ``seconds``; a traced run needs
        # one pass of each kind.
        elapsed = time.perf_counter() - started
        if elapsed * (len(passes) + 1) / len(passes) > seconds \
                and (not trace or traced_walls):
            break

    # Identical inputs must compress to identical sizes in every pass.
    for p in passes[1:]:
        for op, first_op in zip(p.ops, passes[0].ops):
            op.expect((op.sizes, op.measured) == (first_op.sizes, first_op.measured),
                      "measured values differ from the first pass")
    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.errors]
    for op in failed:
        print(f"FAILED {op.name}: {'; '.join(op.errors)}", file=sys.stderr)

    wall = statistics.median(walls)
    entries = sum(op.entries for op in passes[0].ops)
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(cpus),
        "entries_per_s": entries / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "point_err_max": max(e for op in ops for e in op.point_errs),
        "setup_s": statistics.median(setups),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    if trace:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["tracing.overhead_frac"] = statistics.median(traced_walls) / wall - 1.0
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in per_layer.items()}
        tracer.write(root / WORK_DIR / f"spans-{cls.name}-seed{seed}.json")

    digest = _digest(passes)
    recorded = None
    if sizes is FULL_SIZES:
        baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
        recorded = baseline["digests"].get(cls.name, {}).get(str(seed))
    status = ("no digest recorded for this seed" if recorded is None else
              "matches recorded" if recorded == digest else f"differs from recorded {recorded}")
    print(f"workload {cls.name} seed {seed}: {len(passes)} passes, "
          f"{len(setups)} set-ups, {len(ops)} operations")
    print("untraced pass wall times (s): " + " ".join(f"{w:.3f}" for w in walls))
    print(f"digest {digest}: {status}")
    print(f"error_rate {len(failed) / len(ops):.6g} ({len(failed)}/{len(ops)})")
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>16.6g} {m['unit']}")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tracecomplexity" / "__init__.py").is_file():
        print(f"error: no src/tracecomplexity under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
