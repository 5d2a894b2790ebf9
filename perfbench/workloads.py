"""The benchmark's workloads and the checks on their outputs.

Each workload writes its inputs once during set-up, then runs passes. A pass
is a fixed list of operations (an in-process CLI call or a script's
``main(argv)``); every pass starts from a cleared compressed-size cache and
passes the compressor explicitly.

* ``analyze-cli``: two cold ``analyze`` calls, the way two fresh CLI
  processes would run. One is a synthetic (0.4, 0.4) trace with LZMA, three
  trials and per-column slices; the other a flow log with deflate.
  Compressing the randomized counterparts is nearly all of the time. The
  cache only helps across the two slices, which share their uniform
  counterparts. Covers both backends and all three resampler modes.
* ``reference-scripts``: ``scripts/run_reference_points.py`` then
  ``scripts/fit_roundtrip.py`` in one process on one warm cache. The four
  presets and the fit demo share their ID space and seed, so many uniform
  counterparts are byte-identical and about 45% of size lookups are cache
  hits. Exercises the cache, generator, fit solver, reports and the map SVG.
* ``synth-inspect``: ``generate --target``, a byte-identical
  ``generate --spec`` replay and ``matrix --svg --log-scale`` for five
  targets at 16, 64 and 256 IDs. Nothing is compressed; parsing the trace
  back is the largest cost. Compression changes should not move it.

An operation fails if it raises, returns a non-zero exit code, or any check
on its outputs fails. ``entries`` counts the trace entries each operation
generates or reads: the input trace of ``analyze`` and ``matrix``, the
generated traces of ``generate`` and of the scripts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from flowlog import write_flow_log

#: Criterion 1's tolerance on the distance between a synthetic trace's map
#: point and its target; criterion 6 uses it for the fit round trip too.
POINT_TOLERANCE = 0.1
#: Criterion 3's tolerance on overall = temporal * non-temporal.
PRODUCT_TOLERANCE = 1e-9

FULL_SIZES = {
    "analyze-cli": {"synthetic": 50_000, "flow": 50_000},
    "reference-scripts": {"length": 100_000},
    "synth-inspect": {"length": 1_000_000},
}
TINY_SIZES = {
    "analyze-cli": {"synthetic": 12_000, "flow": 12_000},
    "reference-scripts": {"length": 12_000},
    "synth-inspect": {"length": 50_000},
}

#: (x, y, n) targets of synth-inspect.
SYNTH_TARGETS = ((0.4, 0.4, 16), (0.8, 0.6, 16), (0.5, 0.5, 64), (0.3, 0.7, 64),
                 (0.6, 0.5, 256))


@dataclass
class Op:
    name: str
    entries: int
    errors: list[str] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    measured: list = field(default_factory=list)
    point_errs: list[float] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


@dataclass
class Program:
    """The imported program: its modules and the scripts' modules."""

    package: object
    cli: object
    complexity: object
    reports: object
    scripts: dict = field(default_factory=dict)


class Pass:
    def __init__(self, tracer=None) -> None:
        self.ops: list[Op] = []
        self._tracer = tracer

    @contextlib.contextmanager
    def op(self, name: str, entries: int):
        op = Op(name, entries)
        self.ops.append(op)
        scope = self._tracer.operation(name) if self._tracer else contextlib.nullcontext()
        try:
            with scope:
                yield op
        except Exception as e:  # an operation that raises counts as failed
            op.errors.append(f"raised {type(e).__name__}: {e}")


def _quiet(fn, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(argv)
    return code, out.getvalue()


def _run(op: Op, fn, argv) -> str:
    code, out = _quiet(fn, [str(a) for a in argv])
    op.expect(code == 0, f"exit code {code}")
    return out


def _check_point(op: Op, label: str, point) -> None:
    op.expect(abs(point.overall - point.temporal * point.non_temporal) <= PRODUCT_TOLERANCE,
              f"{label}: overall != temporal * non-temporal")
    op.sizes += [point.c_original, *point.c_shuffled_trials, *point.c_uniform_trials]


def _check_report(op: Op, prog: Program, path: Path, entries: int, compressor: str):
    """Load a report back and check it against its raw JSON and criterion 3."""
    raw = json.loads(path.read_text(encoding="utf-8"))
    report = prog.reports.load_report(path)
    op.expect(report.point.as_dict() == raw["point"], f"{path.name}: point differs on load")
    op.expect(report.entries == entries, f"{path.name}: {report.entries} entries")
    op.expect(report.compressor.name == compressor, f"{path.name}: compressor")
    _check_point(op, path.name, report.point)
    for which, point in sorted((report.slices or {}).items()):
        op.expect(point.as_dict() == raw["slices"][which],
                  f"{path.name}: {which} slice differs on load")
        _check_point(op, f"{path.name}:{which}", point)
    return report


def _check_target(op: Op, label: str, point, x: float, y: float) -> None:
    err = max(abs(point.temporal - x), abs(point.non_temporal - y))
    op.point_errs.append(err)
    op.expect(err <= POINT_TOLERANCE, f"{label}: {err:.4f} from target ({x}, {y})")


def _check_printed_row(op: Op, out: str, label: str, point) -> None:
    want = f"{point.temporal:>9.4f} {point.non_temporal:>13.4f} {point.overall:>9.4f}"
    op.expect(any(line.startswith(label) and line.endswith(want) for line in out.splitlines()),
              f"printed row for {label} does not match the report")


class AnalyzeCli:
    name = "analyze-cli"
    target = (0.4, 0.4)
    # The synthetic trace is one fixed realization of its target. Between
    # realizations at this length its map point moves by up to 0.02, which
    # would drown the accuracy changes point_err_max is there to catch. The
    # analysis seed and the flow log follow the workload seed.
    synthetic_seed = 0

    def __init__(self, workdir: Path, seed: int, sizes: dict) -> None:
        self.dir, self.seed, self.sizes = workdir, seed, sizes
        self.synthetic = workdir / "synthetic.csv"
        self.flow = workdir / "flow.tsv"

    def write_inputs(self, prog: Program) -> None:
        tc = prog.package
        spec = tc.spec_from_target(tc.MapTarget(*self.target, 16),
                                   length=self.sizes["synthetic"],
                                   seed=tc.RngSeed(self.synthetic_seed),
                                   name="synthetic")
        tc.write_trace(tc.generate(spec), self.synthetic)
        write_flow_log(self.flow, self.sizes["flow"], self.seed)

    def run_pass(self, prog: Program, p: Pass) -> None:
        report_a = self.dir / "synthetic.report.json"
        report_b = self.dir / "flow.report.json"
        prog.complexity.clear_size_cache()
        with p.op("analyze.synthetic", self.sizes["synthetic"]) as op:
            out = _run(op, prog.cli.main,
                       ["analyze", self.synthetic, "--compressor", "lzma", "--trials", 3,
                        "--seed", self.seed, "--slices", "--output", report_a])
            report = _check_report(op, prog, report_a, self.sizes["synthetic"], "lzma")
            _check_printed_row(op, out, "synthetic", report.point)
            _check_target(op, "synthetic", report.point, *self.target)
            src, dst = report.slices["source"], report.slices["destination"]
            # Both slices resample one column over the same IDs with the same
            # seeds: identical inputs must give identical sizes.
            op.expect(src.c_uniform_trials == dst.c_uniform_trials,
                      "slices' uniform counterparts compress to different sizes")
            op.expect((report.point.uniform_mode, src.uniform_mode) == ("pair", "single"),
                      "unexpected uniform modes on the synthetic trace")
        prog.complexity.clear_size_cache()
        with p.op("analyze.flow", self.sizes["flow"]) as op:
            out = _run(op, prog.cli.main,
                       ["analyze", self.flow, "--compressor", "deflate", "--delimiter", "\t",
                        "--source-col", 1, "--dest-col", 3, "--skip-rows", 1,
                        "--trials", 3, "--seed", self.seed, "--output", report_b])
            report = _check_report(op, prog, report_b, self.sizes["flow"], "deflate")
            _check_printed_row(op, out, "flow", report.point)
            op.expect(report.point.uniform_mode == "columnwise",
                      "flow log did not use the columnwise resampler")


_FIT_POINT = re.compile(r"^(original|regenerated):\s+T=(\S+)\s+NT=(\S+)$", re.M)
_FIT_DIST = re.compile(r"^L-infinity distance: (\S+)$", re.M)
_FIT_P = re.compile(r"^fitted repeat probability: (\S+)$", re.M)


class ReferenceScripts:
    name = "reference-scripts"
    scripts = ("run_reference_points", "fit_roundtrip")
    fit_target = (0.4, 0.4)

    def __init__(self, workdir: Path, seed: int, sizes: dict) -> None:
        self.dir, self.seed, self.length = workdir, seed, sizes["length"]

    def write_inputs(self, prog: Program) -> None:
        """The scripts generate their own traces; set-up only imports them."""

    def run_pass(self, prog: Program, p: Pass) -> None:
        tc = prog.package
        ref_dir, fit_dir = self.dir / "reference", self.dir / "fit"
        common = ["--length", self.length, "--compressor", "lzma", "--seed", self.seed]
        prog.complexity.clear_size_cache()
        with p.op("run_reference_points", 4 * self.length) as op:
            _run(op, prog.scripts["run_reference_points"].main, ["--outdir", ref_dir, *common])
            uniform_sizes = {}
            for name, (x, y) in tc.REFERENCE_TARGETS.items():
                report = _check_report(op, prog, ref_dir / f"{name}.report.json",
                                       self.length, "lzma")
                _check_target(op, name, report.point, x, y)
                # Uniform counterparts depend only on length, ID set, mode
                # and seed, so presets that share them must share sizes.
                key = (report.n_ids, report.point.uniform_mode)
                sizes = uniform_sizes.setdefault(key, report.point.c_uniform_trials)
                op.expect(sizes == report.point.c_uniform_trials,
                          f"{name}: uniform sizes differ from an identical counterpart")
            op.expect((ref_dir / "map.svg").stat().st_size > 0, "map.svg is empty")
        with p.op("fit_roundtrip", 2 * self.length) as op:
            out = _run(op, prog.scripts["fit_roundtrip"].main, ["--outdir", fit_dir, *common])
            points = {m[1]: (float(m[2]), float(m[3])) for m in _FIT_POINT.finditer(out)}
            dist = float(_FIT_DIST.search(out)[1])
            fitted = tc.spec_from_json((fit_dir / "fitted.spec.json").read_text())
            op.measured += [repr(fitted.repeat_p), sorted(points.items())]
            op.expect(f"{fitted.repeat_p:.4f}" == _FIT_P.search(out)[1],
                      "printed repeat probability differs from the written spec")
            original, regen = points["original"], points["regenerated"]
            op.expect(abs(dist - max(abs(a - b) for a, b in zip(original, regen))) <= 2e-4,
                      "printed distance does not match the printed points")
            fit_err = max(abs(a - b) for a, b in zip(original, self.fit_target))
            for label, err in (("fit original from its target", fit_err),
                               ("fit regenerated from the original", dist)):
                op.point_errs.append(err)
                op.expect(err <= POINT_TOLERANCE, f"{label}: {err:.4f}")

_NORMALIZED = re.compile(r"normalized: (\S+)$", re.M)


def _file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SynthInspect:
    name = "synth-inspect"

    def __init__(self, workdir: Path, seed: int, sizes: dict) -> None:
        self.dir, self.seed, self.length = workdir, seed, sizes["length"]

    def write_inputs(self, prog: Program) -> None:
        """Inputs are the targets themselves; set-up only imports the program."""

    def run_pass(self, prog: Program, p: Pass) -> None:
        main = prog.cli.main
        prog.complexity.clear_size_cache()
        for i, (x, y, n) in enumerate(SYNTH_TARGETS):
            trace, replay = self.dir / f"t{i}.csv", self.dir / f"t{i}.replay.csv"
            spec = self.dir / f"t{i}.spec.json"
            with p.op("generate.target", self.length) as op:
                _run(op, main, ["generate", "--target", x, y, "--n", n, "--length",
                                self.length, "--seed", self.seed, "--output", trace,
                                "--spec-output", spec])
            with p.op("generate.spec", self.length) as op:
                _run(op, main, ["generate", "--spec", spec, "--output", replay,
                                "--spec-output", self.dir / f"t{i}.replay.spec.json"])
                op.expect(_file_hash(replay) == _file_hash(trace),
                          "replay is not byte-identical")
            with p.op("matrix", self.length) as op:
                out = _run(op, main, ["matrix", trace, "--output", self.dir / f"t{i}.matrix.csv",
                                      "--svg", self.dir / f"t{i}.svg", "--log-scale"])
                normalized = float(_NORMALIZED.search(out)[1])
                op.measured.append(repr(normalized))
                err = abs(normalized - y)
                op.point_errs.append(err)
                op.expect(err <= POINT_TOLERANCE, f"target {(x, y, n)}: normalized "
                                                  f"entropy {normalized} is {err:.4f} from y")
                op.expect((self.dir / f"t{i}.svg").stat().st_size > 0, "heatmap is empty")


WORKLOADS = {w.name: w for w in (AnalyzeCli, ReferenceScripts, SynthInspect)}
