"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once untraced and once traced. The test asserts that
each metric named in BENCHMARK.json is emitted with its unit and that every
check passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import TINY_SIZES, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_file_names_the_workloads_and_metrics():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)
    assert sorted(m["name"] for m in BENCHMARK["per_layer"]) == sorted(tracing.metric_names())
    assert sorted(m["name"] for m in BENCHMARK["end_to_end"]) == sorted(run.END_TO_END_UNITS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_emits_every_metric_and_passes_its_checks(workload, trace, capsys):
    result = run.run(workload, seed=3, seconds=0.0, trace=trace, root=ROOT,
                     sizes=TINY_SIZES)
    assert (result["correct"], result["failed"]) == (True, 0), capsys.readouterr().err
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "synth-inspect":
        assert result["metrics"]["complexity.compressed_size.original.calls"]["value"] == 0


def test_missing_layer_fails_loudly(monkeypatch):
    run._load_program(ROOT, ())
    monkeypatch.delattr(sys.modules["tracecomplexity.trace"], "load_trace")
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="load_trace"):
        tracer.install()
    tracer.uninstall()
