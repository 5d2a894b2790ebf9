"""The measurement, pinned to the values recorded in ``pinned_measurement.json``.

For each case at 20k entries the file holds the sha256 of the original
buffer and of the trial-0 shuffled and uniform buffers, every trial's
compressed size, T and NT as ``repr``, and the sha256 of what
``write_trace`` and ``write_spec`` write. For a few traces it also holds the
sha256 of the dense CSV and the log-scale SVG heatmap that ``matrix`` writes. A change that moves any of them
fails here, so a change meant to keep the measurement shows that it did.
A change meant to move it re-records the file, and the file's diff shows
which points moved and by how much:

    PYTHONPATH=src python tests/test_pinned_measurement.py

The compressed sizes depend on the zlib and liblzma builds, and the drawn
traces on numpy's generators, so a mismatch names the versions the file was
recorded with and the ones running.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest

from conftest import flow_like_trace, tiny, two_level_burst_trace
from tracecomplexity import (CompressorHandle, RngSeed, complexity_of_slices, encode_canonical,
                             generate, reference_presets, resample_uniform, slice_column,
                             spec_from_trace, temporal_shuffle, trace_complexity, write_spec,
                             write_trace)
from tracecomplexity.cli import main

PINNED = Path(__file__).with_name("pinned_measurement.json")
LENGTH = 20_000
TRIALS = 3
SEED = RngSeed(0)
LZMA = CompressorHandle("lzma", 6)
DEFLATE = CompressorHandle("deflate", 9)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(write, obj) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        write(obj, path)
        return _sha(path.read_bytes())


def _record(trace, point, spec=None) -> dict:
    """What the file pins of one measured trace."""
    record = {
        "sha256": {
            "original": _sha(encode_canonical(trace)),
            "shuffled_0": _sha(encode_canonical(temporal_shuffle(trace, SEED.derive(0, 0)))),
            "uniform_0": _sha(encode_canonical(
                resample_uniform(trace, SEED.derive(1, 0), point.uniform_mode))),
            "write_trace": _file_sha(write_trace, trace),
        },
        "uniform_mode": point.uniform_mode,
        "c_original": point.c_original,
        "c_shuffled_trials": list(point.c_shuffled_trials),
        "c_uniform_trials": list(point.c_uniform_trials),
        "temporal": repr(point.temporal),
        "non_temporal": repr(point.non_temporal),
    }
    if spec is not None:
        record["sha256"]["write_spec"] = _file_sha(write_spec, spec)
    return record


def _preset(name: str, n: int, compressor=LZMA) -> dict:
    spec = reference_presets(n_ids=n, length=LENGTH, seed=SEED)[name]
    trace = generate(spec)
    return _record(trace, trace_complexity(trace, compressor, trials=TRIALS, seed=SEED), spec)


def _flow_like() -> dict:
    trace = flow_like_trace(LENGTH, seed=1)
    return _record(trace, trace_complexity(trace, LZMA, trials=TRIALS, seed=SEED))


def _slices() -> dict:
    trace = generate(reference_presets(n_ids=16, length=LENGTH, seed=SEED)["skewed_bursty"])
    points = complexity_of_slices(trace, LZMA, trials=TRIALS, seed=SEED)
    return {which: _record(slice_column(trace, which), point)
            for which, point in zip(("source", "destination"), points)}


def _fitted() -> dict:
    spec = spec_from_trace(two_level_burst_trace(LENGTH, seed=1), LZMA, trials=TRIALS, seed=SEED)
    regenerated = generate(spec)
    return {"repeat_p": repr(spec.repeat_p),
            "regenerated": _record(regenerated, trace_complexity(
                regenerated, LZMA, trials=TRIALS, seed=SEED), spec)}


CASES = {
    **{f"{name}-n{n}": (lambda name=name, n=n: _preset(name, n))
       for n in (16, 256) for name in ("uniform", "skewed", "bursty", "skewed_bursty")},
    "flow-like-columnwise": _flow_like,
    "skewed_bursty-n16-slices": _slices,
    "two-level-burst-fitted": _fitted,
    "skewed_bursty-n16-deflate": lambda: _preset("skewed_bursty", 16, DEFLATE),
}


def _matrix_output(trace) -> dict:
    """The sha256 of what ``matrix --svg --log-scale`` writes for ``trace``."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in ("trace.csv", "dense.csv", "heatmap.svg")}
        write_trace(trace, paths["trace.csv"])
        assert main(["matrix", str(paths["trace.csv"]), "--output", str(paths["dense.csv"]),
                     "--svg", str(paths["heatmap.svg"]), "--log-scale"]) == 0
        return {"dense_csv": _sha(paths["dense.csv"].read_bytes()),
                "svg_log_scale": _sha(paths["heatmap.svg"].read_bytes())}


def _preset_trace(name: str, n: int):
    return generate(reference_presets(n_ids=n, length=LENGTH, seed=SEED)[name])


MATRIX_CASES = {
    "skewed-n16": lambda: _preset_trace("skewed", 16),
    "skewed_bursty-n256": lambda: _preset_trace("skewed_bursty", 256),
    "flow-like-240-ids": lambda: flow_like_trace(LENGTH, seed=1, clients=200),
    "single-id": lambda: tiny([(0, 0)] * 3),
}


def _versions() -> dict:
    return {"zlib": zlib.ZLIB_RUNTIME_VERSION, "numpy": np.__version__}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_measurement_is_pinned(pinned, case):
    recorded, running = pinned["versions"], _versions()
    assert CASES[case]() == pinned["cases"].get(case), (
        f"{case} differs from {PINNED.name}, recorded with zlib {recorded['zlib']} and "
        f"numpy {recorded['numpy']}; running zlib {running['zlib']} and numpy "
        f"{running['numpy']}")


@pytest.mark.parametrize("case", sorted(MATRIX_CASES))
def test_matrix_output_is_pinned(pinned, case):
    assert _matrix_output(MATRIX_CASES[case]()) == pinned["matrix"].get(case), (
        f"matrix output of {case} differs from {PINNED.name}")


def test_every_pinned_case_is_measured(pinned):
    assert sorted(pinned["cases"]) == sorted(CASES)
    assert sorted(pinned["matrix"]) == sorted(MATRIX_CASES)


if __name__ == "__main__":
    doc = {"versions": _versions(), "cases": {name: CASES[name]() for name in sorted(CASES)},
           "matrix": {name: _matrix_output(MATRIX_CASES[name]()) for name in sorted(MATRIX_CASES)}}
    PINNED.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(CASES)} cases in {PINNED}", file=sys.stderr)
