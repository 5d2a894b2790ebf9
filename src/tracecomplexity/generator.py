"""Markov repeat-model traffic generator.

One knob per complexity axis: a traffic matrix M supplies the pair-frequency
(non-temporal) structure and a repeat probability p supplies the burst
(temporal) structure. Each step repeats the previous pair with probability p,
otherwise draws a fresh pair from M; the fresh draw is unconditioned, which
makes M the chain's exact stationary distribution. Both knobs are solved by
bisection from a target point on the complexity map, p on the chain's exact
entropy rate, and fittable from a measured trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .complexity import CompressorHandle, _measure_temporal, short_trace_warning
from .entropy import (TrafficMatrix, empirical_matrix, joint_entropy,
                      solve_chain_repeat_probability, solve_zipf_exponent, zipf_matrix)
from .errors import ConfigError, DataError, SolverError
from .trace import Trace
from .transforms import RngSeed


@dataclass(frozen=True)
class GeneratorSpec:
    """Everything needed to reproduce one synthetic trace."""

    matrix: TrafficMatrix
    repeat_p: float
    length: int
    seed: RngSeed = RngSeed(0)
    name: str = "generated"
    #: The pmf exponent solved for a Zipf matrix, None for other matrices.
    #: It describes how the matrix was found, so it is not serialized and
    #: not compared.
    zipf_exponent: float | None = field(default=None, compare=False)
    #: Why a fitted spec may be off, one line each; like ``zipf_exponent``,
    #: not serialized and not compared.
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if not 0.0 <= self.repeat_p <= 1.0:
            raise ConfigError(f"repeat probability {self.repeat_p} outside [0, 1]")
        if self.length < 1:
            raise ConfigError("length must be at least 1")


@dataclass(frozen=True)
class MapTarget:
    """A point (x, y) on the complexity map to synthesize toward."""

    x: float  # temporal target
    y: float  # non-temporal target
    n_ids: int = 16

    def __post_init__(self):
        if not 0.0 <= self.x <= 1.0:
            raise ConfigError(f"temporal target {self.x} outside [0, 1]")
        if not 0.0 <= self.y <= 1.0:
            raise ConfigError(f"non-temporal target {self.y} outside [0, 1]")
        if self.n_ids < 2:
            raise ConfigError("need at least two IDs")


def generate(spec: GeneratorSpec) -> Trace:
    """Run the repeat chain: deterministic for a given spec (seed included).

    The draws, in this order, are what make a spec replay byte-identically:
    one ``random(length)`` call gives every position a uniform u, then, when
    length > 1 and p > 0, one ``random(length - 1)`` call gives positions
    1.. a uniform r. Position 0 is fresh, and so is any position whose r is
    at least p; every other position repeats the previous pair. A fresh
    position takes the matrix cell (in the matrix's order) at which the
    cumulative probability first exceeds its u, the last cell if none does.
    """
    rng = spec.seed.generator()
    t = spec.length
    m = spec.matrix
    u = rng.random(t)
    fresh = np.ones(t, dtype=bool)
    if t > 1 and spec.repeat_p > 0.0:
        fresh[1:] = rng.random(t - 1) >= spec.repeat_p
    # Only fresh positions look up a cell; each run of repeats then takes
    # the cell of the fresh position that starts it. Cell and run numbers
    # are int32 where they fit, and each full-length array is freed as soon
    # as the one that replaces it exists.
    index = np.int32 if max(t, m.support_size) < 2 ** 31 else np.int64
    u = u[fresh]
    cell = np.searchsorted(np.cumsum(m.probs), u, side="right")
    del u
    np.clip(cell, 0, m.support_size - 1, out=cell)
    cell = cell.astype(index, copy=False)
    run = np.cumsum(fresh, dtype=index)
    del fresh
    run -= 1
    cell = cell[run]
    del run
    return Trace.from_arrays(m.sources[cell], m.dests[cell], name=spec.name, copy=False)


def spec_from_target(target: MapTarget,
                     length: int = 1_000_000,
                     seed: RngSeed = RngSeed(0),
                     name: str | None = None,
                     allow_degenerate: bool = False) -> GeneratorSpec:
    """Solve the matrix and repeat probability for a target map point.

    The Zipf exponent is solved so the matrix's normalized entropy equals y,
    then the repeat probability is solved so the chain's exact temporal ratio
    (its entropy rate over the matrix's entropy) equals x. y=0 has no Zipf
    solution; pass allow_degenerate=True to accept a single-pair matrix
    (whose temporal ratio is undefined, so p is pinned to 1).
    """
    if target.y == 0.0:
        if not allow_degenerate:
            raise SolverError(
                "non-temporal target 0 requires a degenerate single-pair matrix; "
                "pass allow_degenerate=True to accept one (repeat probability "
                "is then pinned to 1)")
        matrix = TrafficMatrix.from_cells({(0, 0): 1.0}, n=target.n_ids)
        return GeneratorSpec(matrix=matrix, repeat_p=1.0, length=length, seed=seed,
                             name=name or "degenerate")
    exponent = solve_zipf_exponent(target.n_ids, target.y)
    matrix = zipf_matrix(target.n_ids, exponent)
    repeat_p = solve_chain_repeat_probability(matrix, target.x)
    return GeneratorSpec(matrix=matrix, repeat_p=repeat_p, length=length, seed=seed,
                         name=name or f"target({target.x:g},{target.y:g})",
                         zipf_exponent=exponent)


def spec_from_trace(trace: Trace,
                    trials: int = 3,
                    compressor: CompressorHandle | None = None,
                    seed: RngSeed = RngSeed(0)) -> GeneratorSpec:
    """Fit a spec to a measured trace.

    The matrix is the trace's own pair-frequency matrix; the repeat
    probability is solved so the chain's exact temporal ratio equals the
    measured one, so a regenerated trace lands near the original on the
    complexity map. Length defaults to the original's. The spec's
    ``warnings`` say why it may be off: a single repeated pair, a trace
    shorter than ``MIN_RECOMMENDED_LENGTH`` (the warning ``trace_complexity``
    gives it), or a measured temporal ratio above 1.
    """
    matrix = empirical_matrix(trace)
    h = joint_entropy(matrix)
    warnings: list[str] = []
    if h == 0.0:
        warnings.append("trace has a single repeated pair; repeat probability pinned to 1")
        repeat_p = 1.0
    else:
        short = short_trace_warning(len(trace))
        if short:
            warnings.append(short)
        measured = _measure_temporal(trace, compressor, trials=trials, seed=seed)
        if measured > 1.0:
            warnings.append(
                f"measured temporal ratio {measured:.4f} exceeds 1 (compressor "
                f"noise); solving with 1.0")
            measured = 1.0
        repeat_p = solve_chain_repeat_probability(matrix, measured)
    return GeneratorSpec(matrix=matrix, repeat_p=repeat_p, length=len(trace),
                         seed=seed, name=f"fit:{trace.name}", warnings=tuple(warnings))


#: Map coordinates of the four synthetic reference traces.
REFERENCE_TARGETS = {
    "uniform": (1.0, 1.0),
    "skewed": (1.0, 0.4),
    "bursty": (0.4, 1.0),
    "skewed_bursty": (0.4, 0.4),
}


def reference_presets(n_ids: int = 16,
                      length: int = 1_000_000,
                      seed: RngSeed = RngSeed(0)) -> dict[str, GeneratorSpec]:
    """The four corner reference specs, keyed by name.

    Each preset gets its own seed stream so the four traces are independent.
    """
    presets = {}
    for i, (name, (x, y)) in enumerate(REFERENCE_TARGETS.items()):
        spec = spec_from_target(MapTarget(x=x, y=y, n_ids=n_ids), length=length,
                                seed=seed.derive(100 + i), name=name)
        presets[name] = spec
    return presets


#: Cells ``_spec_chunks`` spells per chunk.
_SPEC_CELLS = 1 << 12


def _spec_chunks(spec: GeneratorSpec) -> Iterator[str]:
    """The text of ``spec_to_json`` in pieces: the head, then the cells a
    block at a time, then the tail.

    The text is ``json.dumps(doc, indent=2, sort_keys=True)`` byte for byte.
    With an indent, json runs its pure-Python encoder, so only the small head
    goes through it and the cells, most of the document, are written here.
    """
    m = spec.matrix
    doc = {
        "schema": "trace-generator-spec/1",
        "name": spec.name,
        "repeat_p": spec.repeat_p,
        "length": spec.length,
        "seed": {"seed": spec.seed.seed, "stream": list(spec.seed.stream)},
        "matrix": {"n": m.n, "cells": []},
    }
    # A JSON string escapes its quotes, so only the key itself can match.
    head, tail = json.dumps(doc, indent=2, sort_keys=True).split('"cells": []', 1)
    yield head + '"cells": [\n'
    sources = np.asarray(m.sources, dtype=np.int64)
    dests = np.asarray(m.dests, dtype=np.int64)
    probs = np.asarray(m.probs, dtype=np.float64)
    for start in range(0, m.support_size, _SPEC_CELLS):
        block = slice(start, start + _SPEC_CELLS)
        # json's C encoder (no indent) spells each float as json does: its
        # repr, or NaN, which the matrix's checks let through.
        spelled = json.dumps(probs[block].tolist())[1:-1].split(", ")
        cells = ",\n".join(
            f"      [\n        {s},\n        {d},\n        {p}\n      ]"
            for s, d, p in zip(sources[block].tolist(), dests[block].tolist(), spelled))
        yield f",\n{cells}" if start else cells
    yield f"\n    ]{tail}"


def spec_to_json(spec: GeneratorSpec) -> str:
    """Serialize a spec, matrix cells inline; spec_from_json reads it back."""
    return "".join(_spec_chunks(spec))


def write_spec(spec: GeneratorSpec, path) -> None:
    """Write ``spec_to_json(spec)`` and a newline to ``path`` as UTF-8,
    a block of cells at a time, so the text is never held whole."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_spec_chunks(spec))
        fh.write("\n")


def _check_cells(cells: dict[tuple[int, int], float], n: int) -> None:
    """Reject a cell that would replay wrongly: TrafficMatrix lets a NaN
    probability and an ID outside 0..n-1 through, and generate would emit
    them or fail on them."""
    for (s, d), p in cells.items():
        if not math.isfinite(p):
            raise DataError(f"generator spec cell [{s}, {d}, {p}]: probability is not finite")
        if not (0 <= s < n and 0 <= d < n):
            raise DataError(f"generator spec cell [{s}, {d}, {p}]: ID outside 0..{n - 1}")


def _cells_matrix(sources: list[int], dests: list[int], probs: list[float],
                  n: int) -> TrafficMatrix:
    """``TrafficMatrix.from_cells({(s, d): p, ...}, n)`` for a spec's cells,
    built from arrays: a later cell of the same pair wins, and the cells are
    sorted by pair. The cells are checked first, as ``_check_cells`` checks
    that dict; only a spec that fails the check builds it.
    """
    p = np.array(probs, dtype=np.float64)
    in_range = all(0 <= min(ids, default=0) and max(ids, default=0) < n
                   for ids in (sources, dests))
    if not (in_range and np.isfinite(p).all()):
        _check_cells(dict(zip(zip(sources, dests), probs)), n)
    s = np.array(sources, dtype=np.int64)
    d = np.array(dests, dtype=np.int64)
    order = np.lexsort((d, s))  # stable, so a pair's cells keep their order
    s, d, p = s[order], d[order], p[order]
    last = np.ones(s.size, dtype=bool)  # the last cell of each pair
    np.logical_or(s[1:] != s[:-1], d[1:] != d[:-1], out=last[:-1])
    return TrafficMatrix(s[last], d[last], p[last], n)


def spec_from_json(text: str) -> GeneratorSpec:
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise DataError(f"malformed generator spec: {e}") from e
    if not isinstance(doc, dict) or doc.get("schema") != "trace-generator-spec/1":
        found = doc.get("schema") if isinstance(doc, dict) else None
        raise DataError(f"not a generator spec document (schema {found!r})")
    try:
        mdoc = doc["matrix"]
        sources, dests, probs = [], [], []
        for s, d, p in mdoc["cells"]:
            sources.append(int(s))
            dests.append(int(d))
            probs.append(float(p))
        matrix = _cells_matrix(sources, dests, probs, int(mdoc["n"]))
        seed_doc = doc.get("seed", {"seed": 0, "stream": []})
        seed = RngSeed(int(seed_doc["seed"]),
                       tuple(int(v) for v in seed_doc.get("stream", ())))
        return GeneratorSpec(matrix=matrix, repeat_p=float(doc["repeat_p"]),
                             length=int(doc["length"]), seed=seed,
                             name=doc.get("name", "generated"))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise DataError(f"malformed generator spec: {e!r}") from e
