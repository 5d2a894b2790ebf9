"""Randomization transforms that strip selected structure out of a trace.

``temporal_shuffle`` permutes rows, destroying ordering while conserving the
pair histogram exactly. ``resample_uniform`` replaces the whole trace with
same-length uniform noise over the observed ID sets, destroying both ordering
and pair-frequency structure. All transforms are deterministic functions of
(trace, seed), so randomized trials are reproducible and can run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import Trace


@dataclass(frozen=True)
class RngSeed:
    """A 64-bit seed plus a stream tag, e.g. the trial index.

    Identical (seed, stream) pairs reproduce identical transform output;
    distinct streams derived from one seed are statistically independent.
    """

    seed: int = 0
    stream: tuple[int, ...] = ()

    def __post_init__(self):
        # numpy's SeedSequence rejects these only when a generator is made
        if self.seed < 0 or any(tag < 0 for tag in self.stream):
            raise ValueError(f"seed {self.seed} and stream {self.stream} must be non-negative")

    def derive(self, *tags: int) -> "RngSeed":
        return RngSeed(self.seed, self.stream + tags)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream))


def temporal_shuffle(trace: Trace, seed: RngSeed) -> Trace:
    """Uniform random permutation of the rows; the pair multiset is untouched."""
    rng = seed.generator()
    perm = rng.permutation(len(trace))
    return trace.replaced(trace.sources[perm], trace.dests[perm])


UNIFORM_MODES = ("pair", "columnwise", "single")

# Column-set asymmetry above which the columnwise resampler is the default.
ASYMMETRY_THRESHOLD = 0.10


def default_uniform_mode(trace: Trace) -> str:
    """Pick "columnwise" for traces with materially asymmetric ID sets.

    Falls back to "pair" when either column holds a single ID: resampling a
    one-ID column from its own set reproduces the column verbatim, which
    would make the uniform counterpart carry no randomness to compare against.
    """
    space = trace.id_space
    if (space.symmetric_difference_ratio() > ASYMMETRY_THRESHOLD
            and space.source_ids.size > 1 and space.dest_ids.size > 1):
        return "columnwise"
    return "pair"


def resample_uniform(trace: Trace, seed: RngSeed, mode: str) -> Trace:
    """Same-length trace of uniform draws over the observed IDs.

    ``mode`` picks the ID sets: "pair" draws both columns from the ID union;
    "columnwise" draws each column from its own set, for traces whose
    columns sample visibly different populations (the union would overstate
    their randomness); "single" draws one column from the union and
    duplicates it, for slice_column output, so the counterpart stays in the
    duplicated-pair encoding and normalizes against one column's worth of
    randomness rather than two.
    """
    if mode not in UNIFORM_MODES:
        raise ValueError(f"unknown uniform mode {mode!r}, expected one of {UNIFORM_MODES}")
    space = trace.id_space
    if mode == "columnwise":
        src_ids, dst_ids = space.source_ids, space.dest_ids
    else:
        src_ids = dst_ids = space.union
    rng = seed.generator()
    t = len(trace)
    src = src_ids[rng.integers(0, src_ids.size, size=t)]
    if mode == "single":
        return trace.replaced(src, src.copy())
    dst = dst_ids[rng.integers(0, dst_ids.size, size=t)]
    return trace.replaced(src, dst)
