"""Compression-ratio complexity of a trace.

Three ratios locate a trace on the complexity map, all built from compressed
sizes of the canonical pair code (``trace.encode_canonical``):

* temporal  T = C(trace) / mean C(shuffled trace)
* non-temporal NT = mean C(shuffled) / mean C(uniform counterpart)
* overall  psi = T * NT = C(trace) / mean C(uniform counterpart)

Shuffling destroys ordering only, uniform resampling destroys everything, so
T isolates ordering structure (bursts) and NT isolates pair-frequency skew.
Randomized counterparts are averaged over a configurable number of seeded
trials. Ratios land in [0, 1] up to compressor noise; values above 1 are
reported raw with a warning rather than clamped.
"""

from __future__ import annotations

import hashlib
import lzma
import os
import threading
import zlib
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .trace import Trace, encode_canonical, slice_column
from .transforms import RngSeed, default_uniform_mode, resample_uniform, temporal_shuffle

#: Traces shorter than this get a warning: constant compression overhead
#: is no longer negligible against the payload.
MIN_RECOMMENDED_LENGTH = 10_000


def short_trace_warning(length: int) -> str | None:
    """The warning for measuring a trace of ``length`` entries, or None."""
    if length >= MIN_RECOMMENDED_LENGTH:
        return None
    return (f"trace length {length} is below the recommended minimum "
            f"{MIN_RECOMMENDED_LENGTH}; compression overhead may dominate the ratios")


@dataclass(frozen=True)
class CompressorHandle:
    """A compression backend by name, and its level.

    The same handle applied to the same bytes always yields the same size.
    ``lzma`` (raw LZMA2 stream) is the measuring instrument; ``deflate`` (raw
    DEFLATE) is a second instrument, whose points are not on LZMA's scale
    and which is not reliably faster. Sizes exclude any container or
    checksum metadata. An unset level is the backend's default in
    ``BACKENDS``, so ``CompressorHandle("lzma")`` equals
    ``CompressorHandle("lzma", 6)``. A handle checks its settings when
    built, so a setting the backend would reject raises ConfigError before
    any data is compressed.
    """

    name: str = "lzma"
    level: int | None = None

    def __post_init__(self):
        if self.name not in BACKENDS:
            raise ConfigError(f"unknown compressor {self.name!r}; "
                              f"available: {sorted(BACKENDS)}")
        if self.level is None:
            object.__setattr__(self, "level", BACKENDS[self.name][1])
        if type(self.level) is not int or not 0 <= self.level <= 9:
            raise ConfigError(f"{self.name} level {self.level!r} is not an integer in 0-9")

    def describe(self) -> dict:
        return {"name": self.name, "level": self.level}


#: The smallest dictionary of presets 6-9: a buffer no longer than this fits
#: the dictionary of whichever of them it is compressed at.
_PRESET_MIN_DICT = 8 << 20


def _lzma_size(data: bytes, handle: CompressorHandle) -> int:
    """liblzma sizes its match-finder tables from the dictionary size, not
    from the input, so at presets 6-9 a buffer of up to 8 MiB gets the smallest
    power-of-two dictionary (at least 4 KiB) that holds it, instead of
    allocating and zeroing about 17 MB per call. The sizes matched the
    preset dictionary's in every buffer compared (pair codes of generated
    traces and flow logs); that is evidence, not a proof. At presets 4 and
    5 a few buffers differed, so presets 0-5 keep their dictionary.
    """
    filt: dict = {"id": lzma.FILTER_LZMA2, "preset": handle.level}
    if handle.level >= 6 and len(data) <= _PRESET_MIN_DICT:
        filt["dict_size"] = max(4096, 1 << (len(data) - 1).bit_length())
    return len(lzma.compress(data, format=lzma.FORMAT_RAW, filters=[filt]))


def _deflate_size(data: bytes, handle: CompressorHandle) -> int:
    co = zlib.compressobj(level=handle.level, wbits=-zlib.MAX_WBITS)
    return len(co.compress(data) + co.flush())


#: Each backend's name: its size function and its default level.
BACKENDS: dict[str, tuple[Callable[[bytes, CompressorHandle], int], int]] = {
    "lzma": (_lzma_size, 6),
    "deflate": (_deflate_size, 9),
}


# Compressing multi-megabyte buffers dominates runtime, and uniform
# counterparts recur byte-identically across analyses that share a seed, so
# sizes are memoized by content hash.
_cache_lock = threading.Lock()
_size_cache: OrderedDict[tuple, int] = OrderedDict()
_SIZE_CACHE_MAX = 512


def clear_size_cache() -> None:
    with _cache_lock:
        _size_cache.clear()


def compressed_size(data: bytes, compressor: CompressorHandle) -> int:
    """Size in bytes of the compressed stream (no container metadata)."""
    if not data:
        raise ValueError("refusing to compress empty input")
    key = (hashlib.sha256(data).digest(), compressor)
    with _cache_lock:
        if key in _size_cache:
            _size_cache.move_to_end(key)
            return _size_cache[key]
    size = BACKENDS[compressor.name][0](data, compressor)
    with _cache_lock:
        _size_cache[key] = size
        while len(_size_cache) > _SIZE_CACHE_MAX:
            _size_cache.popitem(last=False)
    return size


def _whole(value, what: str) -> int:
    """``int(value)`` of the JSON value ``what``, refusing a bool, a float
    with a fraction and anything that is not a number."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise DataError(f"{what} {value!r} is not an integer")
    return int(value)


def _sizes(values, what: str) -> tuple[int, ...]:
    """The sizes of the JSON list ``what``: at least one, each of 1 to 2**63 - 1
    bytes, so that the ratios of a point are finite floats."""
    sizes = tuple(_whole(v, what) for v in values)
    if not sizes or not 1 <= min(sizes) <= max(sizes) < 1 << 63:
        raise DataError(f"{what} {values!r} is not a list of sizes of 1 to 2**63 - 1 bytes")
    return sizes


def _temporal_ratio(c_original: int, c_shuffled: Sequence[int]) -> float:
    return c_original / float(np.mean(c_shuffled))


@dataclass(frozen=True)
class ComplexityPoint:
    """One trace's coordinates on the complexity map, as the compressed sizes
    they come from: T, NT and overall are properties of those sizes."""

    c_original: int
    c_shuffled_trials: tuple[int, ...]
    c_uniform_trials: tuple[int, ...]
    uniform_mode: str = "pair"
    warnings: tuple[str, ...] = ()

    @property
    def c_shuffled_mean(self) -> float:
        return float(np.mean(self.c_shuffled_trials))

    @property
    def c_uniform_mean(self) -> float:
        return float(np.mean(self.c_uniform_trials))

    @property
    def temporal(self) -> float:
        return _temporal_ratio(self.c_original, self.c_shuffled_trials)

    @property
    def non_temporal(self) -> float:
        return self.c_shuffled_mean / self.c_uniform_mean

    @property
    def overall(self) -> float:
        return self.temporal * self.non_temporal

    def as_dict(self) -> dict:
        return {
            "temporal": self.temporal,
            "non_temporal": self.non_temporal,
            "overall": self.overall,
            "c_original": self.c_original,
            "c_shuffled_mean": self.c_shuffled_mean,
            "c_uniform_mean": self.c_uniform_mean,
            "c_shuffled_trials": list(self.c_shuffled_trials),
            "c_uniform_trials": list(self.c_uniform_trials),
            "uniform_mode": self.uniform_mode,
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ComplexityPoint":
        """The point of an ``as_dict`` block, read from its sizes: the
        ratios and means written beside them are recomputed, not read."""
        return cls(
            c_original=_sizes([d["c_original"]], "point c_original")[0],
            c_shuffled_trials=_sizes(d["c_shuffled_trials"], "point c_shuffled_trials"),
            c_uniform_trials=_sizes(d["c_uniform_trials"], "point c_uniform_trials"),
            uniform_mode=d["uniform_mode"],
            warnings=tuple(d["warnings"]),
        )


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_jobs(jobs: list[Callable[[], int]]) -> list[int]:
    """Each job's compressed size, in job order, from a pool of one thread
    per usable CPU and at most one per job. A job builds its buffer when it
    runs, so a thread holds one buffer and one encoder at a time.

    Once a job raises, jobs not yet started are skipped and the first error
    in job order reaches the caller. The pool is joined before this returns.
    """
    # Imported here, so that commands that compress nothing do not pay for it.
    from concurrent.futures import ThreadPoolExecutor

    failed = threading.Event()

    def run(job: Callable[[], int]) -> int | None:
        if failed.is_set():
            return None
        try:
            return job()
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=min(len(jobs), _usable_cpus())) as pool:
        return list(pool.map(run, jobs))


def _compressed_sizes(trace: Trace, compressor: CompressorHandle, trials: int,
                      seed: RngSeed, uniform_mode: str | None = None
                      ) -> tuple[int, list[int], list[int]]:
    """(original, shuffled per trial, uniform per trial) compressed sizes.

    The uniform counterparts are measured only given a ``uniform_mode``.
    The original's job goes first because it is often the longest: LZMA-6
    took 1.6 times as long on a bursty 16-ID original (repeat probability
    0.7) as on its shuffled copy.
    """
    if trials < 1:
        raise ValueError("need at least one randomization trial")
    jobs = [lambda: compressed_size(encode_canonical(trace), compressor)]
    jobs += [lambda k=k: compressed_size(
        encode_canonical(temporal_shuffle(trace, seed.derive(0, k))), compressor)
        for k in range(trials)]
    if uniform_mode is not None:
        jobs += [lambda k=k: compressed_size(
            encode_canonical(resample_uniform(trace, seed.derive(1, k), uniform_mode)),
            compressor) for k in range(trials)]
    c_original, *sizes = _run_jobs(jobs)
    return c_original, sizes[:trials], sizes[trials:]


def _measure_temporal(trace: Trace, compressor: CompressorHandle,
                      trials: int = 3, seed: RngSeed = RngSeed(0)) -> float:
    """The temporal ratio ``trace_complexity`` measures, from its original
    and shuffled compressions alone: the uniform ones serve only the
    non-temporal ratio."""
    c_original, c_shuffled, _ = _compressed_sizes(trace, compressor, trials, seed)
    return _temporal_ratio(c_original, c_shuffled)


def trace_complexity(trace: Trace,
                     compressor: CompressorHandle,
                     trials: int = 3,
                     seed: RngSeed = RngSeed(0),
                     uniform_mode: str | None = None) -> ComplexityPoint:
    """Measure a trace's temporal / non-temporal / overall complexity.

    Each trial k shuffles with stream (0, k) and resamples with stream (1, k)
    derived from ``seed``, so results are reproducible and trials are
    independent. ``uniform_mode`` defaults to "pair" for traces whose columns
    share their ID set and "columnwise" for asymmetric ones; single-column
    traces (from slice_column) must pass "single" (see resample_uniform).
    """
    mode = default_uniform_mode(trace) if uniform_mode is None else uniform_mode

    short = short_trace_warning(len(trace))
    warnings: list[str] = [short] if short else []

    c_original, c_shuffled, c_uniform = _compressed_sizes(trace, compressor, trials, seed, mode)
    point = ComplexityPoint(c_original, tuple(c_shuffled), tuple(c_uniform), mode)
    for label, value in (("temporal", point.temporal), ("non-temporal", point.non_temporal),
                         ("overall", point.overall)):
        if value > 1.0:
            warnings.append(
                f"{label} ratio {value:.4f} exceeds 1 (compressor noise); "
                f"raw value reported")
    return replace(point, warnings=tuple(warnings))


def complexity_of_slices(trace: Trace,
                         compressor: CompressorHandle,
                         trials: int = 3,
                         seed: RngSeed = RngSeed(0)) -> tuple[ComplexityPoint, ComplexityPoint]:
    """Per-column complexity: (source point, destination point).

    Each column is measured as a single-column trace, so its ratios normalize
    against one column's worth of uniform randomness.
    """
    src_point = trace_complexity(slice_column(trace, "source"), compressor,
                                 trials=trials, seed=seed, uniform_mode="single")
    dst_point = trace_complexity(slice_column(trace, "destination"), compressor,
                                 trials=trials, seed=seed, uniform_mode="single")
    return src_point, dst_point
