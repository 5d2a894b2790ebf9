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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .trace import Trace, encode_canonical, slice_column
from .transforms import RngSeed, default_uniform_mode, resample_uniform, temporal_shuffle

#: Traces shorter than this get a warning: constant compression overhead
#: is no longer negligible against the payload.
MIN_RECOMMENDED_LENGTH = 10_000

ENV_COMPRESSOR = "TRACE_COMPLEXITY_COMPRESSOR"


@dataclass(frozen=True)
class CompressorHandle:
    """A named compression backend with pinned settings.

    The same handle applied to the same bytes always yields the same size.
    ``lzma`` (raw LZMA2 stream) is the default; ``deflate`` (raw DEFLATE) is
    a faster, less thorough alternative. Sizes exclude any container or
    checksum metadata. Build handles with ``default_compressor``, which
    fills in and checks the settings.
    """

    name: str
    level: int
    dict_size: int | None = None  # lzma only; None keeps the preset default

    def describe(self) -> dict:
        return {"name": self.name, "level": self.level, "dict_size": self.dict_size}


def _lzma_size(data: bytes, handle: CompressorHandle) -> int:
    filt: dict = {"id": lzma.FILTER_LZMA2, "preset": handle.level}
    if handle.dict_size is not None:
        filt["dict_size"] = handle.dict_size
    return len(lzma.compress(data, format=lzma.FORMAT_RAW, filters=[filt]))


def _deflate_size(data: bytes, handle: CompressorHandle) -> int:
    co = zlib.compressobj(level=handle.level, wbits=-zlib.MAX_WBITS)
    return len(co.compress(data) + co.flush())


_BACKENDS = {"lzma": _lzma_size, "deflate": _deflate_size}
DEFAULT_LEVELS = {"lzma": 6, "deflate": 9}


def default_compressor(name: str | None = None, level: int | None = None,
                       dict_size: int | None = None) -> CompressorHandle:
    """Resolve and check compressor settings.

    The backend is ``name``, else $TRACE_COMPLEXITY_COMPRESSOR, else lzma;
    the level defaults to the backend's entry in DEFAULT_LEVELS. Settings
    the backend would reject raise ConfigError here, before any data is
    compressed.
    """
    source = ""
    if name is None:
        name = os.environ.get(ENV_COMPRESSOR, "").strip() or "lzma"
        source = f" in ${ENV_COMPRESSOR}"
    if name not in _BACKENDS:
        raise ConfigError(f"unknown compressor {name!r}{source}; "
                          f"available: {sorted(_BACKENDS)}")
    if level is None:
        level = DEFAULT_LEVELS[name]
    elif not 0 <= level <= 9:
        raise ConfigError(f"{name} level {level} outside 0-9")
    if dict_size is not None:
        if name != "lzma":
            raise ConfigError(f"a dictionary size applies to lzma only, not {name}")
        if not 4096 <= dict_size <= 1536 << 20:  # liblzma's LZMA2 encoder bounds
            raise ConfigError(f"lzma dictionary size {dict_size} outside 4 KiB-1.5 GiB")
    return CompressorHandle(name=name, level=level, dict_size=dict_size)


# Compressing multi-megabyte buffers dominates runtime, and uniform
# counterparts recur byte-identically across analyses that share a seed, so
# sizes are memoized by content hash.
_cache_lock = threading.Lock()
_size_cache: OrderedDict[tuple, int] = OrderedDict()
_SIZE_CACHE_MAX = 512


def clear_size_cache() -> None:
    with _cache_lock:
        _size_cache.clear()


def compressed_size(data: bytes, compressor: CompressorHandle | None = None) -> int:
    """Size in bytes of the compressed stream (no container metadata)."""
    if not data:
        raise ValueError("refusing to compress empty input")
    if compressor is None:
        compressor = default_compressor()
    try:
        size_of = _BACKENDS[compressor.name]
    except KeyError:
        raise ConfigError(
            f"unknown compressor {compressor.name!r}; available: {sorted(_BACKENDS)}")
    key = (hashlib.sha256(data).digest(), compressor)
    with _cache_lock:
        if key in _size_cache:
            _size_cache.move_to_end(key)
            return _size_cache[key]
    size = size_of(data, compressor)
    with _cache_lock:
        _size_cache[key] = size
        while len(_size_cache) > _SIZE_CACHE_MAX:
            _size_cache.popitem(last=False)
    return size


@dataclass(frozen=True)
class ComplexityPoint:
    """One trace's coordinates on the complexity map, with raw evidence."""

    temporal: float
    non_temporal: float
    overall: float
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
        return cls(
            temporal=d["temporal"],
            non_temporal=d["non_temporal"],
            overall=d["overall"],
            c_original=d["c_original"],
            c_shuffled_trials=tuple(d["c_shuffled_trials"]),
            c_uniform_trials=tuple(d["c_uniform_trials"]),
            uniform_mode=d["uniform_mode"],
            warnings=tuple(d["warnings"]),
        )


def _temporal_ratio(c_original: int, c_shuffled: list[int]) -> float:
    return c_original / float(np.mean(c_shuffled))


def _original_and_shuffled_sizes(trace: Trace, compressor: CompressorHandle | None,
                                 trials: int, seed: RngSeed) -> tuple[int, list[int]]:
    if trials < 1:
        raise ValueError("need at least one randomization trial")
    # Each buffer is built just before it is compressed and is dropped after,
    # so an analysis holds one buffer at a time.
    c_original = compressed_size(encode_canonical(trace), compressor)
    c_shuffled = [compressed_size(encode_canonical(temporal_shuffle(trace, seed.derive(0, k))),
                                  compressor) for k in range(trials)]
    return c_original, c_shuffled


def _measure_temporal(trace: Trace, compressor: CompressorHandle | None = None,
                      trials: int = 3, seed: RngSeed = RngSeed(0)) -> float:
    """The temporal ratio ``trace_complexity`` measures, from its original
    and shuffled compressions alone: the uniform ones serve only the
    non-temporal ratio."""
    return _temporal_ratio(*_original_and_shuffled_sizes(trace, compressor, trials, seed))


def trace_complexity(trace: Trace,
                     compressor: CompressorHandle | None = None,
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

    warnings: list[str] = []
    if len(trace) < MIN_RECOMMENDED_LENGTH:
        warnings.append(
            f"trace length {len(trace)} is below the recommended minimum "
            f"{MIN_RECOMMENDED_LENGTH}; compression overhead may dominate the ratios")

    c_original, c_shuffled = _original_and_shuffled_sizes(trace, compressor, trials, seed)
    c_uniform = [compressed_size(
        encode_canonical(resample_uniform(trace, seed.derive(1, k), mode)), compressor)
        for k in range(trials)]

    mean_shuffled = float(np.mean(c_shuffled))
    mean_uniform = float(np.mean(c_uniform))
    temporal = _temporal_ratio(c_original, c_shuffled)
    non_temporal = mean_shuffled / mean_uniform
    overall = temporal * non_temporal
    for label, value in (("temporal", temporal), ("non-temporal", non_temporal),
                         ("overall", overall)):
        if value > 1.0:
            warnings.append(
                f"{label} ratio {value:.4f} exceeds 1 (compressor noise); "
                f"raw value reported")

    return ComplexityPoint(
        temporal=temporal,
        non_temporal=non_temporal,
        overall=overall,
        c_original=c_original,
        c_shuffled_trials=tuple(c_shuffled),
        c_uniform_trials=tuple(c_uniform),
        uniform_mode=mode,
        warnings=tuple(warnings),
    )


def complexity_of_slices(trace: Trace,
                         compressor: CompressorHandle | None = None,
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
