"""Compressed-size measurement and the complexity-point pipeline."""

from __future__ import annotations

import lzma
import sys
import threading
import zlib

import numpy as np
import pytest

from tracecomplexity import (ComplexityPoint, CompressorHandle, ConfigError,
                             GeneratorSpec, RngSeed, Trace, TrafficMatrix,
                             clear_size_cache, complexity, complexity_of_slices,
                             compressed_size, default_compressor, default_uniform_mode,
                             encode_canonical, generate, resample_uniform, slice_column,
                             temporal_shuffle, trace_complexity, zipf_matrix)


class TestCompressedSize:
    def test_deterministic(self, uniform_trace, deflate):
        data = encode_canonical(uniform_trace)
        assert compressed_size(data, deflate) == compressed_size(data, deflate)

    def test_empty_input_rejected(self, deflate):
        with pytest.raises(ValueError):
            compressed_size(b"", deflate)

    def test_backends_give_sizes(self, bursty_trace):
        # the pair codes of an iid uniform trace over 16 IDs are random bytes,
        # which no backend shrinks; a bursty trace's do shrink
        data = encode_canonical(bursty_trace)
        lz = compressed_size(data, CompressorHandle("lzma", 1))
        df = compressed_size(data, CompressorHandle("deflate", 9))
        assert 0 < lz < len(data)
        assert 0 < df < len(data)

    def test_unknown_backend(self):
        with pytest.raises(ConfigError):
            compressed_size(b"abc", CompressorHandle("zstd", 3))

    def test_constant_record_collapses(self):
        tr = Trace.from_arrays(np.full(166_667, 3), np.full(166_667, 7))
        data = encode_canonical(tr)
        assert compressed_size(data, CompressorHandle("lzma", 6)) < 0.01 * len(data)

    def test_uniform_pairs_near_entropy_bound(self):
        # uniform pairs over 16 IDs carry 8 bits each, and their pair codes
        # take one byte each: random bytes, which LZMA at preset 6 stores a
        # few bytes above that floor (it never beats the bound)
        spec = GeneratorSpec(TrafficMatrix.uniform(16), 0.0, 166_667, RngSeed(13),
                             name="bound")
        data = encode_canonical(generate(spec))
        bound_bytes = 166_667 * 8 / 8
        ratio = compressed_size(data, CompressorHandle("lzma", 6)) / bound_bytes
        assert 1.0 <= ratio <= 1.30

    def test_cache_stable_across_clear(self, uniform_trace, deflate):
        data = encode_canonical(uniform_trace)
        before = compressed_size(data, deflate)
        clear_size_cache()
        assert compressed_size(data, deflate) == before

    def test_level_changes_size(self, uniform_trace):
        data = encode_canonical(uniform_trace)
        fast = compressed_size(data, CompressorHandle("deflate", 1))
        best = compressed_size(data, CompressorHandle("deflate", 9))
        assert best <= fast


class TestDefaultCompressor:
    def test_builtin_default(self, monkeypatch):
        monkeypatch.delenv("TRACE_COMPLEXITY_COMPRESSOR", raising=False)
        handle = default_compressor()
        assert handle.name == "lzma" and handle.level == 6

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("TRACE_COMPLEXITY_COMPRESSOR", "deflate")
        assert default_compressor().name == "deflate"

    def test_env_unknown_rejected(self, monkeypatch):
        monkeypatch.setenv("TRACE_COMPLEXITY_COMPRESSOR", "rar")
        with pytest.raises(ConfigError):
            default_compressor()

    @pytest.mark.parametrize("env, kwargs, expected", [
        ("deflate", {}, ("deflate", 9, None)),
        ("deflate", {"level": 1}, ("deflate", 1, None)),
        ("deflate", {"name": "lzma"}, ("lzma", 6, None)),
        ("", {"name": "deflate"}, ("deflate", 9, None)),
        ("", {"level": 0}, ("lzma", 0, None)),
        ("", {"level": 9}, ("lzma", 9, None)),
        ("", {"dict_size": 4096}, ("lzma", 6, 4096)),
    ])
    def test_resolution(self, monkeypatch, env, kwargs, expected):
        # the argument beats the environment, which beats lzma; the level
        # defaults per backend
        monkeypatch.setenv("TRACE_COMPLEXITY_COMPRESSOR", env)
        handle = default_compressor(**kwargs)
        assert (handle.name, handle.level, handle.dict_size) == expected
        assert compressed_size(b"abcabcabd" * 100, handle) > 0

    @pytest.mark.parametrize("kwargs", [
        {"name": "zstd"},
        {"level": 10},
        {"level": -1},
        {"name": "deflate", "level": 99},
        {"dict_size": 4095},
        {"dict_size": (1536 << 20) + 1},
        {"name": "deflate", "dict_size": 1 << 16},
    ])
    def test_invalid_settings_rejected(self, monkeypatch, kwargs):
        monkeypatch.delenv("TRACE_COMPLEXITY_COMPRESSOR", raising=False)
        with pytest.raises(ConfigError):
            default_compressor(**kwargs)


class TestComplexityPoint:
    def test_dict_round_trip(self):
        pt = ComplexityPoint(temporal=0.5, non_temporal=0.4, overall=0.2,
                             c_original=100, c_shuffled_trials=(200, 201),
                             c_uniform_trials=(500, 499),
                             uniform_mode="pair", warnings=("w",))
        assert ComplexityPoint.from_dict(pt.as_dict()) == pt

    def test_trial_means(self):
        pt = ComplexityPoint(temporal=1, non_temporal=1, overall=1, c_original=1,
                             c_shuffled_trials=(10, 20), c_uniform_trials=(30, 50))
        assert pt.c_shuffled_mean == 15.0
        assert pt.c_uniform_mean == 40.0


class TestTraceComplexity:
    def test_uniform_trace_near_unit_point(self, uniform_trace, deflate, seed):
        pt = trace_complexity(uniform_trace, deflate, trials=2, seed=seed)
        assert abs(pt.temporal - 1.0) < 0.03
        assert abs(pt.non_temporal - 1.0) < 0.03

    def test_constant_trace(self, deflate, seed):
        tr = Trace.from_arrays(np.full(50_000, 2), np.full(50_000, 7))
        pt = trace_complexity(tr, deflate, trials=2, seed=seed)
        # the shuffle is a no-op on a constant trace, so T = 1 exactly
        assert 0.97 <= pt.temporal <= 1.03
        assert pt.non_temporal < 0.05
        assert pt.overall < 0.05

    def test_overall_is_product(self, bursty_trace, deflate, seed):
        pt = trace_complexity(bursty_trace, deflate, trials=2, seed=seed)
        assert pt.overall == pytest.approx(pt.temporal * pt.non_temporal, rel=1e-9)

    def test_sorted_order_compresses_better_than_shuffled(self, uniform_trace, deflate):
        order = np.lexsort((uniform_trace.dests, uniform_trace.sources))
        sorted_tr = uniform_trace.replaced(uniform_trace.sources[order],
                                           uniform_trace.dests[order], name="sorted")
        shuffled = temporal_shuffle(uniform_trace, RngSeed(77))
        t_sorted = trace_complexity(sorted_tr, deflate, trials=2, seed=RngSeed(3)).temporal
        t_shuffled = trace_complexity(shuffled, deflate, trials=2, seed=RngSeed(3)).temporal
        assert t_sorted < 0.2 < t_shuffled

    def test_bursty_lowers_temporal_only(self, bursty_trace, deflate, seed):
        pt = trace_complexity(bursty_trace, deflate, trials=2, seed=seed)
        assert pt.temporal < 0.75
        assert abs(pt.non_temporal - 1.0) < 0.05

    def test_deterministic(self, bursty_trace, deflate, seed):
        a = trace_complexity(bursty_trace, deflate, trials=2, seed=seed)
        b = trace_complexity(bursty_trace, deflate, trials=2, seed=seed)
        assert a == b

    def test_trial_count_respected(self, bursty_trace, deflate, seed):
        pt = trace_complexity(bursty_trace, deflate, trials=3, seed=seed)
        assert len(pt.c_shuffled_trials) == 3
        assert len(pt.c_uniform_trials) == 3

    def test_zero_trials_rejected(self, bursty_trace, deflate, seed):
        with pytest.raises(ValueError):
            trace_complexity(bursty_trace, deflate, trials=0, seed=seed)

    def test_short_trace_warns(self, deflate, seed):
        tr = Trace.from_pairs([(0, 1), (1, 0)] * 50)
        pt = trace_complexity(tr, deflate, trials=1, seed=seed)
        assert any("below the recommended minimum" in w for w in pt.warnings)

    def test_ratio_above_one_warns_and_reports_raw(self, deflate):
        # An iid trace over 12 IDs: its pair codes use 144 of the 256 byte
        # values, so deflate shrinks them, and this original lands a few
        # bytes above its shuffles. (Over 16 IDs the codes are random bytes,
        # which deflate stores, so every ordering has the same size.)
        tr = generate(GeneratorSpec(TrafficMatrix.uniform(12), 0.0, 20_000,
                                    RngSeed(12), name="u"))
        pt = trace_complexity(tr, deflate, trials=2, seed=RngSeed(2))
        assert pt.temporal > 1.0
        assert any("exceeds 1" in w for w in pt.warnings)

    def test_uniform_mode_recorded_and_forced(self, deflate, seed):
        tr = Trace.from_arrays(np.tile(np.arange(8), 2000),
                               np.tile(np.arange(8, 16), 2000))
        auto = trace_complexity(tr, deflate, trials=1, seed=seed)
        assert auto.uniform_mode == "columnwise"
        forced = trace_complexity(tr, deflate, trials=1, seed=seed, uniform_mode="pair")
        assert forced.uniform_mode == "pair"
        assert forced.c_uniform_trials != auto.c_uniform_trials


class TestSlices:
    def test_symmetric_iid_slices_coincide(self, uniform_trace, deflate, seed):
        src, dst = complexity_of_slices(uniform_trace, deflate, trials=2, seed=seed)
        assert abs(src.temporal - dst.temporal) < 0.05
        assert abs(src.non_temporal - dst.non_temporal) < 0.05
        assert src.uniform_mode == dst.uniform_mode == "single"

    def test_single_column_normalizes_to_one(self, uniform_trace, deflate, seed):
        # a uniform iid column measured against a single-draw uniform counterpart
        # sits at ~(1, 1); pair-mode resampling would roughly halve NT
        src, _ = complexity_of_slices(uniform_trace, deflate, trials=2, seed=seed)
        assert abs(src.non_temporal - 1.0) < 0.05

    def test_constant_source_column(self, deflate, seed):
        rng = np.random.default_rng(3)
        tr = Trace.from_arrays(np.full(30_000, 0), rng.integers(1, 17, size=30_000))
        src, dst = complexity_of_slices(tr, deflate, trials=2, seed=seed)
        assert src.non_temporal < 0.1
        assert dst.non_temporal > 0.8


def oracle_trace_complexity(trace: Trace, compressor: CompressorHandle, trials: int,
                            seed: RngSeed, uniform_mode: str | None = None) -> ComplexityPoint:
    """trace_complexity as one loop over the trials, kept as its reference."""
    mode = default_uniform_mode(trace) if uniform_mode is None else uniform_mode
    warnings = []
    if len(trace) < complexity.MIN_RECOMMENDED_LENGTH:
        warnings.append(
            f"trace length {len(trace)} is below the recommended minimum "
            f"{complexity.MIN_RECOMMENDED_LENGTH}; compression overhead may dominate the ratios")
    c_original = compressed_size(encode_canonical(trace), compressor)
    c_shuffled = []
    c_uniform = []
    for k in range(trials):
        shuffled = temporal_shuffle(trace, seed.derive(0, k))
        c_shuffled.append(compressed_size(encode_canonical(shuffled), compressor))
        resampled = resample_uniform(trace, seed.derive(1, k), mode)
        c_uniform.append(compressed_size(encode_canonical(resampled), compressor))
    mean_shuffled = float(np.mean(c_shuffled))
    mean_uniform = float(np.mean(c_uniform))
    temporal = c_original / mean_shuffled
    non_temporal = mean_shuffled / mean_uniform
    overall = temporal * non_temporal
    for label, value in (("temporal", temporal), ("non-temporal", non_temporal),
                         ("overall", overall)):
        if value > 1.0:
            warnings.append(
                f"{label} ratio {value:.4f} exceeds 1 (compressor noise); "
                f"raw value reported")
    return ComplexityPoint(temporal=temporal, non_temporal=non_temporal, overall=overall,
                           c_original=c_original, c_shuffled_trials=tuple(c_shuffled),
                           c_uniform_trials=tuple(c_uniform), uniform_mode=mode,
                           warnings=tuple(warnings))


def _skewed_bursty_trace() -> Trace:
    """Over 12 IDs, so that its pair-mode uniform counterparts, unlike random
    bytes, compress to sizes that differ between trials."""
    return generate(GeneratorSpec(zipf_matrix(12, 1.0), 0.7, 20_000, RngSeed(12),
                                  name="skewed-bursty"))


def _asymmetric_trace() -> Trace:
    rng = np.random.default_rng(5)
    return Trace.from_arrays(rng.integers(0, 8, size=20_000), rng.integers(8, 24, size=20_000))


class TestJobPool:
    @pytest.mark.parametrize("backend", ["deflate", "lzma"])
    @pytest.mark.parametrize("trials", [1, 2, 3, 4])
    @pytest.mark.parametrize("mode", ["pair", "columnwise", "single"])
    def test_matches_serial_oracle(self, bursty_trace, backend, trials, mode):
        handle = CompressorHandle(backend, 1)
        trace = {"pair": _skewed_bursty_trace(), "columnwise": _asymmetric_trace(),
                 "single": slice_column(bursty_trace, "source")}[mode]
        clear_size_cache()
        point = trace_complexity(trace, handle, trials=trials, seed=RngSeed(9),
                                 uniform_mode=mode)
        clear_size_cache()
        serial = oracle_trace_complexity(trace, handle, trials, RngSeed(9), mode)
        assert point == serial
        assert len(set(serial.c_shuffled_trials + serial.c_uniform_trials)) > trials

    def test_error_reaches_caller(self, bursty_trace, monkeypatch):
        failure = RuntimeError("third compression fails")
        calls = []
        real = zlib.compressobj

        def compressobj(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise failure
            return real(*args, **kwargs)

        monkeypatch.setattr(zlib, "compressobj", compressobj)
        clear_size_cache()
        with pytest.raises(RuntimeError) as info:
            trace_complexity(bursty_trace, CompressorHandle("deflate", 1), trials=3,
                             seed=RngSeed(1))
        assert info.value is failure

    @pytest.mark.parametrize("backend", ["lzma", "deflate"])
    def test_compressions_run_on_calling_thread(self, bursty_trace, monkeypatch, backend):
        seen = []
        lib, name = {"lzma": (lzma, "compress"), "deflate": (zlib, "compressobj")}[backend]
        real = getattr(lib, name)

        def spy(*args, **kwargs):
            seen.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(lib, name, spy)
        clear_size_cache()
        handle = CompressorHandle(backend, 1)
        complexity_of_slices(bursty_trace, handle, trials=3, seed=RngSeed(1))
        trace_complexity(bursty_trace, handle, trials=3, seed=RngSeed(1))
        assert len(seen) >= 7
        assert set(seen) == {threading.get_ident()}

    def test_concurrent_cache_stress(self, monkeypatch):
        # Callers' threads share the size cache, switching as often as the
        # interpreter allows; evictions must keep it bounded and every size
        # must be the backend's.
        monkeypatch.setattr(complexity, "_SIZE_CACHE_MAX", 16)
        handle = CompressorHandle("deflate", 1)
        buffers = [bytes(f"{i},{i * 7 % 13}\n", "ascii") * (50 + i) for i in range(64)]
        expected = [complexity._deflate_size(b, handle) for b in buffers]
        wrong = []
        clear_size_cache()

        def hammer(offset):
            for round_ in range(4):
                for i in range(len(buffers)):
                    j = (i * 5 + offset + round_) % len(buffers)
                    if compressed_size(buffers[j], handle) != expected[j]:
                        wrong.append(j)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(complexity._size_cache) <= 16
        clear_size_cache()
