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
                             compressed_size, default_uniform_mode,
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


def _zipf_trace(n: int, scattered: bool, length: int) -> Trace:
    """A bursty Zipf trace over n IDs; ``scattered`` deals the Zipf
    probabilities to the cells in a random order instead of row-major."""
    m = zipf_matrix(n, 1.0)
    if scattered:
        m = TrafficMatrix(m.sources, m.dests, np.random.default_rng(n).permutation(m.probs), n)
    return generate(GeneratorSpec(m, 0.5, length, RngSeed(n), name="zipf"))


class TestLzmaDictionary:
    """At presets 6-9 each buffer of up to 8 MiB is compressed with a
    dictionary sized to it, which must not change any compressed size."""

    @pytest.mark.parametrize("n, scattered, length", [
        (16, False, 300_000), (16, True, 3_000), (64, False, 30_000),
        (64, True, 100_000), (256, False, 300_000), (256, True, 30_000)])
    def test_sizes_match_the_preset_dictionary(self, n, scattered, length):
        trace = _zipf_trace(n, scattered, length)
        buffers = [encode_canonical(trace),
                   encode_canonical(temporal_shuffle(trace, RngSeed(1))),
                   encode_canonical(resample_uniform(trace, RngSeed(2), "pair"))]
        for data in buffers:
            for level in (6, 9):
                preset = lzma.compress(data, format=lzma.FORMAT_RAW,
                                       filters=[{"id": lzma.FILTER_LZMA2, "preset": level}])
                assert complexity._lzma_size(data, CompressorHandle("lzma", level)) \
                    == len(preset)

    @pytest.fixture
    def filters_seen(self, monkeypatch):
        """Record the filter chain of every lzma.compress call; buffers of
        8 MiB or more are not compressed."""
        seen = []
        real = lzma.compress

        def spy(data, **kwargs):
            seen.append(kwargs["filters"][0])
            return b"x" if len(data) >= 8 << 20 else real(data, **kwargs)

        monkeypatch.setattr(lzma, "compress", spy)
        return seen

    @pytest.mark.parametrize("size, dict_size", [
        (1, 4096), (4096, 4096), (4097, 8192), (100_000, 1 << 17), (8 << 20, 8 << 20)])
    @pytest.mark.parametrize("level", [6, 7, 8, 9])
    def test_dictionary_sized_to_buffer(self, filters_seen, level, size, dict_size):
        complexity._lzma_size(bytes(size), CompressorHandle("lzma", level))
        assert filters_seen == [{"id": lzma.FILTER_LZMA2, "preset": level,
                                 "dict_size": dict_size}]

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5])
    def test_presets_below_six_keep_their_dictionary(self, filters_seen, level):
        complexity._lzma_size(bytes(100_000), CompressorHandle("lzma", level))
        assert filters_seen == [{"id": lzma.FILTER_LZMA2, "preset": level}]

    def test_buffer_over_eight_mib_keeps_the_preset_dictionary(self, filters_seen):
        complexity._lzma_size(bytes((8 << 20) + 1), CompressorHandle("lzma", 6))
        assert filters_seen == [{"id": lzma.FILTER_LZMA2, "preset": 6}]


class TestDefaultCompressor:
    """An unset setting of a handle is the backend table's default."""

    def test_builtin_default(self):
        handle = CompressorHandle()
        assert handle.name == "lzma" and handle.level == 6

    @pytest.mark.parametrize("env, kwargs, expected", [
        ("deflate", {}, ("lzma", 6)),
        ("deflate", {"level": 1}, ("lzma", 1)),
        ("deflate", {"name": "lzma"}, ("lzma", 6)),
        ("", {"name": "deflate"}, ("deflate", 9)),
        ("", {"level": 0}, ("lzma", 0)),
        ("", {"level": 9}, ("lzma", 9)),
        ("", {"name": "deflate", "level": None}, ("deflate", 9)),
    ])
    def test_resolution(self, monkeypatch, env, kwargs, expected):
        # the backend is the argument, else lzma, and the level defaults per
        # backend; the variable that once chose the backend is not read
        monkeypatch.setenv("TRACE_COMPLEXITY_COMPRESSOR", env)
        handle = CompressorHandle(**kwargs)
        assert (handle.name, handle.level) == expected
        assert compressed_size(b"abcabcabd" * 100, handle) > 0

    def test_unset_level_is_the_same_handle(self):
        # the size cache is keyed by the handle, so the two share sizes
        assert CompressorHandle("deflate") == CompressorHandle("deflate", 9)
        assert hash(CompressorHandle()) == hash(CompressorHandle("lzma", 6))

    @pytest.mark.parametrize("kwargs", [
        {"name": "zstd"},
        {"level": 10},
        {"level": -1},
        {"name": "deflate", "level": 99},
        {"name": "LZMA"},
        {"name": "deflate", "level": 10},
        {"name": "deflate", "level": -1},
        {"level": 6.5},
        {"level": True},
    ])
    def test_invalid_settings_rejected(self, kwargs):
        # the handle checks its settings, given or filled in
        with pytest.raises(ConfigError):
            CompressorHandle(**kwargs)
        settings = {"name": "lzma", "level": 6, **kwargs}
        with pytest.raises(ConfigError):
            CompressorHandle(**settings)


class TestComplexityPoint:
    def test_dict_round_trip(self):
        pt = ComplexityPoint(c_original=100, c_shuffled_trials=(200, 201),
                             c_uniform_trials=(500, 499),
                             uniform_mode="pair", warnings=("w",))
        assert ComplexityPoint.from_dict(pt.as_dict()) == pt

    def test_trial_means(self):
        pt = ComplexityPoint(c_original=1, c_shuffled_trials=(10, 20), c_uniform_trials=(30, 50))
        assert pt.c_shuffled_mean == 15.0
        assert pt.c_uniform_mean == 40.0

    def test_ratios_are_the_sizes(self):
        pt = ComplexityPoint(c_original=6, c_shuffled_trials=(10, 20), c_uniform_trials=(30, 50))
        assert pt.temporal == 6 / 15.0
        assert pt.non_temporal == 15.0 / 40.0
        assert pt.overall == pt.temporal * pt.non_temporal


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
        # codes sort as their (source, destination) pairs do
        sorted_tr = Trace(np.sort(uniform_trace.codes), uniform_trace.id_space, "sorted")
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
    point = ComplexityPoint(c_original=c_original, c_shuffled_trials=tuple(c_shuffled),
                            c_uniform_trials=tuple(c_uniform), uniform_mode=mode,
                            warnings=tuple(warnings))
    # the point's properties are the one formula; this loop keeps its own
    assert (point.temporal, point.non_temporal, point.overall) == \
        (temporal, non_temporal, overall)
    return point


def _skewed_bursty_trace() -> Trace:
    """Over 12 IDs, so that its pair-mode uniform counterparts, unlike random
    bytes, compress to sizes that differ between trials."""
    return generate(GeneratorSpec(zipf_matrix(12, 1.0), 0.7, 20_000, RngSeed(12),
                                  name="skewed-bursty"))


def _asymmetric_trace() -> Trace:
    rng = np.random.default_rng(5)
    return Trace.from_arrays(rng.integers(0, 8, size=20_000), rng.integers(8, 24, size=20_000))


class TestJobPool:
    """An analysis compresses its buffers on a pool of one thread per usable
    CPU, at most one per buffer. Its point must not depend on how many
    threads there are, an error must reach the caller, and no thread may
    outlive the analysis."""

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
        # Seven compressions, the third of which fails. Once it has, no job
        # starts: with one worker no compression follows the failing one,
        # and with more only jobs already running may finish.
        failure = RuntimeError("third compression fails")
        real = zlib.compressobj
        start = threading.active_count()
        for cpus in (1, 2, 3):
            calls = []

            def compressobj(*args, **kwargs):
                calls.append(None)
                if len(calls) == 3:
                    raise failure
                return real(*args, **kwargs)

            monkeypatch.setattr(zlib, "compressobj", compressobj)
            monkeypatch.setattr(complexity, "_usable_cpus", lambda: cpus)
            clear_size_cache()
            with pytest.raises(RuntimeError) as info:
                trace_complexity(bursty_trace, CompressorHandle("deflate", 1), trials=3,
                                 seed=RngSeed(1))
            assert info.value is failure
            assert len(calls) <= 3 + (cpus - 1)
            assert threading.active_count() == start

    @pytest.mark.parametrize("backend", ["lzma", "deflate"])
    def test_worker_count_does_not_change_the_point(self, bursty_trace, monkeypatch, backend):
        handle = CompressorHandle(backend, 1)
        seed = RngSeed(1)
        clear_size_cache()
        expected = oracle_trace_complexity(bursty_trace, handle, 3, seed)
        expected_slices = tuple(
            oracle_trace_complexity(slice_column(bursty_trace, column), handle, 3, seed, "single")
            for column in ("source", "destination"))
        threads = []
        lib, name = {"lzma": (lzma, "compress"), "deflate": (zlib, "compressobj")}[backend]
        real = getattr(lib, name)

        def spy(*args, **kwargs):
            threads.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(lib, name, spy)
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(complexity, "_usable_cpus", lambda: cpus)
            clear_size_cache()
            threads.clear()
            assert trace_complexity(bursty_trace, handle, trials=3, seed=seed) == expected
            assert len(threads) == 7
            assert len(set(threads)) <= min(7, cpus)
            assert threading.get_ident() not in threads
            clear_size_cache()
            assert complexity_of_slices(bursty_trace, handle, trials=3,
                                        seed=seed) == expected_slices

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
