"""Repeat-chain generation, target solving, fitting, and spec serialization."""

from __future__ import annotations

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from tracecomplexity import (CompressorHandle, ConfigError, DataError, GeneratorSpec,
                             IdSpace, MapTarget, REFERENCE_TARGETS, RngSeed, SolverError, Trace,
                             TrafficMatrix, empirical_matrix, encode_canonical,
                             generate, joint_entropy, normalized_nontemporal,
                             reference_presets, repeat_chain_entropy_rate,
                             solve_chain_repeat_probability, spec_from_json,
                             spec_from_target, spec_from_trace, spec_to_json,
                             trace_complexity, write_spec, zipf_matrix)
from tracecomplexity import generator as generator_module


def exact_ratio(spec: GeneratorSpec) -> float:
    """The chain's exact temporal ratio, which the generator solves for."""
    return repeat_chain_entropy_rate(spec.matrix, spec.repeat_p) / joint_entropy(spec.matrix)


def tv_distance(a: TrafficMatrix, b: TrafficMatrix) -> float:
    return 0.5 * float(np.abs(a.to_dense() - b.to_dense()).sum())


class TestGenerate:
    def test_length_and_id_range(self, bursty_trace):
        assert len(bursty_trace) == 50_000
        assert bursty_trace.sources.min() >= 0
        assert bursty_trace.sources.max() < 16
        assert bursty_trace.dests.max() < 16

    def test_deterministic_bytes(self):
        spec = GeneratorSpec(TrafficMatrix.uniform(8), 0.4, 10_000, RngSeed(3))
        assert encode_canonical(generate(spec)) == encode_canonical(generate(spec))

    def test_seed_matters(self):
        a = GeneratorSpec(TrafficMatrix.uniform(8), 0.4, 10_000, RngSeed(3))
        b = GeneratorSpec(TrafficMatrix.uniform(8), 0.4, 10_000, RngSeed(4))
        assert encode_canonical(generate(a)) != encode_canonical(generate(b))

    def test_p_one_repeats_first_pair_forever(self):
        spec = GeneratorSpec(TrafficMatrix.uniform(8), 1.0, 5_000, RngSeed(5))
        tr = generate(spec)
        assert np.all(tr.sources == tr.sources[0])
        assert np.all(tr.dests == tr.dests[0])

    def test_repeat_fraction_matches_p(self, bursty_trace):
        # adjacent pairs also collide by chance on a fresh draw: + (1-p)/256
        same = np.mean((bursty_trace.sources[1:] == bursty_trace.sources[:-1])
                       & (bursty_trace.dests[1:] == bursty_trace.dests[:-1]))
        expected = 0.7 + 0.3 / 256
        assert abs(same - expected) < 0.01

    def test_p_zero_has_no_excess_repeats(self, uniform_trace):
        same = np.mean((uniform_trace.sources[1:] == uniform_trace.sources[:-1])
                       & (uniform_trace.dests[1:] == uniform_trace.dests[:-1]))
        assert abs(same - 1 / 256) < 0.003

    def test_invalid_spec_params(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(TrafficMatrix.uniform(4), 1.5, 100, RngSeed(0))
        with pytest.raises(ConfigError):
            GeneratorSpec(TrafficMatrix.uniform(4), 0.5, 0, RngSeed(0))


class TestStationarity:
    def test_iid_uniform_tv(self):
        mat = TrafficMatrix.uniform(16)
        tr = generate(GeneratorSpec(mat, 0.0, 1_000_000, RngSeed(42)))
        assert tv_distance(empirical_matrix(tr), mat) < 0.01

    def test_zipf_with_repeats_tv(self):
        mat = zipf_matrix(16, 1.6887)
        tr = generate(GeneratorSpec(mat, 0.5, 1_000_000, RngSeed(42)))
        assert tv_distance(empirical_matrix(tr), mat) < 0.01

    def test_uniform_with_repeats_tv(self):
        # repeat runs multiply the count variance by (1+p)/(1-p), so the
        # uniform matrix at p=0.5 needs ~sqrt(3) more slack than the iid case
        mat = TrafficMatrix.uniform(16)
        tr = generate(GeneratorSpec(mat, 0.5, 1_000_000, RngSeed(42)))
        assert tv_distance(empirical_matrix(tr), mat) < 0.02


class TestSpecFromTarget:
    # A temporal target of 1 is the iid chain: the exact ratio is 1 at p = 0
    # alone, where the additive bound needed p > 0 to come back down to 1.
    def test_uniform_corner(self):
        spec = spec_from_target(MapTarget(1.0, 1.0, 16), length=1000, seed=RngSeed(0))
        assert np.allclose(spec.matrix.probs, 1 / 256, atol=1e-12)
        assert spec.repeat_p == 0.0

    def test_skewed_corner(self):
        spec = spec_from_target(MapTarget(1.0, 0.4, 16), length=1000, seed=RngSeed(0))
        assert normalized_nontemporal(spec.matrix) == pytest.approx(0.4, abs=1e-6)
        assert spec.repeat_p == 0.0

    def test_forward_model_consistency(self):
        spec = spec_from_target(MapTarget(0.4, 0.4, 16), length=1000, seed=RngSeed(0))
        assert exact_ratio(spec) == pytest.approx(0.4, abs=1e-9)

    def test_degenerate_requires_flag(self):
        with pytest.raises(SolverError, match="degenerate"):
            spec_from_target(MapTarget(0.5, 0.0, 16), length=1000, seed=RngSeed(0))

    def test_degenerate_allowed(self):
        spec = spec_from_target(MapTarget(0.5, 0.0, 16), length=1000, seed=RngSeed(0),
                                allow_degenerate=True)
        assert spec.repeat_p == 1.0
        assert spec.matrix.support_size == 1
        tr = generate(spec)
        assert np.all(tr.sources == tr.sources[0])

    def test_length_and_seed_pass_through(self):
        spec = spec_from_target(MapTarget(0.8, 0.8, 8), length=777, seed=RngSeed(9))
        assert spec.length == 777 and spec.seed == RngSeed(9)


class TestSpecFromTrace:
    def test_recovers_matrix_exactly(self, bursty_trace, deflate):
        fit = spec_from_trace(bursty_trace, trials=1, compressor=deflate,
                              seed=RngSeed(4))
        assert fit.matrix.cell_dict() == empirical_matrix(bursty_trace).cell_dict()
        assert fit.length == len(bursty_trace)
        assert fit.name == "fit:bursty"
        assert fit.warnings == ()

    def test_recovered_p_in_plausible_band(self, bursty_trace, deflate):
        # systematic compressor bias dominates at 50k entries; the acceptance
        # suite pins ±0.05 at full scale
        fit = spec_from_trace(bursty_trace, trials=2, compressor=deflate,
                              seed=RngSeed(4))
        assert 0.5 < fit.repeat_p < 0.85

    def test_iid_trace_fits_near_x_one_root(self, uniform_trace, deflate):
        fit = spec_from_trace(uniform_trace, trials=2, compressor=deflate,
                              seed=RngSeed(4))
        assert exact_ratio(fit) == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("trials", [1, 3])
    def test_repeat_p_solved_from_the_analysis_temporal_ratio(self, bursty_trace, deflate,
                                                             trials):
        """The fit runs only the original and shuffled compressions, and
        lands exactly where the full analysis's temporal ratio leads on the
        exact chain rate."""
        fit = spec_from_trace(bursty_trace, trials=trials, compressor=deflate,
                              seed=RngSeed(4))
        point = trace_complexity(bursty_trace, deflate, trials=trials, seed=RngSeed(4))
        matrix = empirical_matrix(bursty_trace)
        assert fit.repeat_p == solve_chain_repeat_probability(matrix, min(point.temporal, 1.0))
        assert exact_ratio(fit) == pytest.approx(point.temporal, abs=1e-9)

    def test_no_uniform_counterpart_made(self, bursty_trace, deflate):
        with mock.patch("tracecomplexity.complexity.resample_uniform",
                        side_effect=AssertionError("uniform counterpart made")):
            spec_from_trace(bursty_trace, trials=2, compressor=deflate, seed=RngSeed(4))

    def test_needs_a_trial(self, bursty_trace, deflate):
        with pytest.raises(ValueError, match="at least one randomization trial"):
            spec_from_trace(bursty_trace, trials=0, compressor=deflate)

    @pytest.mark.parametrize("ids", [(0, 2 ** 40), (5, 7)], ids=["past-int32", "gapped"])
    def test_sparse_ids(self, ids, deflate):
        """IDs become their rank among the trace's IDs, so the fitted spec
        reads back, its matrix densifies and it generates."""
        a, b = ids
        tr = Trace.from_pairs([(a, b), (b, a), (a, a)] * 400 + [(b, b)] * 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = spec_from_trace(tr, trials=1, compressor=deflate, seed=RngSeed(1))
        assert fit.warnings == ("trace length 1300 is below the recommended minimum "
                                "10000; compression overhead may dominate the ratios",)
        assert fit.matrix.n == 2
        assert fit.matrix.cell_dict() == {(0, 0): 400 / 1300, (0, 1): 400 / 1300,
                                          (1, 0): 400 / 1300, (1, 1): 100 / 1300}
        back = spec_from_json(spec_to_json(fit))
        assert back.matrix.cell_dict() == fit.matrix.cell_dict()
        assert (back.repeat_p, back.length, back.seed) == (fit.repeat_p, fit.length, fit.seed)
        assert back.matrix.to_dense().tolist() == [[400 / 1300, 400 / 1300],
                                                   [400 / 1300, 100 / 1300]]
        regenerated = generate(back)
        assert len(regenerated) == 1300
        assert regenerated.id_space.union.tolist() == [0, 1]

    def test_constant_trace_pins_p_with_warning(self, deflate):
        tr = Trace.from_pairs([(3, 3)] * 1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = spec_from_trace(tr, trials=1, compressor=deflate, seed=RngSeed(0))
        assert fit.warnings == ("trace has a single repeated pair; "
                                "repeat probability pinned to 1",)
        assert fit.repeat_p == 1.0

    def test_ratio_above_one_is_clamped_with_warning(self, uniform_trace, deflate,
                                                     monkeypatch):
        monkeypatch.setattr(generator_module, "_measure_temporal", lambda *a, **k: 1.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = spec_from_trace(uniform_trace, trials=1, compressor=deflate)
        assert fit.warnings == ("measured temporal ratio 1.0200 exceeds 1 (compressor "
                                "noise); solving with 1.0",)
        assert fit.repeat_p == solve_chain_repeat_probability(fit.matrix, 1.0)

    def test_warnings_not_serialized_or_compared(self, deflate):
        fit = spec_from_trace(Trace.from_pairs([(3, 3)] * 1000), trials=1,
                              compressor=deflate)
        assert fit.warnings
        text = spec_to_json(fit)
        assert "warnings" not in text and "single repeated pair" not in text
        assert text == spec_to_json(dataclasses.replace(fit, warnings=()))
        assert fit == dataclasses.replace(fit, warnings=("other",))
        assert spec_from_json(text) == fit


class TestReferencePresets:
    def test_four_presets_with_expected_targets(self):
        presets = reference_presets(length=1000)
        assert set(presets) == set(REFERENCE_TARGETS) == \
            {"uniform", "skewed", "bursty", "skewed_bursty"}

    def test_default_scale_matches_table(self):
        presets = reference_presets()
        assert all(s.length == 1_000_000 for s in presets.values())
        assert all(s.matrix.n == 16 for s in presets.values())

    def test_matrices_and_p_values(self):
        presets = reference_presets(length=1000)
        assert np.allclose(presets["uniform"].matrix.probs, 1 / 256)
        assert presets["skewed"].matrix.cell_dict() == \
            presets["skewed_bursty"].matrix.cell_dict()
        assert presets["uniform"].repeat_p == presets["skewed"].repeat_p == 0.0
        assert presets["bursty"].repeat_p == pytest.approx(0.7074656, abs=1e-5)
        assert presets["skewed_bursty"].repeat_p == pytest.approx(0.7570032, abs=1e-5)

    def test_presets_use_distinct_seed_streams(self):
        presets = reference_presets(length=1000)
        seeds = {spec.seed for spec in presets.values()}
        assert len(seeds) == 4


class TestSpecJson:
    def test_inline_round_trip(self):
        spec = spec_from_target(MapTarget(0.7, 0.6, 8), length=1234,
                                seed=RngSeed(5, (2,)), name="rt")
        back = spec_from_json(spec_to_json(spec))
        assert back.name == "rt"
        assert back.repeat_p == spec.repeat_p
        assert back.length == 1234
        assert back.seed == RngSeed(5, (2,))
        assert back.matrix.cell_dict() == spec.matrix.cell_dict()
        assert encode_canonical(generate(back)) == encode_canonical(generate(spec))

    def test_malformed_document(self):
        with pytest.raises(DataError):
            spec_from_json("{not json")

    def test_wrong_schema(self):
        with pytest.raises(DataError, match="schema"):
            spec_from_json('{"schema": "something-else/9"}')

    def test_missing_fields(self):
        with pytest.raises(DataError):
            spec_from_json('{"schema": "trace-generator-spec/1", "matrix": {"n": 2}}')

    @pytest.mark.parametrize("cell, match", [
        ([0, 1, float("nan")], r"cell \[0, 1, nan\]: probability is not finite"),
        ([0, 1, float("inf")], r"cell \[0, 1, inf\]: probability is not finite"),
        ([-1, 0, 1.0], r"cell \[-1, 0, 1.0\]: ID outside 0..1"),
        ([0, 7, 1.0], r"cell \[0, 7, 1.0\]: ID outside 0..1"),
        ([2 ** 70, 0, 1.0], r"cell \[1180591620717411303424, 0, 1.0\]: ID outside 0..1"),
    ], ids=["nan", "inf", "negative-id", "id-past-n", "id-past-int64"])
    def test_bad_cell_named(self, cell, match):
        doc = {"schema": "trace-generator-spec/1", "repeat_p": 0.5, "length": 10,
               "matrix": {"cells": [cell], "n": 2}}
        with pytest.raises(DataError, match=match):
            spec_from_json(json.dumps(doc))


def oracle_generate(spec: GeneratorSpec) -> Trace:
    """The repeat chain as first written, kept as the reference for generate:
    a cell for every position, runs spread by a running maximum over
    positions, and the ID space found by np.unique."""
    rng = spec.seed.generator()
    t = spec.length
    m = spec.matrix
    cdf = np.cumsum(m.probs)
    draw = np.searchsorted(cdf, rng.random(t), side="right")
    np.clip(draw, 0, m.support_size - 1, out=draw)
    fresh_src = m.sources[draw]
    fresh_dst = m.dests[draw]
    fresh = np.ones(t, dtype=bool)
    if t > 1 and spec.repeat_p > 0.0:
        fresh[1:] = rng.random(t - 1) >= spec.repeat_p
    pos = np.where(fresh, np.arange(t), 0)
    np.maximum.accumulate(pos, out=pos)
    src, dst = fresh_src[pos], fresh_dst[pos]
    return Trace(src, dst, IdSpace(np.unique(src), np.unique(dst)), name=spec.name)


def oracle_spec_to_json(spec: GeneratorSpec) -> str:
    """The whole document through json.dumps, kept as the reference for spec_to_json."""
    doc = {
        "schema": "trace-generator-spec/1",
        "name": spec.name,
        "repeat_p": spec.repeat_p,
        "length": spec.length,
        "seed": {"seed": spec.seed.seed, "stream": list(spec.seed.stream)},
        "matrix": {
            "n": spec.matrix.n,
            "cells": [[int(s), int(d), float(p)] for s, d, p in
                      zip(spec.matrix.sources, spec.matrix.dests, spec.matrix.probs)],
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def columns(tr: Trace):
    return (tr.name, tr.sources.tolist(), tr.dests.tolist(),
            tr.id_space.source_ids.tolist(), tr.id_space.dest_ids.tolist())


#: Probabilities json and repr could spell differently from a plain decimal:
#: tiny normals, the smallest normal, subnormals, and non-round fractions.
#: Seven of the largest still leave the first cell a positive share.
ODD_FLOATS = [1e-300, 2.2250738585072014e-308, 1e-310, 5e-324, 1 / 30, 0.01, 2 ** -30,
              1.2345678901234567e-05]
IDS = st.one_of(st.integers(0, 20), st.just(2 ** 40))


@st.composite
def matrices(draw) -> TrafficMatrix:
    """Sparse matrices whose first cell takes what the others leave of 1."""
    cells = draw(st.lists(st.tuples(IDS, IDS), min_size=1, max_size=8, unique=True))
    rest = draw(st.lists(st.one_of(st.sampled_from(ODD_FLOATS + [0.0]), st.floats(0.0, 1e-3)),
                         min_size=len(cells) - 1, max_size=len(cells) - 1))
    probs = np.array([1.0 - math.fsum(rest)] + rest)
    return TrafficMatrix(np.array([c[0] for c in cells], dtype=np.int64),
                         np.array([c[1] for c in cells], dtype=np.int64), probs,
                         n=draw(st.integers(1, 300)))


SEEDS = st.builds(RngSeed, st.integers(0, 2 ** 64 - 1),
                  st.lists(st.integers(0, 2 ** 32), max_size=3).map(tuple))


class ScriptedSeed(RngSeed):
    """A seed whose generator hands out given arrays, one per random() call,
    and fails on a call of the wrong size."""

    def __init__(self, *draws):
        super().__init__()
        object.__setattr__(self, "draws", draws)

    def generator(self):
        queue = list(self.draws)

        class Scripted:
            def random(self, size):
                values = np.asarray(queue.pop(0), dtype=np.float64)
                assert values.size == size
                return values
        return Scripted()


class TestAgainstFirstImplementations:
    """generate and spec_to_json give what their first versions gave."""

    @settings(max_examples=200)
    @given(matrices(), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           st.integers(1, 300), SEEDS)
    def test_generate_same_trace(self, matrix, p, t, seed):
        spec = GeneratorSpec(matrix, p, t, seed, name="g")
        assert columns(generate(spec)) == columns(oracle_generate(spec))

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.8, 1.0])
    def test_generate_same_trace_at_scale(self, p):
        spec = spec_from_target(MapTarget(0.5, 0.6, 64), length=100_000, seed=RngSeed(7, (1,)))
        spec = GeneratorSpec(spec.matrix, p, spec.length, spec.seed)
        assert columns(generate(spec)) == columns(oracle_generate(spec))

    def test_single_cell_and_unused_ids(self):
        single = TrafficMatrix.from_cells({(2 ** 40, 3): 1.0}, n=2)
        # cells of probability 0 are never drawn, so their IDs stay out of the ID space
        unused = TrafficMatrix.from_cells({(1, 2): 0.5, (7, 8): 0.0, (3, 4): 0.5, (9, 9): 0.0})
        for matrix in (single, unused):
            for t in (1, 2, 1000):
                spec = GeneratorSpec(matrix, 0.5, t, RngSeed(1))
                assert columns(generate(spec)) == columns(oracle_generate(spec))
        spec = GeneratorSpec(unused, 0.5, 1000, RngSeed(1))
        assert generate(spec).id_space.union.tolist() == [1, 2, 3, 4]

    def test_draw_above_last_cumulative_probability(self):
        matrix = TrafficMatrix.from_cells({(i, i): 0.1 for i in range(10)})
        top = np.cumsum(matrix.probs)[-1]
        assert top < 1.0  # ten 0.1s sum to just below 1
        u = [0.05, np.nextafter(top, 1.0), 0.5, 0.95]
        spec = GeneratorSpec(matrix, 0.5, 4, ScriptedSeed(u, [0.9, 0.1, 0.6]))
        got = generate(spec)
        assert columns(got) == columns(oracle_generate(spec))
        assert got.sources.tolist() == [0, 9, 9, 9]

    def test_draw_order(self):
        """One random(length) call for the cells, then one random(length - 1)
        call for the repeats; nothing else draws. A u equal to a cumulative
        probability (0.25) takes the next cell."""
        matrix = TrafficMatrix.uniform(2)  # cells (0,0) (0,1) (1,0) (1,1)
        spec = GeneratorSpec(matrix, 0.5, 4, ScriptedSeed([0.1, 0.9, 0.25, 0.6], [0.2, 0.7, 0.4]))
        got = generate(spec)
        assert list(zip(got.sources.tolist(), got.dests.tolist())) == \
            [(0, 0), (0, 0), (0, 1), (0, 1)]
        once = GeneratorSpec(matrix, 0.5, 1, ScriptedSeed([0.6]))
        never = GeneratorSpec(matrix, 0.0, 3, ScriptedSeed([0.1, 0.6, 0.9]))
        assert generate(once).sources.tolist() == [1]
        assert generate(never).dests.tolist() == [0, 0, 1]

    @settings(max_examples=200)
    @given(matrices(), st.floats(0.0, 1.0), st.integers(1, 10 ** 12), SEEDS, st.text())
    def test_spec_to_json_same_bytes(self, matrix, p, length, seed, name):
        spec = GeneratorSpec(matrix, p, length, seed, name=name)
        assert spec_to_json(spec) == oracle_spec_to_json(spec)

    @pytest.mark.parametrize("cells", [
        {(0, 0): 1.0},
        {(0, 1): float("nan")},  # NaN passes the matrix's checks; json spells it NaN
        {(0, 0): 1.0 - 2e-300, (0, 1): 1e-300, (1, 0): 1e-300},
    ], ids=["single-cell", "nan", "near-1e-300"])
    def test_spec_to_json_edge_cells(self, cells):
        spec = GeneratorSpec(TrafficMatrix.from_cells(cells, n=2), 1.0, 5, RngSeed(3, (4, 5)),
                             name='"cells": []')
        assert spec_to_json(spec) == oracle_spec_to_json(spec)

    @pytest.mark.parametrize("n", [16, 256])
    def test_spec_to_json_zipf_target(self, n):
        spec = spec_from_target(MapTarget(0.6, 0.5, n), length=10, seed=RngSeed(2, (7,)))
        assert spec_to_json(spec) == oracle_spec_to_json(spec)


def oracle_spec_from_json_matrix(text: str):
    """How spec_from_json read a spec's matrix before it built arrays: a
    dict of (s, d) keys, checked, then TrafficMatrix.from_cells. Returns the
    matrix's arrays and n, or the exception's type and message."""
    try:
        mdoc = json.loads(text)["matrix"]
        cells = {(int(s), int(d)): float(p) for s, d, p in mdoc["cells"]}
        n = int(mdoc["n"])
        for (s, d), p in cells.items():
            if not math.isfinite(p):
                raise DataError(f"generator spec cell [{s}, {d}, {p}]: probability is not finite")
            if not (0 <= s < n and 0 <= d < n):
                raise DataError(f"generator spec cell [{s}, {d}, {p}]: ID outside 0..{n - 1}")
        m = TrafficMatrix.from_cells(cells, n=n)
    except DataError as e:
        return DataError, str(e)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        return DataError, f"malformed generator spec: {e!r}"
    return m.sources.tolist(), m.dests.tolist(), m.probs.tolist(), m.n


def spec_from_json_matrix(text: str):
    try:
        m = spec_from_json(text).matrix
    except DataError as e:
        return DataError, str(e)
    return m.sources.tolist(), m.dests.tolist(), m.probs.tolist(), m.n


def spec_text(cells, n) -> str:
    return json.dumps({"schema": "trace-generator-spec/1", "repeat_p": 0.5, "length": 10,
                       "matrix": {"cells": cells, "n": n}})


CELL_ID = st.one_of(st.integers(-1, 4), st.sampled_from([2 ** 40, "3", 2.5, None]))
CELL_P = st.one_of(st.sampled_from([0.5, 0.25, 1.0, 0.0, -0.5, float("nan"), float("inf"),
                                    "0.5", None]), st.floats(0.0, 1.0))
CELL = st.one_of(st.tuples(CELL_ID, CELL_ID, CELL_P).map(list),
                 st.sampled_from([[0, 1], [0, 1, 0.5, 9], "ab", 7]))
DUPLICATES = st.lists(st.sampled_from([[0, 0, 0.5], [0, 0, 0.25], [1, 0, 0.5], [1, 0, 0.75],
                                       [0, 1, float("nan")], [0, 1, 0.25], [3, 3, 0.5]]),
                      max_size=6)


class TestSpecReaderAgainstCellDict:
    """spec_from_json builds the matrix the dict of cells built, a later cell
    of a pair winning, and rejects a spec with the same error."""

    @settings(max_examples=300)
    @given(st.one_of(st.lists(CELL, max_size=6), DUPLICATES), st.sampled_from([1, 2, 4, 5]))
    def test_same_matrix_or_error(self, cells, n):
        text = spec_text(cells, n)
        assert spec_from_json_matrix(text) == oracle_spec_from_json_matrix(text)

    @pytest.mark.parametrize("cells, want", [
        ([[0, 1, float("nan")], [0, 0, 0.5], [0, 1, 0.5]], ([0, 0], [0, 1], [0.5, 0.5], 2)),
        ([[1, 1, 0.5], [0, 0, 0.5], [1, 1, float("nan")]],
         (DataError, "generator spec cell [1, 1, nan]: probability is not finite")),
        ([[0, 0, float("nan")], [5, 0, 1.0], [0, 0, 1.0]],
         (DataError, "generator spec cell [5, 0, 1.0]: ID outside 0..1")),
    ], ids=["later-finite-wins", "later-nan-wins", "first-bad-pair-named"])
    def test_duplicates(self, cells, want):
        text = spec_text(cells, 2)
        assert spec_from_json_matrix(text) == oracle_spec_from_json_matrix(text) == want

    def test_infinite_id_exits_as_data_error(self):
        # int() of an infinite float raises OverflowError, which used to escape
        with pytest.raises(DataError, match="OverflowError"):
            spec_from_json(spec_text([[0, 0, 1.0]], 1).replace("[0, 0, 1.0]",
                                                              "[Infinity, 0, 1.0]"))


class TestWriteSpec:
    """write_spec writes the whole document through json.dumps and a
    newline, a block of cells at a time."""

    @given(matrices(), st.integers(1, 5), st.text())
    def test_same_bytes_as_json_dumps(self, tmp_path_factory, matrix, cells, name):
        spec = GeneratorSpec(matrix, 0.25, 10, RngSeed(1, (2,)), name=name)
        path = tmp_path_factory.getbasetemp() / "spec.json"
        with mock.patch.object(generator_module, "_SPEC_CELLS", cells):
            write_spec(spec, path)
            assert spec_to_json(spec) == oracle_spec_to_json(spec)
        assert path.read_bytes() == (oracle_spec_to_json(spec) + "\n").encode()

    @pytest.mark.parametrize("cells", [
        {(0, 1): float("nan")},
        {(0, 0): 1.0},
        {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 0.0},
    ], ids=["nan", "n-1", "zero-cells"])
    def test_edge_cells(self, tmp_path, cells):
        n = 1 if list(cells) == [(0, 0)] else 2
        spec = GeneratorSpec(TrafficMatrix.from_cells(cells, n=n), 1.0, 5, RngSeed(3))
        with mock.patch.object(generator_module, "_SPEC_CELLS", 2):
            write_spec(spec, tmp_path / "s.json")
        assert (tmp_path / "s.json").read_text() == oracle_spec_to_json(spec) + "\n"

    def test_zipf_256_round_trip(self, tmp_path):
        spec = spec_from_target(MapTarget(0.6, 0.5, 256), length=10, seed=RngSeed(2, (7,)))
        write_spec(spec, tmp_path / "s.json")
        text = (tmp_path / "s.json").read_text()
        assert text == oracle_spec_to_json(spec) + "\n"
        assert spec_from_json(text).matrix.cell_dict() == spec.matrix.cell_dict()
