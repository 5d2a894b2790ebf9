"""Repeat-chain generation, target solving, fitting, and spec serialization."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecomplexity import (CompressorHandle, ConfigError, DataError, GeneratorSpec,
                             IdSpace, MapTarget, REFERENCE_TARGETS, RngSeed, SolverError, Trace,
                             TrafficMatrix, empirical_matrix, encode_canonical,
                             generate, joint_entropy, model_temporal_ratio,
                             normalized_nontemporal, reference_presets, spec_from_json,
                             spec_from_target, spec_from_trace, spec_to_json,
                             zipf_matrix)


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
    def test_uniform_corner(self):
        spec = spec_from_target(MapTarget(1.0, 1.0, 16), length=1000, seed=RngSeed(0))
        assert np.allclose(spec.matrix.probs, 1 / 256, atol=1e-12)
        assert spec.repeat_p == pytest.approx(0.010562162686878603, abs=1e-6)

    def test_skewed_corner(self):
        spec = spec_from_target(MapTarget(1.0, 0.4, 16), length=1000, seed=RngSeed(0))
        assert normalized_nontemporal(spec.matrix) == pytest.approx(0.4, abs=1e-6)
        assert spec.repeat_p == pytest.approx(0.2568719668128041, abs=1e-6)

    def test_forward_model_consistency(self):
        spec = spec_from_target(MapTarget(0.4, 0.4, 16), length=1000, seed=RngSeed(0))
        h = joint_entropy(spec.matrix)
        assert model_temporal_ratio(spec.repeat_p, h) == pytest.approx(0.4, abs=1e-8)

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

    def test_recovered_p_in_plausible_band(self, bursty_trace, deflate):
        # systematic compressor bias dominates at 50k entries; the acceptance
        # suite pins ±0.05 at full scale
        fit = spec_from_trace(bursty_trace, trials=2, compressor=deflate,
                              seed=RngSeed(4))
        assert 0.5 < fit.repeat_p < 0.85

    def test_iid_trace_fits_near_x_one_root(self, uniform_trace, deflate):
        fit = spec_from_trace(uniform_trace, trials=2, compressor=deflate,
                              seed=RngSeed(4))
        x = model_temporal_ratio(fit.repeat_p, joint_entropy(fit.matrix))
        assert x == pytest.approx(1.0, abs=0.05)

    def test_constant_trace_pins_p_with_warning(self, deflate):
        tr = Trace.from_pairs([(3, 3)] * 1000)
        with pytest.warns(UserWarning, match="single repeated pair"):
            fit = spec_from_trace(tr, trials=1, compressor=deflate, seed=RngSeed(0))
        assert fit.repeat_p == 1.0


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
        assert presets["bursty"].repeat_p == pytest.approx(0.7087856, abs=1e-5)
        assert presets["skewed_bursty"].repeat_p == pytest.approx(0.8155419, abs=1e-5)

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
