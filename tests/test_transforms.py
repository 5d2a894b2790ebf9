"""Randomization transforms: shuffle invariants, uniform resampling modes, seeding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracecomplexity import (RngSeed, Trace, default_uniform_mode, resample_uniform,
                             temporal_shuffle)

MODES = ("pair", "columnwise", "single")


def pair_histogram(trace: Trace):
    codes = trace.sources * (trace.id_space.union.max() + 1) + trace.dests
    values, counts = np.unique(codes, return_counts=True)
    return values.tolist(), counts.tolist()


class TestRngSeed:
    def test_same_seed_same_stream(self):
        a = RngSeed(5).generator().integers(0, 1 << 30, size=8)
        b = RngSeed(5).generator().integers(0, 1 << 30, size=8)
        assert np.array_equal(a, b)

    def test_derive_changes_stream(self):
        base = RngSeed(5)
        x = base.generator().integers(0, 1 << 30, size=8)
        y = base.derive(0).generator().integers(0, 1 << 30, size=8)
        assert not np.array_equal(x, y)

    def test_derive_order_matters(self):
        a = RngSeed(5).derive(1, 2)
        b = RngSeed(5).derive(2, 1)
        assert a != b
        assert not np.array_equal(a.generator().integers(0, 1 << 30, size=8),
                                  b.generator().integers(0, 1 << 30, size=8))

    def test_derive_is_pure(self):
        base = RngSeed(7, (3,))
        assert base.derive(4) == RngSeed(7, (3, 4))
        assert base == RngSeed(7, (3,))


class TestTemporalShuffle:
    def test_preserves_pair_histogram(self, uniform_trace):
        shuffled = temporal_shuffle(uniform_trace, RngSeed(1))
        assert pair_histogram(shuffled) == pair_histogram(uniform_trace)

    def test_deterministic(self, uniform_trace):
        a = temporal_shuffle(uniform_trace, RngSeed(2))
        b = temporal_shuffle(uniform_trace, RngSeed(2))
        assert np.array_equal(a.sources, b.sources)
        assert np.array_equal(a.dests, b.dests)

    def test_seed_changes_permutation(self, uniform_trace):
        a = temporal_shuffle(uniform_trace, RngSeed(2))
        b = temporal_shuffle(uniform_trace, RngSeed(3))
        assert not np.array_equal(a.sources, b.sources)

    def test_rows_move_together(self):
        tr = Trace.from_pairs([(i, i + 100) for i in range(50)])
        sh = temporal_shuffle(tr, RngSeed(0))
        assert np.array_equal(sh.dests, sh.sources + 100)

    def test_length_one_is_identity(self):
        tr = Trace.from_pairs([(4, 2)])
        sh = temporal_shuffle(tr, RngSeed(9))
        assert (sh.sources.tolist(), sh.dests.tolist()) == ([4], [2])

    def test_keeps_id_space(self, uniform_trace):
        sh = temporal_shuffle(uniform_trace, RngSeed(4))
        assert sh.id_space is uniform_trace.id_space

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    min_size=1, max_size=40),
           st.integers(0, 2 ** 32))
    def test_histogram_invariant_property(self, pairs, seed):
        tr = Trace.from_pairs(pairs)
        assert pair_histogram(temporal_shuffle(tr, RngSeed(seed))) == pair_histogram(tr)


class TestUniformResample:
    """Mode "pair": both columns drawn from the ID union."""

    def test_marginals_on_two_ids(self):
        tr = Trace.from_arrays(np.zeros(1_000_000, dtype=np.int64),
                               np.ones(1_000_000, dtype=np.int64))
        u = resample_uniform(tr, RngSeed(6), "pair")
        codes = u.sources * 2 + u.dests
        freqs = np.bincount(codes, minlength=4) / len(u)
        assert np.all(np.abs(freqs - 0.25) < 0.002)

    def test_ids_stay_in_union(self, uniform_trace):
        union = set(uniform_trace.id_space.union.tolist())
        for mode in MODES:
            u = resample_uniform(uniform_trace, RngSeed(7), mode)
            assert set(np.unique(u.sources)) <= union
            assert set(np.unique(u.dests)) <= union

    def test_deterministic(self, uniform_trace):
        for mode in MODES:
            a = resample_uniform(uniform_trace, RngSeed(8), mode)
            b = resample_uniform(uniform_trace, RngSeed(8), mode)
            assert np.array_equal(a.sources, b.sources) and np.array_equal(a.dests, b.dests)

    def test_union_includes_both_columns(self):
        # sources {0}, dests {1}: resampled columns may use either ID
        tr = Trace.from_arrays(np.zeros(200_000, dtype=np.int64),
                               np.ones(200_000, dtype=np.int64))
        u = resample_uniform(tr, RngSeed(3), "pair")
        assert set(np.unique(u.sources).tolist()) == {0, 1}


class TestColumnwiseResample:
    """Mode "columnwise": each column drawn from its own ID set."""

    def test_constant_source_stays_constant(self):
        tr = Trace.from_arrays(np.ones(1_000_000, dtype=np.int64),
                               np.random.default_rng(0).integers(2, 4, size=1_000_000))
        u = resample_uniform(tr, RngSeed(5), "columnwise")
        assert np.all(u.sources == 1)
        dest_freq = np.bincount(u.dests, minlength=4)[2:] / len(u)
        assert np.all(np.abs(dest_freq - 0.5) < 0.005)

    def test_columns_confined_to_own_sets(self):
        tr = Trace.from_arrays(np.array([0, 1] * 500), np.array([2, 3] * 500))
        u = resample_uniform(tr, RngSeed(1), "columnwise")
        assert set(np.unique(u.sources).tolist()) <= {0, 1}
        assert set(np.unique(u.dests).tolist()) <= {2, 3}


class TestSingleResample:
    """Mode "single": one draw from the ID union, duplicated into both columns."""

    def test_columns_identical(self, uniform_trace):
        u = resample_uniform(uniform_trace, RngSeed(2), "single")
        assert np.array_equal(u.sources, u.dests)

    def test_uniform_marginal(self):
        tr = Trace.from_arrays(np.arange(16).repeat(50_000),
                               np.arange(16).repeat(50_000))
        u = resample_uniform(tr, RngSeed(4), "single")
        freqs = np.bincount(u.sources, minlength=16) / len(u)
        assert np.all(np.abs(freqs - 1 / 16) < 0.003)


class TestModeSelection:
    def test_symmetric_trace_uses_pair(self, uniform_trace):
        assert default_uniform_mode(uniform_trace) == "pair"

    def test_disjoint_columns_use_columnwise(self):
        tr = Trace.from_arrays(np.array([0, 1] * 10), np.array([2, 3] * 10))
        assert default_uniform_mode(tr) == "columnwise"

    def test_threshold_boundary(self):
        # 20 shared IDs + 1 source-only ID: ratio 1/21 < 0.10 -> pair
        shared = list(range(20))
        tr = Trace.from_arrays(np.array(shared + [20]), np.array(shared + [0]))
        assert default_uniform_mode(tr) == "pair"
        # 8 shared + 2 source-only: ratio 2/10 > 0.10 -> columnwise
        tr2 = Trace.from_arrays(np.array(list(range(10))), np.array(list(range(8)) * 2)[:10])
        assert default_uniform_mode(tr2) == "columnwise"

    def test_dispatcher_modes_and_errors(self, uniform_trace):
        for mode in MODES:
            out = resample_uniform(uniform_trace, RngSeed(0), mode)
            assert len(out) == len(uniform_trace)
        with pytest.raises(ValueError):
            resample_uniform(uniform_trace, RngSeed(0), "bogus")
