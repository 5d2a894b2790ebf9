"""Entropy calculations, analytic solvers, and the repeat-chain entropy rate.

Numeric anchors below were computed independently by direct summation /
bisection before being frozen here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracecomplexity import (GeneratorSpec, RngSeed, SolverError, Trace, TrafficMatrix,
                             binary_entropy, empirical_matrix, generate, joint_entropy,
                             model_temporal_ratio, normalized_nontemporal,
                             repeat_chain_entropy_rate, resample_uniform,
                             solve_repeat_probability, solve_zipf_exponent,
                             temporal_shuffle, zipf_matrix)

# Normalized joint entropy of the 256-cell Zipf matrix at pmf exponent 5/3,
# by direct summation (the matrix whose normalized entropy is ~0.4095).
NORM_H_AT_5_3 = 0.40952815295574035
# Exponent solving normalized entropy 0.4 over 16x16 cells, by bisection.
EXPONENT_AT_Y_04 = 1.6887054443359375
# Exact entropy rate of the repeat chain over uniform 16x16, p = 0.5.
RATE_UNIFORM_HALF = 4.981551739955417


class TestBinaryEntropy:
    def test_symmetric_peak(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_known_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)

    @given(st.floats(0.001, 0.999))
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-12)


class TestTrafficMatrix:
    def test_uniform_entropy(self):
        assert joint_entropy(TrafficMatrix.uniform(16)) == pytest.approx(8.0, abs=1e-12)

    def test_single_pair_entropy(self):
        m = TrafficMatrix.from_cells({(0, 0): 1.0}, n=16)
        assert joint_entropy(m) == 0.0

    def test_probability_sum_checked(self):
        with pytest.raises(ValueError, match="sum"):
            TrafficMatrix.from_cells({(0, 0): 0.7, (0, 1): 0.2})

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            TrafficMatrix.from_cells({(0, 0): 1.5, (0, 1): -0.5})

    def test_dense_round_trip(self):
        m = zipf_matrix(4, 1.0)
        dense = m.to_dense()
        assert dense.shape == (4, 4)
        assert dense.sum() == pytest.approx(1.0, abs=1e-12)
        assert dense[0, 0] == max(m.probs)


class TestNormalized:
    def test_uniform_is_one(self):
        assert normalized_nontemporal(TrafficMatrix.uniform(16)) == 1.0

    def test_deterministic_is_zero(self):
        m = TrafficMatrix.from_cells({(3, 7): 1.0}, n=16)
        assert normalized_nontemporal(m) == 0.0

    def test_single_id_undefined(self):
        m = TrafficMatrix.from_cells({(0, 0): 1.0}, n=1)
        with pytest.raises(SolverError):
            normalized_nontemporal(m)


class TestModelRatio:
    def test_p_zero_is_one(self):
        assert model_temporal_ratio(0.0, 8.0) == 1.0

    def test_p_one_is_zero(self):
        assert model_temporal_ratio(1.0, 8.0) == 0.0

    def test_midpoint(self):
        assert model_temporal_ratio(0.5, 8.0) == pytest.approx(0.625, abs=1e-15)

    def test_can_exceed_one_for_small_p(self):
        # binary entropy of the repeat flag can outweigh p bits of matrix entropy
        assert model_temporal_ratio(0.005, 8.0) > 1.0

    def test_zero_entropy_rejected(self):
        with pytest.raises(SolverError):
            model_temporal_ratio(0.5, 0.0)


class TestSolveRepeatProbability:
    def test_x_zero_gives_p_one(self):
        assert solve_repeat_probability(0.0, 8.0) == 1.0

    def test_x_one_root_on_decreasing_branch(self):
        p = solve_repeat_probability(1.0, 8.0)
        assert p == pytest.approx(0.010562162686878603, abs=1e-9)
        assert model_temporal_ratio(p, 8.0) == pytest.approx(1.0, abs=1e-9)
        assert p > 1.0 / (1.0 + 2.0 ** 8)  # strictly above the peak

    def test_forward_check_x_04(self):
        p = solve_repeat_probability(0.4, 8.0)
        assert model_temporal_ratio(p, 8.0) == pytest.approx(0.4, abs=1e-9)

    def test_inverts_forward_formula(self):
        assert solve_repeat_probability(0.625, 8.0) == pytest.approx(0.5, abs=1e-8)

    def test_x_out_of_range(self):
        with pytest.raises(SolverError):
            solve_repeat_probability(1.2, 8.0)
        with pytest.raises(SolverError):
            solve_repeat_probability(-0.1, 8.0)

    def test_zero_entropy_rejected(self):
        with pytest.raises(SolverError):
            solve_repeat_probability(0.5, 0.0)

    @given(st.floats(0.02, 1.0), st.floats(0.5, 16.0))
    def test_round_trip_identity(self, x, h):
        p = solve_repeat_probability(x, h)
        assert model_temporal_ratio(p, h) == pytest.approx(x, abs=1e-8)

    @given(st.floats(0.5, 16.0))
    def test_monotone_in_x(self, h):
        ps = [solve_repeat_probability(x, h) for x in (0.2, 0.5, 0.9)]
        assert ps[0] > ps[1] > ps[2]


class TestZipfMatrix:
    def test_exponent_zero_is_uniform(self):
        m = zipf_matrix(16, 0.0)
        assert np.allclose(m.probs, 1 / 256, atol=1e-15)

    def test_single_id(self):
        m = zipf_matrix(1, 2.0)
        assert m.support_size == 1 and m.probs[0] == 1.0

    def test_rank_one_heaviest(self):
        m = zipf_matrix(8, 1.3)
        dense = m.to_dense()
        assert dense[0, 0] == dense.max()
        # row-major ranking: the second-ranked cell is (0, 1)
        assert dense[0, 1] == np.sort(dense.ravel())[-2]

    def test_anchor_normalized_entropy(self):
        m = zipf_matrix(16, 5.0 / 3.0)
        assert normalized_nontemporal(m) == pytest.approx(NORM_H_AT_5_3, abs=1e-9)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            zipf_matrix(8, -0.5)


class TestSolveZipfExponent:
    def test_y_one_gives_zero(self):
        assert solve_zipf_exponent(16, 1.0) == 0.0

    def test_y_04_anchor(self):
        e = solve_zipf_exponent(16, 0.4)
        assert e == pytest.approx(EXPONENT_AT_Y_04, abs=1e-4)
        m = zipf_matrix(16, e)
        assert normalized_nontemporal(m) == pytest.approx(0.4, abs=1e-6)

    def test_y_near_one_small_exponent(self):
        assert 0.0 < solve_zipf_exponent(16, 0.999) < 0.2

    def test_y_zero_advises_degenerate(self):
        with pytest.raises(SolverError, match="degenerate"):
            solve_zipf_exponent(16, 0.0)

    def test_tiny_positive_y_stays_solvable(self):
        e = solve_zipf_exponent(16, 1e-6)
        assert normalized_nontemporal(zipf_matrix(16, e)) == pytest.approx(1e-6,
                                                                           abs=1e-6)

    def test_y_above_one_rejected(self):
        with pytest.raises(SolverError):
            solve_zipf_exponent(16, 1.2)

    @given(st.floats(0.2, 1.0))
    def test_round_trip_identity(self, y):
        e = solve_zipf_exponent(16, y)
        assert normalized_nontemporal(zipf_matrix(16, e)) == pytest.approx(y, abs=1e-5)


class TestEmpiricalMatrix:
    def test_simple_counts(self):
        tr = Trace.from_pairs([(0, 1), (0, 1), (2, 3), (2, 3)])
        m = empirical_matrix(tr)
        assert m.cell_dict() == {(0, 1): 0.5, (2, 3): 0.5}

    def test_uniform_resample_frequencies(self):
        tr = Trace.from_arrays(np.arange(4).repeat(250_000),
                               np.arange(4).repeat(250_000))
        u = resample_uniform(tr, RngSeed(21), "pair")
        m = empirical_matrix(u)
        assert m.support_size == 16
        assert np.all(np.abs(m.probs - 0.0625) < 0.003)

    def test_shuffle_invariance(self, uniform_trace):
        a = empirical_matrix(uniform_trace)
        b = empirical_matrix(temporal_shuffle(uniform_trace, RngSeed(5)))
        assert a.cell_dict() == b.cell_dict()


def oracle_empirical_matrix(trace: Trace) -> TrafficMatrix:
    """empirical_matrix as it was before it ranked IDs, kept as its
    reference: pair codes by ID value, counted by np.unique."""
    n = trace.id_space.n
    base = int(max(trace.sources.max(), trace.dests.max())) + 1
    codes = trace.sources * base + trace.dests
    uniq, counts = np.unique(codes, return_counts=True)
    probs = counts / counts.sum()
    return TrafficMatrix(sources=(uniq // base).astype(np.int64),
                         dests=(uniq % base).astype(np.int64),
                         probs=probs.astype(np.float64), n=n)


def matrix_arrays(m: TrafficMatrix):
    return (m.sources.tolist(), m.dests.tolist(), m.probs.tolist(), m.n,
            m.sources.dtype, m.dests.dtype, m.probs.dtype)


class TestEmpiricalMatrixAgainstUnique:
    """Counting with a table of all pairs (no more pairs than entries) and
    sorting give the matrix np.unique gave; sparse IDs become their ranks."""

    @given(st.integers(1, 12), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                                        min_size=1, max_size=200))
    def test_dense_ids_same_matrix(self, n, pairs):
        src, dst = np.array([(s % n, d % n) for s, d in pairs], dtype=np.int64).T
        ids = np.arange(n)  # every ID occurs, as in a parsed or generated trace
        tr = Trace.from_arrays(np.concatenate([ids, src]), np.concatenate([ids[::-1], dst]))
        assert matrix_arrays(empirical_matrix(tr)) == matrix_arrays(oracle_empirical_matrix(tr))

    @pytest.mark.parametrize("length", [15, 16, 17], ids=["sorted", "table-exactly", "table"])
    def test_table_threshold(self, length):
        ids = np.arange(length) % 4  # 16 pairs
        tr = Trace.from_arrays(ids, (ids * 3 + 1) % 4)
        assert matrix_arrays(empirical_matrix(tr)) == matrix_arrays(oracle_empirical_matrix(tr))

    @given(st.lists(st.tuples(st.sampled_from([3, 9, 2 ** 40, 2 ** 62]),
                              st.sampled_from([0, 9, 2 ** 33])), min_size=1, max_size=40))
    def test_sparse_ids_by_rank(self, pairs):
        tr = Trace.from_pairs(pairs)
        union = tr.id_space.union
        ranked = Trace.from_arrays(np.searchsorted(union, tr.sources),
                                   np.searchsorted(union, tr.dests))
        m = empirical_matrix(tr)
        assert matrix_arrays(m) == matrix_arrays(oracle_empirical_matrix(ranked))
        assert m.to_dense().sum() == pytest.approx(1.0)


class TestRepeatChainRate:
    def test_p_zero_equals_matrix_entropy(self):
        m = zipf_matrix(16, EXPONENT_AT_Y_04)
        assert repeat_chain_entropy_rate(m, 0.0) == pytest.approx(joint_entropy(m),
                                                                  abs=1e-12)

    def test_p_one_is_zero(self):
        assert repeat_chain_entropy_rate(TrafficMatrix.uniform(16), 1.0) == 0.0

    def test_uniform_half_anchor(self):
        rate = repeat_chain_entropy_rate(TrafficMatrix.uniform(16), 0.5)
        assert rate == pytest.approx(RATE_UNIFORM_HALF, abs=1e-9)

    def test_below_additive_upper_bound(self):
        # conditioning on the previous symbol can only help: the exact rate sits
        # under H2(p) + (1-p) H(M)
        m = TrafficMatrix.uniform(16)
        for p in (0.1, 0.5, 0.9):
            additive = binary_entropy(p) + (1 - p) * joint_entropy(m)
            rate = repeat_chain_entropy_rate(m, p)
            assert rate < additive
            assert rate > (1 - p) * joint_entropy(m) - 1e-12

    def test_monotone_decreasing_in_p(self):
        m = zipf_matrix(16, 1.0)
        rates = [repeat_chain_entropy_rate(m, p) for p in (0.0, 0.3, 0.6, 0.9)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


def test_generated_trace_matches_rate_oracle():
    # plug-in entropy of observed (prev, next) transitions approximates the rate
    m = TrafficMatrix.uniform(4)
    spec = GeneratorSpec(m, 0.5, 400_000, RngSeed(31), name="rate-check")
    tr = generate(spec)
    codes = tr.sources.to_numpy() if hasattr(tr.sources, "to_numpy") else tr.sources
    codes = codes * 4 + tr.dests
    joint, counts = np.unique(np.stack([codes[:-1], codes[1:]]), axis=1,
                              return_counts=True)
    pj = counts / counts.sum()
    h_joint = -(pj * np.log2(pj)).sum()
    prev, pcounts = np.unique(codes[:-1], return_counts=True)
    pp = pcounts / pcounts.sum()
    h_prev = -(pp * np.log2(pp)).sum()
    measured = h_joint - h_prev
    assert measured == pytest.approx(repeat_chain_entropy_rate(m, 0.5), abs=0.01)
