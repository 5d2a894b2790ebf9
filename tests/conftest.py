"""Shared fixtures: small deterministic traces and fast compressor handles.

Unit tests stick to DEFLATE or low-preset LZMA on short traces so the suite
stays quick; the acceptance tests (test_acceptance.py) run the real defaults
at full length.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from tracecomplexity import (CompressorHandle, GeneratorSpec, RngSeed, Trace,
                             TrafficMatrix, generate)

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def deflate() -> CompressorHandle:
    return CompressorHandle("deflate", 9)


@pytest.fixture(scope="session")
def lzma_fast() -> CompressorHandle:
    return CompressorHandle("lzma", 1)


@pytest.fixture
def seed() -> RngSeed:
    return RngSeed(0)


@pytest.fixture(scope="session")
def uniform_trace() -> Trace:
    """50k-entry iid uniform trace over 16 IDs."""
    spec = GeneratorSpec(TrafficMatrix.uniform(16), 0.0, 50_000, RngSeed(11),
                         name="uniform-iid")
    return generate(spec)


@pytest.fixture(scope="session")
def bursty_trace() -> Trace:
    """50k-entry uniform-matrix trace with repeat probability 0.7."""
    spec = GeneratorSpec(TrafficMatrix.uniform(16), 0.7, 50_000, RngSeed(12),
                         name="bursty")
    return generate(spec)


def tiny(pairs, name="tiny") -> Trace:
    return Trace.from_pairs(pairs, name=name)


@pytest.fixture
def tiny_trace() -> Trace:
    return tiny([(0, 1), (1, 0), (2, 3), (3, 2)])


def _zipf_weights(count: int, exponent: float) -> np.ndarray:
    w = np.arange(1, count + 1, dtype=np.float64) ** -exponent
    return w / w.sum()


def periodic_trace(length: int, seed: int, period: int = 16, redraw: float = 0.05) -> Trace:
    """A cycle of ``period`` pairs over ``period`` IDs, repeated, with a
    share ``redraw`` of the sources drawn afresh: ordered, yet with almost
    no entry equal to the one before it."""
    rng = np.random.default_rng(seed)
    src = np.resize(np.arange(period), length)
    dst = np.resize(rng.permutation(period), length)
    noisy = rng.random(length) < redraw
    src[noisy] = rng.integers(period, size=int(noisy.sum()))
    return Trace.from_arrays(src, dst, name="periodic")


def flow_like_trace(length: int, seed: int, clients: int = 3000, servers: int = 40,
                    mean_burst: int = 6) -> Trace:
    """Zipf-weighted clients sending bursts of geometric length to
    Zipf-weighted servers, clients and servers being disjoint ID sets, as in
    a flow log."""
    rng = np.random.default_rng(seed)
    bursts = rng.geometric(1.0 / mean_burst, size=length)  # one burst per entry is enough
    client = rng.choice(clients, size=length, p=_zipf_weights(clients, 1.1))
    server = rng.choice(servers, size=length, p=_zipf_weights(servers, 1.0))
    src = np.repeat(client, bursts)[:length]
    dst = clients + np.repeat(server, bursts)[:length]
    return Trace.from_arrays(src, dst, name="flow-like")


def two_level_burst_trace(length: int, seed: int, switch: float = 0.01) -> Trace:
    """A burst process with two levels, which it switches between with
    probability ``switch`` per entry: 4 IDs per column repeating with
    probability 0.9, or 32 IDs repeating with probability 0.3. Neither
    level is the generator's chain over the whole trace's matrix."""
    rng = np.random.default_rng(seed)
    high = np.cumsum(rng.random(length) < switch) % 2 == 1
    ids = np.where(high, 32, 4)
    fresh = rng.random(length) >= np.where(high, 0.3, 0.9)
    fresh[0] = True
    last_fresh = np.maximum.accumulate(np.where(fresh, np.arange(length), 0))
    src = (rng.random(length) * ids).astype(np.int64)[last_fresh]
    dst = (rng.random(length) * ids).astype(np.int64)[last_fresh]
    return Trace.from_arrays(src, dst, name="two-level-burst")
