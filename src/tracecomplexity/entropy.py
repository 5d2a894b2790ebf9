"""Traffic matrices and exact entropy arithmetic.

All entropies are in bits. The joint entropy of a traffic matrix drives both
directions of the synthesis problem: forward (matrix + repeat probability ->
predicted complexity coordinates) and inverse (target coordinates -> Zipf
exponent and repeat probability, solved by bisection).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .trace import Trace, pair_codes

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TrafficMatrix:
    """Joint probability over (source, destination) pairs.

    Stored sparsely as parallel arrays over the support. ``n`` is the size of
    the union ID set the matrix lives on, which fixes the 2*log2(n) ceiling
    used to normalize its entropy.
    """

    sources: np.ndarray  # (k,) int64
    dests: np.ndarray    # (k,) int64
    probs: np.ndarray    # (k,) float64, sums to 1
    n: int

    def __post_init__(self):
        if self.probs.size == 0:
            raise ValueError("traffic matrix needs a non-empty support")
        if self.probs.min() < 0:
            raise ValueError("probabilities must be non-negative")
        if abs(float(self.probs.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {self.probs.sum()!r}, not 1")
        if self.n < 1:
            raise ValueError("n must be at least 1")

    @property
    def support_size(self) -> int:
        return int(self.probs.size)

    @classmethod
    def from_cells(cls, cells: dict[tuple[int, int], float], n: int | None = None) -> "TrafficMatrix":
        pairs = sorted(cells)
        src = np.array([p[0] for p in pairs], dtype=np.int64)
        dst = np.array([p[1] for p in pairs], dtype=np.int64)
        probs = np.array([cells[p] for p in pairs], dtype=np.float64)
        if n is None:
            n = int(np.union1d(src, dst).size)
        return cls(src, dst, probs, n)

    @classmethod
    def uniform(cls, n_ids: int) -> "TrafficMatrix":
        grid = np.arange(n_ids, dtype=np.int64)
        src = np.repeat(grid, n_ids)
        dst = np.tile(grid, n_ids)
        probs = np.full(n_ids * n_ids, 1.0 / (n_ids * n_ids))
        return cls(src, dst, probs, n_ids)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        dense[self.sources, self.dests] = self.probs
        return dense

    def cell_dict(self) -> dict[tuple[int, int], float]:
        return {(int(s), int(d)): float(p)
                for s, d, p in zip(self.sources, self.dests, self.probs)}

    def write_dense_csv(self, path) -> np.ndarray:
        """Dense n-by-n grid export for heatmap plotting; returns the grid,
        so a caller that also draws it need not build it again."""
        dense = self.to_dense()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in dense:
                w.writerow(map(repr, row.tolist()))
        return dense


def binary_entropy(p: float) -> float:
    """H(p, 1-p) in bits; 0 at both endpoints."""
    if p < 0.0 or p > 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def joint_entropy(matrix: TrafficMatrix) -> float:
    """-sum p*log2(p) over the support, with 0*log(0) = 0."""
    p = matrix.probs[matrix.probs > 0]
    # + 0.0 turns the -0.0 of a single-cell matrix into 0.0 and no other value
    return float(-(p * np.log2(p)).sum() + 0.0)


def normalized_nontemporal(matrix: TrafficMatrix) -> float:
    """Joint entropy over its ceiling 2*log2(n): the model's y coordinate."""
    if matrix.n < 2:
        raise SolverError("normalized entropy is undefined for n=1 (ceiling is 0)")
    return joint_entropy(matrix) / (2.0 * math.log2(matrix.n))


def model_temporal_ratio(repeat_p: float, h_matrix: float) -> float:
    """Predicted temporal ratio x = (H(p,1-p) + (1-p)*H_M) / H_M.

    May exceed 1 for small p when the repeat indicator contributes more
    entropy than repetition removes; returned as-is.
    """
    if not 0.0 <= repeat_p <= 1.0:
        raise ValueError(f"repeat probability {repeat_p} outside [0, 1]")
    if h_matrix <= 0.0:
        raise SolverError("temporal ratio is undefined for a zero-entropy matrix")
    return (binary_entropy(repeat_p) + (1.0 - repeat_p) * h_matrix) / h_matrix


def solve_repeat_probability(x_target: float, h_matrix: float, tol: float = 1e-10) -> float:
    """Invert model_temporal_ratio on its decreasing branch.

    The additive ratio is a closed-form upper bound on the exact one;
    ``solve_chain_repeat_probability`` inverts the exact ratio, which is what
    the generator solves.

    The forward map rises from x(0)=1 to a peak at p_peak = 1/(1+2^H_M) and
    then falls monotonically to x(1)=0; every target in [0, 1] has exactly one
    preimage in [p_peak, 1], found here by bisection until the forward
    residual drops below ``tol``.
    """
    if h_matrix <= 0.0:
        raise SolverError("cannot solve repeat probability for a zero-entropy matrix")
    if not 0.0 <= x_target <= 1.0:
        raise SolverError(f"temporal target {x_target} outside [0, 1]")
    if x_target == 0.0:
        return 1.0

    def residual(p: float) -> float:
        return binary_entropy(p) + (1.0 - p) * h_matrix - x_target * h_matrix

    lo = 1.0 / (1.0 + 2.0 ** h_matrix)  # peak of the forward map
    hi = 1.0
    while hi - lo > 1e-16:
        mid = 0.5 * (lo + hi)
        r = residual(mid)
        if abs(r) < tol:
            return mid
        if r > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def zipf_matrix(n_ids: int, exponent: float) -> TrafficMatrix:
    """Zipf-law matrix: the n^2 ordered pairs ranked row-major, cell
    probability proportional to rank**(-exponent). Exponent 0 is uniform.

    ``exponent`` is the pmf exponent s; the tail exponent of the same rank
    law (P(rank >= r) ~ r**-alpha) is alpha = s - 1.
    """
    if n_ids < 1:
        raise ValueError("need at least one ID")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    k = n_ids * n_ids
    ranks = np.arange(1, k + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    probs = weights / weights.sum()
    grid = np.arange(n_ids, dtype=np.int64)
    return TrafficMatrix(sources=np.repeat(grid, n_ids), dests=np.tile(grid, n_ids),
                         probs=probs, n=n_ids)


ZIPF_EXPONENT_MAX = 64.0


def solve_zipf_exponent(n_ids: int, y_target: float, tol: float = 1e-6) -> float:
    """Exponent whose Zipf matrix has normalized entropy y_target.

    The result is the pmf exponent s that ``zipf_matrix`` takes; the tail
    exponent of the rank law is s - 1.

    Normalized entropy decreases strictly in the exponent over [0, 64] for a
    fixed support, so plain bisection applies. y_target=1 maps to exponent 0;
    y_target=0 is unreachable by any finite exponent (use a degenerate
    single-pair matrix instead).
    """
    if n_ids < 2:
        raise SolverError("need n >= 2 to target a normalized entropy")
    if y_target <= 0.0:
        raise SolverError(
            "normalized entropy 0 is unreachable by a Zipf matrix; "
            "use a degenerate single-pair matrix for y=0")
    if y_target > 1.0:
        raise SolverError(f"normalized entropy target {y_target} exceeds 1")

    def forward(e: float) -> float:
        return normalized_nontemporal(zipf_matrix(n_ids, e))

    if y_target == 1.0:
        return 0.0
    floor = forward(ZIPF_EXPONENT_MAX)
    if y_target < floor:
        raise SolverError(
            f"normalized entropy target {y_target} below the exponent-{ZIPF_EXPONENT_MAX:g} "
            f"floor {floor:.3g} for n={n_ids}")
    lo, hi = 0.0, ZIPF_EXPONENT_MAX
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        y = forward(mid)
        if abs(y - y_target) < tol:
            return mid
        if y > y_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def empirical_matrix(trace: Trace) -> TrafficMatrix:
    """Pair-frequency matrix of a trace: counts over t.

    Pairs are counted by their ``pair_codes`` number, so the matrix lives on
    the ranks 0..n-1 of the trace's IDs whatever the IDs. They are counted
    with a table of all n*n pairs when that is no longer than the trace, else
    by sorting.
    """
    codes, n = pair_codes(trace)
    if n * n <= codes.size:
        counts = np.bincount(codes, minlength=n * n)
        pairs = np.flatnonzero(counts)
        counts = counts[pairs]
    else:
        pairs, counts = np.unique(codes, return_counts=True)
    return TrafficMatrix(sources=pairs // n, dests=pairs % n,
                         probs=counts / counts.sum(), n=n)


def repeat_chain_entropy_rate(matrix: TrafficMatrix, repeat_p: float) -> float:
    """Exact entropy rate in bits/entry of the repeat chain over ``matrix``.

    The chain repeats the previous pair with probability p, else draws fresh
    from the matrix, whose distribution is stationary for it. Conditioned on
    the previous pair z, the next pair follows (1-p)*M + p*delta_z; the rate
    is the stationary average of that mixture's entropy. Slightly below the
    additive approximation H(p,1-p) + (1-p)*H(M) because a fresh draw can
    coincide with the previous pair.
    """
    if not 0.0 <= repeat_p <= 1.0:
        raise ValueError(f"repeat probability {repeat_p} outside [0, 1]")
    p = repeat_p
    if p == 0.0:
        return joint_entropy(matrix)
    if p == 1.0:
        return 0.0  # the first pair repeats forever
    probs = matrix.probs
    if probs.min() == 0.0:
        probs = probs[probs > 0]  # a cell no draw reaches adds no entropy
    # H(next | prev=z) = -(sum of base terms) + base_z term - bumped_z term.
    # The solver calls this per bisection step, so the temporaries are reused.
    base = (1.0 - p) * probs          # fresh-draw mass on every cell
    plogp_base = np.log2(base)
    plogp_base *= base
    base += p                         # the previous pair's cell gets +p
    plogp_bump = np.log2(base)
    plogp_bump *= base
    h_all_base = -plogp_base.sum()
    plogp_base -= plogp_bump
    plogp_base *= probs
    return float(h_all_base + plogp_base.sum())


def solve_chain_repeat_probability(matrix: TrafficMatrix, x_target: float) -> float:
    """Repeat probability at which the chain's exact temporal ratio
    ``repeat_chain_entropy_rate(matrix, p) / H(matrix)`` equals x_target.

    The ratio is 1 at p = 0, where its slope is 0, and falls monotonically
    to 0 at p = 1, so plain bisection over [0, 1] inverts it. Sixty halvings
    leave an interval of 2**-60, finer than the spacing of doubles near 1,
    and the midpoint is returned. x = 1 gives p = 0 and x = 0 gives p = 1
    exactly. ``solve_repeat_probability`` inverts the additive bound instead.
    """
    h = joint_entropy(matrix)
    if h <= 0.0:
        raise SolverError("cannot solve repeat probability for a zero-entropy matrix")
    if not 0.0 <= x_target <= 1.0:
        raise SolverError(f"temporal target {x_target} outside [0, 1]")
    if x_target == 1.0:
        return 0.0
    if x_target == 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if repeat_chain_entropy_rate(matrix, mid) / h > x_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
