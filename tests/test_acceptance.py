"""Acceptance suite: one test per release criterion, at full scale.

Every test prints a single summary line (run pytest with -s to see them all;
captured output is shown for failures either way). These run the shipping
defaults — LZMA preset 6, three randomization trials, one-million-entry
traces. The whole module, criterion 4's sweep over five more generator seeds
included, took 112 s on a 2-core machine (Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from tracecomplexity import (AnalysisReport, CompressorHandle, GeneratorSpec, MapPoint,
                             RngSeed, TrafficMatrix, complexity_map_svg,
                             empirical_matrix, encode_canonical, generate,
                             joint_entropy, normalized_nontemporal,
                             reference_presets, repeat_chain_entropy_rate,
                             resample_uniform, solve_repeat_probability,
                             solve_zipf_exponent, spec_from_trace, temporal_shuffle,
                             trace_complexity, write_trace, zipf_matrix,
                             REFERENCE_TARGETS)

LENGTH = 1_000_000
N_IDS = 16
TRIALS = 3
BASE = RngSeed(0)
COMP = CompressorHandle("lzma", 6)


def announce(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {status} — {detail}", flush=True)


@pytest.fixture(scope="module")
def preset_results():
    """Generate + analyze the four reference presets once, at full scale."""
    presets = reference_presets(N_IDS, LENGTH, seed=BASE)
    points = {}
    kept_trace = {}
    for name, spec in presets.items():
        trace = generate(spec)
        points[name] = trace_complexity(trace, COMP, trials=TRIALS, seed=BASE)
        if name == "skewed_bursty":
            kept_trace[name] = trace
    return {"specs": presets, "points": points, "traces": kept_trace}


def chain_rows(base: RngSeed) -> list[dict]:
    """Repeat-chain traces with analytically known entropy rates, generated
    from ``base`` and analyzed with the suite's analysis seed."""
    zm = zipf_matrix(N_IDS, solve_zipf_exponent(N_IDS, 0.4))
    rows = []
    for j, (mat, label) in enumerate(((TrafficMatrix.uniform(N_IDS), "uniform"),
                                      (zm, "zipf"))):
        h = joint_entropy(mat)
        for k, p in enumerate((0.0, 0.5, 0.9)):
            spec = GeneratorSpec(mat, p, LENGTH, base.derive(200 + 10 * j + k),
                                 name=f"{label}-p{p}")
            point = trace_complexity(generate(spec), COMP, trials=TRIALS, seed=BASE)
            rows.append({
                "label": f"{label} p={p}",
                "point": point,
                "t_theory": repeat_chain_entropy_rate(mat, p) / h,
                "nt_theory": h / (2 * np.log2(N_IDS)),
            })
    return rows


@pytest.fixture(scope="module")
def chain_results():
    return chain_rows(BASE)


def test_criterion_1_reference_points(preset_results):
    worst = 0.0
    details = []
    for name, (tx, ty) in REFERENCE_TARGETS.items():
        pt = preset_results["points"][name]
        dev = max(abs(pt.temporal - tx), abs(pt.non_temporal - ty))
        worst = max(worst, dev)
        details.append(f"{name}=({pt.temporal:.3f},{pt.non_temporal:.3f})")
    ok = worst <= 0.1
    announce(1, "reference points", ok, f"max deviation {worst:.4f} ≤ 0.1; "
             + " ".join(details))
    assert ok


def test_criterion_2_fixed_zipf_exponent_anchor():
    # The anchor "exponent 2/3 <-> normalized entropy 0.40" is read as the
    # tail exponent alpha of the rank law (P(rank >= r) ~ r**-alpha). zipf_matrix
    # takes the pmf exponent s (P(rank = r) ~ r**-s), and s = 1 + alpha.
    alpha = 2.0 / 3.0
    s = 1.0 + alpha
    forward = normalized_nontemporal(zipf_matrix(N_IDS, s))
    ranks = np.arange(1, N_IDS * N_IDS + 1, dtype=np.float64)
    pmf = ranks ** -s / (ranks ** -s).sum()
    direct = float(-(pmf * np.log2(pmf)).sum()) / (2.0 * np.log2(N_IDS))
    # The solver must invert the forward map at the anchor, back to alpha.
    inverse = solve_zipf_exponent(N_IDS, forward) - 1.0
    ok = (abs(forward - direct) <= 1e-12 and abs(forward - 0.40) <= 0.01
          and abs(inverse - alpha) <= 0.02)
    announce(2, "zipf exponent anchor", ok,
             f"tail exponent 2/3 = pmf exponent s = {s:.4f}: "
             f"entropy {forward:.4f} (direct sum {direct:.4f}, want 0.40±0.01); "
             f"solved tail exponent {inverse:.4f} (want 0.667±0.02); "
             f"pmf exponent for 0.40 = {solve_zipf_exponent(N_IDS, 0.40):.4f}")
    assert abs(forward - direct) <= 1e-12
    assert abs(forward - 0.40) <= 0.01
    assert abs(inverse - alpha) <= 0.02


def test_criterion_3_multiplicativity(preset_results):
    worst = 0.0
    for pt in preset_results["points"].values():
        worst = max(worst, abs(pt.overall - pt.temporal * pt.non_temporal)
                    / max(pt.overall, 1e-300))
    ok = worst < 1e-9
    announce(3, "overall = T × NT", ok, f"max relative error {worst:.2e} < 1e-9")
    assert ok


def check_criterion_4(rows: list[dict], label: str) -> None:
    worst = 0.0
    details = []
    for row in rows:
        pt = row["point"]
        dev = max(abs(pt.temporal - row["t_theory"]),
                  abs(pt.non_temporal - row["nt_theory"]))
        worst = max(worst, dev)
        details.append(f"{row['label']}: T={pt.temporal:.3f}/{row['t_theory']:.3f} "
                       f"NT={pt.non_temporal:.3f}/{row['nt_theory']:.3f}")
    ok = worst <= 0.1
    announce(4, label, ok, f"max |measured−theory| {worst:.4f} ≤ 0.1; " + "; ".join(details))
    assert ok


def test_criterion_4_entropy_rate_oracle(chain_results):
    check_criterion_4(chain_results, "entropy-rate convergence")


@pytest.mark.parametrize("generator_seed", [1, 2, 3, 4, 5])
def test_criterion_4_across_generator_seeds(generator_seed):
    """Criterion 4 at other realizations of the same chains."""
    check_criterion_4(chain_rows(RngSeed(generator_seed)),
                      f"entropy-rate convergence, generator seed {generator_seed}")


def test_criterion_5_transform_invariants():
    spec = GeneratorSpec(zipf_matrix(N_IDS, 1.0), 0.3, 100_000, BASE.derive(300),
                         name="invariant-base")
    trace = generate(spec)
    reference = empirical_matrix(trace).cell_dict()
    shuffles_exact = all(
        empirical_matrix(temporal_shuffle(trace, RngSeed(s))).cell_dict() == reference
        for s in range(100))

    big = generate(GeneratorSpec(TrafficMatrix.uniform(N_IDS), 0.0, LENGTH,
                                 BASE.derive(301), name="chi-base"))
    resampled = resample_uniform(big, RngSeed(9), "pair")
    crit = stats.chi2.ppf(1 - 0.001, N_IDS - 1)
    chi_src = stats.chisquare(np.bincount(resampled.sources, minlength=N_IDS)).statistic
    chi_dst = stats.chisquare(np.bincount(resampled.dests, minlength=N_IDS)).statistic
    chi_ok = chi_src < crit and chi_dst < crit

    ok = shuffles_exact and chi_ok
    announce(5, "transform invariants", ok,
             f"matrix preserved for 100 shuffle seeds: {shuffles_exact}; "
             f"chi-square src={chi_src:.1f} dst={chi_dst:.1f} < {crit:.1f}")
    assert ok


def test_criterion_6_fit_round_trip(preset_results):
    true_p = preset_results["specs"]["skewed_bursty"].repeat_p
    original = preset_results["traces"]["skewed_bursty"]
    original_point = preset_results["points"]["skewed_bursty"]

    fitted = spec_from_trace(original, trials=TRIALS, compressor=COMP, seed=BASE)
    regen_point = trace_complexity(generate(fitted), COMP, trials=TRIALS, seed=BASE)
    p_err = abs(fitted.repeat_p - true_p)
    dist = max(abs(regen_point.temporal - original_point.temporal),
               abs(regen_point.non_temporal - original_point.non_temporal))
    ok = p_err <= 0.05 and dist <= 0.1
    announce(6, "fit round trip", ok,
             f"|p̂−p| = {p_err:.4f} ≤ 0.05; map distance {dist:.4f} ≤ 0.1 "
             f"(p={true_p:.4f}, fitted {fitted.repeat_p:.4f})")
    assert ok


def test_criterion_7_solver_identities():
    # The generator's solver against the exact chain rate it inverts, over
    # matrices whose entropies run from 0.96 to 16 bits.
    matrices = [zipf_matrix(4, 3.0), zipf_matrix(16, 1.2), TrafficMatrix.uniform(16),
                zipf_matrix(64, 5 / 3), zipf_matrix(256, 0.8), TrafficMatrix.uniform(256)]
    worst = 0.0
    for m in matrices:
        h = joint_entropy(m)
        for x in np.linspace(0.02, 1.0, 10):
            p = solve_repeat_probability(m, float(x))
            worst = max(worst, abs(repeat_chain_entropy_rate(m, p) / h - float(x)))
    m = matrices[1]
    endpoints_exact = (repeat_chain_entropy_rate(m, 0.0) / joint_entropy(m) == 1.0
                       and repeat_chain_entropy_rate(m, 1.0) == 0.0
                       and solve_repeat_probability(m, 0.0) == 1.0)
    ok = worst < 1e-8 and endpoints_exact
    announce(7, "solver identities", ok,
             f"max round-trip error {worst:.2e} < 1e-8 over {10 * len(matrices)} "
             f"(matrix, x) pairs; endpoint identities exact: {endpoints_exact}")
    assert ok


def test_criterion_8_determinism(tmp_path):
    spec = GeneratorSpec(zipf_matrix(N_IDS, 1.2), 0.6, 20_000, RngSeed(8),
                         name="determinism")
    comp = CompressorHandle("lzma", 1)

    def one_run(run: int):
        trace = generate(spec)
        path = tmp_path / f"run{run}.csv"
        write_trace(trace, path)
        point = trace_complexity(trace, comp, trials=2, seed=RngSeed(1))
        report = AnalysisReport.build(trace, point, comp, 2, RngSeed(1))
        body = "\n".join(line for line in report.to_json().splitlines()
                         if '"created_at"' not in line)
        svg = complexity_map_svg([MapPoint(trace.name, point.temporal,
                                           point.non_temporal, point.overall)])
        return path.read_bytes(), encode_canonical(trace), body, svg

    first, second = one_run(1), one_run(2)
    ok = first == second
    announce(8, "determinism", ok,
             "trace file, pair code, report (minus timestamp), and SVG identical across runs"
             if ok else "re-run artifacts differ")
    assert ok
