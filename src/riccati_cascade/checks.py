"""Runnable invariant suite behind the `check` subcommand.

Each check exercises one contract of the samplers, the grid recursions, the
estimators, or the serialization layer, with sample sizes small enough for
an interactive run.  All randomness is seeded, so a passing run is
reproducible bit for bit.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis_io import (
    read_histogram_csv,
    read_series_csv,
    verify_manifest,
    write_histogram_csv,
    write_manifest,
    write_series_csv,
    RunManifest,
)
from .cascade_core import (
    CascadeParams,
    ClockSource,
    derive_stream,
    leaf_census,
    sample_product_indicator,
    sample_tail_flags,
)
from .grid_numerics import (
    GridFunction,
    UniformGrid,
    convolve_kernel,
    iterate_qn,
    iterate_qn_levels,
    iterate_vn,
    picard_v0,
)
from .monte_carlo import (
    McConfig,
    _histogram,
    _leaf_totals,
    _walk_rows,
    compare_series,
    estimate_leaf_histogram,
    estimate_path_tails,
    estimate_v_curve,
)

__all__ = ["CheckResult", "run_all_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_stream_determinism(seed: int) -> CheckResult:
    params = CascadeParams(1.5, seed)
    a = derive_stream(params, 0).standard_exponential(64)
    b = derive_stream(params, 0).standard_exponential(64)
    c = derive_stream(params, 1).standard_exponential(64)
    same = bool(np.array_equal(a, b))
    differs = bool(not np.array_equal(a, c))
    return CheckResult(
        "stream_determinism",
        same and differs,
        f"substream 0 replays identically: {same}; substream 1 differs: {differs}",
    )


def check_sampler_determinism(seed: int) -> CheckResult:
    params = CascadeParams(1.5, seed)
    clocks = ClockSource.exponential()
    v0 = picard_v0(1.5, UniformGrid(8.0, 0.01), 3)
    runs = []
    for _ in range(2):
        leaves, alive = leaf_census(params, 2.0, 10, clocks, [derive_stream(params, 5)])
        x = sample_product_indicator(params, [2.0], 6, v0, clocks, [derive_stream(params, 6)])
        s, l = sample_tail_flags(params, 2.0, 20, clocks, [derive_stream(params, 7)])
        runs.append((int(leaves[0].sum()), bool(alive[0, 10]), float(x[0, 0]),
                     (bool(s[0]), bool(l[0]))))
    ok = runs[0] == runs[1]
    return CheckResult("sampler_determinism", ok, f"two replays gave {runs[0]} and {runs[1]}")


def _rows_with(bad: np.ndarray) -> int:
    return int(np.count_nonzero(np.any(bad, axis=1)))


def check_leaf_count_coupled_monotonicity(seed: int, samples: int) -> CheckResult:
    leaves, _ = _walk_rows(CascadeParams(1.5, seed), 0, samples, 12, t_census=2.0)[1]
    counts = np.cumsum(leaves, axis=1)  # the leaf count truncated at n = 0..12
    violations = _rows_with(counts[:, 1:] < counts[:, :-1])
    return CheckResult(
        "leaf_count_coupled_monotonicity",
        violations == 0,
        f"{violations} monotonicity violations in {samples} coupled trees",
    )


def check_path_extrema_monotonicity(seed: int, samples: int, alpha: float = 1.5) -> CheckResult:
    """The tail walk's flags {S_d > 2} and {L_d > 2} at d = 4, 8, 12 never fall
    as d grows, and {S_d > 2} implies {L_d > 2}, tree by tree.  Exact on
    shared substreams: a walk to a smaller depth draws a prefix of the clocks
    of a deeper one."""
    params = CascadeParams(alpha, seed)
    flags = [sample_tail_flags(params, 2.0, depth, ClockSource.exponential(),
                               [derive_stream(params, i) for i in range(samples)])
             for depth in (4, 8, 12)]
    s, l = (np.column_stack(cols) for cols in zip(*flags))
    bad = _rows_with(np.hstack([s[:, :-1] & ~s[:, 1:], l[:, :-1] & ~l[:, 1:], s & ~l]))
    return CheckResult(
        "path_extrema_monotonicity",
        bad == 0,
        f"{bad} of {samples} trees whose flags at t=2 fall over depths 4, 8, 12 or have S not L",
    )


def check_subcritical_survival_vanishes(seed: int, samples: int) -> CheckResult:
    """For alpha <= 1 the min path sum exceeds any fixed t as depth grows."""
    cfg = McConfig(seed=seed, samples=samples)
    details = []
    ok = True
    for alpha in (0.66, 1.0):
        freqs = []
        for depth in (8, 24):
            s_series, _ = estimate_path_tails(alpha, [2.0], depth, cfg)
            freqs.append(s_series.points[0].mean)
        ok = ok and freqs[1] >= freqs[0] - 3.0 / math.sqrt(samples) and freqs[1] > 0.9
        details.append(f"alpha={alpha}: P(S>2) {freqs[0]:.3f}->{freqs[1]:.3f}")
    return CheckResult("subcritical_survival_vanishes", ok, "; ".join(details))


def check_product_indicator_mean(alpha: float, seed: int, samples: int) -> CheckResult:
    """Monte Carlo product recursion agrees with the iterate: |z| <= 5 at every
    point, against the iterate's binomial variance (see compare_series)."""
    grid = UniformGrid(8.0, 0.01)
    v0 = picard_v0(alpha, grid, 5)
    n = 5
    vn = iterate_vn(alpha, grid, n, v0)
    cfg = McConfig(seed=seed, samples=samples)
    series = estimate_v_curve(alpha, [1.0, 2.0, 4.0], n, v0, cfg)
    report = compare_series(series, vn, z_threshold=5.0, min_fraction=1.0)
    return CheckResult(
        "product_indicator_mean",
        report.passed,
        f"max |z| = {report.max_abs_z:.2f} over 3 points at {samples} samples (threshold 5)",
    )


def check_picard_monotone_in_k(alpha: float) -> CheckResult:
    grid = UniformGrid(8.0, 0.01)
    prev = None
    worst = 0.0
    for k in range(9):
        u = picard_v0(alpha, grid, k).values
        if prev is not None:
            worst = max(worst, float(np.max(u - prev)))
        prev = u
    return CheckResult(
        "picard_monotone_in_k",
        worst <= 1e-12,
        f"max positive increment across k=0..8: {worst:.2e}",
    )


def check_q_iterates_decreasing(alpha: float) -> CheckResult:
    """Seeded from the constant supersolution 1, the q-chain never increases."""
    grid = UniformGrid(8.0, 0.01)
    q0 = GridFunction.constant(grid, 1.0)
    worst = 0.0
    prev = q0.values
    for _, q in iterate_qn_levels(alpha, grid, q0, range(1, 9)):
        worst = max(worst, float(np.max(q.values - prev)))
        prev = q.values
    return CheckResult(
        "q_iterates_decreasing",
        worst <= 1e-12,
        f"max positive increment across n=1..8: {worst:.2e} (seed q0=1)",
    )


def check_range_and_boundaries(alpha: float) -> CheckResult:
    grid = UniformGrid(8.0, 0.01)
    v0 = picard_v0(alpha, grid, 5)
    vn = iterate_vn(alpha, grid, 6, v0)
    qn = iterate_qn(alpha, grid, 6, v0.complement())
    in_range = (
        float(np.min(vn.values)) >= 0.0
        and float(np.max(vn.values)) <= 1.0
        and float(np.min(qn.values)) >= 0.0
        and float(np.max(qn.values)) <= 1.0
    )
    boundaries = qn.values[0] == 0.0 and vn.values[0] == 1.0
    return CheckResult(
        "range_and_boundaries",
        bool(in_range and boundaries),
        f"iterates in [0,1]: {in_range}; q(0)={qn.values[0]}, v(0)={vn.values[0]}",
    )


def check_quadrature_order() -> CheckResult:
    errs = []
    for step in (0.01, 0.005):
        grid = UniformGrid(8.0, step)
        ones = GridFunction.constant(grid, 1.0)
        g = convolve_kernel(ones, 1.0, grid)
        errs.append(float(np.max(np.abs(g.values - (1.0 - np.exp(-grid.nodes))))))
    ratio = errs[0] / errs[1]
    return CheckResult(
        "quadrature_order",
        3.5 <= ratio <= 4.5,
        f"halving the step changed the kernel error by x{ratio:.2f} ({errs[0]:.2e} -> {errs[1]:.2e})",
    )


def check_q_dominated_by_seed(alpha: float, levels: int = 6) -> CheckResult:
    """From the constant seed 0.3, every level q_j stays below the scalar tail
    tau_j = 2 tau_{j-1} - tau_{j-1}^2 and carries tau_j past the grid: K(1) <= 1
    and 2q - q^2 increases in q."""
    grid = UniformGrid(8.0, 0.01)
    tau = 0.3
    worst = excess = -math.inf
    where, tails = (0, 0.0), True
    for j, q in iterate_qn_levels(alpha, grid, GridFunction.constant(grid, tau),
                                  range(1, levels + 1)):
        tau = 2.0 * tau - tau * tau
        node = int(np.argmax(q.values))
        excess = float(q.values[node]) - tau
        if excess > worst:
            worst, where = excess, (j, float(grid.nodes[node]))
        tails = tails and q.tail_value == tau
    return CheckResult(
        "q_dominated_by_seed",
        worst <= 1e-12 and tails,
        f"max excess over tau_j across n=1..{levels}: {worst:.2e} at n={where[0]}, "
        f"t={where[1]:g}; at n={levels}: {excess:.2e}; "
        f"every tail is tau_j: {tails} (seed q0=0.3)",
    )


def check_worker_count_invariance(alpha: float, seed: int) -> CheckResult:
    grid = UniformGrid(4.0, 0.02)
    v0 = picard_v0(alpha, grid, 3)
    series = []
    hists = []
    for workers in (1, 2):
        # two chunks, so that two workers share each estimator's trees
        cfg = McConfig(seed=seed, samples=1200, workers=workers)
        series.append(estimate_v_curve(alpha, [1.0, 3.0], 6, v0, cfg))
        hists.append(estimate_leaf_histogram(alpha, 2.0, 8, cfg))
    same_series = series[0] == series[1]
    same_hist = hists[0] == hists[1]
    return CheckResult(
        "worker_count_invariance",
        same_series and same_hist,
        f"series identical: {same_series}; histogram identical: {same_hist}",
    )


# false-alarm rate of one ci_calibration run on correct code, half per coverage count
_CALIBRATION_RATE = 1e-4


def _binomial_pmf(k: int, n: int, p: float) -> float:
    log_choose = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return math.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))


def _three_sigma_coverage(p: float, n: int, ddof: int) -> float:
    """Exact probability that x/n +- 3 sqrt(x/n (1 - x/n) / (n - ddof)) covers p,
    for x ~ Binomial(n, p)."""
    covered = 0.0
    for k in range(n + 1):
        f = k / n
        if abs(f - p) <= 3.0 * math.sqrt(max(f * (1.0 - f), 1e-12) / (n - ddof)):
            covered += _binomial_pmf(k, n, p)
    return covered


def _required_count(reps: int, coverage: float, rate: float) -> int:
    """Largest c with P(Binomial(reps, coverage) < c) <= rate."""
    below = 0.0
    for c in range(reps + 1):
        below += _binomial_pmf(c, reps, coverage)
        if below > rate:
            return c
    return reps


def check_ci_calibration(seed: int, reps: int, samples: int) -> CheckResult:
    """3-sigma intervals cover known truths as often as the binomial law says.

    At alpha = 0 the leaf count is 2 with probability 1 - e^-2 and the
    depth-1 product indicator from x0 = 0 is Bernoulli(e^-2).  Each rep
    draws the two on disjoint substreams (seeds seed + 2r and seed + 2r + 1),
    so the two coverage counts are independent.  Each count must reach the
    level that a run on correct code misses with probability at most half
    of _CALIBRATION_RATE, from the exact coverage of the interval.
    """
    truth_hist = 1.0 - math.exp(-2.0)
    truth_mean = math.exp(-2.0)
    grid = UniformGrid(4.0, 0.1)
    zero = GridFunction.constant(grid, 0.0)
    covered_hist = 0
    covered_mean = 0
    for r in range(reps):
        cfg = McConfig(seed=seed + 2 * r, samples=samples)
        hist = estimate_leaf_histogram(0.0, 2.0, 10, cfg)
        freq = hist.frequency(2)
        se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / hist.total)
        covered_hist += abs(freq - truth_hist) <= 3.0 * se
        cfg = McConfig(seed=seed + 2 * r + 1, samples=samples)
        point = estimate_v_curve(0.0, [2.0], 1, zero, cfg).points[0]
        covered_mean += abs(point.mean - truth_mean) <= 3.0 * point.stderr
    # the histogram's se divides by n, the estimator's stderr by n - 1
    need_hist = _required_count(reps, _three_sigma_coverage(truth_hist, samples, 0),
                                _CALIBRATION_RATE / 2)
    need_mean = _required_count(reps, _three_sigma_coverage(truth_mean, samples, 1),
                                _CALIBRATION_RATE / 2)
    ok = covered_hist >= need_hist and covered_mean >= need_mean
    return CheckResult(
        "ci_calibration",
        ok,
        f"3-sigma coverage: histogram {covered_hist}/{reps} (need {need_hist}), "
        f"mean {covered_mean}/{reps} (need {need_mean}); "
        f"false-alarm rate {_CALIBRATION_RATE:g} per run",
    )


def check_tail_domination(
    alpha: float, seed: int, samples: int, ts: tuple[float, ...] = (1.0, 2.0, 4.0)
) -> CheckResult:
    """L-tail estimates dominate S-tail estimates pointwise (shared trees),
    and both indicator families are monotone in depth within one census."""
    cfg = McConfig(seed=seed, samples=samples)
    s_series, l_series = estimate_path_tails(alpha, ts, 12, cfg)
    dominated = bool(np.all(l_series.means() >= s_series.means()))
    leaves, alive = _walk_rows(CascadeParams(alpha, seed), 0, min(samples, 300), 12,
                               t_census=2.0)[1]
    s_flags = alive == 0  # no vertex alive at depth d = 0..12
    l_flags = np.cumsum(leaves, axis=1) > 0  # some leaf at depth <= d
    mono_bad = (_rows_with(s_flags[:, :-1] & ~s_flags[:, 1:])
                + _rows_with(l_flags[:, :-1] & ~l_flags[:, 1:])
                + _rows_with(s_flags & ~l_flags))
    return CheckResult(
        "tail_domination",
        dominated and mono_bad == 0,
        f"L>=S pointwise: {dominated}; census flag violations: {mono_bad}",
    )


def check_heavy_tail_signature(seed: int, samples: int) -> CheckResult:
    """Mean truncated leaf count at alpha=1.5 grows with the depth cap; the
    caps 5, 10 and 15 are read off one depth-15 census per tree."""
    leaves, alive = _walk_rows(CascadeParams(1.5, seed), 0, samples, 15, t_census=2.0)[1]
    hists = [_histogram(2.0, d, [_leaf_totals(leaves[:, :d + 1], alive[:, :d + 1])])
             for d in (5, 10, 15)]
    means = [h.mean() for h in hists]
    errs = [h.stderr() for h in hists]
    ok = all(
        means[i + 1] - means[i] > errs[i + 1] + errs[i] for i in range(2)
    )
    detail = ", ".join(f"n={d}: {m:.2f}+-{e:.2f}" for d, m, e in zip((5, 10, 15), means, errs))
    return CheckResult("heavy_tail_signature", ok, detail)


def check_serialization_roundtrip(alpha: float, seed: int) -> CheckResult:
    grid = UniformGrid(4.0, 0.05)
    v0 = picard_v0(alpha, grid, 3)
    cfg = McConfig(seed=seed, samples=50)
    series = estimate_v_curve(alpha, [0.0, 1.0, 2.5], 5, v0, cfg)
    hist = estimate_leaf_histogram(alpha, 2.0, 8, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        s_path = write_series_csv(series, tmp_path / "series.csv")
        h_path = write_histogram_csv(hist, tmp_path / "hist.csv")
        series_back = read_series_csv(s_path)
        hist_back = read_histogram_csv(h_path, t=hist.t, depth=hist.depth)
        manifest = RunManifest.create("check", {"alpha": alpha, "seed": seed})
        manifest = manifest.with_outputs([s_path, h_path])
        m_path = write_manifest(manifest, tmp_path / "manifest.json")
        problems = verify_manifest(m_path)
        ok = (
            series_back == series
            and hist_back.counts == hist.counts
            and hist_back.total == hist.total
            and hist_back.truncated_count == hist.truncated_count
            and not problems
        )
    return CheckResult(
        "serialization_roundtrip",
        ok,
        f"series/histogram round-trip exact and manifest verified ({len(problems)} problems)",
    )


def run_all_checks(
    alpha: float = 1.5,
    seed: int = 1,
    samples: int = 2000,
    fast: bool = False,
) -> list[CheckResult]:
    """Run every invariant check; `fast` trims the statistical sample sizes."""
    n = max(200, samples // 10) if fast else samples
    reps = 150 if fast else 300
    results = [
        check_stream_determinism(seed),
        check_sampler_determinism(seed),
        check_leaf_count_coupled_monotonicity(seed, min(n, 500)),
        check_path_extrema_monotonicity(seed, min(n, 500)),
        check_subcritical_survival_vanishes(seed, min(n, 1000)),
        check_product_indicator_mean(alpha, seed, n),
        check_picard_monotone_in_k(alpha),
        check_q_iterates_decreasing(alpha),
        check_range_and_boundaries(alpha),
        check_quadrature_order(),
        check_q_dominated_by_seed(alpha),
        check_worker_count_invariance(alpha, seed),
        check_ci_calibration(seed, reps, max(100, n // 10)),
        check_tail_domination(alpha, seed, n),
        check_heavy_tail_signature(seed, n),
        check_serialization_roundtrip(alpha, seed),
    ]
    return results
