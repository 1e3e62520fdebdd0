"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they execute.  Criterion 9 checks the seed-complement value at the grid end,
1 - U_8(8) = P(L_7 > 8), against an independent tree-sampling estimate of the
same probability within a z-bound, rather than against a fixed threshold.
"""

import math
import time

import numpy as np

from riccati_cascade import (
    GridFunction,
    McConfig,
    UniformGrid,
    compare_series,
    estimate_leaf_histogram,
    estimate_path_tails,
    estimate_v_curve,
    iterate_qn_levels,
    iterate_vn,
    picard_v0,
)
from riccati_cascade.analysis_io import file_digest
from riccati_cascade.checks import (
    check_heavy_tail_signature,
    check_leaf_count_coupled_monotonicity,
    check_path_extrema_monotonicity,
    check_picard_monotone_in_k,
    check_q_dominated_by_seed,
    check_q_iterates_decreasing,
)
from riccati_cascade.cli import main as cli_main
from test_grid_numerics import literal_v_deviations

GRID = UniformGrid(8.0, 0.01)
SEED = 20240817


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def read_curve(path):
    rows = path.read_text().splitlines()[1:]
    ts = np.array([float(r.split(",")[0]) for r in rows])
    vals = np.array([float(r.split(",")[1]) for r in rows])
    return ts, vals


def test_criterion_01_analytic_kernel_oracle(tmp_path):
    start = time.perf_counter()
    errs = {}
    for step in ("0.01", "0.005"):
        code = cli_main(["v0", "--picard-k", "1", "--alpha", "1.5", "--seed", "1",
                         "--step", step, "--out", str(tmp_path / step)])
        assert code == 0
        out_dir = next((tmp_path / step / "v0").iterdir())
        ts, vals = read_curve(out_dir / "v0_picard.csv")
        errs[step] = float(np.max(np.abs(vals - (1.0 - np.exp(-ts)))))
    elapsed = time.perf_counter() - start
    ratio = errs["0.01"] / errs["0.005"]
    ok = errs["0.01"] < 1e-3 and 3.5 <= ratio <= 4.5 and elapsed < 1.0
    report(1, "analytic kernel oracle", ok,
           f"max err {errs['0.01']:.2e}, halving ratio {ratio:.2f}, {elapsed:.2f}s")
    assert errs["0.01"] < 1e-3
    assert 3.5 <= ratio <= 4.5
    assert elapsed < 1.0


def test_criterion_02_branching_mean_at_unit_rate():
    # classical oracle: the unit-rate binary fission population at time t
    # has mean e^t; the depth-20 truncation is exact to ~1e-14 at t=2
    start = time.perf_counter()
    cfg = McConfig(seed=SEED, samples=10_000)
    hist = estimate_leaf_histogram(1.0, 2.0, 20, cfg)
    mean, stderr = hist.mean(), hist.stderr()
    target = math.exp(2.0)
    elapsed = time.perf_counter() - start
    ok = abs(mean - target) <= 4.0 * stderr and elapsed < 10.0
    report(2, "unit-rate branching mean", ok,
           f"mean {mean:.4f} vs e^2 {target:.4f}, 4*stderr {4 * stderr:.4f}, {elapsed:.1f}s")
    assert abs(mean - target) <= 4.0 * stderr
    assert elapsed < 10.0


def test_criterion_03_complement_identity():
    # iterate_vn runs in the complement q = 1 - v; the literal v-form
    # v <- clip(exp(-t) + K(v^2)) shares only the trapezoid scan with it, so
    # agreement at the O(h^2) rate checks the identity rather than the code
    # against itself
    start = time.perf_counter()
    dev_a = literal_v_deviations(1.5, 5)
    dev_b = literal_v_deviations(3.0, 10)
    elapsed = time.perf_counter() - start
    ratios = [d[0] / d[1] for d in (dev_a, dev_b)]
    ok = (dev_a[0] < 5e-4 and dev_b[0] < 5e-4 and all(2.5 <= r <= 5.5 for r in ratios)
          and elapsed < 30.0)
    report(3, "complement identity v = 1 - q", ok,
           f"deviations from the literal v-form {dev_a[0]:.2e} (alpha 1.5) and "
           f"{dev_b[0]:.2e} (alpha 3), halving ratios {ratios[0]:.2f} and {ratios[1]:.2f}, "
           f"{elapsed:.1f}s")
    assert dev_a[0] < 5e-4
    assert dev_b[0] < 5e-4
    assert all(2.5 <= r <= 5.5 for r in ratios)
    assert elapsed < 30.0


def test_criterion_04_mc_vs_deterministic_curve():
    start = time.perf_counter()
    v0 = picard_v0(1.5, GRID, 5)
    vn = iterate_vn(1.5, GRID, 10, v0)
    cfg = McConfig(seed=SEED, samples=10_000)
    series = estimate_v_curve(1.5, np.arange(0.0, 8.5, 0.5), 10, v0, cfg)
    reportobj = compare_series(series, vn, z_threshold=4.0, min_fraction=0.95)
    elapsed = time.perf_counter() - start
    ok = reportobj.passed and elapsed < 300.0
    report(4, "Monte Carlo vs deterministic curve", ok,
           f"{reportobj.fraction_within:.0%} of |z|<=4, max|z| {reportobj.max_abs_z:.2f}, {elapsed:.0f}s")
    assert reportobj.passed
    assert elapsed < 300.0


def test_criterion_05_regime_classification():
    start = time.perf_counter()
    results = {}
    for alpha in (0.66, 1.5, 3.0):
        if alpha <= 1.0:
            q0 = GridFunction.constant(GRID, 1.0)
        else:
            q0 = picard_v0(alpha, GRID, 5).complement()
        levels = dict(iterate_qn_levels(alpha, GRID, q0, (15, 20)))
        q20 = levels[20](2.0)
        gap = abs(q20 - levels[15](2.0))
        results[alpha] = (q20, gap)
    elapsed = time.perf_counter() - start
    q15_, g15 = results[1.5]
    ok = (
        q15_ > 5.0 * g15
        and results[3.0][0] < 5.0 * results[3.0][1]
        and results[0.66][0] < 5.0 * results[0.66][1]
        and elapsed < 120.0
    )
    detail = ", ".join(f"alpha={a}: q20(2)={v[0]:.3g} gap={v[1]:.2g}" for a, v in results.items())
    report(5, "three-regime classification", ok, f"{detail}, {elapsed:.1f}s")
    assert q15_ > 5.0 * g15
    assert results[3.0][0] < 5.0 * results[3.0][1]
    assert results[0.66][0] < 5.0 * results[0.66][1]
    assert elapsed < 120.0


def test_criterion_06_heavy_tail_signature():
    start = time.perf_counter()
    hists = {}
    for alpha in (0.66, 1.5, 3.0):
        cfg = McConfig(seed=SEED + 1, samples=10_000)
        hists[alpha] = estimate_leaf_histogram(alpha, 2.0, 10, cfg)
    max_ok = all(hists[1.5].max_observed > hists[a].max_observed for a in (0.66, 3.0))
    tail_ok = all(hists[1.5].count_at_least(64) > hists[a].count_at_least(64) for a in (0.66, 3.0))
    growth = check_heavy_tail_signature(SEED + 2, 10_000)
    elapsed = time.perf_counter() - start
    ok = max_ok and tail_ok and growth.passed and elapsed < 120.0
    report(6, "heavy-tail signature in the critical regime", ok,
           f"max per alpha {[hists[a].max_observed for a in (0.66, 1.5, 3.0)]}, "
           f">=64 counts {[hists[a].count_at_least(64) for a in (0.66, 1.5, 3.0)]}, "
           f"means by depth {growth.detail}, {elapsed:.0f}s")
    assert max_ok and tail_ok and growth.passed
    assert elapsed < 120.0


def test_criterion_07_three_ordered_solutions():
    start = time.perf_counter()
    ts = [4.0, 6.0, 8.0]
    cfg = McConfig(seed=SEED + 3, samples=10_000)
    lower, _ = estimate_path_tails(1.5, ts, 30, cfg)
    v0 = picard_v0(1.5, GRID, 5)
    cfg_v = McConfig(seed=SEED + 4, samples=10_000)
    middle = estimate_v_curve(1.5, ts, 10, v0, cfg_v)
    separated = all(
        lo.mean + 3.0 * lo.stderr < mid.mean - 3.0 * mid.stderr
        for lo, mid in zip(lower.points, middle.points)
    )
    below_one = all(p.mean + 3.0 * p.stderr < 1.0 for p in middle.points)
    elapsed = time.perf_counter() - start
    ok = separated and below_one and elapsed < 300.0
    pairs = ", ".join(
        f"t={t:g}: {lo.mean:.4f} < {mid.mean:.4f}" for t, lo, mid in zip(ts, lower.points, middle.points)
    )
    report(7, "three ordered solutions", ok, f"{pairs}, {elapsed:.0f}s")
    assert separated
    assert below_one
    assert elapsed < 300.0


def test_criterion_08_monotonicity_suites():
    start = time.perf_counter()
    results = []
    for alpha in (1.5, 3.0):
        results += [check_picard_monotone_in_k(alpha), check_q_iterates_decreasing(alpha),
                    check_q_dominated_by_seed(alpha, 8)]
    results += [check_leaf_count_coupled_monotonicity(SEED + 5, 2000),
                check_path_extrema_monotonicity(SEED + 5, 500)]
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    elapsed = time.perf_counter() - start
    ok = not failed and elapsed < 120.0
    report(8, "monotonicity suites", ok,
           f"{len(results) - len(failed)} of {len(results)} checks passed, {elapsed:.1f}s")
    assert failed == []
    assert elapsed < 120.0


def test_criterion_09_integrability_diagnostic():
    start = time.perf_counter()
    q8 = picard_v0(1.5, GRID, 8).complement()
    end_value = float(q8.values[-1])

    above = np.nonzero(q8.values >= 0.25)[0]
    last_crossing = int(above[-1]) if above.size else -1
    tail_section = q8.values[last_crossing + 1 :]
    nonincreasing = bool(np.all(np.diff(tail_section) <= 1e-12))

    head = float(np.trapezoid(q8.values, dx=GRID.step))
    doubled_grid = UniformGrid(16.0, 0.01)
    q8_doubled = picard_v0(1.5, doubled_grid, 8).complement()
    head_doubled = float(np.trapezoid(q8_doubled.values, dx=doubled_grid.step))
    stable = abs(head_doubled - head) / head < 0.01

    # 1 - U_8(t) = P(L_7 > t): tree sampling gives the grid-end value independently
    cfg = McConfig(seed=SEED, samples=20_000)
    _, tail_mc = estimate_path_tails(1.5, [GRID.t_end], 7, cfg)
    tail_report = compare_series(tail_mc, q8, z_threshold=4.0, min_fraction=1.0)
    point = tail_mc.points[0]

    elapsed = time.perf_counter() - start
    ok = tail_report.passed and nonincreasing and stable and elapsed < 60.0
    report(9, "integrability diagnostic", ok,
           f"value at grid end {end_value:.4f} vs tree sampling {point.mean:.4f} +- {point.stderr:.4f} "
           f"(z {tail_report.z_scores[0]:.2f}), "
           f"nonincreasing after last 0.25-crossing at t={last_crossing * GRID.step:.2f}: {nonincreasing}, "
           f"integral {head:.4f} -> {head_doubled:.4f} ({abs(head_doubled - head) / head:.2%} change), "
           f"{elapsed:.1f}s")
    assert nonincreasing
    assert stable
    assert elapsed < 60.0
    # the tail value at the grid end agrees with P(L_7 > 8) from sampled trees
    assert tail_report.passed


def test_criterion_10_reproducibility_across_workers(tmp_path):
    start = time.perf_counter()
    digests = {}
    for workers in ("1", "2"):
        args = ["paths", "--alpha", "1.5", "--samples", "400", "--depth", "15",
                "--t-max", "4", "--t-step", "2", "--seed", "99",
                "--workers", workers, "--out", str(tmp_path)]
        assert cli_main(args) == 0
        out_dir = next((tmp_path / "paths").iterdir())
        digests[workers] = (
            file_digest(out_dir / "s_tail.csv"),
            file_digest(out_dir / "l_tail.csv"),
        )
    elapsed = time.perf_counter() - start
    ok = digests["1"] == digests["2"] and elapsed < 60.0
    report(10, "reproducibility across worker counts", ok,
           f"data files byte-identical: {digests['1'] == digests['2']}, {elapsed:.1f}s")
    assert digests["1"] == digests["2"]
    assert elapsed < 60.0
