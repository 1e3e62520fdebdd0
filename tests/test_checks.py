"""The `check` suite at Tier-1 sizes, its roster, and the contracts of its own
statistics: the calibration check's false-alarm rate and power, the product
check's stderr-0 points, and the pool use of the worker-invariance check.

Every invariant that `riccati-cascade check` runs is implemented once, as a
`check_*` function; the tests call those functions at sizes of their own
instead of keeping copies of them.
"""

import json
import math
from pathlib import Path

import pytest

from riccati_cascade import checks, monte_carlo
from riccati_cascade.grid_numerics import iterate_vn
from riccati_cascade.monte_carlo import EstimatePoint, EstimateSeries

# the order of `check` output: perfbench's check_fast gate expects exactly these
# 16 CHECK lines, and its checks.*_s metrics are keyed by the function names
ROSTER = [
    "stream_determinism",
    "sampler_determinism",
    "leaf_count_coupled_monotonicity",
    "path_extrema_monotonicity",
    "subcritical_survival_vanishes",
    "product_indicator_mean",
    "picard_monotone_in_k",
    "q_iterates_decreasing",
    "range_and_boundaries",
    "quadrature_order",
    "q_dominated_by_seed",
    "worker_count_invariance",
    "ci_calibration",
    "tail_domination",
    "heavy_tail_signature",
    "serialization_roundtrip",
]


def _row(check, *args):
    words = [check.__name__.removeprefix("check_"), *(str(a).replace(" ", "") for a in args)]
    return pytest.param(check, args, id="-".join(words))


# Tier-1 sizes: the trees of a full `check` run (samples 2000) or more, 100
# calibration reps of 1000 samples, and the grid checks at more alphas;
# acceptance criteria 06 and 08 call their checks at sizes of their own
TIER1 = [
    _row(checks.check_stream_determinism, 7),
    _row(checks.check_sampler_determinism, 8),
    _row(checks.check_leaf_count_coupled_monotonicity, 31, 500),
    _row(checks.check_path_extrema_monotonicity, 19, 500, 0.8),
    _row(checks.check_subcritical_survival_vanishes, 5, 1000),
    _row(checks.check_product_indicator_mean, 1.5, 6, 2000),
    *(_row(checks.check_picard_monotone_in_k, a) for a in (0.66, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0)),
    *(_row(checks.check_q_iterates_decreasing, a) for a in (0.66, 2.5)),
    *(_row(checks.check_range_and_boundaries, a) for a in (0.66, 1.5, 3.0)),
    _row(checks.check_quadrature_order),
    *(_row(checks.check_q_dominated_by_seed, a, 8) for a in (0.66, 2.5)),
    _row(checks.check_worker_count_invariance, 3.0, 4),
    _row(checks.check_ci_calibration, 1000, 100, 1000),
    _row(checks.check_tail_domination, 1.5, 11, 2000, (0.5, 1.0, 2.0, 4.0)),
    _row(checks.check_heavy_tail_signature, 8, 2000),
    _row(checks.check_serialization_roundtrip, 1.5, 9),
]


@pytest.mark.parametrize("check, args", TIER1)
def test_check_passes(check, args):
    result = check(*args)
    assert result.name == check.__name__.removeprefix("check_")
    assert result.passed, result.detail


def test_roster_runs_each_check_once_in_order(monkeypatch):
    # stubs, so the suite does not run a second time
    names = [name for name in vars(checks) if name.startswith("check_")]
    calls = []
    for name in names:
        def stub(*args, _name=name):
            calls.append(_name)
            return checks.CheckResult(_name.removeprefix("check_"), True, "")

        monkeypatch.setattr(checks, name, stub)
    results = checks.run_all_checks(fast=True)
    assert [r.name for r in results] == ROSTER
    assert calls == [f"check_{name}" for name in ROSTER]
    assert sorted(calls) == sorted(names)
    assert {row.values[0].__name__ for row in TIER1} == set(names)


def test_check_names_match_the_benchmark_metrics():
    # the benchmark records one checks.<name>_s metric per check_* function
    # and fails when they differ from the per-layer names it declares
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]
                if m["name"].startswith("checks.") and m["name"] != "checks.import_s"}
    recorded = {f"checks.{name.removeprefix('check_')}_s"
                for name in vars(checks) if name.startswith("check_")}
    assert recorded == declared


class TestCiCalibration:
    # program seeds of `check --fast` runs that needed 30/30 coverage and got 29/30 or 28/30
    @pytest.mark.parametrize("seed", [1464212250992796729, 3583182119661200148])
    def test_passes_where_the_fixed_count_raised_false_alarms(self, seed):
        result = checks.check_ci_calibration(seed, 150, 100)
        assert result.passed, result.detail

    def test_fails_with_halved_stderr(self, monkeypatch):
        real = monte_carlo._mean_stderr

        def halved(samples):
            mean, stderr = real(samples)
            return mean, 0.5 * stderr

        monkeypatch.setattr(monte_carlo, "_mean_stderr", halved)
        for reps, samples in ((150, 100), (100, 1000)):
            result = checks.check_ci_calibration(21, reps, samples)
            assert not result.passed, result.detail

    def test_halves_draw_disjoint_substreams(self, monkeypatch):
        seeds = []
        for name in ("estimate_leaf_histogram", "estimate_v_curve"):
            def spy(*args, _real=getattr(checks, name)):
                seeds.append(args[-1].seed)  # the McConfig
                return _real(*args)

            monkeypatch.setattr(checks, name, spy)
        checks.check_ci_calibration(5, 10, 100)
        assert len(seeds) == len(set(seeds)) == 20

    @pytest.mark.parametrize("reps, samples", [(150, 100), (300, 200)])
    def test_required_count_meets_the_stated_rate(self, reps, samples):
        rate = checks._CALIBRATION_RATE / 2
        for p, ddof in ((1.0 - math.exp(-2.0), 0), (math.exp(-2.0), 1)):
            coverage = checks._three_sigma_coverage(p, samples, ddof)
            assert 0.98 < coverage < 0.9973  # below the normal 3-sigma coverage
            need = checks._required_count(reps, coverage, rate)
            below = [sum(checks._binomial_pmf(k, reps, coverage) for k in range(c))
                     for c in (need, need + 1)]
            assert below[0] <= rate < below[1]

    def test_binomial_pmf_sums_to_one(self):
        assert math.fsum(checks._binomial_pmf(k, 200, 0.3) for k in range(201)) == (
            pytest.approx(1.0, abs=1e-12)
        )


@pytest.mark.parametrize("offset", [0.0, 0.1])
def test_product_check_scores_a_stderr_zero_point_by_exact_match(monkeypatch, offset):
    # a point with stderr 0 passes only when it equals the iterate exactly
    def exact_series(alpha, t_points, n, v0, cfg):
        vn = iterate_vn(alpha, v0.grid, n, v0)
        return EstimateSeries(tuple(EstimatePoint(t, vn(t) + offset, 0.0, cfg.samples)
                                    for t in t_points))

    monkeypatch.setattr(checks, "estimate_v_curve", exact_series)
    result = checks.check_product_indicator_mean(1.5, 21, 100)
    assert result.passed == (offset == 0.0), result.detail


def test_worker_invariance_maps_the_histogram_through_the_pool(monkeypatch):
    calls, pools = [], []
    real = monte_carlo._map_chunks

    class CountingPool(monte_carlo.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    def spy(fn, tasks, workers):
        calls.append((fn.__name__, len(tasks), workers))
        return real(fn, tasks, workers)

    monkeypatch.setattr(monte_carlo, "_map_chunks", spy)
    monkeypatch.setattr(monte_carlo, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(monte_carlo.os, "cpu_count", lambda: 2)
    assert checks.check_worker_count_invariance(1.5, 3).passed
    # workers=1 runs serially; workers=2 starts one pool per estimator call
    assert calls[2:] == [("_vcurve_chunk", 2, 2), ("_hist_chunk", 2, 2)]
    assert pools == [2, 2]
