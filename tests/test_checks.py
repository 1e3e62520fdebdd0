"""Contracts of the `check` suite's own statistics: the calibration check's
false-alarm rate and power, the product check's stderr-0 points, and the pool
use of the worker-invariance check."""

import math

import pytest

from riccati_cascade import checks, monte_carlo
from riccati_cascade.grid_numerics import evaluate, iterate_vn
from riccati_cascade.monte_carlo import EstimatePoint, EstimateSeries


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
        result = checks.check_ci_calibration(21, 150, 100)
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
        return EstimateSeries(tuple(EstimatePoint(t, evaluate(vn, t) + offset, 0.0, cfg.samples)
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
    assert checks.check_worker_count_invariance(1.5, 3).passed
    # workers=1 runs serially; workers=2 starts one pool per estimator call
    assert calls[2:] == [("_vcurve_chunk", 2, 2), ("_hist_chunk", 2, 2)]
    assert pools == [2, 2]
