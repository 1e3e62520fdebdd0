"""Estimator contracts: exactness at degenerate points, calibration, coupling,
and bit-identical reproducibility across worker counts."""

import math

import numpy as np
import pytest

from riccati_cascade import (
    CascadeParams,
    ClockSource,
    EstimatePoint,
    EstimateSeries,
    GridFunction,
    Histogram,
    McConfig,
    UniformGrid,
    compare_series,
    derive_stream,
    estimate_leaf_histogram,
    estimate_path_tails,
    estimate_v_curve,
    iterate_vn,
    picard_v0,
    sample_product_indicator,
    sample_tail_flags,
)
from riccati_cascade import monte_carlo
from riccati_cascade.checks import _binomial_pmf

GRID = UniformGrid(8.0, 0.01)
EXP = ClockSource.exponential()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(seed=1, samples=0)
        with pytest.raises(ValueError):
            McConfig(seed=1, workers=0)
        with pytest.raises(ValueError):
            McConfig(seed=-1)

    def test_estimators_reject_a_negative_depth(self):
        cfg = McConfig(seed=1, samples=10)
        v0 = picard_v0(1.5, GRID, 5)
        for estimate in (lambda: estimate_v_curve(1.5, [1.0], -1, v0, cfg),
                         lambda: estimate_leaf_histogram(1.5, 2.0, -1, cfg),
                         lambda: estimate_path_tails(1.5, [1.0], -1, cfg)):
            with pytest.raises(ValueError, match="depth must be >= 0"):
                estimate()


class TestVCurve:
    def test_zero_horizon_exact(self):
        v0 = picard_v0(1.5, GRID, 5)
        cfg = McConfig(seed=2, samples=500)
        point = estimate_v_curve(1.5, [0.0], 10, v0, cfg).points[0]
        assert point.mean == 1.0
        assert point.stderr == 0.0

    def test_constant_one_seed_exact(self):
        ones = GridFunction.constant(GRID, 1.0)
        cfg = McConfig(seed=2, samples=300)
        series = estimate_v_curve(1.5, [0.0, 2.0, 6.0], 10, ones, cfg)
        assert np.all(series.means() == 1.0)
        assert np.all(series.stderrs() == 0.0)

    def test_agrees_with_deterministic_iterate(self):
        v0 = picard_v0(1.5, GRID, 5)
        vn = iterate_vn(1.5, GRID, 10, v0)
        cfg = McConfig(seed=31415, samples=2000)
        series = estimate_v_curve(1.5, [1.0, 2.0, 4.0, 6.0, 8.0], 10, v0, cfg)
        for p in series.points:
            z = abs(p.mean - vn(p.t)) / p.stderr
            assert z <= 4.0

    def test_points_are_sampler_means_over_their_own_substreams(self):
        # tree i reads substream i at every point: column j of the sampler's
        # draws over substreams 0..samples-1; 1100 samples span a full and a
        # partial chunk, so a slip in the regrouping shows
        v0 = picard_v0(1.5, GRID, 5)
        cfg = McConfig(seed=19, samples=1100)
        ts = [0.5, 4.0, 2.0]
        series = estimate_v_curve(1.5, ts, 8, v0, cfg)
        p = CascadeParams(1.5, cfg.seed)
        streams = [derive_stream(p, i) for i in range(cfg.samples)]
        draws = sample_product_indicator(p, ts, 8, v0, EXP, streams)
        assert series.ts().tolist() == ts
        for j in range(len(ts)):
            assert series.points[j].mean == np.mean(draws[:, j])
            assert series.points[j].stderr == np.std(draws[:, j], ddof=1) / math.sqrt(cfg.samples)

    def test_one_point_reads_the_walk_at_its_own_horizon(self):
        # a one-point curve is the mean of one-horizon walks, whatever the
        # other points of a longer call are
        v0 = picard_v0(1.5, GRID, 5)
        cfg = McConfig(seed=20, samples=300)
        p = CascadeParams(1.5, cfg.seed)
        one = estimate_v_curve(1.5, [3.0], 6, v0, cfg).points[0]
        draws = [sample_product_indicator(p, [3.0], 6, v0, EXP, [derive_stream(p, i)])[0, 0]
                 for i in range(cfg.samples)]
        assert one.mean == np.mean(draws)
        longer = estimate_v_curve(1.5, [1.0, 3.0], 6, v0, cfg).points[1]
        assert longer == one

    def test_rejects_negative_points(self):
        v0 = picard_v0(1.5, GRID, 5)
        with pytest.raises(ValueError):
            estimate_v_curve(1.5, [-1.0], 5, v0, McConfig(seed=1, samples=10))


class TestLeafHistogram:
    def test_zero_horizon_all_mass_at_one(self):
        cfg = McConfig(seed=5, samples=400)
        hist = estimate_leaf_histogram(1.5, 0.0, 10, cfg)
        assert hist.counts == {1: 400}
        assert hist.truncated_count == 0
        assert hist.max_observed == 1

    def test_alpha_zero_two_point_support(self):
        cfg = McConfig(seed=6, samples=10_000)
        hist = estimate_leaf_histogram(0.0, 2.0, 10, cfg)
        assert set(hist.counts) == {1, 2}
        p2 = 1.0 - math.exp(-2.0)
        band = 3.0 * math.sqrt(p2 * (1.0 - p2) / hist.total)
        assert abs(hist.frequency(2) - p2) < band

    def test_totals_and_truncation_accounting(self):
        cfg = McConfig(seed=7, samples=1000)
        hist = estimate_leaf_histogram(3.0, 2.0, 10, cfg)
        assert sum(hist.counts.values()) == hist.total == 1000
        # strong hyperexplosion leaves most trees alive at the cap, many with
        # no crossing at all (count 0)
        assert hist.truncated_count > 0
        assert 0 in hist.counts

    def test_consistency_validation(self):
        with pytest.raises(ValueError):
            Histogram(t=1.0, depth=5, counts={1: 3}, total=4, truncated_count=0, max_observed=1)
        with pytest.raises(ValueError):
            Histogram(t=1.0, depth=5, counts={1: 3}, total=3, truncated_count=0, max_observed=2)

    def test_helpers(self):
        hist = Histogram(t=1.0, depth=5, counts={0: 2, 3: 5, 9: 3}, total=10,
                         truncated_count=1, max_observed=9)
        assert hist.frequency(3) == 0.5
        assert hist.count_at_least(3) == 8
        assert hist.mean() == pytest.approx(4.2)
        assert hist.stderr() > 0.0


class TestPathTails:
    def test_zero_horizon_exact(self):
        cfg = McConfig(seed=9, samples=300)
        for series in estimate_path_tails(1.5, [0.0], 10, cfg):
            point = series.points[0]
            assert point.mean == 1.0
            assert point.stderr == 0.0

    def test_critical_value_min_path_never_finite_early(self):
        # at alpha=1 the depth-30 min path sum concentrates near 31
        cfg = McConfig(seed=10, samples=1000)
        series, _ = estimate_path_tails(1.0, [1.0, 4.0], 30, cfg)
        for p in series.points:
            assert p.mean >= 1.0 - 3.0 * max(p.stderr, 1e-12)

    def test_series_are_flag_means_over_one_set_of_trees(self):
        # 1100 samples span a full and a partial chunk per point
        cfg = McConfig(seed=15, samples=1100)
        ts = [0.5, 2.0, 4.0]
        s_series, l_series = estimate_path_tails(1.5, ts, 12, cfg)
        p = CascadeParams(1.5, cfg.seed)
        for t_idx, t in enumerate(ts):
            streams = [derive_stream(p, t_idx * cfg.samples + i) for i in range(cfg.samples)]
            s_flags, l_flags = sample_tail_flags(p, t, 12, EXP, streams)
            assert s_series.points[t_idx].mean == np.mean(s_flags)
            assert l_series.points[t_idx].mean == np.mean(l_flags)
            assert l_series.points[t_idx].mean >= s_series.points[t_idx].mean
        assert s_series.ts().tolist() == l_series.ts().tolist() == ts

    def test_strong_hyperexplosion_matches_picard_complement(self):
        u8 = picard_v0(3.0, GRID, 8)
        cfg = McConfig(seed=12, samples=2000)
        _, series = estimate_path_tails(3.0, [2.0, 4.0], 30, cfg)
        for p in series.points:
            ref = 1.0 - u8(p.t)
            assert abs(p.mean - ref) <= 4.0 * p.stderr + 1e-3

    @pytest.mark.parametrize("alpha, depth", [(3.0, 6), (1.5, 8)])
    def test_s_tail_matches_the_finiteness_chain_from_zero(self, alpha, depth):
        # P(S_n > t) = v_{n+1}(t), the v-chain from v_0 = 0; a point fails
        # when its exact two-sided binomial p-value is below 1e-6
        v = iterate_vn(alpha, GRID, depth + 1, GridFunction.constant(GRID, 0.0))
        cfg = McConfig(seed=5, samples=4000)
        s_series, _ = estimate_path_tails(alpha, [0.5, 2.0, 4.0], depth, cfg)
        for p in s_series.points:
            k = round(p.mean * p.n_samples)
            assert _binomial_p_value(k, p.n_samples, v(p.t)) >= 1e-6, (p.t, p.mean, v(p.t))

    def test_requires_positive_alpha(self):
        with pytest.raises(ValueError):
            estimate_path_tails(0.0, [1.0], 5, McConfig(seed=1, samples=10))


def _binomial_p_value(k, n, p):
    """Two-sided exact p-value of k successes in n trials at success probability p."""
    pmf = [_binomial_pmf(j, n, p) for j in range(n + 1)]
    return min(1.0, 2.0 * min(math.fsum(pmf[: k + 1]), math.fsum(pmf[k:])))


class TestReproducibility:
    def test_worker_count_does_not_change_results(self, monkeypatch):
        # 2345 samples are three chunks per point, so two workers really
        # share the work, through one pool per estimator call
        pools = []

        class CountingPool(monte_carlo.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(monte_carlo, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(monte_carlo.os, "cpu_count", lambda: 2)
        v0 = picard_v0(1.5, GRID, 3)
        ts = [1.0, 2.0, 3.0]
        runs = []
        for workers in (1, 2):
            cfg = McConfig(seed=13, samples=2345, workers=workers)
            curve = estimate_v_curve(1.5, ts, 8, v0, cfg)
            hist = estimate_leaf_histogram(1.5, 2.0, 8, cfg)
            s_tail, l_tail = estimate_path_tails(1.5, ts, 15, cfg)
            runs.append((
                [series.means() for series in (curve, s_tail, l_tail)],
                [series.stderrs() for series in (curve, s_tail, l_tail)],
                hist,
            ))
        assert pools == [2, 2, 2]
        (means_1, errs_1, hist_1), (means_2, errs_2, hist_2) = runs
        for a, b in zip(means_1 + errs_1, means_2 + errs_2):
            assert np.array_equal(a, b)
        assert hist_1 == hist_2

    @pytest.mark.parametrize("cores, workers, tasks, pools", [
        (4, 64, 3, [3]), (4, 64, 10, [4]), (4, 2, 10, [2]), (None, 8, 10, []), (4, 8, 1, []),
    ])
    def test_pool_has_no_more_processes_than_tasks_or_cores(self, monkeypatch, cores, workers,
                                                            tasks, pools):
        # a stub executor records the pool size and starts no process
        started = []

        class StubPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(monte_carlo, "ProcessPoolExecutor", StubPool)
        monkeypatch.setattr(monte_carlo.os, "cpu_count", lambda: cores)
        assert monte_carlo._map_chunks(abs, list(range(-tasks, 0)), workers) == list(
            range(tasks, 0, -1))
        assert started == pools

    # 7 trees in threes end on a partial sub-batch; 2 trees fill less than one
    @pytest.mark.parametrize("first, stop, size", [(5, 12, 3), (40, 42, 8), (0, 1, 1)])
    def test_recycled_generators_replay_derive_stream(self, first, stop, size):
        params = CascadeParams(1.5, 2**64 - 3)
        for _ in range(2):  # the second pass takes the first pass's spare generators
            index = first
            for batch in monte_carlo._sub_batches(params, first, stop, size):
                assert 1 <= len(batch) <= size
                for gen in batch:
                    fresh = derive_stream(params, index)
                    assert np.array_equal(gen.standard_exponential(3), fresh.standard_exponential(3))
                    # leave an odd 64-bit buffer position and a cached 32-bit half behind
                    assert gen.integers(2**32, dtype=np.uint32) == fresh.integers(2**32, dtype=np.uint32)
                    index += 1
            assert index == stop

    def test_same_seed_same_series(self):
        v0 = picard_v0(1.5, GRID, 3)
        cfg = McConfig(seed=14, samples=200)
        a = estimate_v_curve(1.5, [2.0], 6, v0, cfg)
        b = estimate_v_curve(1.5, [2.0], 6, v0, cfg)
        assert a == b


class TestStderr:
    def test_bernoulli_stderr_matches_binomial_law(self):
        # at alpha=0, n=1 and x0=0 the product indicator is Bernoulli(e^-t):
        # the root crosses or its children sit at horizon 0 and read x0 = 0
        zero = GridFunction.constant(UniformGrid(4.0, 0.1), 0.0)
        cfg = McConfig(seed=23, samples=4000)
        series = estimate_v_curve(0.0, [0.5, 1.0, 2.0], 1, zero, cfg)
        for point in series.points:
            p = math.exp(-point.t)
            exact = math.sqrt(p * (1.0 - p) / cfg.samples)
            assert abs(point.stderr / exact - 1.0) < 0.10
            assert abs(point.mean - p) < 4.0 * exact


class TestCompareSeries:
    def test_self_consistent_run_passes(self):
        ones = GridFunction.constant(GRID, 1.0)
        cfg = McConfig(seed=15, samples=200)
        series = estimate_v_curve(1.5, [0.0, 2.0, 5.0], 8, ones, cfg)
        report = compare_series(series, ones)
        assert report.passed
        assert report.max_abs_z == 0.0

    def test_matched_recursion_passes(self):
        v0 = picard_v0(1.5, GRID, 5)
        vn = iterate_vn(1.5, GRID, 8, v0)
        cfg = McConfig(seed=16, samples=1500)
        series = estimate_v_curve(1.5, np.arange(0.0, 8.5, 1.0), 8, v0, cfg)
        report = compare_series(series, vn)
        assert report.passed
        assert report.fraction_within >= 0.95

    def test_mismatched_model_fails(self):
        # deliberately compare an alpha=1.5 run against the alpha=3 curve
        v0_15 = picard_v0(1.5, GRID, 5)
        v0_3 = picard_v0(3.0, GRID, 5)
        vn_3 = iterate_vn(3.0, GRID, 8, v0_3)
        cfg = McConfig(seed=17, samples=1500)
        series = estimate_v_curve(1.5, [1.0, 2.0, 3.0, 4.0], 8, v0_15, cfg)
        report = compare_series(series, vn_3)
        assert not report.passed

    def test_empty_series_is_rejected(self):
        empty = estimate_v_curve(1.5, [], 4, GridFunction.constant(GRID, 1.0),
                                 McConfig(seed=19, samples=10))
        assert empty.points == ()
        with pytest.raises(ValueError, match="series .*empty"):
            compare_series(empty, GridFunction.constant(GRID, 1.0))

    def test_a_point_where_every_tree_crossed_scores_against_the_reference(self):
        # at t = 1 all 2,000 trees cross, so the L point's stderr is 0 while
        # the reference is 1 - 2.0e-9; the score with p from the reference
        # gives 0.002 there, where demanding an exact match gives z = inf
        # and fails the report with 8/9 points within bound
        cfg = McConfig(seed=5, samples=2000)
        _, l_series = estimate_path_tails(1.5, np.arange(0.0, 8.5, 1.0), 7, cfg)
        reference = picard_v0(1.5, GRID, 8).complement()
        point = l_series.points[1]
        assert (point.t, point.mean, point.stderr) == (1.0, 1.0, 0.0)
        assert 0.0 < 1.0 - reference(1.0) < 1e-8
        report = compare_series(l_series, reference)
        assert report.z_scores[1] == pytest.approx(0.002, abs=5e-4)
        assert report.fraction_within == 1.0 and report.passed

    def test_an_interior_point_scores_against_the_reference_variance(self):
        # p = 0.5 and n = 100: (0.6 - 0.5) / sqrt(0.25 / 100) = 2, whatever
        # the sample stderr, also where the draws all agree
        ref = GridFunction.constant(GRID, 0.5)
        for stderr in (0.0, 0.01, 0.2):
            series = EstimateSeries((EstimatePoint(1.0, 0.6, stderr, 100),))
            assert compare_series(series, ref).z_scores == (pytest.approx(2.0),)

    def test_a_point_where_p_is_0_or_1_keeps_the_stderr_and_the_exact_match(self):
        for p, mean, stderr, z in ((1.0, 1.0, 0.0, 0.0), (1.0, 0.99, 0.0, math.inf),
                                   (1.0, 0.98, 0.01, -2.0), (0.0, 0.0, 0.0, 0.0),
                                   (0.0, 0.03, 0.01, 3.0)):
            series = EstimateSeries((EstimatePoint(1.0, mean, stderr, 100),))
            report = compare_series(series, GridFunction.constant(GRID, p))
            assert report.z_scores == (pytest.approx(z),), (p, mean, stderr)

    def test_a_rare_event_mean_is_no_false_alarm_and_a_wrong_reference_fails(self):
        # check --fast --alpha 3 --seed 907: at t = 4, 199 of 200 trees give
        # the product 1, so the sample stderr is 5.2e-5 and scores the mean
        # 0.99995 against v_5(4) = 0.99631 at |z| = 69.5, where 20,000 trees
        # agree; the reference's variance scores it below 1.  The iterate at
        # alpha = 2 still fails at every point
        g = UniformGrid(8.0, 0.01)
        v0 = picard_v0(3.0, g, 5)
        series = estimate_v_curve(3.0, [1.0, 2.0, 4.0], 5, v0, McConfig(seed=907, samples=200))
        vn = iterate_vn(3.0, g, 5, v0)
        last = series.points[-1]
        assert abs(last.mean - vn(4.0)) / last.stderr > 60.0
        report = compare_series(series, vn, z_threshold=5.0, min_fraction=1.0)
        assert report.passed and report.max_abs_z < 1.0
        wrong = iterate_vn(2.0, g, 5, picard_v0(2.0, g, 5))
        report = compare_series(series, wrong, z_threshold=5.0, min_fraction=1.0)
        assert not report.passed and min(report.z_scores) > 3.0

    def test_tail_points_flagged(self):
        ones = GridFunction.constant(UniformGrid(2.0, 0.1), 1.0)
        cfg = McConfig(seed=18, samples=50)
        series = estimate_v_curve(1.5, [1.0, 5.0], 4, ones, cfg)
        report = compare_series(series, ones)
        assert report.tail_evaluations == (False, True)
