"""Parallel Monte Carlo estimators for the cascade, with schedule-independent output.

Every tree reads a counter-based substream fixed by its sample index, so
results are bit-identical for any worker count: workers only decide who
computes which fixed chunk of the sample index space.  All chunks of one
call go through one map, so a call starts at most one process pool.
Standard errors are CLT-based (sample standard deviation / sqrt(n));
`compare_series` scores a mean against its reference's binomial variance.

The v-curve and the leaf-count histogram come from one chunk function
over the samplers' one tree walk: the v-curve walks each tree once, at its
largest t, and reads the product at every t-point from that walk; the
histogram is the walk's census, and `figures` reads both off the same
walk, through the same map.  The two path tails come from one
estimator: each tree is walked once per t-point and yields both the min-
and the max-path-sum indicator.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .cascade_core import (
    CascadeParams,
    ClockSource,
    _walk,
    derive_stream,
    sample_tail_flags,
)
from .grid_numerics import GridFunction

__all__ = [
    "McConfig",
    "EstimatePoint",
    "EstimateSeries",
    "Histogram",
    "ComparisonReport",
    "estimate_v_curve",
    "estimate_leaf_histogram",
    "estimate_path_tails",
    "compare_series",
]

_CHUNK = 1000
_BATCH_VERTICES = 1 << 15
# generators that finished sub-batches hand on for re-keying (see _sub_batches)
_SPARE_GENERATORS: list[np.random.Generator] = []
# the estimators' clocks; ClockSource.constant is the samplers' test hook only
_CLOCKS = ClockSource.exponential()


@dataclass(frozen=True)
class McConfig:
    """Seed, sample budget and a worker-count hint.

    The hint never changes any estimate; it only sizes the process pool.
    The depth is an argument of each estimator.
    """

    seed: int
    samples: int = 10000
    workers: int = 1

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class EstimatePoint:
    t: float
    mean: float
    stderr: float
    n_samples: int


@dataclass(frozen=True)
class EstimateSeries:
    """Per-point Monte Carlo means with CLT standard errors."""

    points: tuple[EstimatePoint, ...]

    def ts(self) -> np.ndarray:
        return np.array([p.t for p in self.points])

    def means(self) -> np.ndarray:
        return np.array([p.mean for p in self.points])

    def stderrs(self) -> np.ndarray:
        return np.array([p.stderr for p in self.points])


@dataclass(frozen=True)
class Histogram:
    """Unit-width integer bins of truncated leaf counts.

    Bins are stored sparsely as value -> count; counts are bounded by
    2**depth so no overflow bin is needed.  `truncated_count` tallies the
    samples whose tree was still alive at the depth cap (their untruncated
    count would be larger).
    """

    t: float
    depth: int
    counts: dict[int, int]
    total: int
    truncated_count: int
    max_observed: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.total:
            raise ValueError("histogram counts do not sum to the total")
        if self.counts and max(self.counts) != self.max_observed:
            raise ValueError("max_observed inconsistent with occupied bins")

    def frequency(self, value: int) -> float:
        return self.counts.get(value, 0) / self.total

    def count_at_least(self, threshold: int) -> int:
        return sum(c for v, c in self.counts.items() if v >= threshold)

    def mean(self) -> float:
        return sum(v * c for v, c in self.counts.items()) / self.total

    def stderr(self) -> float:
        if self.total < 2:
            return 0.0
        m = self.mean()
        var = sum(c * (v - m) ** 2 for v, c in self.counts.items()) / (self.total - 1)
        return math.sqrt(var / self.total)


def _mean_stderr(samples: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(samples))
    if samples.size < 2:
        return mean, 0.0
    return mean, float(np.std(samples, ddof=1) / math.sqrt(samples.size))


def _chunks(n: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]


def _map_chunks(fn, tasks: list, workers: int) -> list:
    """Run tasks in order, with at most one process per task and core; pool
    failures fall back to serial execution.  `fn` must be a module-level
    function and the tasks plain values, so both pickle."""
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(t) for t in tasks]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    except (BrokenProcessPool, OSError) as exc:
        warnings.warn(f"process pool unavailable ({exc}); running serially")
        return [fn(t) for t in tasks]


def _map_points(fn, heads: list[tuple], samples: int, workers: int) -> list[list]:
    """Map the chunks of every point through one `_map_chunks` call.

    The task for samples lo..hi-1 of point j is `heads[j] + (j * samples,
    lo, hi)`: point j draws substreams j * samples + i.  The results come
    back as one list of chunk results per point.
    """
    chunks = _chunks(samples)
    tasks = [head + (j * samples, lo, hi) for j, head in enumerate(heads) for lo, hi in chunks]
    results = _map_chunks(fn, tasks, workers)
    return [results[j : j + len(chunks)] for j in range(0, len(results), len(chunks))]


def _batch_size(levels: int) -> int:
    """Trees per sub-batch whose worst-case frontiers (2**levels vertices per
    tree) add up to about 2**15 vertices; from 15 levels up, one tree."""
    return max(1, _BATCH_VERTICES >> levels)


def _sub_batches(params: CascadeParams, first: int, stop: int, size: int):
    """Substreams first..stop-1 in lists of at most `size` generators.

    The generators are recycled, not built per tree: each is re-keyed to a
    fresh `derive_stream` state with the counter moved to the tree's index,
    which replays that substream bit for bit for a tenth of the cost of a
    new generator.  A list is valid until the next one is yielded; the
    generators then go back to `_SPARE_GENERATORS` for later calls.
    """
    template = derive_stream(params, first).bit_generator.state
    counter = template["state"]["counter"]
    count = min(size, stop - first)
    slots = [_SPARE_GENERATORS.pop() for _ in range(min(count, len(_SPARE_GENERATORS)))]
    slots += [derive_stream(params, first) for _ in range(count - len(slots))]
    try:
        for lo in range(first, stop, size):
            batch = slots[: stop - lo]
            for i, gen in enumerate(batch, lo):
                counter[2] = i
                gen.bit_generator.state = template
            yield batch
    finally:
        _SPARE_GENERATORS.extend(slots)


def _walk_rows(params: CascadeParams, first: int, stop: int, n: int, ts=(), v0=None,
               t_census: float | None = None) -> tuple:
    """The walk's (draws, census) of the trees on substreams first..stop-1,
    in sub-batches: row i is tree first + i.  The census is the pair
    (leaves, alive); None stands for what is not asked, as in the walk."""
    draws, censuses = zip(*[
        _walk(params, ts, n, v0, _CLOCKS, streams, census_t=t_census)
        for streams in _sub_batches(params, first, stop, _batch_size(n))
    ])
    return (None if draws[0] is None else np.concatenate(draws),
            None if t_census is None else tuple(np.concatenate(r) for r in zip(*censuses)))


def _leaf_totals(leaves: np.ndarray, alive: np.ndarray) -> tuple[np.ndarray, int]:
    """Each tree's truncated leaf count, and how many trees are alive at the cap."""
    return leaves.sum(axis=1), int(np.count_nonzero(alive[:, -1]))


def _walk_chunk(task) -> tuple:
    """Rows lo..hi-1 of the v-curve draws (one row per tree, one column per
    t) and, given t_census, the leaf totals and truncated count of the
    census at t_census on the same trees; None where there is none."""
    alpha, seed, ts, n, v0, t_census, base_index, lo, hi = task
    draws, census = _walk_rows(CascadeParams(alpha, seed), base_index + lo, base_index + hi,
                               n, ts, v0, t_census)
    return draws, None if census is None else _leaf_totals(*census)


def _check_depth(depth: int) -> None:
    """Rejects a negative depth before a sub-batch is sized or a pool starts."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")


def _check_t_points(t_points) -> list[float]:
    """The horizons as floats; rejects one that is not finite and >= 0
    before a pool starts."""
    t_list = [float(t) for t in t_points]
    for t in t_list:
        if not (math.isfinite(t) and t >= 0.0):
            raise ValueError(f"horizon t must be finite and >= 0, got {t}")
    return t_list


def _estimate(
    alpha: float,
    t_points,
    depth: int,
    v0: GridFunction | None,
    t_census: float | None,
    cfg: McConfig,
) -> tuple[EstimateSeries, Histogram | None]:
    """The v-curve at t_points seeded by v0 and, given t_census, the
    histogram of truncated leaf counts at t_census, both on trees
    0..samples-1 and both from one walk per tree, through one map.  The
    v-curve's draws are those of a walk without the census; sharing the
    trees makes the two correlated."""
    _check_depth(depth)
    t_list = _check_t_points(t_points)
    if t_census is not None:
        [t_census] = _check_t_points([t_census])
    elif not t_list:
        return EstimateSeries(()), None
    [results] = _map_points(_walk_chunk, [(alpha, cfg.seed, np.array(t_list), depth, v0, t_census)],
                            cfg.samples, cfg.workers)
    draws, totals = zip(*results)
    draws = np.concatenate(draws) if t_list else None  # one row per tree, one column per t
    series = EstimateSeries(tuple(EstimatePoint(t, *_mean_stderr(draws[:, j]), len(draws))
                                  for j, t in enumerate(t_list)))
    return series, None if t_census is None else _histogram(t_census, depth, totals)


def estimate_v_curve(
    alpha: float,
    t_points,
    n: int,
    v0: GridFunction,
    cfg: McConfig,
) -> EstimateSeries:
    """Monte Carlo means of the depth-n product recursion seeded by v0.

    Tree i reads substream i, and all points of a call share the trees:
    each tree is walked once, at the largest t, and read at every t.  So
    each point is a mean over cfg.samples independent trees and a z-test
    against a deterministic reference is valid per point, but the points
    are correlated; a test over several points must allow for that.
    """
    return _estimate(alpha, t_points, n, v0, None, cfg)[0]


def estimate_leaf_histogram(
    alpha: float,
    t: float,
    depth: int,
    cfg: McConfig,
) -> Histogram:
    """Histogram of truncated leaf counts over cfg.samples independent trees."""
    return _estimate(alpha, (), depth, None, t, cfg)[1]


def _histogram(t: float, depth: int, results: list[tuple[np.ndarray, int]]) -> Histogram:
    """The histogram of the chunks' (leaf totals, truncated count) pairs."""
    values = np.concatenate([r[0] for r in results])
    truncated = int(sum(r[1] for r in results))
    uniq, cnt = np.unique(values, return_counts=True)
    counts = {int(v): int(c) for v, c in zip(uniq, cnt)}
    return Histogram(
        t=float(t),
        depth=depth,
        counts=counts,
        total=int(values.size),
        truncated_count=truncated,
        max_observed=int(values.max()),
    )


def _tail_chunk(task) -> tuple[np.ndarray, np.ndarray]:
    alpha, seed, t, depth, base_index, lo, hi = task
    params = CascadeParams(alpha, seed)
    # the chunk is one batch, which the walk splits where its frontier grows
    for streams in _sub_batches(params, base_index + lo, base_index + hi, hi - lo):
        s_flags, l_flags = sample_tail_flags(params, t, depth, _CLOCKS, streams)
    return s_flags.astype(float), l_flags.astype(float)


def estimate_path_tails(
    alpha: float,
    t_points,
    depth: int,
    cfg: McConfig,
) -> tuple[EstimateSeries, EstimateSeries]:
    """Empirical P(min path sum at `depth` > t) and P(max path sum at `depth` > t).

    Returns the (S, L) series.  One tail-flag walk per tree yields both
    indicators, so the two series share every tree and L >= S holds
    pointwise, sample by sample.  The S-tail increases to the minimal
    solution's tail as depth grows; the L-tail is a lower bound for the
    longest-path tail that is nondecreasing in depth, with expectation
    1 - U_{depth+1}(t) (the Picard complement).  Each t gets fresh
    substreams (index = point * samples + sample), so points are
    independent.
    """
    if alpha <= 0.0:
        raise ValueError("path tails require alpha > 0")
    _check_depth(depth)
    t_list = _check_t_points(t_points)
    heads = [(alpha, cfg.seed, t, depth) for t in t_list]
    per_point = _map_points(_tail_chunk, heads, cfg.samples, cfg.workers)
    s_points, l_points = [], []
    for t, results in zip(t_list, per_point):
        for col, points in ((0, s_points), (1, l_points)):
            mean, stderr = _mean_stderr(np.concatenate([r[col] for r in results]))
            points.append(EstimatePoint(t, mean, stderr, cfg.samples))
    return EstimateSeries(tuple(s_points)), EstimateSeries(tuple(l_points))


@dataclass(frozen=True)
class ComparisonReport:
    """Per-point z-scores of a Monte Carlo series against a deterministic curve."""

    ts: tuple[float, ...]
    z_scores: tuple[float, ...]
    tail_evaluations: tuple[bool, ...]
    max_abs_z: float
    fraction_within: float
    z_threshold: float
    min_fraction: float
    passed: bool


def compare_series(
    mc: EstimateSeries,
    reference: GridFunction,
    z_threshold: float = 4.0,
    min_fraction: float = 0.95,
) -> ComparisonReport:
    """z = (mean - p) / sqrt(p (1 - p) / n) per point, with p the reference.

    The series must come from draws in [0, 1], as every estimator's does:
    such a draw with mean p has variance at most p (1 - p), so where p lies
    strictly between 0 and 1 the reference's binomial variance bounds the
    mean's, and unlike the sample stderr it cannot collapse when the draws
    of a rare event happen to agree.  Where p is 0 or 1 a point scores
    (mean - p) / stderr, and one with stderr 0 must match p exactly.
    Points beyond the reference grid evaluate through its tail policy and
    are flagged.  The report passes when at least `min_fraction` of the
    points satisfy |z| <= z_threshold.  An empty series is rejected.
    """
    if not mc.points:
        raise ValueError("compare_series needs a Monte Carlo series with points; mc is empty")
    ts, zs, tails = [], [], []
    t_end = reference.grid.t_end
    for p in mc.points:
        ref = reference(p.t)
        tails.append(p.t > t_end)
        if 0.0 < ref < 1.0:
            z = (p.mean - ref) / math.sqrt(ref * (1.0 - ref) / p.n_samples)
        elif p.stderr != 0.0:
            z = (p.mean - ref) / p.stderr
        else:
            z = 0.0 if p.mean == ref else math.inf
        ts.append(p.t)
        zs.append(z)
    abs_z = np.abs(np.array(zs))
    fraction = float(np.mean(abs_z <= z_threshold))
    return ComparisonReport(
        ts=tuple(ts),
        z_scores=tuple(zs),
        tail_evaluations=tuple(tails),
        max_abs_z=float(abs_z.max()),
        fraction_within=fraction,
        z_threshold=z_threshold,
        min_fraction=min_fraction,
        passed=fraction >= min_fraction,
    )
