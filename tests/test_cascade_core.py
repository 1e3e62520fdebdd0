"""Sampler contracts: determinism, hand-computable oracles, coupled monotonicity."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_cascade import (
    CascadeParams,
    ClockSource,
    GridFunction,
    McConfig,
    SamplerCapError,
    UniformGrid,
    crossing_horizon_cut,
    derive_stream,
    estimate_path_tails,
    leaf_census,
    picard_v0,
    sample_product_indicator,
    sample_tail_flags,
)
from riccati_cascade import cascade_core
from riccati_cascade.cascade_core import (
    _DEFAULT_FRONTIER_CAP,
    _MAX_COUNT_DEPTH,
    _level,
    _product_walk,
    _survival_mass,
    _validate_horizon_depth,
)
from riccati_cascade.checks import _required_count
from riccati_cascade.monte_carlo import _batch_size, _census_rows

EXP = ClockSource.exponential()

SEED_GRID = UniformGrid(8.0, 0.01)
_DECAY = 0.9 * np.exp(-SEED_GRID.nodes / 3.0)
# a seed with tail 1, whose factors beyond its grid the sampler drops, and
# one with a tail below 1, whose factors it all reads
SEEDS = (GridFunction(SEED_GRID, 1.0 - _DECAY, 1.0),
         GridFunction(SEED_GRID, _DECAY, float(_DECAY[-1])))


def constant_seed(c, range_bounds=True):
    return GridFunction.constant(SEED_GRID, c, range_bounds)


def params(alpha, seed=12345):
    return CascadeParams(alpha, seed)


class _ClockBuffer:
    """Scalar clock draws served from vectorized blocks; preserves draw order."""

    __slots__ = ("_clocks", "_gen", "_block", "_buf", "_pos")

    def __init__(self, clocks, gen, block=256):
        self._clocks = clocks
        self._gen = gen
        self._block = block
        self._buf = clocks.draw(gen, block)
        self._pos = 0

    def next(self):
        if self._pos == self._block:
            self._buf = self._clocks.draw(self._gen, self._block)
            self._pos = 0
        v = self._buf[self._pos]
        self._pos += 1
        return float(v)


def _reference_tail_flags(params, t, depth, clocks, stream):
    """The tail-flag search as a depth-first search: the oracle for the flags
    of the level walk under constant clocks, where every traversal order
    sees the same tree."""
    alpha = params.alpha
    if t == 0.0:
        return True, True
    cut = crossing_horizon_cut(alpha) if alpha > 1.0 else None
    buf = _ClockBuffer(clocks, stream)
    crossing_found = False
    alive_found = False
    stack = [(float(t), 0)]
    while stack:
        if crossing_found and alive_found:
            break
        horizon, d = stack.pop()
        if horizon == 0.0:
            crossing_found = True
            continue
        if cut is not None and horizon > cut:
            alive_found = True
            continue
        clock = buf.next()
        if clock > horizon:
            crossing_found = True
            continue
        if d == depth:
            alive_found = True
            continue
        child = alpha * (horizon - clock)
        stack.append((child, d + 1))
        stack.append((child, d + 1))
    return not alive_found, crossing_found


def _reference_walk_flags(params, t, depth, clocks, stream):
    """The tail-flag walk of one tree, vertex array by vertex array: level
    order over the alive region, horizons beyond the cut resolved without a
    draw, and an exit once both flags are set."""
    cut = crossing_horizon_cut(params.alpha) if params.alpha > 1.0 else math.inf
    horizons, crossed, alive = np.array([float(t)]), False, False
    for d in range(depth + 1):
        alive |= bool(np.any(horizons > cut))
        if alive and crossed:
            break
        horizons = horizons[horizons <= cut]
        crossed |= bool(np.any(horizons == 0.0))
        horizons = horizons[horizons > 0.0]
        draws = clocks.draw(stream, horizons.size)
        crossed |= bool(np.any(draws > horizons))
        survivors = horizons[draws <= horizons] - draws[draws <= horizons]
        horizons = np.repeat(params.alpha * survivors, 2)
    return not (alive or horizons.size > 0), crossed


def _reference_leaf_census(
    params: CascadeParams,
    t: float,
    depth: int,
    clocks: ClockSource,
    stream: np.random.Generator,
    frontier_cap: int = _DEFAULT_FRONTIER_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """The per-tree census as it was before the batch core, as (leaves,
    alive) per depth: the oracle for the batch's tallies and for the clocks
    each tree consumes."""
    _validate_horizon_depth(t, depth, _MAX_COUNT_DEPTH)
    alpha = params.alpha
    leaves = np.zeros(depth + 1, dtype=np.int64)
    alive = np.zeros(depth + 1, dtype=np.int64)
    horizons = np.array([float(t)])
    for d in range(depth + 1):
        if horizons.size == 0:
            break
        nonzero = horizons[horizons > 0.0]
        leaves[d] += horizons.size - nonzero.size  # horizon-0 vertices are leaves
        if nonzero.size == 0:
            break
        draws = clocks.draw(stream, nonzero.size)
        survivors = nonzero[draws <= nonzero] - draws[draws <= nonzero]
        leaves[d] += nonzero.size - survivors.size
        alive[d] = survivors.size
        if d == depth:
            break
        horizons = np.repeat(alpha * survivors, 2)
        if horizons.size > frontier_cap:
            raise SamplerCapError(
                f"alive frontier exceeded {frontier_cap} vertices at depth {d + 1}; "
                "reduce depth or raise frontier_cap"
            )
    return leaves, alive


def _reference_sample_product_indicator(
    params: CascadeParams,
    t: float,
    n: int,
    x0,
    clocks: ClockSource,
    stream: np.random.Generator,
    frontier_cap: int = _DEFAULT_FRONTIER_CAP,
) -> float:
    """The per-tree product recursion as it was before the batch core."""
    _validate_horizon_depth(t, n, _MAX_COUNT_DEPTH)
    alpha = params.alpha

    def _x0_values(args: np.ndarray) -> np.ndarray:
        vals = np.asarray(x0(args), dtype=float)
        if vals.shape != args.shape:
            vals = np.broadcast_to(vals, args.shape)
        if vals.size and (np.min(vals) < 0.0 or np.max(vals) > 1.0):
            raise ValueError("x0 returned a value outside [0, 1]")
        return vals

    if n == 0:
        return float(_x0_values(np.array([float(t)]))[0])
    horizons = np.array([float(t)])
    for _ in range(n):
        # a horizon-0 vertex with budget left contributes the factor 1
        # (its clock exceeds 0 surely); at budget 0 it must go through x0
        nonzero = horizons[horizons > 0.0]
        if nonzero.size == 0:
            return 1.0
        draws = clocks.draw(stream, nonzero.size)
        survivors = nonzero[draws <= nonzero] - draws[draws <= nonzero]
        horizons = np.repeat(alpha * survivors, 2)
        if horizons.size > frontier_cap:
            raise SamplerCapError(
                f"alive frontier exceeded {frontier_cap} vertices; "
                "reduce n or raise frontier_cap"
            )
    if horizons.size == 0:
        return 1.0
    return float(np.prod(_x0_values(horizons)))


@np.errstate(divide="ignore")  # alpha**-d is inf at alpha = 0, where nothing is drawn
def _reference_walk_census(params, top, t_c, n, clocks, stream):
    """One tree's census at t_c <= top read off its level-order walk at top,
    as (leaves, alive) per depth 0..n: the oracle for the census that
    `figures` reads off the v-curve's walk.

    The walk keeps a vertex whose clock is within its horizon at top and
    carries its path sum S, at least one ulp above its parent's; a vertex
    at depth d < n is alive at t_c when S <= t_c.  Depth n's clocks, which
    the product walk never draws, are drawn last, and only below the
    vertices whose S is < t_c."""
    alpha = np.float64(params.alpha)
    horizons, sums = np.array([float(top)]), np.zeros(1)
    alive = np.zeros(n + 1, dtype=np.int64)
    for d in range(n + 1):
        if d == n:
            horizons, sums = horizons[sums < t_c], sums[sums < t_c]
        drawn = horizons > 0.0
        horizons, sums = horizons[drawn], sums[drawn]
        draws = clocks.draw(stream, horizons.size)
        kept = draws <= horizons
        sums = np.maximum(sums + alpha ** -d * draws, np.nextafter(sums, np.inf))[kept]
        alive[d] = np.count_nonzero(sums <= t_c)
        horizons = np.repeat(alpha * (horizons - draws)[kept], 2)
        sums = np.repeat(sums, 2)
    vertices = np.concatenate([[1], 2 * alive[:-1]])
    return vertices - alive, alive


def _logged_draws(fn, streams):
    """fn()'s result, and per stream the sizes of the clock blocks it drew, in order."""
    log = {id(s): [] for s in streams}
    draw = ClockSource.draw

    def logged(source, gen, n):
        log[id(gen)].append(n)
        return draw(source, gen, n)

    with mock.patch.object(ClockSource, "draw", logged):
        result = fn()
    return result, [log[id(s)] for s in streams]


def _reference_level(parents, width, sizes, alpha, clocks, streams):
    """One level, vertex by vertex: each vertex of positive horizon draws its
    own clock from its tree's stream; survivors keep alpha * (h - c)."""
    survivors, alive, pos = [], [], 0
    for k, size in enumerate(sizes):
        kept = 0
        for h in parents[pos:pos + size]:
            for _ in range(width):
                if h > 0.0:
                    c = clocks.draw(streams[k], 1)[0]
                    if c <= h:
                        survivors.append(alpha * (h - c))
                        kept += 1
        alive.append(kept)
        pos += size
    return survivors, alive


def _chernoff_cut(alpha, log_prob, cap):
    """The Chernoff cut from the plain series over j, cut off after j = cap
    (none when cap is None) or once theta * alpha**-j < 1e-12."""
    best = math.inf
    for theta in np.arange(0.05, 1.0, 0.05):
        ln_c, j = 0.0, 0
        while True:
            s = theta * alpha ** (-j)
            ln_c += s * j * math.log(2.0) + math.lgamma(1.0 - s)
            j += 1
            if s < 1e-12 or (cap is not None and j > cap):
                break
        best = min(best, (ln_c - log_prob) / theta)
    return float(best)


def _next_draws(streams):
    return [s.standard_exponential(4).tolist() for s in streams]


def _streams(p, first, count):
    return [derive_stream(p, i) for i in range(first, first + count)]


def _recorded_clocks(p, t, n, clocks, stream):
    """Clocks of one tree's walk at horizon t, keyed by vertex path (a tuple
    of child indices), drawn vertex by vertex in the samplers' level order."""
    clock_of, level = {}, [((), float(t))]
    for _ in range(n):
        below = []
        for path, h in level:
            if h > 0.0:
                c = float(clocks.draw(stream, 1)[0])
                clock_of[path] = c
                if c <= h:
                    below += [(path + (0,), p.alpha * (h - c)), (path + (1,), p.alpha * (h - c))]
        level = below
    return clock_of


def _product_at(p, t, n, x0, clock_of):
    """The depth-n product at horizon t on recorded clocks, by per-vertex
    recursion: a horizon-0 vertex above depth n and a vertex whose clock
    exceeds its horizon give 1; a depth-n vertex gives x0 of its horizon."""
    def value(path, h):
        if len(path) == n:
            return float(x0(np.array([h]))[0])
        if h <= 0.0 or clock_of[path] > h:
            return 1.0
        h = p.alpha * (h - clock_of[path])
        return value(path + (0,), h) * value(path + (1,), h)

    return value((), float(t))


def _census_of_one(p, t, depth, clocks, stream, **kwargs):
    """(leaf count truncated at depth, some vertex alive at depth) of one tree."""
    leaves, alive = leaf_census(p, t, depth, clocks, [stream], **kwargs)
    return int(leaves[0].sum()), bool(alive[0, depth])


def _flags_of_one(p, t, depth, clocks, stream, **kwargs):
    s_flags, l_flags = sample_tail_flags(p, t, depth, clocks, [stream], **kwargs)
    return bool(s_flags[0]), bool(l_flags[0])


class TestDeriveStream:
    def test_same_index_replays_identically(self):
        p = params(1.5, seed=7)
        a = derive_stream(p, 0).standard_exponential(100)
        b = derive_stream(p, 0).standard_exponential(100)
        assert np.array_equal(a, b)

    def test_different_index_differs_in_first_draw(self):
        p = params(1.5, seed=7)
        a = derive_stream(p, 0).standard_exponential(1)
        b = derive_stream(p, 1).standard_exponential(1)
        assert a[0] != b[0]

    def test_substream_first_draws_all_distinct(self):
        # empirical collision check across 10^5 substreams
        p = params(1.5, seed=7)
        draws = np.array(
            [derive_stream(p, i).standard_exponential(1)[0] for i in range(100_000)]
        )
        assert np.unique(draws).size == draws.size

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            derive_stream(params(1.0), -1)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CascadeParams(-0.5, 1)
        with pytest.raises(ValueError):
            CascadeParams(1.0, -3)


class TestClockSource:
    def test_exponential_mean_one(self):
        gen = derive_stream(params(1.0, seed=11), 0)
        draws = EXP.draw(gen, 1_000_000)
        # standard error of the mean is 1/1000; require 5 sigma
        assert abs(draws.mean() - 1.0) < 5e-3

    def test_constant_draws_exact(self):
        gen = derive_stream(params(1.0, seed=11), 0)
        draws = ClockSource.constant(0.7).draw(gen, 100)
        assert np.all(draws == 0.7)

    def test_constant_requires_positive(self):
        with pytest.raises(ValueError):
            ClockSource.constant(0.0)


class TestLeafCount:
    def test_zero_horizon_is_root_only(self):
        # the horizon-0 tree is just the root; no clock is consumed
        p = params(1.5, seed=3)
        stream = derive_stream(p, 0)
        assert _census_of_one(p, 0.0, 10, EXP, stream) == (1, False)
        untouched = derive_stream(p, 0).standard_exponential(1)
        assert stream.standard_exponential(1)[0] == untouched[0]

    def test_alpha_zero_one_step_law(self):
        # at alpha=0 the children inherit horizon 0 and are leaves, so the
        # count is 2 exactly when the root clock stays below t
        p = params(0.0, seed=21)
        n = 10_000
        leaves, _ = leaf_census(p, 2.0, 10, EXP, _streams(p, 0, n))
        counts = leaves.sum(axis=1)
        assert set(np.unique(counts)) <= {1, 2}
        p2 = 1.0 - math.exp(-2.0)
        band = 3.0 * math.sqrt(p2 * (1.0 - p2) / n)
        assert abs(np.mean(counts == 2) - p2) < band

    def test_constant_clock_enumeration(self):
        # alpha=1.5, t=2, unit clocks: every path crosses at generation 2
        p = params(1.5, seed=5)
        assert _census_of_one(p, 2.0, 10, ClockSource.constant(1.0), derive_stream(p, 0)) == (4, False)

    def test_depth_zero_base_case(self):
        # unit clock vs horizon 2: the root survives, so the count is 0 and truncated
        p = params(1.5, seed=5)
        assert _census_of_one(p, 2.0, 0, ClockSource.constant(1.0), derive_stream(p, 0)) == (0, True)

    def test_horizon_past_the_float_range_keeps_every_vertex_alive(self):
        # (1e308 - c) * 1.5 overflows to inf, which survives every finite clock
        p = params(1.5, seed=5)
        leaves, alive = leaf_census(p, 1e308, 10, EXP, _streams(p, 0, 3))
        assert not leaves.any()
        assert np.array_equal(alive, np.tile(2 ** np.arange(11), (3, 1)))
        x = sample_product_indicator(p, [1e308], 10, constant_seed(1.0), EXP, _streams(p, 0, 3))
        assert x.tolist() == [[1.0]] * 3
        for alpha in (1.0, 1.5):
            flags = sample_tail_flags(params(alpha), 1e308, 10, EXP, _streams(p, 0, 3))
            assert [f.tolist() for f in flags] == [[False] * 3] * 2

    def test_rejects_negative_horizon_and_huge_depth(self):
        p = params(1.0)
        with pytest.raises(ValueError):
            leaf_census(p, -1.0, 5, EXP, [derive_stream(p, 0)])
        with pytest.raises(ValueError):
            leaf_census(p, 1.0, 63, EXP, [derive_stream(p, 0)])

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.0, 4.0),
        t=st.floats(0.0, 4.0),
        depth=st.integers(0, 8),
        idx=st.integers(0, 1000),
    )
    def test_count_bounds(self, alpha, t, depth, idx):
        p = params(alpha, seed=99)
        count, truncated = _census_of_one(p, t, depth, EXP, derive_stream(p, idx))
        assert 0 <= count <= 2**depth
        if not truncated:
            assert count >= 1
        if t == 0.0:
            assert count == 1 and not truncated

    def test_frontier_cap_guards_runaway_trees(self):
        # strong hyperexplosion at a long horizon keeps nearly every vertex
        # alive, so a tiny cap must trip
        p = params(3.0, seed=61)
        with pytest.raises(RuntimeError, match="frontier"):
            leaf_census(p, 8.0, 20, EXP, [derive_stream(p, 0)], frontier_cap=8)


class TestProductIndicator:
    def test_zero_horizon_is_one(self):
        p = params(1.5, seed=23)
        for n in (1, 3, 10):
            x = sample_product_indicator(p, [0.0], n, constant_seed(0.0), EXP, [derive_stream(p, 0)])
            assert x.tolist() == [[1.0]]

    def test_constant_one_seed_absorbs(self):
        p = params(1.5, seed=23)
        for t in (0.0, 1.0, 4.0):
            x = sample_product_indicator(p, [t], 8, constant_seed(1.0), EXP, [derive_stream(p, 1)])
            assert x.tolist() == [[1.0]]

    def test_zero_seed_one_step_mean(self):
        # with a zero seed, X_1(t) is the indicator of the root crossing
        p = params(1.5, seed=29)
        n = 10_000
        [vals] = sample_product_indicator(p, [2.0], 1, constant_seed(0.0), EXP,
                                          _streams(p, 0, n)).T
        assert set(np.unique(vals)) <= {0.0, 1.0}
        p1 = math.exp(-2.0)
        band = 3.0 * math.sqrt(p1 * (1.0 - p1) / n)
        assert abs(vals.mean() - p1) < band

    def test_n_zero_evaluates_seed(self):
        p = params(1.5, seed=23)
        x = sample_product_indicator(p, [3.0], 0, constant_seed(0.25), EXP, [derive_stream(p, 0)])
        assert x.tolist() == [[0.25]]

    def test_out_of_range_seed_rejected(self):
        p = params(1.5, seed=23)
        with pytest.raises(ValueError):
            sample_product_indicator(p, [1.0], 0, constant_seed(1.5, False), EXP, [derive_stream(p, 0)])
        with pytest.raises(ValueError):
            sample_product_indicator(p, [8.0], 2, constant_seed(-0.1, False), EXP, [derive_stream(p, 1)])

    def test_out_of_range_seed_rejected_before_any_clock(self):
        # values or tail outside [0, 1], each where the walk would draw clocks
        p = params(1.5, seed=23)
        inside = 0.5 * np.ones(SEED_GRID.node_count)
        for values, tail in ((inside, 1.5), (inside, -0.1), (inside + 0.6, 1.0),
                             (inside - 0.6, 0.0)):
            x0 = GridFunction(SEED_GRID, values, tail)
            streams = _streams(p, 0, 3)
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                sample_product_indicator(p, [0.5, 4.0], 6, x0, EXP, streams)
            assert _next_draws(streams) == _next_draws(_streams(p, 0, 3)), tail

    def test_a_horizon_at_the_grid_end_reads_the_last_node(self):
        # alpha = 1 and a unit clock put the root's children at horizon
        # t - 1 = 8.0, the last node: read in the top column and in a lower one
        p = params(1.0)
        x0 = SEEDS[0]
        want = float(x0.values[-1]) ** 2
        for ts in ([9.0], [9.0, 9.5]):
            got = sample_product_indicator(p, ts, 1, x0, ClockSource.constant(1.0),
                                           [derive_stream(p, 0)])
            assert got[0, 0] == want, ts


class TestHorizons:
    """One walk at the largest horizon, read at every horizon, with a seed of
    tail 1 and one of tail below 1."""

    @pytest.mark.parametrize("alpha", [0.0, 0.66, 1.5, 3.0])
    def test_columns_match_the_recursion_on_the_recorded_tree(self, alpha):
        # unsorted, with t = 0 and a repeated point
        ts = [0.0, 0.3, 1.0, 2.5, 6.0, 4.0, 2.5]
        p = params(alpha, seed=97)
        for x0, n in itertools.product(SEEDS, (0, 1, 3, 6, 8)):
            streams = _streams(p, 0, 24)
            got = sample_product_indicator(p, ts, n, x0, EXP, streams)
            assert got.shape == (24, len(ts))
            for i, row in enumerate(got):
                stream = derive_stream(p, i)
                clock_of = _recorded_clocks(p, max(ts), n, EXP, stream)
                assert _next_draws([stream]) == _next_draws([streams[i]]), (n, i)
                want = [_product_at(p, t, n, x0, clock_of) for t in ts]
                assert np.max(np.abs(row - want)) <= 1e-12, (x0.tail_value, n, i)

    @pytest.mark.parametrize("alpha", [0.66, 1.5, 3.0])
    def test_column_at_the_largest_horizon_is_the_one_horizon_draw(self, alpha):
        p = params(alpha, seed=61)
        for x0 in SEEDS:
            got = sample_product_indicator(p, [1.0, 5.0, 2.0], 6, x0, EXP, _streams(p, 0, 40))
            alone = sample_product_indicator(p, [5.0], 6, x0, EXP, _streams(p, 0, 40))
            assert got[:, 1].tolist() == alone[:, 0].tolist(), x0.tail_value

    @pytest.mark.parametrize("alpha", [0.0, 1.5, 1e20])
    def test_each_column_is_the_one_horizon_draw_under_unit_clocks(self, alpha):
        # unit clocks meet the horizons exactly: at t = 1 the root's children
        # sit at horizon 0 and are leaves, also where alpha**-1 is below half
        # an ulp of the root's path sum
        p = params(alpha)
        ts = [0.0, 1.0, 2.0, 3.0, 2.5]
        clocks = ClockSource.constant(1.0)
        for x0, n in itertools.product(SEEDS, (1, 2, 4)):
            got = sample_product_indicator(p, ts, n, x0, clocks, [derive_stream(p, 0)])
            alone = [sample_product_indicator(p, [t], n, x0, clocks, [derive_stream(p, 0)])
                     for t in ts]
            assert np.max(np.abs(got[0] - np.concatenate(alone)[:, 0])) <= 1e-12, (x0.tail_value, n)

    @pytest.mark.parametrize("alpha", [0.0, 1.5, 1e308])
    def test_a_horizon_past_the_float_range_sends_no_nan_to_x0(self, alpha):
        # alpha**n (t - S) is inf * 0 for a depth-n vertex at horizon 0 when
        # alpha**n overflows; with unit clocks and alpha = 1e308 the depth-2
        # vertices have S = 1 + 1 ulp, the second t below; a nan sent to x0
        # is kept under either seed, so it would show in the product
        p = params(alpha)
        for x0, clocks in itertools.product(SEEDS, (EXP, ClockSource.constant(1.0))):
            for t in (1.0, np.nextafter(1.0, 2.0)):
                for n in (2, 8):
                    got = sample_product_indicator(p, [t, 1e308], n, x0, clocks, _streams(p, 0, 16))
                    assert not np.isnan(got).any()
                    assert ((got >= 0.0) & (got <= 1.0)).all()

    def test_rejects_bad_horizon_arrays(self):
        p = params(1.5)
        for ts in ([], [[1.0, 2.0]], 1.0, [1.0, -0.5], [1.0, math.nan], [math.inf]):
            with pytest.raises(ValueError):
                sample_product_indicator(p, ts, 3, SEEDS[0], EXP, [derive_stream(p, 0)])


class TestCensusReadout:
    """The census at t_c read off the product walk, which `figures` uses."""

    @pytest.mark.parametrize("alpha", [0.0, 0.66, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("value", [0.25, 0.7, 1.0])
    def test_constant_clocks_give_the_census_at_t_c(self, alpha, value):
        # every traversal order sees the same tree under constant clocks; at
        # alpha = 1 and 2 with clocks 0.25 and 1 the path sums meet t_c =
        # 1.5, 1.75 and 2 exactly, where a vertex at S = t_c is alive.  Both
        # routes round, so a tie can split: at alpha = 1, clocks 0.3 and
        # t_c = 1.5 the sum 5 x 0.3 rounds to 1.5 while the horizon walk
        # leaves 1.5 - 4 x 0.3 = 0.29999999999999993 below the fifth clock
        p = params(alpha)
        clocks = ClockSource.constant(value)
        for t_c, ts, n in itertools.product((0.0, 0.7, 1.5, 1.75, 2.0, 3.0),
                                            ([3.0], [0.5, 8.0], [1.0]), (0, 1, 4, 8)):
            _, (leaves, alive) = _product_walk(p, ts, n, SEEDS[0], clocks, _streams(p, 0, 3),
                                               census_t=t_c)
            want_leaves, want_alive = leaf_census(p, t_c, n, clocks, _streams(p, 0, 3))
            assert np.array_equal(alive, want_alive), (t_c, ts, n)
            assert np.array_equal(leaves, want_leaves), (t_c, ts, n)

    @pytest.mark.parametrize("alpha", [0.66, 1.5, 3.0])
    def test_exponential_clocks_match_the_walk_replayed_per_tree(self, alpha):
        p = params(alpha, seed=131)
        index = 0
        for (t_c, ts), n, size in itertools.product(
            ((2.0, [0.0, 4.0, 8.0]), (0.5, [2.0]), (2.0, [2.0, 1.0]), (3.0, [1.0])),
            (0, 1, 5, 10), (1, 7),
        ):
            ids = range(index, index + size)
            index += size
            got_streams = [derive_stream(p, i) for i in ids]
            (_, census), blocks = _logged_draws(
                lambda: _product_walk(p, ts, n, SEEDS[1], EXP, got_streams, census_t=t_c),
                got_streams)
            want_streams = [derive_stream(p, i) for i in ids]
            want = [_reference_walk_census(p, max(ts + [t_c]), t_c, n, EXP, s)
                    for s in want_streams]
            assert np.array_equal(census[0], [w[0] for w in want]), (t_c, ts, n)
            assert np.array_equal(census[1], [w[1] for w in want]), (t_c, ts, n)
            assert _next_draws(got_streams) == _next_draws(want_streams)
            # the product walk alone draws the same blocks, census draws last
            plain_streams = [derive_stream(p, i) for i in ids]
            _, plain_blocks = _logged_draws(
                lambda: sample_product_indicator(p, ts + [t_c], n, SEEDS[1], EXP, plain_streams),
                plain_streams)
            for got, plain in zip(blocks, plain_blocks):
                assert got[:len(plain)] == plain and len(got) - len(plain) <= 1

    @pytest.mark.parametrize("alpha", [0.0, 0.66, 1.5, 3.0])
    @pytest.mark.parametrize("clocks", [EXP, ClockSource.constant(0.7)], ids=["exp", "const"])
    def test_product_draws_are_the_walks_alone(self, alpha, clocks):
        p = params(alpha, seed=137)
        ts = [0.5, 2.0, 8.0, 5.0]
        for x0, n, t_c in itertools.product(SEEDS, (0, 3, 10), (0.0, 2.0)):
            got_streams = _streams(p, 0, 12)
            out, (_, alive) = _product_walk(p, ts, n, x0, clocks, got_streams, census_t=t_c)
            want = sample_product_indicator(p, ts, n, x0, clocks, _streams(p, 0, 12))
            assert out.tolist() == want.tolist(), (x0.tail_value, n, t_c)
            want_streams = _streams(p, 0, 12)
            replay = [_reference_walk_census(p, 8.0, t_c, n, clocks, s) for s in want_streams]
            assert np.array_equal(alive, [r[1] for r in replay]), (x0.tail_value, n, t_c)
            assert _next_draws(got_streams) == _next_draws(want_streams)

    def test_a_census_beyond_the_largest_t_walks_at_the_census_horizon(self):
        p = params(1.5, seed=139)
        out, census = _product_walk(p, [0.5, 1.0], 6, SEEDS[0], EXP, _streams(p, 0, 20),
                                    census_t=2.0)
        want = sample_product_indicator(p, [0.5, 1.0, 2.0], 6, SEEDS[0], EXP, _streams(p, 0, 20))
        assert out.tolist() == want[:, :2].tolist()
        replay = [_reference_walk_census(p, 2.0, 2.0, 6, EXP, s) for s in _streams(p, 0, 20)]
        assert np.array_equal(census[1], [r[1] for r in replay])

    def test_rejects_a_bad_census_horizon(self):
        p = params(1.5)
        for t_c in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="horizon"):
                _product_walk(p, [1.0], 3, SEEDS[0], EXP, [derive_stream(p, 0)], census_t=t_c)


class TestTailFlags:
    def test_zero_horizon_both_exceed(self):
        p = params(1.5, seed=37)
        assert _flags_of_one(p, 0.0, 10, EXP, derive_stream(p, 0)) == (True, True)

    def test_depth_zero_matches_root_clock_law(self):
        # at depth 0 both extrema equal the root clock: P(exceeds t) = e^-t
        p = params(1.5, seed=41)
        n = 10_000
        s_flags, l_flags = sample_tail_flags(p, 1.0, 0, EXP, _streams(p, 0, n))
        assert np.array_equal(s_flags, l_flags)
        p1 = math.exp(-1.0)
        band = 3.0 * math.sqrt(p1 * (1.0 - p1) / n)
        assert abs(s_flags.mean() - p1) < band

    def test_s_exceeds_implies_l_exceeds(self):
        for alpha in (0.66, 1.5, 3.0):
            p = params(alpha, seed=43)
            s_flags, l_flags = sample_tail_flags(p, 2.0, 12, EXP, _streams(p, 0, 500))
            assert np.all(l_flags | ~s_flags)

    def test_nonexplosive_crossing_is_certain(self):
        # alpha below 1: path sums grow geometrically, every tree crosses t=2
        p = params(0.66, seed=47)
        _, l_flags = sample_tail_flags(p, 2.0, 30, EXP, _streams(p, 0, 2000))
        assert l_flags.all()

    def test_matches_census_distribution(self):
        # survival flag and census alive-at-depth estimate the same probability
        p = params(1.5, seed=53)
        n = 4000
        _, alive = _census_rows(p, 2.0, 6, 0, n)
        s_flags, _ = sample_tail_flags(p, 2.0, 6, EXP, _streams(p, n, n))
        se = math.sqrt(2.0 * 0.25 / n)
        assert abs(np.mean(alive[:, 6] > 0) - np.mean(~s_flags)) < 5.0 * se

    @pytest.mark.parametrize("alpha", [1.0005, 1.001])
    def test_horizon_cut_bounds_the_uncapped_series(self, alpha):
        # the series stops at j = 20,000 here; its closed-form remainder
        # keeps the cut at or above the series summed until it converges
        capped = _chernoff_cut(alpha, -70.0, 20_000)
        uncapped = _chernoff_cut(alpha, -70.0, None)
        assert capped < uncapped <= crossing_horizon_cut(alpha)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("log_prob", [-70.0, -3.0])
    def test_horizon_cut_unchanged_where_the_series_converges(self, alpha, log_prob):
        assert crossing_horizon_cut(alpha, log_prob) == _chernoff_cut(alpha, log_prob, 20_000)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 3.0])
    def test_horizon_cut_is_conservative_for_sampled_trees(self, alpha):
        # P(max path sum > cut) <= e**-3: the L flags at t = cut stay within
        # the exact binomial bound (false-alarm rate 1e-4)
        samples = 2000
        t = crossing_horizon_cut(alpha, -3.0)
        _, l_series = estimate_path_tails(alpha, [t], 30, McConfig(seed=97, samples=samples))
        hits = round(l_series.points[0].mean * samples)
        # smallest c with P(Binomial(samples, e**-3) > c) <= 1e-4
        assert hits <= samples - _required_count(samples, 1.0 - math.exp(-3.0), 1e-4)

    def test_horizon_cut_monotone_in_alpha(self):
        cuts = [crossing_horizon_cut(a) for a in (1.2, 1.5, 2.0, 3.0)]
        assert all(b <= a for a, b in zip(cuts, cuts[1:]))
        with pytest.raises(ValueError):
            crossing_horizon_cut(1.0)

    def test_determinism(self):
        p = params(3.0, seed=59)
        a = _flags_of_one(p, 2.0, 25, EXP, derive_stream(p, 9))
        b = _flags_of_one(p, 2.0, 25, EXP, derive_stream(p, 9))
        assert a == b

    @pytest.mark.parametrize("alpha", [0.66, 1.0, 1.5, 3.0])
    def test_sub_batches_match_one_tree_calls(self, alpha):
        # the flags and the stream position after the walk are both pinned:
        # a tree that draws another tree's clocks, or one clock too many or
        # too few, changes the next draws
        p = params(alpha, seed=67)
        index = 0
        for t in (0.0, 0.5, 2.0, 8.0):
            for depth in (0, 1, 5, 30):
                for size in (1, 3, 32):
                    got_streams = _streams(p, index, size)
                    want_streams = _streams(p, index, size)
                    index += size
                    s_flags, l_flags = sample_tail_flags(p, t, depth, EXP, got_streams)
                    want = [_flags_of_one(p, t, depth, EXP, s) for s in want_streams]
                    assert list(zip(s_flags.tolist(), l_flags.tolist())) == want, (t, depth, size)
                    assert _next_draws(got_streams) == _next_draws(want_streams)

    @pytest.mark.parametrize("alpha", [0.66, 1.0, 1.5, 3.0])
    def test_flags_are_the_census_where_no_vertex_passes_the_cut(self, alpha):
        # a vertex at depth d has a horizon below t * alpha**d, so no vertex
        # passes the cut while t * alpha**depth <= cut; there the walk draws
        # the census's clocks until both flags are known
        p = params(alpha, seed=71)
        cut = crossing_horizon_cut(alpha) if alpha > 1.0 else math.inf
        cases = [(t, 30 if alpha <= 1.0 else int(math.log(cut / t) / math.log(alpha)))
                 for t in (0.0, 0.5, 2.0, 8.0)[alpha > 1.0:]]
        for k, (t, depth) in enumerate(cases):
            s_flags, l_flags = sample_tail_flags(p, t, depth, EXP, _streams(p, 200 * k, 200))
            leaves, alive = _census_rows(p, t, depth, 200 * k, 200 * (k + 1))
            assert np.array_equal(s_flags, alive[:, depth] == 0), (t, depth)
            assert np.array_equal(l_flags, leaves.sum(axis=1) > 0), (t, depth)

    def test_survival_certificate_agrees_with_the_census(self):
        # at alpha = 1 and t = 10 the frontiers grow to thousands of likely
        # survivors: the certificate ends most walks early (the stream
        # positions show it), and the census of the same clocks confirms
        # every certified survivor
        p, depth = params(1.0, seed=83), 24
        got_streams, want_streams = _streams(p, 0, 100), _streams(p, 0, 100)
        s_flags, l_flags = sample_tail_flags(p, 10.0, depth, EXP, got_streams)
        leaves, alive = leaf_census(p, 10.0, depth, EXP, want_streams)
        assert np.array_equal(s_flags, alive[:, depth] == 0)
        assert np.array_equal(l_flags, leaves.sum(axis=1) > 0)
        early = [a != b for a, b in zip(_next_draws(got_streams), _next_draws(want_streams))]
        assert sum(early) >= 50

    @pytest.mark.parametrize("m", [1, 2, 5, 31])
    def test_survival_mass_bounds_the_gamma_law(self, m):
        # each entry as its own tree: the bound against the exact
        # P(Gamma(m) <= x) = 1 - e**-x sum_{i < m} x**i / i!
        x = np.array([0.0, 0.01, 0.5, 1.0, m - 1.0, m - 0.5, m, m + 0.5, 2.0 * m, 4.0 * m + 10])
        got = _survival_mass(x, 1, np.ones(x.size, dtype=np.int64), m, 1.0)
        exact = [1.0 - math.exp(-v) * math.fsum(v**i / math.factorial(i) for i in range(m))
                 for v in x]
        assert np.all(got <= np.array(exact) + 1e-15)
        assert got[-1] > 0.99 and got[0] == 0.0
        assert np.array_equal(_survival_mass(x, 2, np.array([x.size]), m, 1.0), [2.0 * got.sum()])

    @pytest.mark.parametrize("alpha", [0.66, 1.0, 1.5])
    def test_survival_mass_bounds_the_path_law(self, alpha):
        # a fixed path of m clocks below horizon h survives iff
        # sum_j alpha**-j c_j <= h; 20,000 paths, 4-sigma band
        gen = derive_stream(params(alpha), 0)
        for m, h in ((1, 0.7), (3, 2.0), (8, 9.0), (8, 60.0)):
            paths = gen.standard_exponential((20_000, m)) @ alpha ** -np.arange(m)
            freq = np.mean(paths <= h)
            bound = _survival_mass(np.array([h]), 1, np.array([1]), m, alpha)[0]
            assert bound <= freq + 4.0 * math.sqrt(max(freq, bound) / 20_000), (m, h)

    def test_near_critical_frontiers_stay_small(self):
        # at alpha = 1.1 and t = 8 a level walk without the survival
        # certificate grows millions of vertices per tree by depth 30
        p = params(1.1, seed=89)
        s_flags, _ = sample_tail_flags(p, 8.0, 30, EXP, _streams(p, 0, 32), frontier_cap=1 << 17)
        assert not s_flags.any()

    def test_root_at_the_cut_draws_its_clock(self):
        # the cut takes only horizons strictly beyond it
        for alpha in (1.5, 3.0):
            p = params(alpha, seed=79)
            stream, twin = derive_stream(p, 0), derive_stream(p, 0)
            sample_tail_flags(p, crossing_horizon_cut(alpha), 0, EXP, [stream])
            twin.standard_exponential(1)
            assert _next_draws([stream]) == _next_draws([twin]), alpha

    @pytest.mark.parametrize("alpha", [1.5, 3.0])
    def test_flags_match_the_level_order_reference_past_the_cut(self, alpha):
        # many of these trees pass the cut: one alive through the cut must
        # still look for a crossing, and one crossed for a survivor
        p = params(alpha, seed=73)
        for k, t in enumerate((2.0, 8.0, 30.0)):
            s_flags, l_flags = sample_tail_flags(p, t, 30, EXP, _streams(p, 100 * k, 100))
            want = [_reference_walk_flags(p, t, 30, EXP, s) for s in _streams(p, 100 * k, 100)]
            assert list(zip(s_flags.tolist(), l_flags.tolist())) == want, t

    @pytest.mark.parametrize("alpha", [0.66, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("value", [0.3, 0.7, 1.6])
    def test_constant_clocks_match_the_depth_first_search(self, alpha, value):
        # constant clocks make the tree deterministic, so the level walk and
        # the depth-first search see the same tree; from t = 60 the horizons
        # of alpha 1.5 and 3 pass the cut
        p = params(alpha, seed=67)
        clocks = ClockSource.constant(value)
        for t in (0.0, 0.3, 0.5, 0.7, 2.0, 8.0, 60.0, 200.0):
            for depth in (0, 1, 5, 12):
                want = _reference_tail_flags(p, t, depth, clocks, derive_stream(p, 0))
                assert _flags_of_one(p, t, depth, clocks, derive_stream(p, 0)) == want, (t, depth)

    def test_frontier_cap_raises_typed_error(self):
        p = params(1.5, seed=71)
        with pytest.raises(SamplerCapError, match="frontier"):
            sample_tail_flags(p, 8.0, 30, EXP, [derive_stream(p, 0)], frontier_cap=3)


def _split_walk(p, t, depth, clocks, streams, budget):
    """The flags of one call on `streams` at the given budget, and the
    (trees, frontier vertices) of every level it drew."""
    calls = []

    def level(parents, width, sizes, *args):
        calls.append((len(sizes), width * parents.size))
        return _level(parents, width, sizes, *args)

    with mock.patch.object(cascade_core, "_TAIL_VERTEX_BUDGET", budget), \
            mock.patch.object(cascade_core, "_level", level):
        flags = sample_tail_flags(p, t, depth, clocks, streams)
    return flags, calls


class TestSplitWalk:
    """A batch whose frontier passes the vertex budget finishes in halves."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        alpha=st.sampled_from([0.66, 1.0, 1.2, 1.5, 3.0]) | st.floats(0.5, 3.0),
        t=st.sampled_from([0.0, 0.5, 2.0, 6.0]) | st.floats(0.0, 8.0),
        depth=st.sampled_from([0, 3, 12, 30]) | st.integers(0, 30),
        budget=st.sampled_from([1, 2, 64, 1 << 10]),
        size=st.integers(1, 12),
        first=st.integers(0, 10_000),
        constant=st.booleans(),
    )
    def test_split_walk_matches_one_tree_walks(self, alpha, t, depth, budget, size, first,
                                               constant):
        # flags and stream positions equal those of each tree walked alone,
        # and no level draws more than the budget unless it walks one tree
        p = params(alpha, seed=101)
        clocks = ClockSource.constant(0.7) if constant else EXP
        got_streams, want_streams = _streams(p, first, size), _streams(p, first, size)
        want = [_flags_of_one(p, t, depth, clocks, s) for s in want_streams]
        (s_flags, l_flags), calls = _split_walk(p, t, depth, clocks, got_streams, budget)
        assert list(zip(s_flags.tolist(), l_flags.tolist())) == want
        assert _next_draws(got_streams) == _next_draws(want_streams)
        assert all(vertices <= budget or trees == 1 for trees, vertices in calls), calls

    def test_near_critical_chunk_stays_within_the_default_budget(self):
        # 200 trees at alpha = 1.1 and t = 8 hold far more than the budget
        # together; the walk splits, and each level stays within it
        p = params(1.1, seed=89)
        budget = cascade_core._TAIL_VERTEX_BUDGET
        got_streams, want_streams = _streams(p, 0, 200), _streams(p, 0, 200)
        (s_flags, l_flags), calls = _split_walk(p, 8.0, 30, EXP, got_streams, budget)
        trees = [trees for trees, _ in calls]
        assert max(trees) == 200 and min(trees) < 200
        assert all(vertices <= budget or trees == 1 for trees, vertices in calls)
        want = [_flags_of_one(p, 8.0, 30, EXP, s) for s in want_streams]
        assert list(zip(s_flags.tolist(), l_flags.tolist())) == want
        assert _next_draws(got_streams) == _next_draws(want_streams)


class TestBatchCore:
    """Sub-batches of trees against the per-tree samplers, tree by tree."""

    @pytest.mark.parametrize("alpha", [0.0, 0.66, 1.5, 3.0])
    @pytest.mark.parametrize("clocks", [EXP, ClockSource.constant(0.7)], ids=["exp", "const"])
    def test_batches_match_per_tree_samplers(self, alpha, clocks):
        # every tree's result and the stream position after it are pinned:
        # a tree that draws another tree's clocks, or one clock too many or
        # too few, changes the next draws
        p = params(alpha, seed=73)
        index = 0
        # at t = 0.7 a constant clock meets the root's horizon exactly
        for t in (0.0, 0.5, 0.7, 2.0, 5.0):
            for n in (0, 1, 4, 9):
                for size in (1, 3, 8):
                    ids = range(index, index + size)
                    index += size
                    got_streams = [derive_stream(p, i) for i in ids]
                    want_streams = [derive_stream(p, i) for i in ids]
                    leaves, alive = leaf_census(p, t, n, clocks, got_streams)
                    want_leaves, want_alive = zip(*[_reference_leaf_census(p, t, n, clocks, s)
                                                    for s in want_streams])
                    assert np.array_equal(leaves, want_leaves)
                    assert np.array_equal(alive, want_alive)
                    assert _next_draws(got_streams) == _next_draws(want_streams)

                    for x0 in SEEDS:
                        got_streams = [derive_stream(p, i) for i in ids]
                        want_streams = [derive_stream(p, i) for i in ids]
                        [got] = sample_product_indicator(p, [t], n, x0, clocks, got_streams).T
                        want = [
                            _reference_sample_product_indicator(p, t, n, x0, clocks, s)
                            for s in want_streams
                        ]
                        assert got.tolist() == want, (x0.tail_value, t, n, size)
                        assert _next_draws(got_streams) == _next_draws(want_streams)

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("clocks", [EXP, ClockSource.constant(0.7)], ids=["exp", "const"])
    def test_level_with_horizon_zero_entries_matches_per_vertex_draws(self, width, clocks):
        # no sampler input reaches the horizon-0 mask with some horizons
        # positive, so the level is built by hand: zero and positive
        # horizons inside a tree and across trees, and a tree with none
        p = params(1.5, seed=89)
        parents = np.array([0.0, 1.3, 0.0, 0.7, 2.5, 0.0, 0.4, 0.0, 5.0, 0.7])
        sizes = np.array([3, 0, 2, 1, 4, 0])
        tree = np.repeat(np.arange(len(sizes)), sizes)
        # all six trees; an empty tree and an all-positive one (no mask); a
        # tree at horizon 0 alone (no clock drawn); zeros but no empty tree
        for lo, hi in ((0, 6), (1, 3), (3, 4), (0, 1)):
            part = parents[(tree >= lo) & (tree < hi)]
            counts = sizes[lo:hi]
            got_streams = [derive_stream(p, i) for i in range(len(counts))]
            want_streams = [derive_stream(p, i) for i in range(len(counts))]
            survivors, alive, _ = _level(part, width, counts, 1.5, clocks, got_streams)
            want_survivors, want_alive = _reference_level(part, width, counts, 1.5, clocks,
                                                          want_streams)
            assert survivors.tolist() == want_survivors, (lo, hi)
            assert alive.tolist() == want_alive, (lo, hi)
            assert _next_draws(got_streams) == _next_draws(want_streams)

    @pytest.mark.parametrize("t", [2.0, 8.0])
    def test_figures_shape_matches_per_tree_samplers(self, t):
        # the shape `figures` runs: alpha = 1.5, n = 10, full sub-batches
        size = _batch_size(10)
        assert size == 32
        p = params(1.5, seed=101)
        v0 = picard_v0(1.5, UniformGrid(8.0, 0.01), 5)
        for first in (0, size):
            ids = range(first, first + size)
            got_streams = [derive_stream(p, i) for i in ids]
            want_streams = [derive_stream(p, i) for i in ids]
            leaves, alive = leaf_census(p, t, 10, EXP, got_streams)
            want_leaves, want_alive = zip(*[_reference_leaf_census(p, t, 10, EXP, s)
                                            for s in want_streams])
            assert np.array_equal(leaves, want_leaves)
            assert np.array_equal(alive, want_alive)
            assert _next_draws(got_streams) == _next_draws(want_streams)

            [got] = sample_product_indicator(p, [t], 10, v0, EXP, got_streams).T
            want = [_reference_sample_product_indicator(p, t, 10, v0, EXP, s)
                    for s in want_streams]
            assert got.tolist() == want
            assert _next_draws(got_streams) == _next_draws(want_streams)

    def test_frontier_cap_is_per_tree(self):
        # one tree over the cap fails its batch; trees under it pass even
        # when their frontiers add up to more than the cap
        p = params(1.5, seed=83)
        cap, t, depth = 200, 2.0, 12
        over, under = [], []
        for i in range(60):
            try:
                _, alive = _reference_leaf_census(p, t, depth, EXP, derive_stream(p, i), cap)
            except SamplerCapError:
                over.append(i)
            else:
                under.append((2 * int(alive[:depth].max()), i))
        largest = sorted(under)[-4:]
        assert over and sum(peak for peak, _ in largest) > cap
        calm = sorted(i for _, i in largest)

        leaves, _ = leaf_census(p, t, depth, EXP, [derive_stream(p, i) for i in calm], cap)
        for row, i in zip(leaves, calm):
            want, _ = _reference_leaf_census(p, t, depth, EXP, derive_stream(p, i), cap)
            assert np.array_equal(row, want)
        mixed = calm[:2] + over[:1] + calm[2:]
        with pytest.raises(SamplerCapError, match="frontier"):
            leaf_census(p, t, depth, EXP, [derive_stream(p, i) for i in mixed], cap)
        with pytest.raises(SamplerCapError, match="frontier"):
            sample_product_indicator(p, [t], depth, SEEDS[0], EXP, [derive_stream(p, i) for i in mixed], cap)
