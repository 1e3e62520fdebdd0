"""Seeded samplers for the alpha-Riccati branching cascade.

The cascade is the random binary tree in which the edge below a depth-j
vertex carries an independent clock scaled by alpha**-j.  A vertex whose
cumulative path time first exceeds the horizon t is a "t-leaf"; the tree
is never materialized, only the alive region (vertices whose cumulative
time stays <= t) is traversed, one level at a time.  The census, the
product recursion and the tail-flag walk move a batch of trees down
together, each tree drawing its clocks from its own stream exactly as it
would alone.

All samplers are pure functions of (params, inputs, stream state).  Use
:func:`derive_stream` to obtain independent substreams that depend only on
(seed, sample_index), never on evaluation order or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CascadeParams",
    "ClockSource",
    "SamplerCapError",
    "derive_stream",
    "leaf_census",
    "sample_product_indicator",
    "sample_tail_flags",
    "crossing_horizon_cut",
]

_MAX_COUNT_DEPTH = 62  # leaf counts live in int64; 2**depth must fit
_DEFAULT_FRONTIER_CAP = 1 << 24
_SURVIVAL_MASS = 70.0  # certifies a survivor up to probability exp(-70), as the cut does
_TAIL_VERTEX_BUDGET = 1 << 13  # frontier vertices above which a tail-walk batch splits


class SamplerCapError(RuntimeError):
    """Raised when a sampler's alive frontier exceeds its cap."""


@dataclass(frozen=True)
class CascadeParams:
    """Branching scale alpha (>= 0) plus the 64-bit master seed."""

    alpha: float
    seed: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class ClockSource:
    """Edge-clock distribution: mean-one exponential, or a constant test hook."""

    mode: str = "exponential"
    value: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in ("exponential", "constant"):
            raise ValueError(f"unknown clock mode {self.mode!r}")
        if self.mode == "constant" and not (math.isfinite(self.value) and self.value > 0.0):
            raise ValueError("constant clocks require a positive value")

    @classmethod
    def exponential(cls) -> "ClockSource":
        return cls("exponential")

    @classmethod
    def constant(cls, c: float) -> "ClockSource":
        return cls("constant", float(c))

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        if self.mode == "exponential":
            return gen.standard_exponential(n)
        return np.full(n, self.value, dtype=float)


def derive_stream(params: CascadeParams, sample_index: int) -> np.random.Generator:
    """Independent substream determined by (seed, sample_index) alone.

    Counter-based: the Philox counter block for substream i starts at
    i * 2**128, so substreams never overlap and their identity does not
    depend on evaluation order or worker count.
    """
    idx = int(sample_index)
    if not (0 <= idx < 2**64):
        raise ValueError(f"sample_index must be a 64-bit unsigned integer, got {sample_index}")
    bitgen = np.random.Philox(key=int(params.seed), counter=[0, 0, idx, 0])
    return np.random.Generator(bitgen)


def _validate_horizon_depth(t: float, depth: int, max_depth: int) -> None:
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"horizon t must be finite and >= 0, got {t}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth > max_depth:
        raise ValueError(
            f"depth {depth} exceeds the supported maximum {max_depth} "
            "(2**depth would overflow the counters)"
        )


def _keep(values: np.ndarray, kept: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries of `values` where `kept`, and their count per tree (k owns sizes[k])."""
    where = kept.nonzero()[0]
    if len(sizes) == 1:  # a single tree: its count is the number kept
        return values.take(where), np.array([where.size])
    counts = where.searchsorted(sizes.cumsum())
    counts[1:] -= counts[:-1].copy()
    return values.take(where), counts


def _level(
    parents: np.ndarray,
    width: int,
    sizes: np.ndarray,
    alpha: float,
    clocks: ClockSource,
    streams: list,
    sums: np.ndarray | None = None,
    weight: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Move a batch of trees through one level of their alive regions.

    Each entry of `parents` is the horizon of `width` vertices (the root, or
    the two children of a survivor); tree k owns the next sizes[k] entries.
    Every tree draws one clock per vertex of positive horizon from its own
    stream, in vertex order: exactly the draws it makes when sampled alone.
    A vertex at horizon 0, or whose clock exceeds its horizon, is a leaf.
    Returns the survivors' remaining horizons times alpha, their count per
    tree, and, given the parents' path `sums`, the survivors' sums (the
    parent's plus `weight` times the clock, at least one ulp more) through
    the same masks, else None.
    """
    if parents.min() <= 0.0:
        positive = parents > 0.0
        if sums is not None:
            sums = sums[positive]
        parents, sizes = _keep(parents, positive, sizes)
    parts = [clocks.draw(streams[k], width * c) for k, c in enumerate(sizes.tolist()) if c]
    draws = parts[0] if len(parts) == 1 else np.concatenate(parts or [parents])
    if sums is not None:
        # a child's sum exceeds its parent's, as exact sums of positive clocks
        # do; rounding up where the clock's term is below half an ulp keeps a
        # horizon-0 vertex a leaf at every t, as the walk at t alone has it
        grown = sums[:, None] + weight * draws.reshape(-1, width)
        sums = np.maximum(grown, np.nextafter(sums, np.inf)[:, None]).ravel()
    # h - c in place; for finite doubles (gradual underflow) h - c >= 0 iff c <= h
    np.subtract(parents[:, None], draws.reshape(-1, width), out=draws.reshape(-1, width))
    kept = draws >= 0.0
    survivors, alive = _keep(draws, kept, width * sizes)
    survivors *= alpha
    return survivors, alive, None if sums is None else sums[kept]


def _check_frontier(survivors: int, alive: np.ndarray, frontier_cap: int, depth: int) -> None:
    """Each tree's frontier at `depth`, two per survivor, stays within the cap."""
    # no tree can be over the cap unless the whole batch is
    if 2 * survivors > frontier_cap and 2 * int(alive.max()) > frontier_cap:
        raise SamplerCapError(
            f"alive frontier exceeded {frontier_cap} vertices at depth {depth}; "
            "reduce the depth or raise frontier_cap"
        )


# a horizon past the float range overflows to inf, which survives every clock
@np.errstate(over="ignore")
def leaf_census(
    params: CascadeParams,
    t: float,
    depth: int,
    clocks: ClockSource,
    streams: list,
    frontier_cap: int = _DEFAULT_FRONTIER_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Leaves and alive vertices per depth 0..depth, one tree per stream.

    Returns two (trees, depth + 1) arrays: row k tallies the tree drawn from
    `streams[k]`, whose t-leaves at depth d are leaves[k, d] and whose
    vertices at depth d with cumulative time still <= t are alive[k, d].
    The cumulative sum of a row is the leaf count truncated at every
    threshold n <= depth on the same tree; alive[k, n] > 0 says the count at
    n may undershoot.  Vertices at horizon exactly 0 are leaves without
    consuming a clock, so the horizon-0 tree is only its root.  Memory is
    O(alive frontier), not O(2**depth).
    """
    _validate_horizon_depth(t, depth, _MAX_COUNT_DEPTH)
    n_trees = len(streams)
    alive = np.zeros((n_trees, depth + 1), dtype=np.int64)
    parents, width, sizes = np.full(n_trees, float(t)), 1, np.ones(n_trees, dtype=np.int64)
    for d in range(depth + 1):
        if parents.size == 0:
            break
        parents, sizes, _ = _level(parents, width, sizes, params.alpha, clocks, streams)
        alive[:, d] = sizes
        if d < depth:
            _check_frontier(parents.size, sizes, frontier_cap, d + 1)
        width = 2
    return _leaves(alive), alive


def _leaves(alive: np.ndarray) -> np.ndarray:
    """Leaves per depth from a census's alive vertices per depth."""
    # every vertex at depth d is a leaf or alive: the root, then two per survivor
    vertices = np.ones_like(alive)
    vertices[:, 1:] = 2 * alive[:, :-1]
    return vertices - alive


def sample_product_indicator(
    params: CascadeParams,
    ts,
    n: int,
    x0,
    clocks: ClockSource,
    streams: list,
    frontier_cap: int = _DEFAULT_FRONTIER_CAP,
) -> np.ndarray:
    """One draw of the depth-n product recursion seeded by the grid
    function x0 per stream, read at every horizon of the 1-D array `ts`.

    A vertex whose clock exceeds its horizon contributes the factor 1; a
    surviving vertex passes the rescaled remaining horizon to two children.
    After n levels the surviving horizons are fed through x0 and multiplied
    (empty product = 1).  For n=0 the value is x0(t) directly.  The
    expectation equals the n-th deterministic iterate seeded by x0.  Row k
    holds the draws from the tree of `streams[k]`: the trees advance
    together but each consumes its own clocks, and its factors are
    multiplied in vertex order.  x0 must map into [0, 1], which is checked
    before any clock is drawn.  When its tail value is 1, a horizon beyond
    its grid gives the factor 1 exactly and is not evaluated.

    Each tree is walked once, at t_max = max(ts); a child's horizon grows
    with its parent's, so that walk visits every vertex alive at a smaller
    t.  Every entry carries its unscaled path sum S = sum_j alpha**-j c_j,
    and at t the depth-n vertices alive are those with S <= t, at horizon
    alpha**n (t - S).  At t_max the walk's own horizons are read, so a
    one-horizon call gives the same values as a walk at that horizon alone.
    """
    return _product_walk(params, ts, n, x0, clocks, streams, frontier_cap)[0]


# horizons past the float range are inf, as in leaf_census; at alpha = 0 the
# path-sum weight alpha**-d is inf from d = 1 on, where no vertex is left to draw
@np.errstate(over="ignore", divide="ignore")
def _product_walk(
    params: CascadeParams,
    ts,
    n: int,
    x0,
    clocks: ClockSource,
    streams: list,
    frontier_cap: int = _DEFAULT_FRONTIER_CAP,
    census_t: float | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """The draws of :func:`sample_product_indicator`, and given `census_t`
    the (leaves, alive) census of :func:`leaf_census` at that horizon and
    depth n, read off the same trees; else None in its place.

    The walk runs at max(ts + [census_t]).  A vertex at depth d < n is
    alive at census_t when its path sum is <= census_t, so that census is a
    count per tree and level.  Depth n's clocks, which the product never
    draws, are drawn last, after every product draw of a tree, and only
    below the frontier entries whose path sum is < census_t (the others are
    at horizon 0 there): so the product draws are those of the walk alone.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError(f"ts must be a non-empty 1-D array of horizons, got shape {ts.shape}")
    top = float(ts.max())
    for t in (float(ts.min()), top) + (() if census_t is None else (census_t,)):  # nan fails
        _validate_horizon_depth(t, n, _MAX_COUNT_DEPTH)
    if not (0.0 <= x0.tail_value <= 1.0 and 0.0 <= x0.values.min() and x0.values.max() <= 1.0):
        raise ValueError("x0 takes values outside [0, 1]")
    if census_t is not None:
        top = max(top, census_t)
    alpha = np.float64(params.alpha)
    n_trees = len(streams)
    parents, width, sizes = np.full(n_trees, top), 1, np.ones(n_trees, dtype=np.int64)
    sums = np.zeros(n_trees)
    alive = None if census_t is None else np.zeros((n_trees, n + 1), dtype=np.int64)
    for d in range(n):
        if parents.size == 0:
            break
        parents, sizes, sums = _level(parents, width, sizes, alpha, clocks, streams,
                                      sums, alpha ** -d)
        if alive is not None:
            alive[:, d] = _keep(sums, sums <= census_t, sizes)[1]
        _check_frontier(parents.size, sizes, frontier_cap, d + 1)
        width = 2
    # a leaf contributes the factor 1 (a horizon-0 vertex with budget left is
    # one: its clock exceeds 0 surely); the frontier at depth n goes through
    # x0 (once per entry of parents), horizon 0 included, except where x0 is
    # surely 1: beyond its grid when its tail is 1; an empty product is 1
    out = np.ones((n_trees, ts.size))
    if parents.size:
        reach = x0.grid.t_end if x0.tail_value == 1.0 else math.inf
        scale = alpha ** n
        for j, t in enumerate(ts.tolist()):
            # the alive entries not beyond reach; a nan horizon is kept, so
            # it shows in the product instead of reading as the factor 1
            if t == top:
                horizons, kept = parents, ~(parents > reach)
            else:
                gap = t - sums
                # a vertex at horizon 0 reads x0(0), also where alpha**n is inf
                horizons = np.zeros_like(gap)
                np.multiply(gap, scale, out=horizons, where=gap > 0.0)
                kept = (sums <= t) & ~(horizons > reach)
            horizons, counts = _keep(horizons, kept, sizes)
            if horizons.size:
                factors = np.interp(horizons, x0.grid.nodes, x0.values, right=x0.tail_value)
                grown = np.flatnonzero(counts)
                starts = (counts.cumsum() - counts)[grown] * width
                out[grown, j] = np.multiply.reduceat(factors.repeat(width), starts)
    if alive is None:
        return out, None
    inside = sums < census_t
    if inside.any():
        parents, sizes = _keep(parents, inside, sizes)
        _, sizes, sums = _level(parents, width, sizes, alpha, clocks, streams,
                                sums[inside], alpha ** -n)
        alive[:, n] = _keep(sums, sums <= census_t, sizes)[1]
    return out, (_leaves(alive), alive)


@lru_cache(maxsize=64)
def crossing_horizon_cut(alpha: float, log_prob: float = -70.0) -> float:
    """Horizon h* with P(max path sum > h*) <= exp(log_prob), for alpha > 1.

    Chernoff bound on L <= sum_j alpha**-j * M_j with M_j the max of 2**j
    unit exponentials:  E exp(s M_j) <= Gamma(1-s) * 2**(j s), so
    P(L > h) <= C(theta) * exp(-theta h) for any theta < 1.  Subtrees whose
    local horizon exceeds the cut cross with negligible probability and are
    pruned by the tail samplers.  Terms j > 20,000 are bounded in closed form.
    """
    if alpha <= 1.0:
        raise ValueError("the crossing-probability cut requires alpha > 1")
    best, r = math.inf, 1.0 / alpha
    for theta in np.arange(0.05, 1.0, 0.05):
        ln_c = 0.0
        for j in range(20_001):
            s = theta * alpha ** (-j)
            ln_c += s * j * math.log(2.0) + math.lgamma(1.0 - s)
            if s < 1e-12:
                break
        else:  # terms from J = j + 1 on, with lgamma(1 - s) <= -ln(1 - s) <= s / (1 - s)
            rj, j = alpha ** (-j - 1), j + 1
            ln_c += theta * rj * (math.log(2.0) * (j * (1 - r) + r) / (1 - r) ** 2
                                  + 1.0 / ((1 - r) * (1 - theta * rj)))
        best = min(best, (ln_c - log_prob) / theta)
    return float(best)


def _survival_mass(parents, width, sizes, clocks_left, alpha) -> np.ndarray:
    """Per tree, a lower bound on the expected number of frontier vertices
    with a path that survives m = `clocks_left` more exponential clocks.

    A path below horizon h survives iff sum_j alpha**-j c_j <= h, so it does
    when its Gamma(m, 1) clock sum is at most x = h min(1, alpha**(m-1)).
    With t_i = e**-x x**i / i!, that has probability sum_{i >= m} t_i >= t_m,
    or 1 - sum_{i < m} t_i >= 1 - t_{m-1} x / (x - m + 1) for x > m - 1.
    """
    m = clocks_left
    x = parents * (alpha ** (m - 1) if alpha < 1.0 else 1.0)
    with np.errstate(divide="ignore"):  # log(0) = -inf at horizon 0, where t_i = 0
        t_last = np.exp((m - 1) * np.log(x) - x - math.lgamma(m)) if m > 1 else np.exp(-x)
    p = t_last * x / m
    bulk = x > m - 1
    p[bulk] = np.maximum(p[bulk], 1.0 - t_last[bulk] * x[bulk] / (x[bulk] - (m - 1)))
    return width * np.bincount(np.arange(len(sizes)).repeat(sizes), p, len(sizes))


@np.errstate(over="ignore")  # as in leaf_census; inf lies beyond the cut
def sample_tail_flags(
    params: CascadeParams,
    t: float,
    depth: int,
    clocks: ClockSource,
    streams: list,
    frontier_cap: int = _DEFAULT_FRONTIER_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Flags {min path sum > t} and {max path sum > t}, one tree per stream.

    The trees go down their alive regions as in the census.  A tree is
    crossed once a vertex is a leaf, and alive once a vertex survives at
    `depth`.  Two bounds, each wrong with probability at most exp(-70),
    mark a tree alive without a draw: for alpha > 1 a vertex beyond
    :func:`crossing_horizon_cut`, which survives and never crosses, and
    under exponential clocks a frontier whose survival mass (independent
    subtrees) reaches 70.  A tree with both flags draws no further clocks.
    Returns two boolean arrays, (s_exceeds, l_exceeds).  Both flags of a
    tree come from the same walk, so {min > t} implies {max > t} tree by
    tree.  A batch whose frontier entering a level exceeds
    _TAIL_VERTEX_BUDGET vertices finishes in two halves by tree, so memory
    stays bounded by the budget or by one tree's frontier.
    """
    _validate_horizon_depth(t, depth, 2**31)
    alpha = params.alpha
    cut = crossing_horizon_cut(alpha) if alpha > 1.0 else math.inf

    def walk(first, streams, parents, sizes, crossed, alive):
        # levels first..depth from the horizons `parents` (tree k owns the
        # next sizes[k]) and the flags so far; every rule is per tree, so
        # halves of a batch that resume at the level of the split give every
        # flag and stream position of the whole batch
        for d in range(first, depth + 1):
            width = 2 if d else 1
            beyond = parents > cut
            if beyond.any():
                alive |= _keep(parents, beyond, sizes)[1] > 0
                parents, sizes = _keep(parents, ~beyond, sizes)
            if clocks.mode == "exponential":
                # only a tree with 70 vertices can reach the mass 70 (each adds <= 1)
                candidates = ~alive & (width * sizes >= _SURVIVAL_MASS)
                if candidates.any():
                    mass = _survival_mass(parents[candidates.repeat(sizes)], width,
                                          sizes[candidates], depth - d + 1, alpha)
                    alive[candidates] = mass >= _SURVIVAL_MASS
            done = crossed & alive
            if sizes[done].any():
                parents, sizes = _keep(parents, ~done.repeat(sizes), sizes)
            if parents.size == 0:
                break
            if width * parents.size > _TAIL_VERTEX_BUDGET and len(sizes) > 1:
                h = len(sizes) // 2
                split = int(sizes[:h].sum())
                halves = (walk(d, streams[:h], parents[:split], sizes[:h], crossed[:h], alive[:h]),
                          walk(d, streams[h:], parents[split:], sizes[h:], crossed[h:], alive[h:]))
                return tuple(np.concatenate(flags) for flags in zip(*halves))
            entered = width * sizes
            parents, sizes, _ = _level(parents, width, sizes, alpha, clocks, streams)
            crossed |= sizes < entered
            if d < depth:
                _check_frontier(parents.size, sizes, frontier_cap, d + 1)
        return ~alive & (sizes == 0), crossed  # sizes counts the survivors at `depth`, if any

    n_trees = len(streams)
    return walk(0, streams, np.full(n_trees, float(t)), np.ones(n_trees, dtype=np.int64),
                np.zeros(n_trees, dtype=bool), np.zeros(n_trees, dtype=bool))
