"""Yardsticks: fixed pieces of work, timed next to every pass to gauge the
host's speed.

The benchmark's host is a few cores of a shared machine whose speed drifts
by up to a factor of two within a minute, as other tenants come and go.  A
pass's time divided by the time of a yardstick round run just before and
just after it cancels most of that drift, and still moves with any change
to the program, since a yardstick never calls the program.

Contention slows interpreter work, numpy array work and work spread over
pool processes by different amounts, so there is one yardstick of each
kind, and each workload is timed against the kind its time goes to:

  tree   a pure-Python depth-first walk of random trees with clocks drawn
         in numpy blocks, one substream per tree, like the samplers;
  array  numpy passes of interpolation and prefix sums over a grid, like
         the grid chains;
  pool   the tree walk split over two process pools of two workers each,
         started afresh like the estimators' pools, since a workload whose
         time is spent in pool workers feels contention on both cores.

Their inputs are fixed, so each round does the same work in every run.
Set-up time is scaled by a tree round run right after it (`scaled_setup_s`).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

TREE_NODES = 750_000
TREE_HORIZON = 6.0
TREE_ALPHA = 1.5
TREE_DEPTH = 30
CLOCK_BLOCK = 256
ARRAY_NODES = 40_001
ARRAY_ROUNDS = 240
POOL_STARTS = 2
POOL_WORKERS = 2
# Set-up is interpreter work, so it is timed against a tree round and given
# in seconds at the host speed where a tree round takes TREE_ROUND_S: about
# the round's time on the two-core Xeon host the benchmark was defined on,
# in a quiet spell.
TREE_ROUND_S = 0.30


class _Clocks:
    """Exponential clocks served one at a time from numpy blocks."""

    __slots__ = ("_gen", "_buf", "_pos")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._buf = gen.exponential(1.0, CLOCK_BLOCK)
        self._pos = 0

    def next(self) -> float:
        if self._pos == CLOCK_BLOCK:
            self._buf = self._gen.exponential(1.0, CLOCK_BLOCK)
            self._pos = 0
        v = self._buf[self._pos]
        self._pos += 1
        return float(v)


def _tree_walk(nodes: int = TREE_NODES) -> int:
    """Walk `nodes` vertices of random trees, each tree on its own substream."""
    seeds = np.random.SeedSequence(20230309)
    leaves = 0
    stack: list[tuple[float, int]] = []
    clocks = None
    for _ in range(nodes):
        if not stack:
            clocks = _Clocks(np.random.Generator(np.random.PCG64(seeds.spawn(1)[0])))
            stack.append((TREE_HORIZON, 0))
        horizon, depth = stack.pop()
        clock = clocks.next()
        if clock > horizon or depth == TREE_DEPTH:
            leaves += 1
            continue
        child = TREE_ALPHA * (horizon - clock)
        stack.append((child, depth + 1))
        stack.append((child, depth + 1))
    return leaves


def _array_passes() -> float:
    x = np.linspace(0.0, 8.0, ARRAY_NODES)
    h = x[1] - x[0]
    f = np.exp(-x)
    for _ in range(ARRAY_ROUNDS):
        g = np.cumsum(f) * h
        f = np.interp(0.97 * x, x, g) + np.exp(-x)
        f /= f[-1] + 1.0
    return float(f.sum())


def _pool_walks() -> None:
    """The tree walk split over POOL_STARTS fresh pools of POOL_WORKERS processes."""
    share = TREE_NODES // (POOL_STARTS * POOL_WORKERS)
    for _ in range(POOL_STARTS):
        with ProcessPoolExecutor(max_workers=POOL_WORKERS) as pool:
            list(pool.map(_tree_walk, [share] * POOL_WORKERS))


KINDS = {"tree": _tree_walk, "array": _array_passes, "pool": _pool_walks}


def scaled_setup_s(setup_s: float, tree_round_s: float) -> float:
    """Set-up seconds at the host speed where a tree round takes TREE_ROUND_S."""
    return setup_s * TREE_ROUND_S / tree_round_s


def yardstick_s(kind: str) -> float:
    """Seconds taken by one round of the yardstick of one kind."""
    work = KINDS[kind]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
