"""Deterministic integral recursions for the alpha-Riccati equation on uniform grids.

Everything is built on one kernel map

    K(f)(t) = int_0^t exp(-u) f(alpha (t - u)) du

evaluated by the composite trapezoidal rule on the grid nodes.  The three
chains are one recursion in the complement variable,

    q_j = clip(s + K(2 q_{j-1} - q_{j-1}^2)),

and differ only in the source s and the seed q_0:

* Picard:      s = 1 - K(1), q_0 = 0, returned as U_k = 1 - q_k.  This is
  U_k = K(U_{k-1}^2) from U_0 = 1, which decreases to the cumulative
  distribution of the longest path when alpha > 1 (the standard surrogate
  for the seed of the other two).  s equals exp(-t) up to the quadrature
  error of K(1), which the U-form carries as well.
* Explosion:   s = 0, q_0 as given; q_j is the probability that some branch
  crosses the horizon at generation >= j.
* Finiteness:  s = 0, q_0 = 1 - v_0, returned as v_j = 1 - q_j.  This is
  v_j = exp(-t) + K(v_{j-1}^2) algebraically, but the q form keeps the
  quadrature error local in the tail (the literal form integrates an O(1)
  bulk and its error floor, about h^2/12, compounds through the squaring;
  see tests for the measured O(h^2) correspondence between both forms).

For alpha > 1 the argument alpha*(t - u) leaves the requested grid, so the
chain runs on an adaptively extended working grid: the extent doubles
until the final iterate's tail q falls below eps_tail, at which point the
flat extrapolation q = 0 (U = v = 1) is certified to that accuracy.
Values are clipped into [0, 1] at every level; the trapezoid rule
otherwise overshoots by O(h^2) at large t and the excess compounds
through the squaring.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "UniformGrid",
    "GridFunction",
    "ResidualReport",
    "TailIntegral",
    "GridMemoryError",
    "evaluate",
    "convolve_kernel",
    "picard_v0",
    "iterate_vn",
    "iterate_qn",
    "iterate_qn_levels",
    "riccati_residual",
    "integrate_tail",
    "DEFAULT_EPS_TAIL",
    "DEFAULT_NODE_CAP",
]

DEFAULT_EPS_TAIL = 1e-6
DEFAULT_NODE_CAP = 50_000_000

# tolerated numeric excursion outside [0,1] before construction fails
_RANGE_SLACK = 1e-9
# nodes per np.interp call in the chains' step
_INTERP_BLOCK = 16_384
# largest step * nodes of one scan block: a block scales its inputs by at most exp(4)
_SCAN_SPAN = 4.0


class GridMemoryError(RuntimeError):
    """Raised when a working grid would exceed the configured node cap."""


@dataclass(frozen=True)
class UniformGrid:
    """Uniform nodes i*step for i = 0..ceil(t_max/step)."""

    t_max: float
    step: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be finite and > 0, got {self.step}")
        if not (math.isfinite(self.t_max) and self.t_max >= self.step):
            raise ValueError(f"t_max must be finite and >= step, got {self.t_max}")

    @cached_property
    def nodes(self) -> np.ndarray:
        n = _interval_count(self.t_max, self.step)
        nodes = np.arange(n + 1) * self.step
        nodes.setflags(write=False)
        return nodes

    @property
    def node_count(self) -> int:
        return _interval_count(self.t_max, self.step) + 1

    @property
    def t_end(self) -> float:
        """Last node; >= t_max by construction."""
        return float(self.nodes[-1])


def _interval_count(t_max: float, step: float) -> int:
    # guard against ceil(800.0000000001) from float division
    return int(math.ceil(t_max / step - 1e-9))


@dataclass(frozen=True)
class GridFunction:
    """Real function on a uniform grid: linear interpolation between nodes,
    constant `tail_value` beyond the last node.  Immutable after construction."""

    grid: UniformGrid
    values: np.ndarray
    tail_value: float
    range_bounds: bool = False

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.node_count,):
            raise ValueError(
                f"values shape {vals.shape} does not match the grid "
                f"({self.grid.node_count} nodes)"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if self.range_bounds:
            lo, hi = float(np.min(vals)), float(np.max(vals))
            if lo < -_RANGE_SLACK or hi > 1.0 + _RANGE_SLACK:
                raise ValueError(f"range-bounded values outside [0,1]: min={lo}, max={hi}")
            if not (0.0 <= self.tail_value <= 1.0):
                raise ValueError(f"range-bounded tail_value outside [0,1]: {self.tail_value}")
            vals = np.clip(vals, 0.0, 1.0)
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __call__(self, t):
        return evaluate(self, t)

    @classmethod
    def constant(cls, grid: UniformGrid, value: float, range_bounds: bool = True) -> "GridFunction":
        return cls(grid, np.full(grid.node_count, float(value)), float(value), range_bounds)

    def complement(self) -> "GridFunction":
        """1 - f, with the complementary tail."""
        return GridFunction(self.grid, 1.0 - self.values, 1.0 - self.tail_value, self.range_bounds)


def evaluate(f: GridFunction, t):
    """Linear interpolation on the grid; `tail_value` beyond the last node.

    Accepts a scalar or an array; negative arguments are rejected.
    """
    arr = np.asarray(t, dtype=float)
    if arr.size and float(np.min(arr)) < 0.0:
        raise ValueError("evaluation points must be >= 0")
    out = np.interp(arr, f.grid.nodes, f.values, right=f.tail_value)
    if np.ndim(t) == 0:
        return float(out)
    return out


@lru_cache(maxsize=16)
def _scan_powers(step: float, block: int) -> tuple[np.ndarray, np.ndarray]:
    """a**-k and a**k for k = 0..block-1, with a = exp(-step)."""
    k = np.arange(block) * step
    return np.exp(k), np.exp(-k)


def _trapezoid_convolve(phi: np.ndarray, step: float) -> np.ndarray:
    """Composite trapezoid of int_0^{t_i} exp(-s) phi-interpolant ds, all i at once.

    Written as the linear recurrence g_{i+1} = a g_i + b_{i+1}, with a = exp(-h)
    and b_{i+1} = (h/2)(a phi_i + phi_{i+1}), which reproduces the trapezoid
    sums without the overflowing exp(+t) cumulative form.  The recurrence runs
    as a scaled prefix sum in blocks of B nodes (Blelloch, 1990): within a
    block g_k = a^k cumsum_j(a^-j b_j), with the previous block's last value
    folded into the block's first input as a g.  h B <= _SCAN_SPAN bounds the
    scaling by exp(4).  The chains' inputs are nonnegative, so nothing
    cancels and the relative rounding error stays within about B machine
    epsilons; for mixed-sign inputs the tests bound the absolute error by
    exp(h B) B eps max|b|.
    """
    a = math.exp(-step)
    b = np.empty_like(phi)
    b[0] = 0.0
    # in place, in the operation order of (h/2) * (a * phi[:-1] + phi[1:])
    np.multiply(phi[:-1], a, out=b[1:])
    b[1:] += phi[1:]
    b[1:] *= step / 2.0
    block = max(1, min(len(b), int(_SCAN_SPAN / step)))
    up, down = _scan_powers(step, block)
    carry = 0.0
    for lo in range(0, len(b), block):
        seg = b[lo : lo + block]
        m = len(seg)
        seg[0] += a * carry
        seg *= up[:m]
        np.cumsum(seg, out=seg)
        seg *= down[:m]
        carry = float(seg[-1])
    return b


def convolve_kernel(f: GridFunction, alpha: float, grid: UniformGrid) -> GridFunction:
    """g(t_i) = int_0^{t_i} exp(-s) f(alpha (t_i - s)) ds on the grid nodes.

    Composite trapezoidal rule; g(0) = 0; global error O(step^2) for smooth f.
    Arguments beyond f's domain use f's tail policy.
    """
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    nodes = grid.nodes
    phi = np.interp(alpha * nodes, f.grid.nodes, f.values, right=f.tail_value)
    g = _trapezoid_convolve(phi, grid.step)
    return GridFunction(grid, g, float(g[-1]), range_bounds=False)


def _require_probability_values(f: GridFunction, name: str) -> None:
    if float(np.min(f.values)) < 0.0 or float(np.max(f.values)) > 1.0:
        raise ValueError(f"{name} must take values in [0,1]")
    if not (0.0 <= f.tail_value <= 1.0):
        raise ValueError(f"{name} tail_value must lie in [0,1]")


def _working_nodes(t_end: float, step: float, node_cap: int) -> np.ndarray:
    count = _interval_count(t_end, step) + 1
    if count > node_cap:
        raise GridMemoryError(
            f"working grid would need {count} nodes (cap {node_cap}); "
            "raise the cap, loosen eps_tail, or coarsen the step"
        )
    return np.arange(count) * step


def _extent_schedule(grid: UniformGrid, alpha: float, n_steps: int, expand_full: bool):
    """Working-grid extents to try, ending at the full alpha**n expansion."""
    t_end = grid.t_end
    if alpha <= 1.0 or n_steps == 0:
        return [t_end], t_end
    try:  # only used as a bound, so an overflow stands as inf
        t_need = t_end * alpha**n_steps
    except OverflowError:
        t_need = math.inf
    if expand_full:
        if not math.isfinite(t_need):
            raise GridMemoryError("full expansion requested but alpha**n * t_max overflows")
        return [t_need], t_need
    extents = []
    t = t_end
    while True:
        extents.append(t)
        if t >= t_need:
            break
        t = min(2.0 * t, t_need)
    return extents, t_need


def _run_q_iteration(
    alpha: float,
    step: float,
    work_nodes: np.ndarray,
    seed: GridFunction,
    source: np.ndarray | None,
    q: np.ndarray | None,
    first: int,
    n: int,
    collect: set[int] | None,
    n_base: int,
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Levels first..n of q -> clip(s + K(2q - q^2)) on the working nodes.

    s is `source` on the working nodes, or 0 when it is None.  Level first-1
    is `q` on the working nodes with tail 0, or, when q is None, `seed`
    through its own tail policy.  Collected levels are restricted to the
    first n_base+1 nodes.
    """
    collected: dict[int, np.ndarray] = {}
    for j in range(first, n + 1):
        g = evaluate(seed, alpha * work_nodes) if q is None else _advanced(q, work_nodes, alpha)
        q = None  # drop the previous level before the scan
        gg = g * g  # 2g - g^2 in place, in the same operation order
        g *= 2.0
        g -= gg
        del gg
        q = _trapezoid_convolve(g, step)
        del g
        if source is not None:
            q += source
        np.clip(q, 0.0, 1.0, out=q)
        if collect and j in collect:
            collected[j] = q[: n_base + 1].copy()
    return q, collected


def _advanced(q: np.ndarray, nodes: np.ndarray, alpha: float) -> np.ndarray:
    """np.interp(alpha * nodes, nodes, q, right=0.0) bit for bit, in blocks.

    Blocks shorter than `nodes` keep np.interp from allocating a full-size
    argument array and slope table, which lowers the chains' peak memory.
    """
    g = np.empty_like(nodes)
    for start in range(0, len(nodes), _INTERP_BLOCK):
        block = slice(start, start + _INTERP_BLOCK)
        g[block] = np.interp(alpha * nodes[block], nodes, q, right=0.0)
    return g


def _adaptive_levels(
    alpha: float,
    grid: UniformGrid,
    levels: Iterable[int],
    seed: GridFunction,
    eps_tail: float,
    node_cap: int,
    expand_full: bool = False,
    collect: set[int] | None = None,
    picard_source: bool = False,
):
    """Adaptively extended q-iteration; yields (n, values on `grid`, collected).

    The chain starts from `seed`, a q-variable function.  With
    `picard_source` every step adds s = 1 - K(1) on the working nodes, which
    makes it the Picard chain in q = 1 - U; otherwise s = 0.  For each n of
    the increasing `levels`, the extents of `_extent_schedule` are tried in
    order until the final iterate's tail value drops below eps_tail (or the
    last extent is reached), certifying the flat tail extrapolation used
    beyond the working grid.  Each extent keeps the last level it reached
    and a later n continues from there: a level on an extent depends only on
    the seed, the extent and the level, so resuming gives a fresh run's
    values bit for bit.  Collected levels come from the steps run for that
    n; the yielded values are a view that the next n overwrites.
    """
    n_base = grid.node_count - 1
    step = grid.step
    chains: dict[float, tuple[int, np.ndarray]] = {}  # extent -> (level, values)
    last_n = 0
    for n in levels:
        if n <= last_n:
            raise ValueError(f"levels must be increasing and >= 1, got {n} after {last_n}")
        last_n = n
        extents, _ = _extent_schedule(grid, alpha, n, expand_full)
        for t_end in [t for t in chains if t not in extents]:
            del chains[t_end]
        for i, t_end in enumerate(extents):
            j, kept = chains.get(t_end, (0, None))
            work_nodes = _working_nodes(t_end, step, node_cap)
            s = 1.0 - _trapezoid_convolve(np.ones_like(work_nodes), step) if picard_source else None
            q, collected = _run_q_iteration(
                alpha, step, work_nodes, seed, s, kept, j + 1, n, collect, n_base
            )
            if kept is None:
                kept = q
            else:  # one buffer per extent, so the kept levels do not fragment the heap
                kept[...] = q
            del q
            chains[t_end] = (n, kept)
            if i == len(extents) - 1 or float(kept[-1]) < eps_tail:
                break
        yield n, kept[: n_base + 1], collected


def picard_v0(
    alpha: float,
    grid: UniformGrid,
    k: int,
    eps_tail: float = DEFAULT_EPS_TAIL,
    node_cap: int = DEFAULT_NODE_CAP,
    expand_full: bool = False,
) -> GridFunction:
    """k-th Picard iterate U_k = K(U_{k-1}^2) from U_0 = 1.

    Runs as the q-chain from q_0 = 0 with source s = 1 - K(1) and returns
    U_k = 1 - q_k.  For alpha > 1 the iterates decrease pointwise to the
    distribution function of the longest path; the working grid is extended
    until q_k falls below eps_tail at the far end.  The result is restricted
    to `grid` with flat tail 1.
    """
    if alpha <= 0.0 or not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return GridFunction.constant(grid, 1.0)
    _, vals, _ = next(_adaptive_levels(
        alpha, grid, (k,), GridFunction.constant(grid, 0.0), eps_tail, node_cap, expand_full,
        picard_source=True,
    ))
    return GridFunction(grid, 1.0 - vals, 1.0, range_bounds=True)


def iterate_qn(
    alpha: float,
    grid: UniformGrid,
    n: int,
    q0: GridFunction,
    eps_tail: float = DEFAULT_EPS_TAIL,
    node_cap: int = DEFAULT_NODE_CAP,
    expand_full: bool = False,
    collect: set[int] | None = None,
) -> GridFunction | tuple[GridFunction, dict[int, GridFunction]]:
    """n steps of q_j = K(2 q_{j-1} - q_{j-1}^2) from q0, restricted to `grid`.

    q_j(0) = 0 exactly for j >= 1 and every iterate stays in [0, 1].  With
    `collect` (levels in 1..n), the result is a pair: the iterate and the
    requested intermediate levels, which come from the chain on the
    working-grid extent certified for `n`.  Seeding from a supersolution
    (e.g. the constant 1) yields a pointwise nonincreasing sequence; seeding
    from a longest-path surrogate converges to the explosion probability but
    may locally increase in the far tail, where the surrogate undershoots.
    """
    if alpha <= 0.0 or not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    _require_probability_values(q0, "q0")
    outside = sorted(j for j in collect or () if not 1 <= j <= n)
    if outside:
        raise ValueError(f"collect levels must lie in 1..{n}, got {outside}")
    if n == 0:
        return q0 if collect is None else (q0, {})
    _, vals, collected = next(
        _adaptive_levels(alpha, grid, (n,), q0, eps_tail, node_cap, expand_full, collect)
    )
    result = GridFunction(grid, vals, 0.0, range_bounds=True)
    if collect is None:
        return result
    levels = {j: GridFunction(grid, v, 0.0, range_bounds=True) for j, v in collected.items()}
    return result, levels


def iterate_qn_levels(
    alpha: float,
    grid: UniformGrid,
    q0: GridFunction,
    levels: Iterable[int],
    eps_tail: float = DEFAULT_EPS_TAIL,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Iterator[tuple[int, GridFunction]]:
    """(n, iterate_qn(alpha, grid, n, q0, eps_tail, node_cap)) for each n in `levels`.

    `levels` must be increasing and >= 1.  Each working-grid extent resumes
    its chain from the last level it reached, so every level is computed
    once per extent and equals a fresh `iterate_qn` bit for bit.  Levels
    after the last one consumed are never computed.
    """
    if alpha <= 0.0 or not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    _require_probability_values(q0, "q0")
    chain = _adaptive_levels(alpha, grid, levels, q0, eps_tail, node_cap)
    return ((n, GridFunction(grid, vals, 0.0, range_bounds=True)) for n, vals, _ in chain)


def iterate_vn(
    alpha: float,
    grid: UniformGrid,
    n: int,
    v0: GridFunction,
    eps_tail: float = DEFAULT_EPS_TAIL,
    node_cap: int = DEFAULT_NODE_CAP,
    expand_full: bool = False,
) -> GridFunction:
    """n steps of v_j = exp(-t) + K(v_{j-1}^2) from v0, restricted to `grid`.

    Runs as the q-chain from q_0 = 1 - v0 with no source and returns
    v_n = 1 - q_n (the same recursion algebraically; numerically stable in
    the tail).  v_j(0) = 1 exactly for j >= 1 and every iterate stays in
    [0, 1].
    """
    if alpha <= 0.0 or not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    _require_probability_values(v0, "v0")
    if n == 0:
        return v0
    _, vals, _ = next(
        _adaptive_levels(alpha, grid, (n,), v0.complement(), eps_tail, node_cap, expand_full)
    )
    return GridFunction(grid, 1.0 - vals, 1.0, range_bounds=True)


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residual of v' + v - v(alpha t)^2 on the interior nodes.

    The residual uses second-order central differences (one-sided second
    order at the endpoints) and is reported only where alpha * t stays
    inside the grid, so the advanced argument never relies on the tail
    extrapolation.
    """

    grid: UniformGrid
    residual: np.ndarray
    max_abs_residual: float
    interior_range: tuple[float, float]
    interior_count: int = field(default=0)


def riccati_residual(v: GridFunction, alpha: float) -> ResidualReport:
    """Residual r(t_i) = D_h v(t_i) + v(t_i) - v(alpha t_i)^2 on interior nodes."""
    if alpha <= 0.0 or not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    grid = v.grid
    if grid.node_count < 3:
        raise ValueError("residual needs a grid with at least 3 nodes")
    nodes = grid.nodes
    deriv = np.gradient(v.values, grid.step, edge_order=2)
    advanced = np.interp(alpha * nodes, nodes, v.values, right=v.tail_value)
    residual = deriv + v.values - advanced**2
    interior = alpha * nodes <= grid.t_end * (1.0 + 1e-12)
    count = int(np.count_nonzero(interior))
    if count == 0:
        raise ValueError("no interior nodes: alpha * step already exceeds the grid")
    max_abs = float(np.max(np.abs(residual[interior])))
    t_hi = float(nodes[interior][-1])
    return ResidualReport(grid, residual, max_abs, (0.0, t_hi), count)


@dataclass(frozen=True)
class TailIntegral:
    """Trapezoidal integral over the grid plus the flat-tail behaviour."""

    head: float
    tail_value: float
    diverges: bool


def integrate_tail(f: GridFunction) -> TailIntegral:
    """Integral of f over its grid; the flat tail is flagged, not summed.

    A positive tail_value makes the total integral over (0, inf) infinite,
    which is what `diverges` reports.
    """
    head = float(np.trapezoid(f.values, dx=f.grid.step))
    return TailIntegral(head, float(f.tail_value), bool(f.tail_value > 0.0))
