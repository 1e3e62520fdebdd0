"""The benchmark's workloads: the CLI calls each one makes and its sizes.

This module is imported before set-up time is taken, so it uses the
standard library only.  The program never sees the benchmark seed: each
workload derives its own `--seed` from it, and the CLI receives only the
argv built here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    """One user workload: a fixed sequence of CLI calls at fixed sizes.

    `calls` holds each call's argv without `--seed` and `--out`.  `trees`
    is the number of trees the user asks for in one pass of the calls,
    counting each tree once however often the program traverses it.
    `yardstick` names the kind of fixed work (see yardstick.py) that the
    calls' time goes to.  `inputs` is the number of program seeds that the
    passes of a run cycle through: more than one where a pass's time
    depends on the trees its seed draws.
    """

    name: str
    calls: tuple[tuple[str, ...], ...]
    alpha: float
    depth: int
    t_max: float = 8.0
    step: float = 0.01
    samples: int = 0
    trees: int = 0
    workers: int = 1
    yardstick: str = "tree"
    inputs: int = 1

    def argvs(self, seed: int, out_root, input_index: int = 0) -> list[list[str]]:
        """The argv of every call in one pass, seeded from the benchmark seed."""
        tail = ["--seed", str(program_seed(self.name, seed, input_index)),
                "--out", str(out_root)]
        return [list(call) + tail for call in self.calls]

    def serial(self) -> "Workload":
        """The same workload at `--workers 1`."""
        calls = tuple(_with_workers(call, 1) for call in self.calls)
        return replace(self, calls=calls, workers=1)


def _with_workers(call: tuple[str, ...], workers: int) -> tuple[str, ...]:
    out = list(call)
    if "--workers" in out:
        out[out.index("--workers") + 1] = str(workers)
    return tuple(out)


def program_seed(workload: str, seed: int, input_index: int = 0) -> int:
    """The 63-bit seed the program receives for a benchmark seed and input."""
    key = f"{workload}:{seed}" + (f":{input_index}" if input_index else "")
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _mc_points(t_max: float, t_step: float) -> int:
    return int(t_max / t_step) + 1


def _figures(samples: int, t_max: float) -> Workload:
    # Two or more 1000-sample chunks per point, or the pool is never used.
    call = ("figures", "--preset", "fig2", "--workers", "2", "--samples", str(samples),
            "--t-max", str(t_max))
    points = _mc_points(t_max, 0.5) + 1  # the v-curve points plus the histogram
    return Workload("figures_fig2_w2", (call,), alpha=1.5, depth=10, t_max=t_max,
                    samples=samples, trees=samples * points, workers=2, yardstick="pool")


def _paths(samples: int, depth: int) -> Workload:
    # At 200 trees the tree sizes a seed draws move a pass's time by about a
    # tenth from seed to seed; four inputs per run average that out.
    call = ("paths", "--alpha", "1.5", "--depth", str(depth), "--workers", "1",
            "--samples", str(samples))
    return Workload("paths_deep_w1", (call,), alpha=1.5, depth=depth,
                    samples=samples, trees=samples * _mc_points(8.0, 1.0), inputs=4)


def _grid(step: float, alphas: str) -> Workload:
    calls = (
        ("sweep", "--alpha-list", alphas, "--t", "4", "--step", str(step)),
        ("residual", "--alpha", "1.5", "--depth", "20", "--step", str(step)),
    )
    return Workload("grid_sweep_fine", calls, alpha=1.5, depth=20, step=step,
                    yardstick="array")


def _check() -> Workload:
    call = ("check", "--fast", "--alpha", "1.5")
    return Workload("check_fast", (call,), alpha=1.5, depth=10)


SWEEP_ALPHAS = "0.66,1.2,1.5,1.8,2.5,3"

WORKLOADS = {
    w.name: w
    for w in (
        _figures(samples=2000, t_max=8.0),
        _paths(samples=200, depth=30),
        _grid(step=0.00025, alphas=SWEEP_ALPHAS),
        _check(),
    )
}

# Small versions of the same calls, for the harness self-test only.
TINY_WORKLOADS = {
    w.name: w
    for w in (
        _figures(samples=2000, t_max=1.0),
        _paths(samples=20, depth=30),
        _grid(step=0.01, alphas=SWEEP_ALPHAS),
        _check(),
    )
}
