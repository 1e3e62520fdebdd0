"""Spans and counters recorded from outside the package.

`Tracer.install` replaces the public functions that each calling layer
(`monte_carlo`, `checks`, `analysis_io`, `cli`) looks up in its own module
namespace with timing wrappers, wraps `ClockSource.draw` with a counter,
and puts a counting subclass in place of `monte_carlo.ProcessPoolExecutor`.
Nothing in the package changes on disk; `uninstall` restores every name.

A span is `[name, start, end, parent, child_time]`.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the time its
direct children cover; calls are serial, so children never overlap.
"""

from __future__ import annotations

import csv
import inspect
import os
import pickle
import time
from collections import Counter
from pathlib import Path

CALLER_MODULES = ("monte_carlo", "checks", "analysis_io", "cli")
CHAIN_FUNCTIONS = {"picard_v0": "k", "iterate_qn": "n", "iterate_vn": "n"}
SAMPLERS = {
    "leaf_census": "census",
    "sample_product_indicator": "product",
    "sample_tail_flags": "tail_flags",
    "path_extrema_by_depth": "extrema",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.clocks: Counter = Counter()  # clocks drawn, by the sampler drawing them
        self.chain_calls: list[tuple[int, str, float, int]] = []  # (cli call, fn, alpha, n)
        self.tail_trees: set = set()
        self._stream_keys: dict[int, tuple] = {}
        self.bytes_written = 0
        self.pools_started = 0
        self.task_pickle_bytes = 0
        self.cli_calls = 0

    # --- spans -----------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(result, args, kwargs)` runs after the span closes."""

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def current(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    # --- installation ----------------------------------------------------
    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def install_pool_counter(self) -> None:
        """Count pool starts and the pickled bytes of every mapped task."""
        from riccati_cascade import monte_carlo

        tracer = self

        class CountingPool(monte_carlo.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.pools_started += 1
                super().__init__(*args, **kwargs)

            def map(self, fn, tasks, **kwargs):
                tasks = list(tasks)
                tracer.task_pickle_bytes += sum(len(pickle.dumps(t)) for t in tasks)
                return super().map(fn, tasks, **kwargs)

        self._patch(monte_carlo, "ProcessPoolExecutor", CountingPool)

    def install(self) -> None:
        """Wrap every package function the calling layers look up, and count clocks."""
        import importlib

        from riccati_cascade import cascade_core

        self.install_pool_counter()
        wrappers: dict[int, object] = {}
        for caller in CALLER_MODULES:
            module = importlib.import_module(f"riccati_cascade.{caller}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("riccati_cascade."):
                    continue
                if caller == "cli" and value.__module__ == module.__name__:
                    continue  # the entry point is wrapped by call_cli
                if id(value) not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrappers[id(value)] = self.wrap(
                        f"{layer}.{value.__name__}", value, self._after(value)
                    )
                self._patch(module, attr, wrappers[id(value)])

        draw = cascade_core.ClockSource.draw
        tracer = self

        def counted_draw(source, gen, n):
            tracer.clocks[tracer.current()] += int(n)
            return draw(source, gen, n)

        self._patch(cascade_core.ClockSource, "draw", counted_draw)

    def _after(self, fn):
        name = fn.__name__
        if name == "derive_stream":
            return self._record_stream
        if name == "sample_tail_flags":
            return self._record_tail_tree
        if name in CHAIN_FUNCTIONS:
            signature = inspect.signature(fn)

            def record_chain(result, args, kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                steps = int(bound[CHAIN_FUNCTIONS[name]])
                self.chain_calls.append((self.cli_calls, name, float(bound["alpha"]), steps))

            return record_chain
        if name.startswith("write_"):
            return self._record_write
        return None

    def _record_stream(self, stream, args, kwargs) -> None:
        params, index = args[0], args[1]
        self._stream_keys[id(stream)] = (params.seed, int(index))

    def _record_tail_tree(self, flags, args, kwargs) -> None:
        params, t, depth, _, stream = args[:5]
        key = self._stream_keys.get(id(stream), ("untracked", id(stream)))
        self.tail_trees.add((key, params.alpha, float(t), int(depth)))

    def _record_write(self, path, args, kwargs) -> None:
        path = Path(path)
        self.bytes_written += path.stat().st_size
        sidecar = path.with_name(path.name + ".meta.json")
        if sidecar.exists():
            self.bytes_written += sidecar.stat().st_size

    def call_cli(self, main, argv) -> int:
        """`main(argv)` inside a `cli.main` span."""
        self.cli_calls += 1
        return self.wrap("cli.main", main)(argv)

    # --- summaries -------------------------------------------------------
    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Busy time, self time and call count per span name."""
        busy, own, calls = Counter(), Counter(), Counter()
        for name, start, end, _, child in self.spans:
            busy[name] += end - start
            own[name] += end - start - child
            calls[name] += 1
        return busy, own, calls

    def write(self, path) -> None:
        """All spans as CSV: id, parent, name, start and end in microseconds."""
        t0 = self.spans[0][1] if self.spans else 0.0
        tmp = Path(path).with_suffix(".tmp")
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_us", "end_us"])
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                writer.writerow([i, parent, name, round((start - t0) * 1e6, 1),
                                 round((end - t0) * 1e6, 1)])
        os.replace(tmp, path)
