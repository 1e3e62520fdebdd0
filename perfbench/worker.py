"""One benchmark process: time set-up, run a workload's CLI calls, gate them.

run.py starts this script in a fresh interpreter, passing the monotonic
clock reading taken just before the start, so that set-up is timed from
interpreter start until `riccati_cascade.cli` is imported and the workload's
calls are looked up.  Modes:

  probe     report set-up time and the time of a tree yardstick round run
            right after it, and exit (the other modes report both too);
  untraced  run passes of the workload's calls, each between two rounds of
            the workload's yardstick, for `--seconds` of pass and yardstick
            time (three passes at least) and report the time of each;
  traced    run one pass untraced (with only the pool counter installed),
            one serial pass untraced and one serial pass with every layer
            wrapped, then report the per-layer metrics.

Every call is gated, outside the timed region.  The last line printed is
one JSON object.
"""

import sys
import time

MIN_PASSES = 3


def main() -> int:
    import argparse
    import json
    from pathlib import Path

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "untraced", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    from riccati_cascade import cli

    import workloads

    table = workloads.TINY_WORKLOADS if args.tiny else workloads.WORKLOADS
    workload = table[args.workload]
    setup_s = time.monotonic() - args.spawned_at
    from yardstick import yardstick_s

    setup_tree_s = yardstick_s("tree")
    if args.mode == "probe":
        result = {"setup_s": setup_s, "setup_tree_s": setup_tree_s}
    else:
        from gates import Gates

        gates = Gates(workload)
        if args.mode == "untraced":
            result = run_untraced(cli.main, workload, args.seed, args.seconds,
                                  args.out / "untraced", gates)
        else:
            result = run_traced(cli.main, workload, args.seed, args.out, gates)
        result.update(setup_s=setup_s, setup_tree_s=setup_tree_s, peak_rss_mb=peak_rss_mb(),
                      versions=versions(),
                      program_seed=workloads.program_seed(workload.name, args.seed))
    print(json.dumps(result, sort_keys=True))
    return 0


def run_pass(main, argvs) -> tuple[float, list[tuple[list[str], int, str]]]:
    """Call `main` on every argv in order; the summed call time and each outcome."""
    import io
    import traceback
    from contextlib import redirect_stderr, redirect_stdout

    total = 0.0
    outcomes = []
    for argv in argvs:
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(buf):
            start = time.perf_counter()
            try:
                rc = main(argv)
            except Exception:  # an uncaught error is a failed call, as in the CLI
                rc = 1
                traceback.print_exc()
            total += time.perf_counter() - start
        outcomes.append((argv, rc, buf.getvalue()))
    return total, outcomes


class Tally:
    """Attempted and failed calls, with the first few problems."""

    def __init__(self, gates):
        self.gates = gates
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, dict] = {}

    def gate(self, outcomes, out_root, input_index: int = 0) -> None:
        """Gate each call, and require its data files to match those of the
        first pass on the same input."""
        from gates import output_digests

        for argv, rc, stdout in outcomes:
            problems = self.gates.check(argv, out_root, rc, stdout)
            command = argv[0]
            if rc == 0:
                digests = output_digests(out_root, command)
                key = f"{command}#{input_index}" if input_index else command
                want = self.digests.setdefault(key, digests)
                if digests != want:
                    problems.append(f"{command} data files differ from the first pass")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems[: max(0, 5 - len(self.problems))])

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems, "digests": self.digests}


def run_untraced(main, workload, seed: int, seconds: float, out_root, gates) -> dict:
    """Passes of the calls, each between two rounds of the yardstick, cycling
    through the workload's inputs."""
    from yardstick import yardstick_s

    tally = Tally(gates)
    times = []
    rounds = [yardstick_s(workload.yardstick)]
    while len(times) < MIN_PASSES or sum(times) + sum(rounds) < seconds:
        k = len(times) % workload.inputs
        root = out_root / f"input{k}"
        elapsed, outcomes = run_pass(main, workload.argvs(seed, root, k))
        times.append(elapsed)
        rounds.append(yardstick_s(workload.yardstick))
        tally.gate(outcomes, root, k)
    return {"pass_s": times, "yardstick_s": rounds, **tally.result()}


def run_traced(main, workload, seed: int, out_root, gates) -> dict:
    from tracer import Tracer

    tally = Tally(gates)
    pool = Tracer()
    pool.install_pool_counter()
    try:
        own_s, outcomes = run_pass(main, workload.argvs(seed, out_root / "untraced"))
    finally:
        pool.uninstall()
    tally.gate(outcomes, out_root / "untraced")

    # The serial pass runs warm, like the traced pass after it.
    serial = workload.serial()
    serial_s, outcomes = run_pass(main, serial.argvs(seed, out_root / "serial"))
    tally.gate(outcomes, out_root / "serial")

    tracer = Tracer()
    tracer.install()
    try:
        traced_s, outcomes = run_pass(lambda argv: tracer.call_cli(main, argv),
                                      serial.argvs(seed, out_root / "traced"))
    finally:
        tracer.uninstall()
    tally.gate(outcomes, out_root / "traced")
    tracer.write(out_root.parent / f"trace_{workload.name}.csv")

    metrics = layer_metrics(tracer, workload)
    metrics.update({
        "monte_carlo.pools_started": pool.pools_started,
        "monte_carlo.task_pickle_bytes": pool.task_pickle_bytes,
        "monte_carlo.worker_speedup": (sampler_busy_s(tracer) / own_s
                                       if workload.workers > 1 else 0.0),
        "grid_numerics.kernel_ns_per_node": kernel_ns_per_node(workload),
        "trace.overhead_s": traced_s - serial_s,
    })
    return {"metrics": metrics, "pass_s": [own_s], **tally.result()}


def sampler_busy_s(tracer) -> float:
    from tracer import SAMPLERS

    busy, _, _ = tracer.totals()
    return sum(busy[f"cascade_core.{fn}"] for fn in ("derive_stream", *SAMPLERS))


def layer_metrics(tracer, workload) -> dict:
    """Per-layer metrics of a traced pass; 0 where the workload skips the layer."""
    from riccati_cascade import checks

    from tracer import CHAIN_FUNCTIONS, SAMPLERS

    busy, own, calls = tracer.totals()

    def per_call(name: str, scale: float) -> float:
        return busy[name] / calls[name] * scale if calls[name] else 0.0

    m = {"cascade_core.derive_stream_us": per_call("cascade_core.derive_stream", 1e6)}
    trees = sum(calls[f"cascade_core.{fn}"] for fn in SAMPLERS)
    m["cascade_core.clocks_per_tree"] = sum(tracer.clocks.values()) / trees if trees else 0.0
    for fn, short in SAMPLERS.items():
        name = f"cascade_core.{fn}"
        m[f"cascade_core.{short}_us_per_tree"] = per_call(name, 1e6)
        m[f"cascade_core.clocks_per_tree.{short}"] = (
            tracer.clocks[name] / calls[name] if calls[name] else 0.0)

    estimators = ("estimate_v_curve", "estimate_leaf_histogram", "estimate_S_tail",
                  "estimate_L_tail")
    for fn in estimators:
        m[f"monte_carlo.{fn}_s"] = busy[f"monte_carlo.{fn}"]
    m["monte_carlo.self_s"] = sum(own[f"monte_carlo.{fn}"] for fn in estimators)
    tail_calls = calls["cascade_core.sample_tail_flags"]
    m["monte_carlo.tail_flag_use_ratio"] = (
        len(tracer.tail_trees) / tail_calls if tail_calls else 0.0)

    final: dict[tuple, int] = {}
    for call, fn, alpha, steps in tracer.chain_calls:
        final[(call, fn, alpha)] = max(steps, final.get((call, fn, alpha), 0))
    requested = sum(c[3] for c in tracer.chain_calls)
    chain_s = 0.0
    for fn in CHAIN_FUNCTIONS:
        m[f"grid_numerics.{fn}_s"] = busy[f"grid_numerics.{fn}"]
        chain_s += busy[f"grid_numerics.{fn}"]
    m["grid_numerics.chain_steps_requested"] = requested
    m["grid_numerics.chain_steps_final"] = sum(final.values())
    m["grid_numerics.us_per_chain_step"] = chain_s / requested * 1e6 if requested else 0.0

    m["analysis_io.write_s"] = sum(v for k, v in busy.items() if k.startswith("analysis_io.write_"))
    m["analysis_io.bytes_written"] = tracer.bytes_written
    for name in vars(checks):
        if name.startswith("check_"):
            m[f"checks.{name[len('check_'):]}_s"] = busy[f"checks.{name}"]
    m["cli.main_s"] = busy["cli.main"]
    m["cli.self_s"] = own["cli.main"]
    return m


def kernel_ns_per_node(workload, min_seconds: float = 0.2) -> float:
    """Median time of `convolve_kernel` on the workload's grid, per node."""
    import statistics

    import numpy as np

    from riccati_cascade.grid_numerics import GridFunction, UniformGrid, convolve_kernel

    grid = UniformGrid(workload.t_max, workload.step)
    f = GridFunction(grid, np.exp(-grid.nodes), 0.0)
    times = []
    while len(times) < 5 or sum(times) < min_seconds:
        start = time.perf_counter()
        convolve_kernel(f, workload.alpha, grid)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / grid.node_count * 1e9


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its largest waited-for child."""
    import resource

    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def versions() -> dict:
    import platform

    import numpy

    scipy = sys.modules.get("scipy")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": getattr(scipy, "__version__", None)}


if __name__ == "__main__":
    sys.exit(main())
