"""Benchmark of the riccati-cascade command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from `src/`
there.  NAME is a workload named in BENCHMARK.json, or `all` to run every
workload in turn.  Each workload runs its CLI calls through
`riccati_cascade.cli.main(argv)` in a fresh process and gates every call.

  --trace 0  end-to-end metrics: set-up time (median over three fresh
             interpreters, each scaled by a yardstick round run right
             after its set-up), the time of a pass of the calls over that
             of the yardstick rounds around it (median over the passes
             made in `--seconds`, three at least) and peak resident
             memory; see yardstick.py.  Unscaled set-up and pass seconds
             are printed too.
  --trace 1  per-layer metrics from `python -X importtime` and from one
             traced pass, with timing wrappers installed from this
             directory (see tracer.py).

Human-readable lines come first; the last line is one JSON object with
the keys correct, attempted, failed and metrics.  The process exits with
2 when the checkout has no package source to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_PROBES = 2  # plus the measuring process itself: three set-ups per run
DEADLINE_S = 170.0
IMPORT_LAYERS = ("cascade_core", "grid_numerics", "monte_carlo", "analysis_io", "checks", "cli")


class BenchError(RuntimeError):
    pass


def child_env(out: Path) -> dict:
    """The environment minus RICCATI_* overrides, with the checkout's source first
    and temporary files (the `check` command makes some) kept under `out`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RICCATI_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["TMPDIR"] = str(out)
    return env


def run_child(cmd: list[str], out: Path, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    try:
        return subprocess.run(cmd, cwd=ROOT, env=child_env(out), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} did not finish in {timeout:.0f} s") from exc


def run_worker(mode: str, args, out: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--out", str(out), "--spawned-at", repr(time.monotonic())]
    if args.tiny:
        cmd.append("--tiny")
    proc = run_child(cmd, out, deadline)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {mode} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def import_times(out: Path, deadline: float) -> dict:
    """Cumulative import time of each package module, and of numpy and scipy.signal."""
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import riccati_cascade.cli"],
                     out, deadline)
    if proc.returncode != 0:
        raise BenchError(f"importing riccati_cascade.cli failed:\n{proc.stderr[-2000:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e6
    metrics = {f"{m}.import_s": cumulative.get(f"riccati_cascade.{m}", 0.0) for m in IMPORT_LAYERS}
    metrics["import.numpy_s"] = cumulative.get("numpy", 0.0)
    metrics["import.scipy_signal_s"] = cumulative.get("scipy.signal", 0.0)
    return metrics


def over_yardstick(pass_s: list[float], yardstick_s: list[float]) -> float:
    """Median over passes of a pass's time over the mean time of the two
    yardstick rounds on either side of it."""
    return statistics.median(2 * t / (before + after)
                             for t, before, after in zip(pass_s, yardstick_s, yardstick_s[1:]))


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    def git(*a):
        return subprocess.run(["git", "-C", str(ROOT), *a], capture_output=True, text=True,
                              timeout=30).stdout.strip()
    return {"sha": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def run_workload(args, benchmark: dict, deadline: float) -> dict:
    from workloads import TINY_WORKLOADS, WORKLOADS

    workload = (TINY_WORKLOADS if args.tiny else WORKLOADS)[args.workload]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "nproc": os.cpu_count(), "load1_start": os.getloadavg()[0], **git_state()}
    out = RUNS / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        if args.trace:
            metrics = import_times(out, deadline)
            result = run_worker("traced", args, out, deadline)
            metrics.update(result["metrics"])
            expected = [m["name"] for m in benchmark["per_layer"]]
        else:
            from yardstick import scaled_setup_s

            probes = [run_worker("probe", args, out, deadline) for _ in range(SETUP_PROBES)]
            result = run_worker("untraced", args, out, deadline)
            setups = [(r["setup_s"], r["setup_tree_s"]) for r in probes + [result]]
            metrics = {"setup_s": statistics.median(scaled_setup_s(*s) for s in setups),
                       "wall_over_yardstick": over_yardstick(result["pass_s"],
                                                             result["yardstick_s"]),
                       "peak_rss_mb": result["peak_rss_mb"]}
            expected = [m["name"] for m in benchmark["end_to_end"]]
            record.update(setup_samples_s=[s for s, _ in setups],
                          setup_tree_s=[t for _, t in setups], yardstick=workload.yardstick,
                          yardstick_s=result["yardstick_s"])
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if sorted(metrics) != sorted(expected):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(expected))} do not match "
                         "BENCHMARK.json")
    record.update(load1_end=os.getloadavg()[0], program_seed=result["program_seed"],
                  samples=workload.samples, pass_s=result["pass_s"],
                  problems=result["problems"], digests=result["digests"], **result["versions"])
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    return {
        "workload": workload, "record": record, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def print_summary(run: dict) -> None:
    w, rec = run["workload"], run["record"]
    print(f"{w.name}: seed {rec['seed']} (program seed {rec['program_seed']}), "
          f"trace {rec['trace']}, {len(rec['pass_s'])} passes")
    for name, m in sorted(run["metrics"].items()):
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    if not rec["trace"]:
        wall = statistics.median(rec["pass_s"])
        print(f"  {'wall_s':44s} {wall:>14.6g} s (median pass)")
        unscaled = statistics.median(rec["setup_samples_s"])
        print(f"  {'setup_s unscaled':44s} {unscaled:>14.6g} s")
        if w.trees:
            print(f"  {'trees_per_s':44s} {w.trees / wall:>14.6g} 1/s ({w.trees} trees per pass)")
    print(f"  {'error_rate':44s} {run['failed'] / run['attempted']:>14.6g} ratio "
          f"({run['failed']} of {run['attempted']} calls failed)")
    for problem in rec["problems"]:
        print(f"  FAILED: {problem}")
    print("record " + json.dumps(rec, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "riccati_cascade" / "cli.py").is_file():
        print(f"no package source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names} or all")

    runs = []
    try:
        for name in names if args.workload == "all" else [args.workload]:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            runs.append(run_workload(one, benchmark, time.monotonic() + DEADLINE_S))
            print_summary(runs[-1])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.workload == "all":
        metrics = {f"{r['workload'].name}.{k}": v for r in runs for k, v in r["metrics"].items()}
    else:
        metrics = runs[0]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
