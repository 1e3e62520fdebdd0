"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit, in
both modes and on every workload; that the benchmark seed reaches the
program (the Monte Carlo digests change with it); that a wrong reference
makes a gate fire and counts as a failed call; and that the benchmark
refuses to run where there is no package source.  Takes about two minutes.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".perfbench_runs"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def record_of(lines: list[str]) -> dict:
    return json.loads(next(ln for ln in lines if ln.startswith("record "))[len("record "):])


def check_metrics_printed() -> dict:
    """Every named metric with its unit, and the seed-1 records for later checks."""
    records = {}
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in BENCHMARK[group]}
        for w in BENCHMARK["workloads"]:
            rc, lines = bench(w["name"], 1, trace)
            result = json.loads(lines[-1]) if rc == 0 and lines else {}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            ok = (got == want and set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["attempted"] >= 1)
            expect(ok, f"{w['name']} --trace {trace} prints every {group} metric with its unit")
            expect(result.get("correct") is True, f"{w['name']} --trace {trace} passes its gates")
            if rc == 0 and trace == 0:
                records[w["name"]] = record_of(lines)
    return records


def check_seed_reaches_program(records: dict) -> None:
    for name in ("figures_fig2_w2", "paths_deep_w1"):
        rc, lines = bench(name, 2, 0)
        other = record_of(lines)["digests"] if rc == 0 else None
        first = records.get(name, {}).get("digests")
        expect(bool(first) and bool(other) and first != other,
               f"{name}: another seed writes other data files")


def check_wrong_reference_fires() -> None:
    """Gates with a wrong reference fail every call, in-process."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from riccati_cascade import cli
    from riccati_cascade.grid_numerics import GridFunction

    import worker
    from gates import Gates
    from workloads import TINY_WORKLOADS

    def shifted(f: GridFunction) -> GridFunction:
        return GridFunction(f.grid, 0.9 * f.values, f.tail_value)

    out = RUNS / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    try:
        for name, ref, break_it in (
            ("figures_fig2_w2", "vn", None),
            ("paths_deep_w1", "l_tail", GridFunction.complement),
            ("grid_sweep_fine", "grid", lambda g: {**g, "residual_max": 1.01 * g["residual_max"]}),
        ):
            workload = TINY_WORKLOADS[name]
            gates = Gates(workload)
            good = worker.run_untraced(cli.main, workload, 1, 0.0, out / name, gates)
            gates.references[ref] = (break_it or shifted)(gates.references[ref])
            bad = worker.run_untraced(cli.main, workload, 1, 0.0, out / name, gates)
            expect(good["failed"] == 0 and bad["failed"] > 0,
                   f"{name}: a wrong {ref} reference raises error_rate "
                   f"({good['failed']}/{good['attempted']} -> {bad['failed']}/{bad['attempted']})")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def check_refuses_without_source() -> None:
    bare = RUNS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, lines = bench(BENCHMARK["workloads"][0]["name"], 1, 0, cwd=bare)
        expect(rc != 0 and not any(ln.startswith("{") for ln in lines),
               f"without package source the benchmark exits {rc} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    records = check_metrics_printed()
    check_seed_reaches_program(records)
    check_wrong_reference_fires()
    check_refuses_without_source()
    print(f"{len(failures)} failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
