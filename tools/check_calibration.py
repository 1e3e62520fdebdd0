"""Check calibration: how often does the fast check suite fail on correct code?

Runs `run_all_checks(alpha, seed, fast=True)` for seeds 0..99 at each of the
three preset branching scales (0.66, 1.5, 3), 300 runs in all, and prints
each check's failures per scale.  A check whose false-alarm rate per run is
at most 1e-4 fails twice or more in 300 runs with probability below 5e-4.

    PYTHONPATH=src python tools/check_calibration.py

Exits 1 when any check fails more than once in the 300 runs.  The runs are
serial: the suite's worker-count check starts a process pool of its own.
The tool lives outside `tests/`, so pytest never collects it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from riccati_cascade.checks import run_all_checks

ALPHAS = (0.66, 1.5, 3.0)
SEEDS = range(100)
MAX_FAILURES = 1


def main() -> int:
    start = time.perf_counter()
    failures = {alpha: Counter() for alpha in ALPHAS}
    names: list[str] = []
    for alpha in ALPHAS:
        for seed in SEEDS:
            for result in run_all_checks(alpha, seed, fast=True):
                if result.name not in names:
                    names.append(result.name)
                if not result.passed:
                    failures[alpha][result.name] += 1
                    print(f"alpha={alpha:g} seed={seed}: {result.name} failed ({result.detail})",
                          flush=True)
    width = max(len(name) for name in names)
    print(f"{'check':<{width}}  " + "  ".join(f"a={alpha:<5g}" for alpha in ALPHAS) + "  total")
    worst = 0
    for name in names:
        counts = [failures[alpha][name] for alpha in ALPHAS]
        worst = max(worst, sum(counts))
        print(f"{name:<{width}}  " + "  ".join(f"{c:<7d}" for c in counts) + f"  {sum(counts)}")
    runs = len(ALPHAS) * len(SEEDS)
    print(f"{runs} runs in {time.perf_counter() - start:.0f} s; most failures of one check: {worst}"
          f" (allowed {MAX_FAILURES})")
    return 1 if worst > MAX_FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
