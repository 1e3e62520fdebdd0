"""Mutation gauge: how many hand-written faults does the test suite catch?

Each mutant is a (file, old text, new text, test ids) patch.  The gauge
copies `src/`, `tests/` and `pyproject.toml` to a temporary directory, runs
the union of the named tests once unmutated, then applies each mutant in
turn and runs its tests with `pytest -x`.  A mutant is killed when its tests
fail or cannot be collected, and survives when they pass.

    python tools/mutation_gauge.py            # every mutant
    python tools/mutation_gauge.py NAME ...   # only the named mutants

Prints killed/total and the survivors.  Exits 1 if a mutant survives, if an
old text does not occur exactly once in its file, or if the named tests fail
without a mutant.  The gauge lives outside `tests/`, so pytest never
collects it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


CLI = "src/riccati_cascade/cli.py"
GRID = "src/riccati_cascade/grid_numerics.py"
MC = "src/riccati_cascade/monte_carlo.py"
CORE = "src/riccati_cascade/cascade_core.py"
T_CLI = "tests/test_cli.py"
T_GRID = "tests/test_grid_numerics.py"
T_CHECKS = "tests/test_checks.py"

MUTANTS = [
    # the CLI run envelope and the manifest
    Mutant("extras-drop-a-flag", CLI,
           '_UNDIGESTED = {"out", "workers", "command"}',
           '_UNDIGESTED = {"out", "workers", "command", "gap_tol"}',
           (f"{T_CLI}::TestManifestCommand",)),
    Mutant("check-status-ignored", CLI,
           "        return status\n", "        return 0\n",
           (f"{T_CLI}::TestCheckCommand",)),
    Mutant("sidecar-not-in-manifest", CLI,
           "return [path, _sidecar_path(path)]", "return [path]",
           (f"{T_CLI}::TestFigures",)),
    Mutant("eps-tail-1-accepted", CLI,
           "and not 0.0 < args.eps_tail < 1.0:", "and not 0.0 < args.eps_tail <= 1.0:",
           (f"{T_CLI}::TestUsage",)),
    Mutant("t-points-accept-zero", CLI,
           "if not 0.0 < count <= DEFAULT_NODE_CAP:", "if not count <= DEFAULT_NODE_CAP:",
           (f"{T_CLI}::TestUsage",)),
    # the flag table: each subcommand takes only the flags its handler reads
    Mutant("hist-takes-step-back", CLI,
           '"truncated leaf-count histogram", "alpha", *_MC)',
           '"truncated leaf-count histogram", "alpha", "step", *_MC)',
           (f"{T_CLI}::TestFlagTable",)),
    Mutant("abbreviations-allowed", CLI,
           "allow_abbrev=False)", "allow_abbrev=True)",
           (f"{T_CLI}::TestUsage",)),
    Mutant("check-samples-capped", CLI,
           "samples=args.samples, fast=args.fast",
           "samples=min(args.samples, 2000), fast=args.fast",
           (f"{T_CLI}::TestCheckCommand",)),
    Mutant("check-samples-unchecked", CLI,
           "if args.samples < 1:", "if False:",
           (f"{T_CLI}::TestUsage",)),
    Mutant("env-read-for-every-subcommand", CLI,
           "default=_EnvDefault(env, cast, default),",
           "default=_EnvDefault(env, cast, default).resolve(),",
           (f"{T_CLI}::TestEnvOverrides",)),
    # the carried tail of the one chain loop
    Mutant("tail-not-advanced", GRID,
           "        tau = 2.0 * tau - tau * tau\n", "",
           (f"{T_GRID}::TestCarriedTail",)),
    Mutant("worst-excess-unplaced", "src/riccati_cascade/checks.py",
           "worst, where = excess, (j, float(grid.nodes[node]))", "worst = excess",
           (f"{T_CHECKS}::test_seed_domination_names_the_level_and_node_of_the_worst_excess",)),
    Mutant("tail-not-advanced-under-the-check", GRID,
           "        tau = 2.0 * tau - tau * tau\n", "",
           (f"{T_CHECKS}::test_check_passes[q_dominated_by_seed-0.66-8]",
            f"{T_CHECKS}::test_check_passes[q_dominated_by_seed-2.5-8]")),
    Mutant("certificate-on-q-alone", GRID,
           "abs(float(kept[-1]) - tau) < eps_tail", "float(kept[-1]) < eps_tail",
           (f"{T_GRID}::TestCarriedTail",)),
    Mutant("qn-result-drops-the-tail", GRID,
           "    return GridFunction(grid, vals, tau, range_bounds=True)\n",
           "    return GridFunction(grid, vals, 0.0, range_bounds=True)\n",
           (f"{T_GRID}::TestCarriedTail",)),
    Mutant("vn-result-drops-the-tail", GRID,
           "GridFunction(grid, 1.0 - vals, 1.0 - tau, range_bounds=True)",
           "GridFunction(grid, 1.0 - vals, 1.0, range_bounds=True)",
           (f"{T_GRID}::TestCarriedTail",)),
    Mutant("zero-extrapolation", GRID,
           "        g[inside:] = tau\n", "        g[inside:] = 0.0\n",
           (f"{T_GRID}::TestCarriedTail",)),
    Mutant("flat-tail-reads-the-old-tau", GRID,
           "        tau = 2.0 * tau - tau * tau\n        g[inside:] = tau\n",
           "        g[inside:] = tau\n        tau = 2.0 * tau - tau * tau\n",
           (f"{T_GRID}::TestCarriedTail",)),
    Mutant("grid-overflow-warns", GRID,
           '    with np.errstate(over="ignore"):\n        return alpha * nodes\n',
           "    return alpha * nodes\n",
           (f"{T_CLI}::TestUsage::test_alpha_t_past_the_float_range_reads_the_tail",)),
    Mutant("tail-walk-overflow-warns", CORE,
           '@np.errstate(over="ignore")  # as in leaf_census; inf lies beyond the cut\n', "",
           (f"{T_CLI}::TestUsage::test_alpha_t_past_the_float_range_reads_the_tail",)),
    # the chain step and the scan
    Mutant("left-endpoint-trapezoid", GRID,
           "    b[1:] += phi[1:]\n", "    b[1:] *= 2.0\n",
           (f"{T_CHECKS}::test_check_passes[quadrature_order]",)),
    Mutant("cube-for-square", GRID,
           "gg = head * head  #", "gg = head * head * head  #",
           (f"{T_GRID}::TestIterateQn",)),
    Mutant("step-factor-1.999", GRID,
           "        head *= 2.0\n", "        head *= 1.999\n",
           (f"{T_GRID}::TestIdentity",)),
    Mutant("one-level-short", GRID,
           "    for j in range(first, n + 1):\n", "    for j in range(first, n):\n",
           (f"{T_GRID}::TestPicard",)),
    Mutant("source-added-twice", GRID,
           "            q += source\n", "            q += 2.0 * source\n",
           (f"{T_GRID}::TestPicard",)),
    Mutant("picard-returns-q", GRID,
           "picard_source=True\n    ))\n    return GridFunction(grid, 1.0 - vals,",
           "picard_source=True\n    ))\n    return GridFunction(grid, vals,",
           (f"{T_GRID}::TestPicard",)),
    Mutant("vn-seeds-with-v0", GRID,
           "v0.complement(), eps_tail", "v0, eps_tail",
           (f"{T_GRID}::TestIterateVn",)),
    Mutant("resume-skips-a-level", GRID,
           "kept, tau, j + 1, n)", "kept, tau, j + 2, n)",
           (f"{T_GRID}::TestIterateQnLevels",)),
    Mutant("negative-evaluation-accepted", GRID,
           "if arr.size and float(np.min(arr)) < 0.0:", "if False:",
           (f"{T_GRID}::TestEvaluate",)),
    Mutant("t-end-one-node-long", GRID,
           "return _interval_count(self.t_max, self.step) * self.step",
           "return (_interval_count(self.t_max, self.step) + 1) * self.step",
           (f"{T_GRID}::TestUniformGrid",)),
    # samplers and estimators
    Mutant("stream-counter-collision", CORE,
           "counter=[0, 0, idx, 0]", "counter=[0, 0, idx // 2, 0]",
           ("tests/test_cascade_core.py::TestDeriveStream",)),
    Mutant("tail-walk-one-level-short", CORE,
           "for d in range(first, depth + 1):", "for d in range(first, depth):",
           ("tests/test_cascade_core.py::TestTailFlags",)),
    Mutant("split-hands-on-the-first-half-streams", CORE,
           "walk(d, streams[h:],", "walk(d, streams[:len(streams) - h],",
           ("tests/test_cascade_core.py::TestSplitWalk",)),
    Mutant("split-at-the-wrong-entry", CORE,
           "split = int(sizes[:h].sum())", "split = int(sizes[:h + 1].sum())",
           ("tests/test_cascade_core.py::TestSplitWalk",)),
    Mutant("split-never", CORE,
           "if width * parents.size > _TAIL_VERTEX_BUDGET and len(sizes) > 1:", "if False:",
           ("tests/test_cascade_core.py::TestSplitWalk",)),
    Mutant("crossed-at-the-last-level-only", CORE,
           "crossed |= sizes < entered", "crossed = sizes < entered",
           (f"{T_CHECKS}::test_check_passes[path_extrema_monotonicity-19-500-0.8]",)),
    Mutant("s-flag-ignores-survivors", CORE,
           "return ~alive & (sizes == 0), crossed", "return ~alive, crossed",
           ("tests/test_monte_carlo.py::TestPathTails"
            "::test_s_tail_matches_the_finiteness_chain_from_zero",)),
    Mutant("every-column-at-the-top-horizons", CORE,
           "            if t == top:\n", "            if True:\n",
           ("tests/test_cascade_core.py::TestHorizons",)),
    Mutant("mask-on-the-horizon", CORE,
           "kept = (sums <= t) &", "kept = (parents >= scale * (top - t)) &",
           ("tests/test_cascade_core.py::TestHorizons",)),
    Mutant("path-sums-unweighted", CORE,
           "sums, alpha ** -d)", "sums, 1.0)",
           ("tests/test_cascade_core.py::TestHorizons",)),
    Mutant("path-sums-may-tie", CORE,
           "sums = np.maximum(grown, np.nextafter(sums, np.inf)[:, None]).ravel()",
           "sums = grown.ravel()",
           ("tests/test_cascade_core.py::TestHorizons",)),
    Mutant("horizon-0-times-inf", CORE,
           "np.multiply(gap, scale, out=horizons, where=gap > 0.0)",
           "np.multiply(gap, scale, out=horizons)",
           ("tests/test_cascade_core.py::TestHorizons",)),
    Mutant("drop-rule-whatever-the-tail", CORE,
           "reach = x0.grid.t_end if x0.tail_value == 1.0 else math.inf",
           "reach = x0.grid.t_end",
           ("tests/test_cascade_core.py::TestBatchCore::test_batches_match_per_tree_samplers",)),
    Mutant("grid-end-dropped", CORE,
           "& ~(horizons > reach)", "& (horizons < reach)",
           ("tests/test_cascade_core.py::TestProductIndicator"
            "::test_a_horizon_at_the_grid_end_reads_the_last_node",)),
    Mutant("range-check-skipped", CORE,
           "if not (0.0 <= x0.tail_value", "if False and not (0.0 <= x0.tail_value",
           ("tests/test_cascade_core.py::TestProductIndicator"
            "::test_out_of_range_seed_rejected_before_any_clock",)),
    # the census read off the product walk
    Mutant("census-strict-at-the-horizon", CORE,
           "alive[:, d] = _keep(sums, sums <= census_t, sizes)[1]",
           "alive[:, d] = _keep(sums, sums < census_t, sizes)[1]",
           ("tests/test_cascade_core.py::TestCensusReadout",)),
    Mutant("census-depth-n-strict-at-the-horizon", CORE,
           "alive[:, n] = _keep(sums, sums <= census_t, sizes)[1]",
           "alive[:, n] = _keep(sums, sums < census_t, sizes)[1]",
           ("tests/test_cascade_core.py::TestCensusReadout",)),
    Mutant("census-skips-depth-n", CORE,
           "    if inside.any():\n", "    if False:\n",
           ("tests/test_cascade_core.py::TestCensusReadout",)),
    Mutant("census-walks-at-the-largest-t-only", CORE,
           "        top = max(top, census_t)\n", "        pass\n",
           ("tests/test_cascade_core.py::TestCensusReadout",)),
    Mutant("figures-census-skips-depth-n", CORE,
           "    if inside.any():\n", "    if False:\n",
           (f"{T_CLI}::TestFigures",)),
    Mutant("truncated-at-the-root", MC,
           "int(np.count_nonzero(alive[:, -1]))", "int(np.count_nonzero(alive[:, 0]))",
           (f"{T_CLI}::TestFigures::test_matches_reference_bundle",)),
    Mutant("vcurve-columns-shuffled", MC,
           "draws[:, j]), len(draws)) for j, t in enumerate(t_list)",
           "draws[:, -1 - j]), len(draws)) for j, t in enumerate(t_list)",
           ("tests/test_monte_carlo.py::TestVCurve",)),
    Mutant("worker-check-below-the-pool", "src/riccati_cascade/checks.py",
           "cfg = McConfig(seed=seed, samples=1200, workers=workers)\n        series",
           "cfg = McConfig(seed=seed, samples=200, workers=workers)\n        series",
           (f"{T_CHECKS}::test_worker_invariance_maps_the_histogram_through_the_pool",)),
    Mutant("estimators-draw-constant-clocks", MC,
           "_CLOCKS = ClockSource.exponential()", "_CLOCKS = ClockSource.constant(1.0)",
           ("tests/test_monte_carlo.py::TestVCurve",)),
    Mutant("shared-trees", MC,
           "head + (j * samples, lo, hi)", "head + (0, lo, hi)",
           ("tests/test_monte_carlo.py::TestPathTails",)),
    Mutant("all-crossed-point-scores-inf", MC,
           "        if 0.0 < ref < 1.0:\n", "        if False:\n",
           ("tests/test_monte_carlo.py::TestCompareSeries",)),
    Mutant("sample-stderr-where-it-is-positive", MC,
           "        if 0.0 < ref < 1.0:\n", "        if p.stderr == 0.0 and 0.0 < ref < 1.0:\n",
           ("tests/test_monte_carlo.py::TestCompareSeries",)),
    Mutant("exact-match-at-0-or-1-dropped", MC,
           "z = 0.0 if p.mean == ref else math.inf", "z = 0.0",
           ("tests/test_monte_carlo.py::TestCompareSeries",)),
    Mutant("empty-series-compared", MC,
           "    if not mc.points:\n", "    if False:\n",
           ("tests/test_monte_carlo.py::TestCompareSeries",)),
    Mutant("stderr-times-1.5", MC,
           "float(np.std(samples, ddof=1) / math.sqrt",
           "float(1.5 * np.std(samples, ddof=1) / math.sqrt",
           ("tests/test_monte_carlo.py::TestStderr",)),
    Mutant("sweep-never-pooled", CLI,
           "for alpha in alphas], len(alphas))", "for alpha in alphas], 1)",
           (f"{T_CLI}::TestSweepPool",)),
    Mutant("pool-failure-not-caught", MC,
           "    except (BrokenProcessPool, OSError) as exc:\n",
           "    except BrokenProcessPool as exc:\n",
           (f"{T_CLI}::TestSweepPool",)),
    Mutant("pool-not-bounded-by-cores", MC,
           "min(workers, len(tasks), os.cpu_count() or 1)", "min(workers, len(tasks))",
           ("tests/test_monte_carlo.py::TestReproducibility",)),
    # serialization
    Mutant("grid-csv-last-row-lost", "src/riccati_cascade/analysis_io.py",
           "range(0, f.grid.node_count, _ROWS_PER_WRITE)",
           "range(0, f.grid.node_count - 1, _ROWS_PER_WRITE)",
           ("tests/test_analysis_io.py::TestGridFunctionCsv",)),
]


def _pytest(copy: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    stale = [m.name for m in chosen if (ROOT / m.file).read_text().count(m.old) != 1]
    if stale:
        print(f"old text no longer occurs exactly once: {stale}")
        return 1
    with tempfile.TemporaryDirectory(prefix="mutation-gauge-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        tests = sorted({t for m in chosen for t in m.tests})
        if _pytest(copy, tests) != 0:
            print("the named tests fail without a mutant; fix them first")
            return 1
        survivors = []
        for m in chosen:
            target = copy / m.file
            original = target.read_text()
            target.write_text(original.replace(m.old, m.new))
            code = _pytest(copy, m.tests)
            target.write_text(original)
            # 1: a test failed; 2: collection failed; -1: timed out
            outcome = "survived" if code == 0 else "killed" if code in (1, 2, -1) else f"error {code}"
            print(f"{m.name}: {outcome}", flush=True)
            if outcome != "killed":
                survivors.append(m.name)
    print(f"killed {len(chosen) - len(survivors)}/{len(chosen)}")
    if survivors:
        print("survivors: " + ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
