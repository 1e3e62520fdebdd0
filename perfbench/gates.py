"""Correctness gates: what every CLI call of a workload must have written.

Gates run outside the timed region.  Each returns a list of problems; an
empty list means the call passed.  The references come from the library's
deterministic recursions (Monte Carlo workloads) or from values recorded
at the commit that defined the benchmark (`grid_reference.json`), compared
within a relative tolerance so that a reassociated scan still passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from riccati_cascade.analysis_io import read_histogram_csv, read_series_csv
from riccati_cascade.grid_numerics import UniformGrid, iterate_vn, picard_v0
from riccati_cascade.monte_carlo import compare_series

GRID_REFERENCE = Path(__file__).with_name("grid_reference.json")
CHECK_COUNT = 16
# Sweep and residual values may move by reassociation of the scan (about
# 1e-13 relative), not by a change of the quadrature (about step**2).
SWEEP_RTOL, SWEEP_ATOL = 1e-9, 1e-14
RESIDUAL_RTOL = 1e-6
# The explosion limit vanishes for alpha <= 1 and alpha >= 2 and is
# positive in between; these thresholds separate the two cases at n <= 40.
VANISHING_BELOW, POSITIVE_ABOVE = 1e-4, 1e-2
PICARD_K = 5
# Two-sided exact binomial p-value below which a tail point fails; the
# normal tail at |z| = 4.9.  At a few hundred trees the tail probabilities
# near 0 and 1 give a handful of events, too few for a normal z-score.
TAIL_P_MIN = 1e-6


def output_dir(out_root, command: str) -> Path:
    """The one output directory a command wrote under `out_root`."""
    dirs = sorted(p.parent for p in (Path(out_root) / command).glob("*/manifest.json"))
    if len(dirs) != 1:
        raise FileNotFoundError(f"expected one {command} output under {out_root}, found {len(dirs)}")
    return dirs[0]


def output_digests(out_root, command: str) -> dict[str, str]:
    """The data-file digests the run manifest records."""
    manifest = json.loads((output_dir(out_root, command) / "manifest.json").read_text())
    return manifest["outputs"]


def sweep_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def residual_max(path, alpha: float) -> float:
    """Max |residual| over the nodes where alpha * t stays on the grid."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    t = np.array([float(r[0]) for r in rows])
    r = np.array([float(r[1]) for r in rows])
    interior = alpha * t <= t[-1] * (1.0 + 1e-12)
    return float(np.max(np.abs(r[interior])))


def binomial_p_value(k: int, n: int, p: float) -> float:
    """Two-sided exact p-value of k successes in n trials at success probability p."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == round(p * n) else 0.0

    def pmf(j: int) -> float:
        log = (math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
               + j * math.log(p) + (n - j) * math.log1p(-p))
        return math.exp(log)

    lower = sum(pmf(j) for j in range(k + 1))
    upper = sum(pmf(j) for j in range(k, n + 1))
    return min(1.0, 2.0 * min(lower, upper))


def _close(value: float, ref: float, rtol: float, atol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + atol


class Gates:
    """The gates of one workload, with references built once per process.

    `references` maps a reference name to its value; a test may put a
    wrong value there to see a gate fire.
    """

    def __init__(self, workload):
        self.workload = workload
        self.references: dict = {}

    def _reference(self, name: str, build):
        if name not in self.references:
            self.references[name] = build()
        return self.references[name]

    def check(self, argv: list[str], out_root, rc: int, stdout: str) -> list[str]:
        """Problems with one CLI call; empty when it passed."""
        if rc != 0:
            return [f"{argv[0]} exited with {rc}"] + (self._check(out_root, stdout)
                                                     if argv[0] == "check" else [])
        try:
            return getattr(self, "_" + argv[0])(out_root, stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{argv[0]} output unreadable: {exc!r}"]

    def _grid(self) -> UniformGrid:
        return UniformGrid(self.workload.t_max, self.workload.step)

    def _figures(self, out_root, stdout) -> list[str]:
        w = self.workload
        out = output_dir(out_root, "figures")
        problems = []
        hist = read_histogram_csv(out / "histogram.csv")
        if hist.total != w.samples:
            problems.append(f"histogram total {hist.total} != samples {w.samples}")

        def vn():
            grid = self._grid()
            return iterate_vn(w.alpha, grid, w.depth, picard_v0(w.alpha, grid, PICARD_K))

        report = compare_series(read_series_csv(out / "vcurve_mc.csv"), self._reference("vn", vn))
        if not report.passed:
            problems.append(f"v-curve against iterate_vn: max |z| {report.max_abs_z:.2f}")
        return problems

    def _paths(self, out_root, stdout) -> list[str]:
        w = self.workload
        out = output_dir(out_root, "paths")
        s = read_series_csv(out / "s_tail.csv")
        l = read_series_csv(out / "l_tail.csv")
        problems = []
        if not np.array_equal(s.ts(), l.ts()) or np.any(l.means() < s.means()):
            problems.append("L-tail below S-tail")

        # P(L_n > t) = 1 - U_{n+1}(t)
        def l_tail():
            return picard_v0(w.alpha, self._grid(), w.depth + 1).complement()

        reference = self._reference("l_tail", l_tail)
        for point in l.points:
            p_ref = float(reference(point.t))
            p_value = binomial_p_value(round(point.mean * point.n_samples), point.n_samples, p_ref)
            if p_value < TAIL_P_MIN:
                problems.append(f"P(L > {point.t:g}) = {point.mean} against 1 - U_(depth+1) = "
                                f"{p_ref:.6g}: p-value {p_value:.2e}")
        return problems

    def _grid_reference(self) -> dict:
        def load():
            return json.loads(GRID_REFERENCE.read_text())[repr(self.workload.step)]

        return self._reference("grid", load)

    def _sweep(self, out_root, stdout) -> list[str]:
        rows = sweep_rows(output_dir(out_root, "sweep") / "sweep.csv")
        ref = self._grid_reference()["sweep"]
        if len(rows) != len(ref):
            return [f"sweep has {len(rows)} rows, reference {len(ref)}"]
        problems = []
        for row, want in zip(rows, ref):
            alpha, q = float(row["alpha"]), float(row["q_estimate"])
            same = (
                alpha == want["alpha"]
                and int(row["n_iterations"]) == want["n_iterations"]
                and row["converged"] == want["converged"]
                and row["note"] == want["note"]
                and _close(q, want["q_estimate"], SWEEP_RTOL, SWEEP_ATOL)
                and _close(float(row["sup_gap"]), want["sup_gap"], SWEEP_RTOL, SWEEP_ATOL)
            )
            if not same:
                problems.append(f"sweep row alpha={alpha} differs from the reference")
            inside = 1.0 < alpha < 2.0
            if (inside and q <= POSITIVE_ABOVE) or (not inside and q >= VANISHING_BELOW):
                problems.append(f"sweep limit at alpha={alpha} is {q}")
        return problems

    def _residual(self, out_root, stdout) -> list[str]:
        got = residual_max(output_dir(out_root, "residual") / "residual.csv", self.workload.alpha)
        want = self._grid_reference()["residual_max"]
        if not _close(got, want, RESIDUAL_RTOL, 0.0):
            return [f"residual max {got!r} differs from the reference {want!r}"]
        return []

    def _check(self, out_root, stdout) -> list[str]:
        lines = [ln for ln in stdout.splitlines() if ln.startswith("CHECK ")]
        failing = [ln for ln in lines if ": PASS (" not in ln]
        passed = len(lines) - len(failing)
        if len(lines) != CHECK_COUNT or failing:
            return [f"{passed}/{len(lines)} checks passed, expected {CHECK_COUNT}: {failing}"]
        return []
