"""Command-line interface: every estimator, solver, and check as a subcommand.

Each subcommand takes only the flags its handler reads, plus --seed and
--out; any other flag is a usage error.  Each run resolves its
configuration (flag > RICCATI_* environment variable > default), derives a
deterministic output directory `<out>/<cmd>/<digest>/` from the
configuration digest, writes its data files plus a manifest, and prints
the seed so any run can be reproduced exactly.  `main` does all of that
once; a handler only computes and writes its data files.
"""

from __future__ import annotations

import argparse
import math
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis_io import (
    RunManifest,
    _sidecar_path,
    write_grid_function,
    write_histogram_csv,
    write_manifest,
    write_series_csv,
)
from .cascade_core import SamplerCapError
from .checks import run_all_checks
from .grid_numerics import (
    DEFAULT_NODE_CAP,
    GridFunction,
    GridMemoryError,
    UniformGrid,
    iterate_qn,
    iterate_qn_levels,
    iterate_vn,
    picard_v0,
    riccati_residual,
)
from .monte_carlo import (
    McConfig,
    _figures_estimates,
    _map_chunks,
    estimate_leaf_histogram,
    estimate_path_tails,
    estimate_v_curve,
)

_ENV_PREFIX = "RICCATI_"

# the branching scale of each `figures` preset
FIGURE_PRESETS = {"fig1": 0.66, "fig2": 1.5, "fig3": 3.0}


class _EnvDefault:
    """A flag's default, read from RICCATI_<NAME> only once the parsed
    subcommand is known to take the flag; shown as is in --help."""

    def __init__(self, name: str, cast, fallback):
        self.var, self.cast, self.fallback = _ENV_PREFIX + name, cast, fallback

    def __str__(self) -> str:
        return os.environ.get(self.var, str(self.fallback))

    def resolve(self):
        raw = os.environ.get(self.var)
        if raw is None:
            return self.fallback
        try:
            return self.cast(raw)
        except (TypeError, ValueError):
            raise ValueError(f"invalid value {raw!r} for {self.var}") from None


class _Parser(argparse.ArgumentParser):
    """Resolves the `_EnvDefault`s of the flags it parsed; a subcommand's
    parser holds only its own, so no other subcommand's variable is read."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for dest, value in vars(namespace).items():
            if isinstance(value, _EnvDefault):
                setattr(namespace, dest, value.resolve())
        return namespace, extras


# every flag that more than one subcommand takes: (type, default, help); each
# can also be set through RICCATI_<NAME>, e.g. RICCATI_T_MAX for --t-max
_FLAGS = {
    "alpha": (float, 1.5, "branching scale (default %(default)s)"),
    "t-max": (float, 8.0, "end of the time grid (default %(default)s)"),
    "step": (float, 0.01, "grid step (default %(default)s)"),
    "depth": (int, 10, "recursion depth / truncation level n (default %(default)s)"),
    "picard-k": (int, 5, "Picard iterations for the seed curve (default %(default)s)"),
    "samples": (int, 10000, "Monte Carlo samples per point (default %(default)s)"),
    "eps-tail": (float, 1e-6, "tail threshold for working-grid expansion (default %(default)s)"),
    "workers": (int, 1, "worker-count hint; never changes results (default %(default)s)"),
    "seed": (int, None, "64-bit seed; generated and printed when omitted"),
    "out": (Path, Path("runs"), "output root directory (default ./runs)"),
}
# the grid and its Picard seed; the Monte Carlo sizes
_CHAIN = ("t-max", "step", "picard-k", "eps-tail")
_MC = ("depth", "samples", "workers")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="riccati-cascade",
        description="Simulation and numerical analysis of the alpha-Riccati branching cascade",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *flags: str) -> argparse.ArgumentParser:
        """A subcommand that takes `flags`, --seed and --out, and no abbreviation."""
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in (*flags, "seed", "out"):
            cast, default, help_text = _FLAGS[flag]
            env = flag.upper().replace("-", "_")
            p.add_argument(f"--{flag}", type=cast, default=_EnvDefault(env, cast, default),
                           help=help_text)
        return p

    p = command("hist", "truncated leaf-count histogram", "alpha", *_MC)
    p.add_argument("--t", type=float, default=2.0, help="horizon (default 2)")

    p = command("vcurve", "Monte Carlo finiteness-probability curve", "alpha", *_CHAIN, *_MC)
    p.add_argument("--t-step", type=float, default=0.5, help="spacing of Monte Carlo points")

    command("v0", "Picard seed curve U_k", "alpha", *_CHAIN)

    command("qn", "deterministic explosion-probability iterate q_n", "alpha", "depth", *_CHAIN)

    p = command("paths", "min/max path-sum tail series", "alpha", "t-max", *_MC)
    p.add_argument("--t-step", type=float, default=1.0, help="spacing of tail points")

    command("residual", "residual of v' + v = v(alpha t)^2 for the iterated curve",
            "alpha", "depth", *_CHAIN)

    p = command("check", "run the full invariant suite", "alpha", "samples")
    p.set_defaults(samples=_EnvDefault("SAMPLES", int, 2000))
    p.add_argument("--fast", action="store_true", help="trim statistical sample sizes")

    p = command("figures", "figure-ready data bundle", *_CHAIN, *_MC)
    p.add_argument("--preset", required=True, choices=sorted(FIGURE_PRESETS),
                   help="sets alpha: fig1 (0.66), fig2 (1.5), fig3 (3)")

    p = command("sweep", "stabilized explosion probability across branching scales", *_CHAIN)
    p.add_argument("--alpha-list", required=True,
                   help="comma-separated branching scales, e.g. 0.66,1.5,3")
    p.add_argument("--t", type=float, default=4.0, help="report point (default 4)")
    p.add_argument("--max-n", type=int, default=40, help="iteration budget per scale")
    p.add_argument("--gap-tol", type=float, default=1e-4,
                   help="sup-norm stabilization tolerance")
    return parser


# parsed dests that never enter the configuration digest
_UNDIGESTED = {"out", "workers", "command"}


def _manifest_for(args, seed: int) -> RunManifest:
    """The run's manifest: every flag the subcommand took but --out and
    --workers, with the resolved seed."""
    params = {k: v for k, v in vars(args).items() if k not in _UNDIGESTED}
    return RunManifest.create(args.command, {**params, "seed": seed})


def _t_points(t_max: float, t_step: float) -> np.ndarray:
    """0, t_step, ..., up to t_max: at least one point, at most DEFAULT_NODE_CAP."""
    if not (math.isfinite(t_step) and t_step > 0.0):
        raise ValueError(f"--t-step must be finite and > 0, got {t_step}")
    count = (t_max + t_step / 2.0) / t_step  # rounded up, the length of the arange
    if not 0.0 < count <= DEFAULT_NODE_CAP:
        raise ValueError(
            f"--t-max {t_max} and --t-step {t_step} must give 1 to {DEFAULT_NODE_CAP} t-points"
        )
    return np.arange(0.0, t_max + t_step / 2.0, t_step)


def _base_grid(args) -> UniformGrid:
    """The grid of --t-max and --step, rejected before any array is allocated
    when its node count exceeds DEFAULT_NODE_CAP, which bounds every working grid."""
    grid = UniformGrid(args.t_max, args.step)
    # the float ratio first: past the float range (a subnormal step) it is inf
    if args.t_max / args.step >= DEFAULT_NODE_CAP or grid.node_count > DEFAULT_NODE_CAP:
        raise GridMemoryError(
            f"the grid of --t-max {args.t_max} and --step {args.step} would need more "
            f"than {DEFAULT_NODE_CAP} nodes; coarsen the step"
        )
    return grid


def _write_grid(f: GridFunction, path: Path) -> list[Path]:
    """Writes `f`; returns its CSV and sidecar paths for the manifest."""
    path = write_grid_function(f, path)
    return [path, _sidecar_path(path)]


def _explosion_seed(alpha: float, grid: UniformGrid, picard_k: int,
                    eps_tail: float) -> GridFunction:
    """q0 for the explosion chain: 1 for alpha <= 1, else the Picard complement."""
    if alpha <= 1.0:
        return GridFunction.constant(grid, 1.0)
    return picard_v0(alpha, grid, picard_k, eps_tail).complement()


def _cmd_hist(args, seed: int, out: Path) -> tuple[list[Path], int]:
    cfg = McConfig(seed=seed, samples=args.samples, workers=args.workers)
    hist = estimate_leaf_histogram(args.alpha, args.t, args.depth, cfg)
    files = [write_histogram_csv(hist, out / "histogram.csv")]
    print(
        f"leaf counts at alpha={args.alpha}, t={args.t}, depth={args.depth}: "
        f"mean={hist.mean():.3f} max={hist.max_observed} truncated={hist.truncated_count}/{hist.total}"
    )
    return files, 0


def _cmd_vcurve(args, seed: int, out: Path) -> tuple[list[Path], int]:
    t_points = _t_points(args.t_max, args.t_step)
    grid = _base_grid(args)
    v0 = picard_v0(args.alpha, grid, args.picard_k, args.eps_tail)
    cfg = McConfig(seed=seed, samples=args.samples, workers=args.workers)
    series = estimate_v_curve(args.alpha, t_points, args.depth, v0, cfg)
    files = [
        write_series_csv(series, out / "vcurve_mc.csv"),
        *_write_grid(v0, out / "v0_picard.csv"),
    ]
    lo, hi = series.means().min(), series.means().max()
    print(f"v-curve at alpha={args.alpha}: {len(series.points)} points, range [{lo:.4f}, {hi:.4f}]")
    return files, 0


def _cmd_v0(args, seed: int, out: Path) -> tuple[list[Path], int]:
    grid = _base_grid(args)
    u_k = picard_v0(args.alpha, grid, args.picard_k, args.eps_tail)
    files = _write_grid(u_k, out / "v0_picard.csv")
    k_ref = 8 if args.picard_k != 8 else 5
    u_ref = picard_v0(args.alpha, grid, k_ref, args.eps_tail)
    gap = float(np.max(np.abs(u_k.values - u_ref.values)))
    print(
        f"Picard seed at alpha={args.alpha}, k={args.picard_k}: "
        f"U_k(t_max)={u_k.values[-1]:.6f}; max|U_{args.picard_k} - U_{k_ref}| = {gap:.3e}"
    )
    return files, 0


def _cmd_qn(args, seed: int, out: Path) -> tuple[list[Path], int]:
    grid = _base_grid(args)
    q0 = _explosion_seed(args.alpha, grid, args.picard_k, args.eps_tail)
    qn = iterate_qn(args.alpha, grid, args.depth, q0, args.eps_tail)
    files = _write_grid(qn, out / "qn.csv")
    probe_ts = [v for v in (2.0, 4.0, args.t_max) if v <= grid.t_end]
    vals = ", ".join(f"q({t:g})={qn(t):.5f}" for t in probe_ts)
    print(f"explosion iterate at alpha={args.alpha}, n={args.depth}: {vals}")
    return files, 0


def _cmd_paths(args, seed: int, out: Path) -> tuple[list[Path], int]:
    cfg = McConfig(seed=seed, samples=args.samples, workers=args.workers)
    t_points = _t_points(args.t_max, args.t_step)
    s_series, l_series = estimate_path_tails(args.alpha, t_points, args.depth, cfg)
    files = [
        write_series_csv(s_series, out / "s_tail.csv"),
        write_series_csv(l_series, out / "l_tail.csv"),
    ]
    print(
        f"path tails at alpha={args.alpha}, depth={args.depth}: "
        f"P(S>{t_points[-1]:g})={s_series.points[-1].mean:.4f}, "
        f"P(L>{t_points[-1]:g})={l_series.points[-1].mean:.4f}"
    )
    return files, 0


def _cmd_residual(args, seed: int, out: Path) -> tuple[list[Path], int]:
    grid = _base_grid(args)
    v0 = picard_v0(args.alpha, grid, args.picard_k, args.eps_tail)
    vn = iterate_vn(args.alpha, grid, args.depth, v0, args.eps_tail)
    report = riccati_residual(vn, args.alpha)
    residual_fn = GridFunction(grid, report.residual, 0.0, range_bounds=False)
    files = _write_grid(residual_fn, out / "residual.csv")
    print(
        f"residual at alpha={args.alpha}, n={args.depth}: "
        f"max |r| = {report.max_abs_residual:.3e} on t in [0, {report.interior_range[1]:g}] "
        f"({report.interior_count} nodes)"
    )
    return files, 0


def _cmd_check(args, seed: int, out: Path) -> tuple[list[Path], int]:
    """The one handler that can return 1: when any check fails."""
    if args.samples < 1:  # --fast would raise it to 200 and hide the bad value
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    results = run_all_checks(args.alpha, seed, samples=args.samples, fast=args.fast)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"CHECK {r.name}: {status} ({r.detail})"
        print(line)
        lines.append(line)
    report = out / "check_report.txt"
    out.mkdir(parents=True, exist_ok=True)
    report.write_text("\n".join(lines) + "\n")
    failed = sum(not r.passed for r in results)
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return [report], 1
    print(f"all {len(results)} checks passed")
    return [report], 0


def _cmd_figures(args, seed: int, out: Path) -> tuple[list[Path], int]:
    """The `vcurve` outputs at t-step 0.5 and the `hist` output at t = 2, at
    the preset's alpha, read off one walk of the same trees."""
    alpha = FIGURE_PRESETS[args.preset]
    grid = _base_grid(args)
    cfg = McConfig(seed=seed, samples=args.samples, workers=args.workers)
    v0 = picard_v0(alpha, grid, args.picard_k, args.eps_tail)
    hist, curve = _figures_estimates(alpha, 2.0, _t_points(args.t_max, 0.5), args.depth, v0, cfg)
    files = [
        write_histogram_csv(hist, out / "histogram.csv"),
        write_series_csv(curve, out / "vcurve_mc.csv"),
        *_write_grid(v0, out / "v0_picard.csv"),
    ]
    print(f"figures {args.preset} at alpha={alpha}: leaf-count mean {hist.mean():.3f}, "
          f"{len(curve.points)} v-curve points")
    return files, 0


def _sweep_row(task: tuple) -> tuple:
    """The sweep.csv row of one branching scale: its explosion chain from the
    seed of `qn`, every fifth level until two in a row differ by less than
    gap_tol in sup norm or the levels run out."""
    grid, levels, picard_k, eps_tail, gap_tol, t, alpha = task
    q0 = _explosion_seed(alpha, grid, picard_k, eps_tail)
    prev = None
    sup_gap = float("inf")
    # breaking out drops the chain, so later levels are never computed
    for n_used, q_cur in iterate_qn_levels(alpha, grid, q0, levels, eps_tail):
        if prev is not None:
            sup_gap = float(np.max(np.abs(q_cur.values - prev.values)))
            if sup_gap < gap_tol:
                break
        prev = q_cur
    converged = sup_gap < gap_tol
    boundary = abs(alpha - 1.0) <= 0.05 or abs(alpha - 2.0) <= 0.05
    note = "slow-convergence" if (boundary or not converged) else ""
    return alpha, t, q_cur(t), sup_gap, n_used, converged, note


def _cmd_sweep(args, seed: int, out: Path) -> tuple[list[Path], int]:
    try:
        alphas = [float(a) for a in args.alpha_list.split(",") if a.strip()]
    except ValueError:
        raise ValueError(f"invalid --alpha-list {args.alpha_list!r}") from None
    if not alphas:
        raise ValueError("empty --alpha-list")
    for alpha in alphas:
        if not (math.isfinite(alpha) and alpha > 0.0):
            raise ValueError(f"alpha must be finite and > 0, got {alpha} in --alpha-list")
    if not (math.isfinite(args.t) and args.t >= 0.0):
        raise ValueError(f"--t must be finite and >= 0, got {args.t}")
    if args.max_n < 5:
        raise ValueError(f"--max-n must be >= 5, got {args.max_n}")
    if not (math.isfinite(args.gap_tol) and args.gap_tol > 0.0):
        raise ValueError(f"--gap-tol must be finite and > 0, got {args.gap_tol}")
    grid = _base_grid(args)
    levels = range(5, args.max_n + 1, 5)
    head = (grid, levels, args.picard_k, args.eps_tail, args.gap_tol, args.t)
    # one scale per task, at most one process per scale and core, rows in input order
    rows = _map_chunks(_sweep_row, [(*head, alpha) for alpha in alphas], len(alphas))
    for alpha, t, q_at_t, sup_gap, n_used, _, note in rows:
        print(
            f"alpha={alpha:g}: q({t:g}) = {q_at_t:.6g} "
            f"(sup gap {sup_gap:.2e} after n={n_used}{', ' + note if note else ''})"
        )
    sweep_path = out / "sweep.csv"
    out.mkdir(parents=True, exist_ok=True)
    with sweep_path.open("w", newline="") as fh:
        fh.write("alpha,t,q_estimate,sup_gap,n_iterations,converged,note\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return [sweep_path], 0


_HANDLERS = {
    "hist": _cmd_hist,
    "vcurve": _cmd_vcurve,
    "v0": _cmd_v0,
    "qn": _cmd_qn,
    "paths": _cmd_paths,
    "residual": _cmd_residual,
    "check": _cmd_check,
    "figures": _cmd_figures,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except ValueError as exc:  # an invalid RICCATI_* default
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # a tail of 1 or more certifies every extent
        if hasattr(args, "eps_tail") and not 0.0 < args.eps_tail < 1.0:
            raise ValueError(f"--eps-tail must be in (0, 1), got {args.eps_tail}")
        seed = args.seed
        if seed is None:
            seed = secrets.randbits(63)
            print(f"generated seed: {seed}")
        manifest = _manifest_for(args, seed)
        out = Path(args.out) / args.command / manifest.config_digest()
        # the handler validates before its first write, so exit 2 leaves no directory
        files, status = _HANDLERS[args.command](args, seed, out)
        write_manifest(manifest.with_outputs(files), out / "manifest.json")
        print(f"wrote {len(files)} files to {out}")
        return status
    except (ValueError, GridMemoryError, SamplerCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
