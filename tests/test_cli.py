"""End-to-end CLI behaviour: exit codes, file outputs, reproducibility, sweep."""

import argparse
import contextlib
import csv
import io
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_cascade import (
    GridFunction,
    McConfig,
    UniformGrid,
    cli,
    estimate_leaf_histogram,
    estimate_v_curve,
    iterate_qn,
    picard_v0,
)
from riccati_cascade.analysis_io import (
    RunManifest,
    file_digest,
    load_manifest,
    verify_manifest,
    write_grid_function,
    write_histogram_csv,
    write_manifest,
    write_series_csv,
)
from riccati_cascade.cascade_core import SamplerCapError
from riccati_cascade.checks import CheckResult
from riccati_cascade.cli import FIGURE_PRESETS, main


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path)])


def _subcommand_flags() -> dict[str, set[str]]:
    """Each subcommand's flags, as argparse dests, read off the parser."""
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
            for name, p in sub.choices.items()}


# every subcommand's flags but --seed and --out, which every subcommand takes
SUBCOMMAND_FLAGS = {
    "hist": {"alpha", "depth", "samples", "workers", "t"},
    "vcurve": {"alpha", "t_max", "step", "depth", "picard_k", "samples", "eps_tail", "workers",
               "t_step"},
    "v0": {"alpha", "t_max", "step", "picard_k", "eps_tail"},
    "qn": {"alpha", "t_max", "step", "depth", "picard_k", "eps_tail"},
    "residual": {"alpha", "t_max", "step", "depth", "picard_k", "eps_tail"},
    "paths": {"alpha", "t_max", "depth", "samples", "workers", "t_step"},
    "check": {"alpha", "samples", "fast"},
    "figures": {"preset", "t_max", "step", "depth", "picard_k", "samples", "eps_tail", "workers"},
    "sweep": {"alpha_list", "t", "max_n", "gap_tol", "t_max", "step", "picard_k", "eps_tail"},
}


def _reference_sweep_csv(alphas, t, step, max_n, gap_tol=1e-4, picard_k=5, eps_tail=1e-6):
    """sweep.csv from the loop that restarted iterate_qn at every n, verbatim."""
    grid = UniformGrid(8.0, step)
    rows = []
    for alpha in alphas:
        if alpha <= 1.0:
            q0 = GridFunction.constant(grid, 1.0)
        else:
            q0 = picard_v0(alpha, grid, picard_k, eps_tail).complement()
        prev = None
        q_cur = None
        n_used = 0
        sup_gap = float("inf")
        for n in range(5, max_n + 1, 5):
            q_cur = iterate_qn(alpha, grid, n, q0, eps_tail)
            n_used = n
            if prev is not None:
                sup_gap = float(np.max(np.abs(q_cur.values - prev.values)))
                if sup_gap < gap_tol:
                    break
            prev = q_cur
        converged = sup_gap < gap_tol
        boundary = abs(alpha - 1.0) <= 0.05 or abs(alpha - 2.0) <= 0.05
        note = "slow-convergence" if (boundary or not converged) else ""
        q_at_t = q_cur(t)
        rows.append((alpha, t, q_at_t, sup_gap, n_used, converged, note))
    lines = ["alpha,t,q_estimate,sup_gap,n_iterations,converged,note"]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _reference_figure_bundle(
    preset: str,
    out_dir,
    seed: int,
    t: float = 2.0,
    t_max: float = 8.0,
    step: float = 0.01,
    depth: int = 10,
    picard_k: int = 5,
    samples: int = 10000,
    eps_tail: float = 1e-6,
    workers: int = 1,
    mc_t_step: float = 0.5,
) -> dict[str, Path]:
    """The figure bundle that the I/O layer used to write for `figures`, verbatim."""
    if preset not in FIGURE_PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(FIGURE_PRESETS)}")
    alpha = FIGURE_PRESETS[preset]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = UniformGrid(t_max, step)
    cfg = McConfig(seed=seed, samples=samples, workers=workers)

    hist = estimate_leaf_histogram(alpha, t, depth, cfg)
    v0 = picard_v0(alpha, grid, picard_k, eps_tail)
    t_points = np.arange(0.0, t_max + mc_t_step / 2.0, mc_t_step)
    curve = estimate_v_curve(alpha, t_points, depth, v0, cfg)

    paths = {
        "histogram": write_histogram_csv(hist, out_dir / "histogram.csv"),
        "vcurve": write_series_csv(curve, out_dir / "vcurve_mc.csv"),
        "v0": write_grid_function(v0, out_dir / "v0_picard.csv"),
    }
    manifest = RunManifest.create("figures", {
        "preset": preset,
        "t_max": t_max,
        "step": step,
        "eps_tail": eps_tail,
        "depth": depth,
        "picard_k": picard_k,
        "samples": samples,
        "seed": seed,
    })
    tracked = [paths["histogram"], paths["vcurve"], paths["v0"],
               paths["v0"].with_name(paths["v0"].name + ".meta.json")]
    manifest = manifest.with_outputs(tracked)
    paths["manifest"] = write_manifest(manifest, out_dir / "manifest.json")
    return paths


class TestUsage:
    def test_no_subcommand_is_usage_error(self, tmp_path):
        assert run(tmp_path) == 2

    def test_unknown_subcommand(self, tmp_path):
        assert run(tmp_path, "frobnicate") == 2

    def test_unknown_flag(self, tmp_path):
        assert run(tmp_path, "hist", "--does-not-exist", "1") == 2

    def test_invalid_parameter_value(self, tmp_path):
        assert run(tmp_path, "hist", "--alpha", "-3", "--seed", "1", "--samples", "10") == 2

    @pytest.mark.parametrize("argv", [
        ("vcurve", "--t-step", "0"),
        ("vcurve", "--t-step", "nan"),
        ("paths", "--t-step", "-1"),
        ("sweep", "--alpha-list", "1.5", "--t", "nan"),
        ("sweep", "--alpha-list=-1,1.5"),
        ("hist", "--samples", "0"),
        ("check", "--samples", "0"),
        ("check", "--fast", "--samples", "-5"),
        ("qn", "--depth", "-1"),
        ("hist", "--depth", "-1"),
        # sizes past DEFAULT_NODE_CAP are rejected before anything is allocated
        ("vcurve", "--step", "1e-12"),
        ("qn", "--alpha", "0.66", "--step", "1e-12"),
        ("v0", "--step", "1e-320"),
        ("vcurve", "--t-step", "1e-9"),
        ("paths", "--t-max", "-5"),
        # the worker hint is read only where a McConfig is built, and checked there
        ("hist", "--workers", "0"),
        ("vcurve", "--workers", "0"),
        ("paths", "--workers", "0"),
        ("figures", "--preset", "fig2", "--workers", "0"),
    ], ids=" ".join)
    def test_bad_value_exits_2_and_writes_nothing(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv, "--seed", "1") == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err
        assert not (tmp_path / argv[0]).exists()

    # and below 1: q stays below 1, so a tail of 1 or more certifies every working grid
    @pytest.mark.parametrize("eps_tail", ["nan", "inf", "0", "-1", "1", "2"])
    def test_eps_tail_must_be_finite_and_positive(self, tmp_path, capsys, eps_tail):
        assert run(tmp_path, "qn", "--alpha", "3", "--depth", "6", "--step", "0.05",
                   f"--eps-tail={eps_tail}", "--seed", "1") == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "--eps-tail" in err and "\n" not in err
        assert not (tmp_path / "qn").exists()

    def test_depth_past_float_overflow_of_the_expansion_bound(self, tmp_path, capsys):
        # 3.0**700 overflows; the adaptive extents still certify the chain
        assert run(tmp_path, "qn", "--alpha", "3", "--depth", "700", "--step", "0.1",
                   "--seed", "1") == 0
        assert "n=700" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["v0", "qn", "residual", "vcurve", "paths"])
    def test_alpha_t_past_the_float_range_reads_the_tail(self, tmp_path, command):
        # alpha * t overflows to inf, which lies beyond every grid and horizon
        # cut; Tier-1 turns an overflow warning into an error
        sizes = {"alpha": "1e308", "samples": "20", "depth": "4", "t_max": "2", "step": "0.1"}
        argv = [x for k, v in sizes.items() if k in SUBCOMMAND_FLAGS[command]
                for x in (f"--{k.replace('_', '-')}", v)]
        assert run(tmp_path, command, *argv, "--seed", "1") == 0

    def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(self, tmp_path, capsys):
        for argv in [
            ("figures", "--preset", "fig2", "--alpha", "3"),  # the preset sets alpha
            ("sweep", "--alpha-list", "1.5", "--alpha", "3"),  # not an abbreviation of --alpha-list
            ("qn", "--workers", "0"),
            ("check", "--depth", "40"),
        ]:
            assert run(tmp_path, *argv, "--seed", "1") == 2, argv
            err = capsys.readouterr().err
            assert sum("error:" in line for line in err.splitlines()) == 1, argv
            assert "unrecognized arguments" in err, argv
            assert not (tmp_path / argv[0]).exists(), argv

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "riccati-cascade" in capsys.readouterr().out


# a small valid call of each subcommand
_SMALL_CALLS = {
    "hist": ["--samples", "20", "--depth", "4"],
    "vcurve": ["--samples", "20", "--depth", "4", "--t-max", "2", "--step", "0.1",
               "--t-step", "1"],
    "v0": ["--t-max", "2", "--step", "0.1"],
    "qn": ["--depth", "4", "--t-max", "2", "--step", "0.1"],
    "residual": ["--depth", "4", "--t-max", "2", "--step", "0.1"],
    "paths": ["--samples", "20", "--depth", "4", "--t-max", "2", "--t-step", "1"],
    "check": ["--fast"],
    "figures": ["--preset", "fig2", "--samples", "20", "--depth", "4", "--t-max", "1",
                "--step", "0.1"],
    "sweep": ["--alpha-list", "0.66,1.5", "--max-n", "10", "--t-max", "2", "--step", "0.1"],
}


class TestFlagTable:
    """Each subcommand takes exactly the flags its handler reads, plus --seed and --out."""

    def test_each_subcommand_takes_the_pinned_flags(self):
        assert _subcommand_flags() == {
            command: flags | {"seed", "out"} for command, flags in SUBCOMMAND_FLAGS.items()
        }
        assert sum(len(flags) for flags in SUBCOMMAND_FLAGS.values()) == 56

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_handler_reads_every_flag_it_takes(self, tmp_path, monkeypatch, command):
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                if not name.startswith("__"):
                    reads.add(name)
                return super().__getattribute__(name)

        handler = cli._HANDLERS[command]
        monkeypatch.setitem(cli._HANDLERS, command,
                            lambda args, seed, out: handler(Recording(**vars(args)), seed, out))
        monkeypatch.setattr(cli, "run_all_checks",
                            lambda *a, **k: [CheckResult("stream_determinism", True, "ok")])
        # a read of a flag the parser lacks raises AttributeError out of main
        assert run(tmp_path, command, *_SMALL_CALLS[command], "--seed", "5") == 0
        assert reads == _subcommand_flags()[command] - {"seed", "out"}


class TestSeedHandling:
    def test_seed_generated_and_printed(self, tmp_path, capsys):
        code = run(tmp_path, "hist", "--samples", "20", "--depth", "5")
        assert code == 0
        out = capsys.readouterr().out
        assert "generated seed:" in out

    def test_explicit_seed_not_regenerated(self, tmp_path, capsys):
        run(tmp_path, "hist", "--samples", "20", "--depth", "5", "--seed", "77")
        assert "generated seed" not in capsys.readouterr().out


class TestSubcommands:
    def test_v0_kernel_curve(self, tmp_path):
        assert run(tmp_path, "v0", "--picard-k", "1", "--alpha", "3", "--seed", "1") == 0
        out_dir = next((tmp_path / "v0").iterdir())
        rows = (out_dir / "v0_picard.csv").read_text().splitlines()[1:]
        ts = np.array([float(r.split(",")[0]) for r in rows])
        vals = np.array([float(r.split(",")[1]) for r in rows])
        assert np.max(np.abs(vals - (1.0 - np.exp(-ts)))) < 1e-3
        assert verify_manifest(out_dir / "manifest.json") == []

    def test_hist_and_manifest(self, tmp_path):
        assert run(tmp_path, "hist", "--alpha", "1.5", "--samples", "50",
                   "--depth", "6", "--seed", "3") == 0
        out_dir = next((tmp_path / "hist").iterdir())
        assert (out_dir / "histogram.csv").exists()
        manifest = load_manifest(out_dir / "manifest.json")
        assert manifest.params["seed"] == 3
        assert verify_manifest(out_dir / "manifest.json") == []

    def test_vcurve(self, tmp_path):
        assert run(tmp_path, "vcurve", "--alpha", "1.5", "--samples", "30", "--depth", "4",
                   "--t-max", "4", "--step", "0.05", "--t-step", "2", "--seed", "5") == 0
        out_dir = next((tmp_path / "vcurve").iterdir())
        assert (out_dir / "vcurve_mc.csv").exists()
        assert (out_dir / "v0_picard.csv").exists()

    def test_qn(self, tmp_path, capsys):
        assert run(tmp_path, "qn", "--alpha", "3", "--depth", "8", "--seed", "5",
                   "--step", "0.02") == 0
        assert "explosion iterate" in capsys.readouterr().out

    def test_paths(self, tmp_path):
        assert run(tmp_path, "paths", "--alpha", "1.5", "--samples", "40", "--depth", "12",
                   "--t-max", "4", "--t-step", "2", "--seed", "5") == 0
        out_dir = next((tmp_path / "paths").iterdir())
        assert (out_dir / "s_tail.csv").exists()
        assert (out_dir / "l_tail.csv").exists()

    def test_residual(self, tmp_path, capsys):
        assert run(tmp_path, "residual", "--alpha", "1.5", "--depth", "6",
                   "--step", "0.02", "--seed", "5") == 0
        assert "max |r|" in capsys.readouterr().out

    def test_figures_preset_alpha(self, tmp_path, capsys):
        assert run(tmp_path, "figures", "--preset", "fig2", "--seed", "42",
                   "--samples", "40", "--depth", "5", "--t-max", "4", "--step", "0.05") == 0
        assert "figures fig2 at alpha=1.5:" in capsys.readouterr().out
        out_dir = next((tmp_path / "figures").iterdir())
        manifest = load_manifest(out_dir / "manifest.json")
        assert manifest.params["preset"] == "fig2" and "alpha" not in manifest.params
        assert verify_manifest(out_dir / "manifest.json") == []


class TestFigures:
    SMALL = ("--seed", "99", "--samples", "60", "--depth", "6", "--t-max", "4",
             "--step", "0.05", "--picard-k", "3")

    @pytest.mark.parametrize("preset", ["fig1", "fig2"])
    def test_matches_reference_bundle(self, tmp_path, preset):
        assert run(tmp_path / "cli", "figures", "--preset", preset, *self.SMALL) == 0
        (out_dir,) = (tmp_path / "cli" / "figures").iterdir()
        ref = _reference_figure_bundle(preset, tmp_path / "ref", seed=99, samples=60, depth=6,
                                       t_max=4.0, step=0.05, picard_k=3)
        names = ["histogram.csv", "vcurve_mc.csv", "v0_picard.csv", "v0_picard.csv.meta.json"]
        for name in names:
            assert (out_dir / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
        got = asdict(load_manifest(out_dir / "manifest.json"))
        want = asdict(load_manifest(ref["manifest"]))
        got.pop("timestamp"), want.pop("timestamp")
        assert got == want
        assert sorted(got["outputs"]) == sorted(names)

    def test_unknown_preset(self, tmp_path):
        assert run(tmp_path, "figures", "--preset", "fig9", "--seed", "1") == 2
        assert not (tmp_path / "figures").exists()


class TestEnvOverrides:
    def test_env_supplies_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RICCATI_ALPHA", "3.0")
        assert run(tmp_path, "hist", "--samples", "20", "--depth", "5", "--seed", "9") == 0
        assert "alpha=3.0" in capsys.readouterr().out

    def test_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RICCATI_ALPHA", "3.0")
        assert run(tmp_path, "hist", "--alpha", "0.66", "--samples", "20",
                   "--depth", "5", "--seed", "9") == 0
        assert "alpha=0.66" in capsys.readouterr().out

    def test_invalid_env_value(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RICCATI_SAMPLES", "many")
        assert run(tmp_path, "hist", "--seed", "9") == 2
        assert "RICCATI_SAMPLES" in capsys.readouterr().err

    def test_only_the_chosen_subcommand_reads_its_variables(self, tmp_path, monkeypatch, capsys):
        # hist takes no --eps-tail, so RICCATI_EPS_TAIL is never read; qn does
        monkeypatch.setenv("RICCATI_EPS_TAIL", "abc")
        assert run(tmp_path, "hist", "--samples", "10", "--depth", "3", "--seed", "1") == 0
        capsys.readouterr()
        assert run(tmp_path, "qn", "--step", "0.1", "--depth", "2", "--seed", "1") == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: invalid value 'abc' for RICCATI_EPS_TAIL"]
        assert not (tmp_path / "qn").exists()


class TestSamplerCaps:
    def test_cap_overrun_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        def overrun(*args, **kwargs):
            raise SamplerCapError("alive frontier exceeded 8 vertices at depth 3")

        monkeypatch.setattr(cli, "estimate_leaf_histogram", overrun)
        assert run(tmp_path, "hist", "--seed", "9") == 2
        err = capsys.readouterr().err
        assert err.strip() == "error: alive frontier exceeded 8 vertices at depth 3"


class TestReproducibility:
    def test_worker_hint_gives_byte_identical_files(self, tmp_path):
        args = ["hist", "--alpha", "1.5", "--samples", "120", "--depth", "8", "--seed", "11"]
        assert run(tmp_path, *args, "--workers", "1") == 0
        out_dir = next((tmp_path / "hist").iterdir())
        first = file_digest(out_dir / "histogram.csv")
        assert run(tmp_path, *args, "--workers", "2") == 0
        dirs = list((tmp_path / "hist").iterdir())
        assert len(dirs) == 1  # worker hint does not change the config digest
        assert file_digest(out_dir / "histogram.csv") == first


class TestSweep:
    def test_regime_boundaries(self, tmp_path):
        assert run(tmp_path, "sweep", "--alpha-list", "0.66,1.5,2.0,2.5,3",
                   "--t", "4", "--step", "0.02", "--max-n", "40", "--seed", "13") == 0
        out_dir = next((tmp_path / "sweep").iterdir())
        with (out_dir / "sweep.csv").open() as fh:
            rows = {float(r["alpha"]): r for r in csv.DictReader(fh)}
        for near_zero in (0.66, 2.5, 3.0):
            assert float(rows[near_zero]["q_estimate"]) < 1e-3
        assert float(rows[1.5]["q_estimate"]) > 0.05
        assert rows[2.0]["note"] == "slow-convergence"
        assert rows[1.5]["note"] == ""

    def test_bad_alpha_list(self, tmp_path):
        assert run(tmp_path, "sweep", "--alpha-list", "a,b", "--seed", "1") == 2

    def test_csv_matches_restart_loop(self, tmp_path):
        alphas = [0.66, 1.2, 1.5, 2.0, 2.5, 3.0]
        assert run(tmp_path, "sweep", "--alpha-list", ",".join(map(str, alphas)),
                   "--t", "4", "--step", "0.02", "--max-n", "40", "--seed", "13") == 0
        out_dir = next((tmp_path / "sweep").iterdir())
        expected = _reference_sweep_csv(alphas, 4.0, 0.02, 40)
        assert (out_dir / "sweep.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("max_n", ["3", "0", "-5"])
    def test_max_n_below_five_is_a_config_error(self, tmp_path, capsys, max_n):
        assert run(tmp_path, "sweep", "--alpha-list", "1.5", "--max-n", max_n,
                   "--seed", "1") == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "--max-n" in err and "\n" not in err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("gap_tol", ["0", "-1e-4", "nan", "inf"])
    def test_gap_tol_must_be_finite_and_positive(self, tmp_path, capsys, gap_tol):
        assert run(tmp_path, "sweep", "--alpha-list", "1.5", f"--gap-tol={gap_tol}",
                   "--seed", "1") == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "--gap-tol" in err and "\n" not in err
        assert not (tmp_path / "sweep").exists()


class TestCheckCommand:
    def test_fast_suite_passes(self, tmp_path, capsys):
        assert run(tmp_path, "check", "--alpha", "1.5", "--seed", "21", "--fast") == 0
        out = capsys.readouterr().out
        assert "CHECK stream_determinism: PASS" in out
        assert "FAIL" not in out

    def test_a_failing_check_exits_1_with_a_verified_report(self, tmp_path, monkeypatch, capsys):
        def one_fails(*args, **kwargs):
            return [CheckResult("stream_determinism", True, "ok"),
                    CheckResult("forced", False, "stubbed failure")]

        monkeypatch.setattr(cli, "run_all_checks", one_fails)
        assert run(tmp_path, "check", "--seed", "21", "--fast") == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == "1 of 2 checks failed"
        assert "CHECK forced: FAIL (stubbed failure)" in captured.out
        (out_dir,) = (tmp_path / "check").iterdir()
        assert "CHECK forced: FAIL" in (out_dir / "check_report.txt").read_text()
        assert load_manifest(out_dir / "manifest.json").outputs.keys() == {"check_report.txt"}
        assert verify_manifest(out_dir / "manifest.json") == []


    @pytest.mark.parametrize("argv, samples", [((), 2000), (("--samples", "5000"), 5000)])
    def test_samples_reaches_the_suite(self, tmp_path, monkeypatch, argv, samples):
        seen = {}

        def record(alpha, seed, samples, fast):
            seen.update(samples=samples, fast=fast)
            return [CheckResult("stream_determinism", True, "ok")]

        monkeypatch.setattr(cli, "run_all_checks", record)
        assert run(tmp_path, "check", *argv, "--fast", "--seed", "21") == 0
        assert seen == {"samples": samples, "fast": True}


class TestManifestCommand:
    """The manifest names the subcommand and records every flag it took but
    --out and --workers, with the resolved seed; the config digest covers both."""

    COMMANDS = [
        (["hist", "--t", "1.5"], {"t": 1.5}),
        (["hist"], {"t": 2.0}),
        (["vcurve"], {"t_step": 0.5}),
        (["v0", "--picard-k", "3"], {"picard_k": 3}),
        (["qn", "--alpha", "2.5"], {"alpha": 2.5}),
        (["paths", "--t-step", "2"], {"t_step": 2.0}),
        (["residual"], {"depth": 10}),
        (["check", "--fast"], {"fast": True, "samples": 2000}),
        (["check"], {"fast": False}),
        (["figures", "--preset", "fig3"], {"preset": "fig3"}),
        (["sweep", "--alpha-list", "0.66,1.5", "--max-n", "10"],
         {"alpha_list": "0.66,1.5", "gap_tol": 0.0001, "max_n": 10, "t": 4.0}),
    ]

    @pytest.mark.parametrize("argv, values", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
    def test_command_string(self, argv, values):
        args = cli._build_parser().parse_args([*argv, "--out", "elsewhere"])
        manifest = cli._manifest_for(args, 1)
        assert manifest.command == argv[0]
        assert manifest.params.keys() == SUBCOMMAND_FLAGS[argv[0]] - {"workers"} | {"seed"}
        assert manifest.params["seed"] == 1
        assert values.items() <= manifest.params.items()

    def test_gap_tol_moves_the_sweep_directory(self, tmp_path):
        argv = ("sweep", "--alpha-list", "0.66,1.5", "--step", "0.05", "--max-n", "10",
                "--seed", "13")
        assert run(tmp_path, *argv) == 0
        assert run(tmp_path, *argv, "--gap-tol", "1e-9") == 0
        dirs = sorted((tmp_path / "sweep").iterdir())
        assert len(dirs) == 2
        gap_tols = {load_manifest(d / "manifest.json").params["gap_tol"] for d in dirs}
        assert gap_tols == {1e-4, 1e-9}
        for d in dirs:
            assert verify_manifest(d / "manifest.json") == []


# every subcommand but `check`, at small valid sizes
_FUZZ_BASE = {
    "hist": ["--t", "1.5"],
    "vcurve": ["--t-step", "1"],
    "v0": [],
    "qn": [],
    "paths": ["--t-step", "1"],
    "residual": [],
    "figures": ["--preset", "fig2"],
    "sweep": ["--alpha-list", "0.66,2.5", "--max-n", "10"],
}
# the flags each subcommand's parser takes, but --seed and --out
_FUZZ_FLAGS = {command: sorted(dest.replace("_", "-") for dest in dests - {"seed", "out"})
               for command, dests in _subcommand_flags().items()}
# None of these parses as a large integer, so --depth, --picard-k and --max-n
# only ever see 0 and -1: chain cost grows with them and has no cap by design.
_EDGE_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-320"]


@st.composite
def _fuzz_argv(draw, command):
    """`command` at small valid sizes, with at most one flag set to an edge value."""
    sizes = {
        "alpha": draw(st.sampled_from(["0.66", "1.5", "3"])),
        "t-max": draw(st.sampled_from(["1", "2", "4"])),
        "step": draw(st.sampled_from(["0.05", "0.1", "0.25"])),
        "depth": draw(st.integers(0, 8)),
        "picard-k": draw(st.integers(0, 5)),
        "samples": draw(st.integers(1, 50)),
        "workers": draw(st.integers(1, 2)),
    }
    flags = _FUZZ_FLAGS[command]
    argv = [command, *_FUZZ_BASE[command],
            *(f"--{k}={v}" for k, v in sizes.items() if k in flags), "--seed=5"]
    flag = draw(st.sampled_from([None, *flags]))
    if flag is not None:  # the last occurrence of a flag wins
        argv.append(f"--{flag}={draw(st.sampled_from(_EDGE_VALUES))}")
    return argv


@pytest.mark.parametrize("command", sorted(_FUZZ_BASE))
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_fuzz_exit_code_contract(command, data):
    # no exception escapes main; 2 leaves no output and one error line; 0 a verified manifest
    argv = data.draw(_fuzz_argv(command))
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--out", tmp])
        command_dir = Path(tmp) / command
        assert code in (0, 2)
        if code == 2:
            assert not command_dir.exists()
            assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
        else:
            (manifest,) = command_dir.glob("*/manifest.json")
            assert verify_manifest(manifest) == []
