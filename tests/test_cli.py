"""End-to-end CLI behaviour: exit codes, file outputs, reproducibility, sweep."""

import csv
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from riccati_cascade import (
    GridFunction,
    McConfig,
    UniformGrid,
    cli,
    estimate_leaf_histogram,
    estimate_v_curve,
    evaluate,
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
from riccati_cascade.cli import FIGURE_PRESETS, main


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path)])


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
        q_at_t = evaluate(q_cur, t)
        rows.append((alpha, t, q_at_t, sup_gap, n_used, converged, note))
    lines = ["alpha,t,q_estimate,sup_gap,n_iterations,converged,note"]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _reference_figure_bundle(
    preset: str,
    out_dir,
    seed: int,
    alpha: float | None = None,
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
    alpha = FIGURE_PRESETS[preset] if alpha is None else float(alpha)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = UniformGrid(t_max, step)
    cfg = McConfig(seed=seed, samples=samples, depth=depth, workers=workers)

    hist = estimate_leaf_histogram(alpha, t, depth, cfg)
    v0 = picard_v0(alpha, grid, picard_k, eps_tail)
    t_points = np.arange(0.0, t_max + mc_t_step / 2.0, mc_t_step)
    curve = estimate_v_curve(alpha, t_points, depth, v0, cfg)

    paths = {
        "histogram": write_histogram_csv(hist, out_dir / "histogram.csv"),
        "vcurve": write_series_csv(curve, out_dir / "vcurve_mc.csv"),
        "v0": write_grid_function(v0, out_dir / "v0_picard.csv"),
    }
    manifest = RunManifest.create(
        command=f"figures --preset {preset}",
        alpha=alpha,
        t_max=t_max,
        step=step,
        eps_tail=eps_tail,
        depth=depth,
        picard_k=picard_k,
        samples=samples,
        seed=seed,
    )
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
        ("qn", "--depth", "-1"),
    ], ids=" ".join)
    def test_bad_value_exits_2_and_writes_nothing(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv, "--seed", "1") == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err
        assert not (tmp_path / argv[0]).exists()

    @pytest.mark.parametrize("eps_tail", ["nan", "inf", "0", "-1"])
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

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "riccati-cascade" in capsys.readouterr().out


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
        assert manifest.seed == 3
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

    def test_figures_preset_alpha(self, tmp_path):
        assert run(tmp_path, "figures", "--preset", "fig2", "--seed", "42",
                   "--samples", "40", "--depth", "5", "--t-max", "4", "--step", "0.05") == 0
        out_dir = next((tmp_path / "figures").iterdir())
        manifest = load_manifest(out_dir / "manifest.json")
        assert manifest.alpha == 1.5
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

    def test_alpha_flag_does_not_move_the_directory(self, tmp_path):
        assert run(tmp_path, "figures", "--preset", "fig2", *self.SMALL) == 0
        assert run(tmp_path, "figures", "--preset", "fig2", "--alpha", "3", *self.SMALL) == 0
        assert len(list((tmp_path / "figures").iterdir())) == 1

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
