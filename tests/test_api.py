"""The public API: the names the package exports, and that every export resolves."""

import importlib
import os
import subprocess
import sys

import pytest

import riccati_cascade

PUBLIC_NAMES = {
    # cascade_core
    "CascadeParams",
    "ClockSource",
    "SamplerCapError",
    "crossing_horizon_cut",
    "derive_stream",
    "leaf_census",
    "sample_product_indicator",
    "sample_tail_flags",
    # grid_numerics
    "GridFunction",
    "GridMemoryError",
    "ResidualReport",
    "UniformGrid",
    "convolve_kernel",
    "iterate_qn",
    "iterate_qn_levels",
    "iterate_vn",
    "picard_v0",
    "riccati_residual",
    # monte_carlo
    "ComparisonReport",
    "EstimatePoint",
    "EstimateSeries",
    "Histogram",
    "McConfig",
    "compare_series",
    "estimate_leaf_histogram",
    "estimate_path_tails",
    "estimate_v_curve",
}


def test_package_exports_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 27
    assert sorted(riccati_cascade.__all__) == sorted(PUBLIC_NAMES | {"__version__"})
    assert len(riccati_cascade.__all__) == len(set(riccati_cascade.__all__))


@pytest.mark.parametrize(
    "module",
    ["__init__", "cascade_core", "grid_numerics", "monte_carlo", "analysis_io", "checks"],
)
def test_every_export_resolves(module):
    name = "riccati_cascade" if module == "__init__" else f"riccati_cascade.{module}"
    mod = importlib.import_module(name)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def test_command_line_imports_numpy_alone():
    code = "import sys, riccati_cascade.cli; print('numpy' in sys.modules, 'scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["True", "False"]
