"""Simulation and numerical analysis of the alpha-Riccati branching cascade.

The package samples the random binary cascade whose depth-j edges carry
mean-one exponential clocks scaled by alpha**-j, evaluates the associated
integral recursions on uniform time grids, and cross-validates the two
routes (Monte Carlo vs deterministic quadrature) with seeded, worker-count
independent reproducibility.
"""

__version__ = "0.9.0"

from .cascade_core import (
    CascadeParams,
    ClockSource,
    SamplerCapError,
    crossing_horizon_cut,
    derive_stream,
    leaf_census,
    sample_product_indicator,
    sample_tail_flags,
)
from .grid_numerics import (
    GridFunction,
    GridMemoryError,
    ResidualReport,
    UniformGrid,
    convolve_kernel,
    iterate_qn,
    iterate_qn_levels,
    iterate_vn,
    picard_v0,
    riccati_residual,
)
from .monte_carlo import (
    ComparisonReport,
    EstimatePoint,
    EstimateSeries,
    Histogram,
    McConfig,
    compare_series,
    estimate_leaf_histogram,
    estimate_path_tails,
    estimate_v_curve,
)

__all__ = [
    "__version__",
    "CascadeParams",
    "ClockSource",
    "SamplerCapError",
    "crossing_horizon_cut",
    "derive_stream",
    "leaf_census",
    "sample_product_indicator",
    "sample_tail_flags",
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
    "ComparisonReport",
    "EstimatePoint",
    "EstimateSeries",
    "Histogram",
    "McConfig",
    "compare_series",
    "estimate_leaf_histogram",
    "estimate_path_tails",
    "estimate_v_curve",
]
