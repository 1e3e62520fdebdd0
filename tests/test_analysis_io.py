"""Serialization round-trips and canonical manifests."""

import csv
import io
import json

import numpy as np
import pytest

from riccati_cascade import (
    EstimateSeries,
    GridFunction,
    Histogram,
    McConfig,
    UniformGrid,
    estimate_leaf_histogram,
    estimate_v_curve,
    picard_v0,
)
from riccati_cascade.analysis_io import (
    RunManifest,
    file_digest,
    load_manifest,
    read_grid_function,
    read_histogram_csv,
    read_series_csv,
    verify_manifest,
    write_grid_function,
    write_histogram_csv,
    write_manifest,
    write_series_csv,
)

GRID = UniformGrid(4.0, 0.05)


def make_series():
    v0 = picard_v0(1.5, GRID, 3)
    cfg = McConfig(seed=101, samples=64)
    return estimate_v_curve(1.5, [0.0, 1.37, 2.0, 4.0], 5, v0, cfg)


class TestSeriesCsv:
    def test_round_trip_exact(self, tmp_path):
        series = make_series()
        path = write_series_csv(series, tmp_path / "series.csv")
        assert read_series_csv(path) == series

    def test_empty_series_header_only(self, tmp_path):
        path = write_series_csv(EstimateSeries(()), tmp_path / "empty.csv")
        assert path.read_text() == "t,mean,stderr,n_samples\n"
        assert read_series_csv(path) == EstimateSeries(())

    def test_io_error_carries_path(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        with pytest.raises(OSError, match="blocker"):
            write_series_csv(make_series(), blocker / "sub" / "series.csv")


class TestHistogramCsv:
    def test_round_trip(self, tmp_path):
        cfg = McConfig(seed=7, samples=500)
        hist = estimate_leaf_histogram(1.5, 2.0, 8, cfg)
        path = write_histogram_csv(hist, tmp_path / "hist.csv")
        back = read_histogram_csv(path, t=hist.t, depth=hist.depth)
        assert back == hist

    def test_single_sample_single_bin(self, tmp_path):
        hist = Histogram(t=2.0, depth=4, counts={3: 1}, total=1, truncated_count=0, max_observed=3)
        path = write_histogram_csv(hist, tmp_path / "one.csv")
        rows = path.read_text().splitlines()
        assert rows[1] == "3,4,1"
        assert rows[-3:] == ["total,,1", "truncated_count,,0", "max_observed,,3"]

    def test_two_point_support_writes_two_bins(self, tmp_path):
        cfg = McConfig(seed=8, samples=2000)
        hist = estimate_leaf_histogram(0.0, 2.0, 10, cfg)
        path = write_histogram_csv(hist, tmp_path / "a0.csv")
        data_rows = [r for r in path.read_text().splitlines()[1:] if not r.startswith(("total", "truncated", "max_"))]
        assert len(data_rows) == 2


class TestGridFunctionCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        v0 = picard_v0(3.0, GRID, 4)
        path = write_grid_function(v0, tmp_path / "v0.csv")
        back = read_grid_function(path)
        assert np.array_equal(back.values, v0.values)
        assert back.grid == v0.grid
        assert back.tail_value == v0.tail_value
        assert back.range_bounds == v0.range_bounds

    def test_sidecar_schema(self, tmp_path):
        v0 = picard_v0(3.0, GRID, 2)
        path = write_grid_function(v0, tmp_path / "v0.csv")
        meta = json.loads(path.with_name("v0.csv.meta.json").read_text())
        assert set(meta) == {"t_max", "step", "tail_value", "range_bounds"}

    def test_bytes_match_the_csv_writer_rows(self, tmp_path):
        # 8,193 rows cross two block boundaries; the values take -0.0,
        # subnormals, +-1e300 and 17-digit fractions
        grid = UniformGrid(8192.0 * 0.37, 0.37)
        rng = np.random.default_rng(3)
        values = rng.uniform(-1.0, 1.0, grid.node_count)
        values[:6] = [-0.0, 0.0, 5e-324, -2.2e-310, 1e300, -1e300]
        values[4095:4098] = [1e-300, -0.0, 1.0]
        f = GridFunction(grid, values, 0.5)
        path = write_grid_function(f, tmp_path / "f.csv")
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["t", "value"])
        for t, v in zip(grid.nodes, values):
            writer.writerow([format(float(t), ".17g"), format(float(v), ".17g")])
        assert path.read_bytes() == want.getvalue().encode()
        assert np.array_equal(read_grid_function(path).values, values)


class TestManifest:
    def make(self, seed=42):
        return RunManifest.create(
            "hist", {"alpha": 1.5, "depth": 10, "samples": 100, "t": 2.0, "seed": seed})

    def test_identical_config_identical_except_timestamp(self):
        a, b = self.make(), self.make()
        da, db = a.__dict__.copy(), b.__dict__.copy()
        da.pop("timestamp"), db.pop("timestamp")
        assert da == db
        assert a.config_digest() == b.config_digest()

    def test_schema(self, tmp_path):
        data = json.loads(write_manifest(self.make(), tmp_path / "m.json").read_text())
        assert set(data) == {"tool_version", "command", "params", "timestamp", "outputs"}
        assert data["params"] == {"alpha": 1.5, "depth": 10, "samples": 100, "t": 2.0, "seed": 42}

    def test_digest_sensitive_to_config(self):
        assert self.make(42).config_digest() != self.make(43).config_digest()

    def test_verify_and_tamper(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("t,mean,stderr,n_samples\n")
        manifest = self.make().with_outputs([data])
        m_path = write_manifest(manifest, tmp_path / "manifest.json")
        assert verify_manifest(m_path) == []
        data.write_text("tampered")
        problems = verify_manifest(m_path)
        assert problems and "mismatch" in problems[0]

    def test_load_round_trip(self, tmp_path):
        manifest = self.make()
        m_path = write_manifest(manifest, tmp_path / "m.json")
        assert load_manifest(m_path) == manifest

    def test_canonical_bytes(self, tmp_path):
        manifest = self.make()
        p1 = write_manifest(manifest, tmp_path / "m1.json")
        p2 = write_manifest(manifest, tmp_path / "m2.json")
        assert file_digest(p1) == file_digest(p2)
