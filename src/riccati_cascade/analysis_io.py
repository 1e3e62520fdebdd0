"""CSV and manifest serialization for estimates, histograms, and grid functions.

All numeric payloads are written with 17 significant digits so a read-back
reproduces the exact float64 values, and manifests are canonical JSON
(sorted keys) so file digests are deterministic for a fixed seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .grid_numerics import GridFunction, UniformGrid
from .monte_carlo import EstimatePoint, EstimateSeries, Histogram

__all__ = [
    "RunManifest",
    "write_series_csv",
    "read_series_csv",
    "write_histogram_csv",
    "read_histogram_csv",
    "write_grid_function",
    "read_grid_function",
    "write_manifest",
    "load_manifest",
    "verify_manifest",
    "file_digest",
]


# grid-function rows formatted per write; bounds the text held at once
_ROWS_PER_WRITE = 4096


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _open_for_write(path: Path):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("w", newline="")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_series_csv(series: EstimateSeries, path) -> Path:
    """Write one `t,mean,stderr,n_samples` row per point."""
    path = Path(path)
    with _open_for_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "mean", "stderr", "n_samples"])
        for p in series.points:
            writer.writerow([_fmt(p.t), _fmt(p.mean), _fmt(p.stderr), p.n_samples])
    return path


def read_series_csv(path) -> EstimateSeries:
    """Read a series CSV back exactly."""
    path = Path(path)
    points = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["t", "mean", "stderr", "n_samples"]:
            raise ValueError(f"unexpected series header in {path}: {header}")
        for row in reader:
            points.append(EstimatePoint(float(row[0]), float(row[1]), float(row[2]), int(row[3])))
    return EstimateSeries(tuple(points))


def write_histogram_csv(hist: Histogram, path) -> Path:
    """Occupied unit bins as `bin_lo,bin_hi,count`, then summary footer rows."""
    path = Path(path)
    with _open_for_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count"])
        for value in sorted(hist.counts):
            writer.writerow([value, value + 1, hist.counts[value]])
        writer.writerow(["total", "", hist.total])
        writer.writerow(["truncated_count", "", hist.truncated_count])
        writer.writerow(["max_observed", "", hist.max_observed])
    return path


def read_histogram_csv(path, t: float = float("nan"), depth: int = -1) -> Histogram:
    path = Path(path)
    counts: dict[int, int] = {}
    footer: dict[str, int] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["bin_lo", "bin_hi", "count"]:
            raise ValueError(f"unexpected histogram header in {path}: {header}")
        for row in reader:
            if row[1] == "":
                footer[row[0]] = int(row[2])
            else:
                counts[int(row[0])] = int(row[2])
    return Histogram(
        t=t,
        depth=depth,
        counts=counts,
        total=footer["total"],
        truncated_count=footer["truncated_count"],
        max_observed=footer["max_observed"],
    )


def write_grid_function(f: GridFunction, path) -> Path:
    """CSV `t,value` plus a JSON sidecar `<path>.meta.json` with the grid
    parameters and the tail policy."""
    path = Path(path)
    with _open_for_write(path) as fh:
        # the rows csv.writer writes, formatted a block at a time
        fh.write("t,value\r\n")
        for lo in range(0, f.grid.node_count, _ROWS_PER_WRITE):
            rows = np.column_stack((f.grid.nodes[lo:lo + _ROWS_PER_WRITE],
                                    f.values[lo:lo + _ROWS_PER_WRITE]))
            fh.write(("%.17g,%.17g\r\n" * len(rows)) % tuple(rows.ravel().tolist()))
    meta = {
        "t_max": f.grid.t_max,
        "step": f.grid.step,
        "tail_value": f.tail_value,
        "range_bounds": f.range_bounds,
    }
    _sidecar_path(path).write_text(_canonical_json(meta) + "\n")
    return path


def _sidecar_path(path: Path) -> Path:
    """The JSON sidecar of the grid-function CSV at `path`."""
    return path.with_name(path.name + ".meta.json")


def read_grid_function(path) -> GridFunction:
    path = Path(path)
    meta = json.loads(_sidecar_path(path).read_text())
    values = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["t", "value"]:
            raise ValueError(f"unexpected grid-function header in {path}: {header}")
        values = [float(row[1]) for row in reader]
    grid = UniformGrid(meta["t_max"], meta["step"])
    return GridFunction(grid, np.array(values), meta["tail_value"], meta["range_bounds"])


@dataclass(frozen=True)
class RunManifest:
    """Provenance record for every emitted artifact.

    Two runs with identical configuration produce identical manifests except
    for the timestamp; the configuration digest names the output directory,
    so a rerun lands on (and must reproduce byte-identically) the same files.
    """

    tool_version: str
    command: str
    params: dict[str, object]
    timestamp: str
    outputs: dict[str, str]

    @classmethod
    def create(cls, command: str, params: dict[str, object]) -> "RunManifest":
        """`params` maps each flag the subcommand took (by its argparse dest)
        to its value, and `seed` to the resolved seed."""
        return cls(
            tool_version=__version__,
            command=command,
            params=dict(params),
            timestamp=datetime.now(timezone.utc).isoformat(),
            outputs={},
        )

    def config_digest(self) -> str:
        """Digest of everything except the timestamp and the output digests."""
        d = asdict(self)
        d.pop("timestamp")
        d.pop("outputs")
        return hashlib.sha256(_canonical_json(d).encode()).hexdigest()[:12]

    def with_outputs(self, paths: list[Path]) -> "RunManifest":
        outputs = {p.name: file_digest(p) for p in paths}
        return replace(self, outputs=dict(sorted(outputs.items())))


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(manifest: RunManifest, path) -> Path:
    path = Path(path)
    with _open_for_write(path) as fh:
        fh.write(_canonical_json(asdict(manifest)) + "\n")
    return path


def load_manifest(path) -> RunManifest:
    data = json.loads(Path(path).read_text())
    return RunManifest(**data)


def verify_manifest(path) -> list[str]:
    """Recompute the digest of every listed output; return the mismatches."""
    path = Path(path)
    manifest = load_manifest(path)
    problems = []
    for name, digest in manifest.outputs.items():
        target = path.parent / name
        if not target.exists():
            problems.append(f"missing output {name}")
        elif file_digest(target) != digest:
            problems.append(f"digest mismatch for {name}")
    return problems
