"""Record the grid workload's reference values into grid_reference.json.

    PYTHONPATH=src:perfbench python3 perfbench/record_reference.py

Runs the `grid_sweep_fine` calls once at the full and the tiny step and
stores the sweep table and the residual maximum that the gates compare
against.  Run it only when a change to the numerics is deliberate.
"""

import json
import shutil
import tempfile
from pathlib import Path

from riccati_cascade import cli

from gates import GRID_REFERENCE, output_dir, residual_max, sweep_rows
from workloads import TINY_WORKLOADS, WORKLOADS


def record(workload) -> dict:
    runs = GRID_REFERENCE.parent.parent / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=runs))
    try:
        for argv in workload.argvs(0, out):
            if cli.main(argv) != 0:
                raise SystemExit(f"{argv[0]} failed")
        rows = [
            {"alpha": float(r["alpha"]), "q_estimate": float(r["q_estimate"]),
             "sup_gap": float(r["sup_gap"]), "n_iterations": int(r["n_iterations"]),
             "converged": r["converged"], "note": r["note"]}
            for r in sweep_rows(output_dir(out, "sweep") / "sweep.csv")
        ]
        residual = residual_max(output_dir(out, "residual") / "residual.csv", workload.alpha)
        return {"sweep": rows, "residual_max": residual}
    finally:
        shutil.rmtree(out)


if __name__ == "__main__":
    name = "grid_sweep_fine"
    table = {repr(t[name].step): record(t[name]) for t in (WORKLOADS, TINY_WORKLOADS)}
    GRID_REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
