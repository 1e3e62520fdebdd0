"""The benchmark's traced pass at its small sizes, in process.

`perfbench/` is read, never changed: each small workload runs its serial
calls with every layer wrapped by the benchmark's tracer, as the traced
benchmark run does, and then computes the per-layer metrics from the trace.
A call that raises or exits nonzero fails here before it fails a benchmark.
"""

import json
import os
from pathlib import Path

import pytest

from riccati_cascade import cli, monte_carlo

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in [k for k in os.environ if k.startswith("RICCATI_")]:
        monkeypatch.delenv(name)
    import gates
    import tracer
    import worker
    import workloads

    return gates, tracer, worker, workloads


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_small_workload_exits_0(perfbench, tmp_path, monkeypatch, name):
    gates, tracer, worker, workloads = perfbench
    assert set(workloads.TINY_WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}
    monkeypatch.setenv("TMPDIR", str(tmp_path))  # `check` makes temporary files
    w = workloads.TINY_WORKLOADS[name].serial()
    unwrapped = dict(vars(monte_carlo))
    t = tracer.Tracer()
    t.install()
    try:
        _, outcomes = worker.run_pass(lambda argv: t.call_cli(cli.main, argv),
                                      w.argvs(907, tmp_path))
    finally:
        t.uninstall()
    assert vars(monte_carlo) == unwrapped
    assert [(argv[0], rc) for argv, rc, _ in outcomes] == [(c[0], 0) for c in w.calls], [
        out[-2000:] for _, rc, out in outcomes if rc]
    tally = worker.Tally(gates.Gates(w))
    tally.gate(outcomes, tmp_path)
    assert tally.failed == 0, tally.problems

    metrics = worker.layer_metrics(t, w)
    metrics["grid_numerics.kernel_ns_per_node"] = worker.kernel_ns_per_node(w, min_seconds=0)
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(metrics) <= declared
    assert all(v >= 0 for v in metrics.values()), metrics
