"""Benchmark regenerating Figs. 16/17: heterogeneous k-means Gantt charts."""

from conftest import record

from repro.core.gantt import span
from repro.experiments import run_experiment
from repro.obs.export import busy_time


def test_fig16_17(benchmark):
    result = benchmark.pedantic(lambda: run_experiment("fig16_17"),
                                rounds=1, iterations=1)
    record(result)
    # The K20 out-schedules the ~4x slower Phi on the shared node.
    assert result.extra["k20_jobs"] > 2 * result.extra["phi_jobs"]
    assert result.extra["phi_jobs"] > 0
    # Fig. 17: kernel execution is sustained across the whole run.
    events = result.extra["events"]
    lane = "node0/gtx480[0]/kernel"
    assert busy_time(events, ("kernel",), lane) / span(events) > 0.7
