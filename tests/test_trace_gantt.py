"""Tests for Gantt rendering from the observability event bus."""

import hashlib

import pytest

from repro.core.gantt import (
    bars,
    gantt_overview,
    gantt_zoomed,
    kernel_lanes,
    node_queues,
    render_gantt_ascii,
    span,
)
from repro.obs.bus import EventBus
from repro.obs.export import busy_time


def make_bus():
    bus = EventBus(enabled=True)
    bus.emit("kernel", lane="node0/gtx480[0]/kernel", start=0.0, end=2.0,
             label="k")
    bus.emit("kernel", lane="node0/gtx480[0]/kernel", start=3.0, end=4.0,
             label="k")
    bus.emit("h2d", lane="node0/gtx480[0]/h2d", start=0.5, end=1.0,
             label="in")
    bus.emit("cpu", lane="node1/cpu", start=1.0, end=1.5, label="steal")
    return bus


def test_record_and_query():
    bus = make_bus()
    assert len(list(bars(bus))) == 4
    lanes = [lane for lane, _, _, _ in bars(bus)]
    assert list(dict.fromkeys(lanes)) == ["node0/gtx480[0]/kernel",
                                          "node0/gtx480[0]/h2d", "node1/cpu"]
    assert len(bus.by_kind("kernel")) == 2
    assert bus.by_kind("cpu")[0].fields["label"] == "steal"


def test_bars_are_laned_events_of_interval_kinds():
    bus = make_bus()
    bus.emit("spawn", node=0)                                # point event
    bus.emit("kernel", start=0.0, end=1.0)                   # no lane
    bus.emit("kernel", lane="node2/gtx480[0]/kernel")        # no interval
    bus.emit("graph_node_complete", lane="node2/x", start=0.0, end=1.0)
    assert len(list(bars(bus))) == 4
    assert node_queues(bus, "node2") == []


def test_disabled_recorder_drops_everything():
    bus = EventBus()  # the bus is the one recorder; disabled by default
    bus.emit("kernel", lane="q", start=0.0, end=1.0)
    assert list(bars(bus)) == []
    assert span(bus) == 0.0
    assert render_gantt_ascii(bus) == "(empty trace)"


def test_span_and_busy_time():
    bus = make_bus()
    assert span(bus) == 4.0
    # kernel lane: [0,2] + [3,4] = 3.0 busy
    lane = "node0/gtx480[0]/kernel"
    assert busy_time(bus, ("kernel",), lane) == pytest.approx(3.0)
    assert busy_time(bus, ("kernel",), lane) / span(bus) == pytest.approx(0.75)


def test_busy_time_merges_overlapping_intervals():
    bus = EventBus(enabled=True)
    bus.emit("kernel", lane="q", start=0.0, end=2.0, label="a")
    bus.emit("kernel", lane="q", start=1.0, end=3.0, label="b")  # overlaps
    assert busy_time(bus, ("kernel",), "q") == pytest.approx(3.0)


def test_activity_duration():
    bus = EventBus(enabled=True)
    bar = bus.emit("kernel", lane="q", start=1.0, end=3.5)
    point = bus.emit("spawn", node=0)
    assert bar.duration == 2.5
    assert point.duration == 0.0


def test_render_ascii_basic():
    chart = render_gantt_ascii(make_bus(), width=40)
    assert "#" in chart       # kernel bars
    assert ">" in chart       # h2d bars
    assert "=" in chart       # cpu bars
    assert "node1/cpu" in chart


def test_render_empty_trace():
    assert render_gantt_ascii(EventBus(enabled=True)) == "(empty trace)"


def test_render_zoom_window():
    chart = render_gantt_ascii(make_bus(), width=40, t0=2.5, t1=3.5)
    # Only the second kernel interval is inside the window.
    lines = [l for l in chart.splitlines() if l.startswith("node0/gtx480[0]/kernel")]
    assert lines and "#" in lines[0]
    h2d = [l for l in chart.splitlines() if "/h2d" in l]
    assert h2d and ">" not in h2d[0]


def test_render_kind_filter():
    chart = render_gantt_ascii(make_bus(), width=40, kinds=("kernel",))
    assert "#" in chart
    assert "node1/cpu" not in chart


def test_render_window_past_all_activity_is_blank():
    chart = render_gantt_ascii(make_bus(), t0=10.0, t1=11.0, width=30)
    body = "\n".join(chart.splitlines()[1:-1])  # drop header + legend
    assert not any(ch in body for ch in "#><=?")


def test_render_degenerate_window_rejected():
    assert render_gantt_ascii(make_bus(), t0=5.0, t1=5.0) == "(empty window)"


def test_node_queues_and_kernel_lanes():
    bus = make_bus()
    assert node_queues(bus, "node0") == ["node0/gtx480[0]/kernel",
                                         "node0/gtx480[0]/h2d"]
    assert node_queues(bus, "node1") == ["node1/cpu"]
    assert kernel_lanes(bus) == ["node0/gtx480[0]/kernel"]


def test_gantt_helpers_render():
    bus = make_bus()
    assert "#" in gantt_overview(bus, width=30)
    zoomed = gantt_zoomed(bus, ["node0"], width=30)
    assert "node0/gtx480[0]/kernel" in zoomed
    assert "node1/cpu" not in zoomed


# ---------------------------------------------------------------------------
# golden: the ``repro trace`` demo's charts, pinned byte-for-byte
# ---------------------------------------------------------------------------

#: sha256 of the Fig. 17-style overview plus a Fig. 16-style zoom of node1
#: (the K20 + Xeon Phi node) for the seeded k-means demo, and its bar count
GOLDEN_DEMO_GANTT = (
    "b95edf30f67dfd00edbe739ea22a63b850cc87346a097f81e5080c0283d58999", 4043)


def test_golden_demo_gantt():
    from repro.apps.base import run_cashmere
    from repro.obs.cli import TRACE_APPS, demo_cluster

    app = TRACE_APPS["kmeans"]()
    _result, _runtime, cluster = run_cashmere(
        app, demo_cluster(), app.root_task(), optimized=True, seed=42,
        obs=True, return_runtime=True)
    bus = cluster.obs
    t = span(bus)
    text = (gantt_overview(bus, width=80)
            + gantt_zoomed(bus, ["node1"], t0=0.4 * t, t1=0.6 * t, width=80))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (digest, len(list(bars(bus)))) == GOLDEN_DEMO_GANTT
