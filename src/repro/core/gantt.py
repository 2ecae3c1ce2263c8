"""Gantt charts of Cashmere runs (the paper's Figs. 16-17).

The simulated cluster emits every CPU task, host<->device transfer, network
send and kernel execution on its event bus (:mod:`repro.obs`).  A Gantt bar
is an interval event with a lane and a kind in
:data:`~repro.obs.bus.INTERVAL_KINDS`.  Every helper here takes the
:class:`~repro.obs.bus.ObsEvent` stream as a bus or a list (callers pass
``cluster.obs``; the charts read it more than once) and slices it the way
the paper presents it: a zoomed-in multi-queue view of a couple of nodes
(Fig. 16), and a kernels-only overview of the whole run (Fig. 17).  Busy
time and utilization come from :func:`repro.obs.export.busy_time`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..obs.bus import INTERVAL_KINDS, ObsEvent

__all__ = ["bars", "span", "node_queues", "kernel_lanes", "gantt_zoomed",
           "gantt_overview", "render_gantt_ascii"]

#: one Gantt bar: (lane, kind, start, end)
Bar = Tuple[str, str, float, float]


def bars(events: Iterable[ObsEvent]) -> Iterator[Bar]:
    """The bars of an event stream, in emission order."""
    for ev in events:
        if (ev.lane is not None and ev.start is not None
                and ev.end is not None and ev.kind in INTERVAL_KINDS):
            yield ev.lane, ev.kind, ev.start, ev.end


def span(events: Iterable[ObsEvent]) -> float:
    """Time covered by any bar (the makespan of the chart)."""
    acts = list(bars(events))
    if not acts:
        return 0.0
    return max(e for _, _, _, e in acts) - min(s for _, _, s, _ in acts)


def node_queues(events: Iterable[ObsEvent], node_name: str) -> List[str]:
    """All lanes ('queues', in the paper's terminology) of one node, in
    order of first appearance."""
    lanes = dict.fromkeys(lane for lane, _, _, _ in bars(events))
    return [q for q in lanes
            if q == node_name or q.startswith(node_name + "/")]


def kernel_lanes(events: Iterable[ObsEvent]) -> List[str]:
    """Lanes that carry kernel executions (Fig. 17 keeps only these)."""
    return sorted({lane for lane, kind, _, _ in bars(events)
                   if kind == "kernel"})


def gantt_zoomed(events: Iterable[ObsEvent], node_names: Sequence[str],
                 t0: Optional[float] = None, t1: Optional[float] = None,
                 width: int = 100) -> str:
    """Fig. 16: all queues of selected nodes, zoomed to [t0, t1]."""
    lanes: List[str] = []
    for name in node_names:
        lanes.extend(node_queues(events, name))
    return render_gantt_ascii(events, width=width, queues=lanes, t0=t0, t1=t1)


def gantt_overview(events: Iterable[ObsEvent], width: int = 100) -> str:
    """Fig. 17: the whole run, kernel executions only."""
    return render_gantt_ascii(events, width=width, queues=kernel_lanes(events),
                              kinds=("kernel",))


_KIND_CHAR = {
    "kernel": "#",
    "h2d": ">",
    "d2h": "<",
    "send": "s",
    "recv": "r",
    "cpu": "=",
    "steal": "?",
}


def render_gantt_ascii(events: Iterable[ObsEvent], width: int = 100,
                       queues: Optional[Sequence[str]] = None,
                       t0: Optional[float] = None,
                       t1: Optional[float] = None,
                       kinds: Optional[Sequence[str]] = None) -> str:
    """Render the bars of an event stream as an ASCII Gantt chart.

    ``kinds`` restricts the chart to some kinds (the paper's Fig. 17 shows
    kernel executions only); ``t0``/``t1`` zoom in (Fig. 16).
    """
    acts = [b for b in bars(events) if kinds is None or b[1] in kinds]
    if not acts:
        return "(empty trace)"
    lo = min(s for _, _, s, _ in acts) if t0 is None else t0
    hi = max(e for _, _, _, e in acts) if t1 is None else t1
    if hi <= lo:
        return "(empty window)"
    by_lane: Dict[str, List[Bar]] = {}
    for bar in acts:
        by_lane.setdefault(bar[0], []).append(bar)
    lanes = queues if queues is not None else sorted(by_lane)
    label_w = max(len(q) for q in lanes) + 1
    scale = width / (hi - lo)
    lines = []
    header = " " * label_w + f"|{lo:.3f}s" + " " * max(0, width - 16) + f"{hi:.3f}s|"
    lines.append(header)
    for q in lanes:
        row = [" "] * width
        for _, kind, start, end in by_lane.get(q, ()):
            s = max(start, lo)
            e = min(end, hi)
            if e <= lo or s >= hi:
                continue
            i0 = int((s - lo) * scale)
            i1 = max(i0 + 1, int((e - lo) * scale))
            ch = _KIND_CHAR.get(kind, "*")
            for i in range(i0, min(i1, width)):
                row[i] = ch
        lines.append(q.ljust(label_w) + "|" + "".join(row) + "|")
    legend = "  ".join(f"{c}={k}" for k, c in _KIND_CHAR.items())
    lines.append(" " * label_w + legend)
    return "\n".join(lines)
