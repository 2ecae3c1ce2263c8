"""Per-layer tracing for the benchmark: spans plus cProfile self time.

Two instruments, both kept in memory until the run ends:

* :class:`Spans` — named host-time intervals the benchmark records around
  its own calls into each layer's public functions (``mcl.parse``,
  ``mcl.verify.<app>-<level>``, ``graph.run.<graph>``, ...).  A span's
  parent is the span open when it started.
* :func:`layer_profile` — attributes every function's cProfile self time
  to a layer by its module path: ``src/repro/<layer>/...`` belongs to
  ``<layer>``, numpy code and numpy C methods to ``numpy``, the rest of
  the interpreter and stdlib to ``python``, and this directory's own
  files to ``bench``.
"""

from __future__ import annotations

import cProfile
import pstats
import re
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "Spans", "layer_profile", "classify"]

#: layers of the repro package that the benchmark reports self time for
LAYERS = ("sim", "satin", "core", "devices", "cluster", "graph", "apps",
          "obs", "mcl")

_REPRO = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")
_BENCH_DIR = re.compile(r"[/\\]perfbench[/\\]")


class Spans:
    """In-memory span recorder; a no-op when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: (name, start, end, parent index or None), in start order
        self.records: List[Tuple[str, float, float, Optional[int]]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        index = len(self.records)
        self.records.append((name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            name, start, _, parent = self.records[index]
            self.records[index] = (name, start, time.perf_counter(), parent)

    def totals(self) -> Dict[str, float]:
        """Summed duration per span name."""
        out: Dict[str, float] = {}
        for name, start, end, _ in self.records:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def to_json(self) -> List[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.records]


def classify(filename: str, funcname: str) -> str:
    """The layer one cProfile entry's self time belongs to."""
    match = _REPRO.search(filename)
    if match:
        return match.group(1)
    if "numpy" in filename or "numpy" in funcname:
        return "numpy"
    if _BENCH_DIR.search(filename):
        return "bench"
    return "python"


def layer_profile(profiler: cProfile.Profile
                  ) -> Tuple[Dict[str, float],
                             Dict[Tuple[str, str], Tuple[int, float]]]:
    """(self s per layer, (layer, function name) -> (calls, cumulative s)).

    The second map lets the caller read call counts and inclusive time of
    named public functions such as ``DeviceScheduler.choose``.
    """
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    self_s: Dict[str, float] = {}
    calls: Dict[Tuple[str, str], Tuple[int, float]] = {}
    for (filename, _line, funcname), (_cc, nc, tt, ct, _callers) in stats.items():
        layer = classify(filename, funcname)
        self_s[layer] = self_s.get(layer, 0.0) + tt
        prev_calls, prev_ct = calls.get((layer, funcname), (0, 0.0))
        calls[(layer, funcname)] = (prev_calls + nc, prev_ct + ct)
    return self_s, calls
