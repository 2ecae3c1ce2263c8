#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload satin-raytracer --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

A run sets the workload up ``SETUP_REPEATS`` times (a fresh interpreter
times the imports; this process times the build; a traced run sets up
once), then runs timed passes
until ``--seconds`` have gone by, at least one.  Every pass's outputs are
checked and its simulated statistics must equal the first pass's.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
passes with spans on, then one more pass under cProfile, and reports the
per-layer metrics; spans and layer attribution are written to
``.perfbench/trace-<workload>-seed<seed>.json`` when the run ends.

``--workload all`` runs every workload in its own process and prints each
end-to-end metric with its unit, plus ``error_rate`` (failed / attempted
output checks).

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

from layers import LAYERS, Spans, layer_profile
from workloads import WORKLOADS, fingerprint, mcl_versions

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 5
#: layers whose cProfile self time is reported as ``<layer>.self_s``
SELF_TIME_LAYERS = LAYERS + ("numpy", "python")
#: simulated counts reported as they are (0 where a layer is not used)
COUNTS = {
    "sim.events": "count", "sim.net_messages": "count",
    "sim.net_bytes": "bytes",
    "satin.jobs": "count", "satin.leaves": "count",
    "satin.steal_attempts": "count", "satin.steal_success_ratio": "ratio",
    "satin.results_returned": "count",
    "obs.events": "count",
    "graph.nodes_run": "count", "graph.cross_device_bytes": "bytes",
    "devices.launches": "count", "devices.h2d_bytes": "bytes",
    "devices.d2h_bytes": "bytes", "devices.kernel_busy_frac": "ratio",
    "devices.transfer_busy_frac": "ratio",
    "mcl.kernels": "count", "mcl.findings": "count",
}
#: (metric prefix, layer, function): calls and inclusive time from cProfile
PROFILED_CALLS = (("apps.leaf_batch", "apps", "leaf_batch"),
                  ("core.choose", "core", "choose"))


def import_seconds(modules: Tuple[str, ...]) -> float:
    """Seconds a fresh interpreter takes to import ``modules``."""
    code = ("import time; t = time.perf_counter(); import "
            + ", ".join(modules) + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1])


def setup(workload: Any, repeats: int, tracing: bool
          ) -> Tuple[float, List[Spans]]:
    """Median set-up seconds over ``repeats``, and each repeat's spans."""
    for module in workload.modules:
        importlib.import_module(module)
    samples: List[float] = []
    spans_per_repeat = []
    for _ in range(repeats):
        imports = import_seconds(workload.modules)
        spans = Spans(tracing)
        start = time.perf_counter()
        workload.build(spans)
        samples.append(imports + time.perf_counter() - start)
        spans_per_repeat.append(spans)
    return statistics.median(samples), spans_per_repeat


def run_pass(workload: Any, spans: Any, profiler: Any = None
             ) -> Tuple[float, Dict[str, Any], List[Tuple[str, bool]]]:
    """(wall seconds, simulated stats, output checks) of one pass."""
    gc.collect()  # no pass pays for the previous pass's garbage
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    raw = workload.execute(spans)
    if profiler is not None:
        profiler.disable()
    wall = time.perf_counter() - start
    return wall, workload.stats(raw), workload.checks(raw)


def _median_span(spans_list: List[Any], name: str) -> float:
    return statistics.median(s.totals().get(name, 0.0) for s in spans_list)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> Dict[str, Any]:
    """One benchmark run; returns the result object the CLI prints."""
    workload = WORKLOADS[name](seed, size)
    # Set-up repeats only to take setup_s's median, which a traced run
    # does not report.
    setup_s, setup_spans = setup(workload, 1 if trace else SETUP_REPEATS,
                                 trace)

    walls: List[float] = []
    pass_spans: List[Any] = []
    first_stats: Dict[str, Any] = {}
    checks: List[Tuple[str, bool]] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        spans = Spans(trace)
        wall, stats, pass_checks = run_pass(workload, spans)
        if not walls:
            first_stats = stats
        else:
            pass_checks.append((f"pass {len(walls)} repeats pass 0 stats",
                                stats == first_stats))
        walls.append(wall)
        pass_spans.append(spans)
        checks.extend(pass_checks)
    wall_s = statistics.median(walls)

    if not trace:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss / 1024.0, "MB"),  # ru_maxrss is in KiB
            "sim_makespan_s": (first_stats["sim_makespan_s"], "s"),
        }
    else:
        profiler = cProfile.Profile()
        traced = Spans(True)
        traced_wall, stats, pass_checks = run_pass(workload, traced, profiler)
        pass_checks.append(("traced pass repeats pass 0 stats",
                            stats == first_stats))
        checks.extend(pass_checks)
        self_s, calls = layer_profile(profiler)
        metrics = {f"{layer}.self_s": (self_s.get(layer, 0.0), "s")
                   for layer in SELF_TIME_LAYERS}
        metrics.update({key: (first_stats.get(key, 0), unit)
                        for key, unit in COUNTS.items()})
        metrics["sim.events_per_s"] = (
            first_stats.get("sim.events", 0) / wall_s, "1/s")
        for prefix, layer, func in PROFILED_CALLS:
            n, cum = calls.get((layer, func), (0, 0.0))
            metrics[f"{prefix}_calls"] = (n, "count")
            metrics[f"{prefix}_s"] = (cum, "s")
        metrics["graph.select_s"] = (
            calls.get(("core", "graph_select"), (0, 0.0))[1], "s")
        metrics["mcl.compile_s"] = (_median_span(setup_spans, "mcl.compile"),
                                    "s")
        metrics["mcl.parse_s"] = (_median_span(pass_spans, "mcl.parse"), "s")
        versions = {v: _median_span(pass_spans, f"mcl.verify.{v}")
                    for v in mcl_versions()}
        metrics["mcl.verify_s"] = (sum(versions.values()), "s")
        for version, value in versions.items():
            metrics[f"mcl.verify_s.{version}"] = (value, "s")
        metrics["trace.overhead_ratio"] = (traced_wall / wall_s, "ratio")
        _write_trace(name, seed, setup_spans, pass_spans, traced, self_s,
                     metrics)

    failed = [label for label, ok in checks if not ok]
    for label in failed:
        print(f"perfbench: {name}: check failed: {label}")
    print(f"perfbench: {name} seed={seed} passes={len(walls)} "
          f"stats={fingerprint(first_stats)}")
    return {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


def _write_trace(name: str, seed: int, setup_spans: List[Any],
                 pass_spans: List[Any], traced: Any,
                 self_s: Dict[str, float], metrics: Dict[str, Any]) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    record = {
        "workload": name, "seed": seed,
        "spans": {"setup": [s.to_json() for s in setup_spans],
                  "passes": [s.to_json() for s in pass_spans],
                  "traced_pass": traced.to_json()},
        "self_s": self_s,
        "metrics": {k: v for k, (v, _unit) in metrics.items()},
    }
    path = TRACE_DIR / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and print a metric table."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if trace else "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        error_rate = result["failed"] / result["attempted"]
        status |= int(error_rate > 0)
        for key, metric in result["metrics"].items():
            print(f"{name:16s} {key:34s} {metric['value']:>16.6g} "
                  f"{metric['unit']}")
        print(f"{name:16s} {'error_rate':34s} {error_rate:>16.6g} "
              f"ratio ({result['failed']}/{result['attempted']} checks)")
    return status


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}, all")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
