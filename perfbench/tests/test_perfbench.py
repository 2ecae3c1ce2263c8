"""Fast tests of the benchmark itself, on tiny sizes of every workload.

Run from the repository root::

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from layers import Spans, classify  # noqa: E402
from workloads import WORKLOADS, fingerprint, mcl_versions  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 20261017


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(autouse=True)
def _small_isolated_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path / "trace")
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _run(name, trace, seed=5):
    return run.run_workload(name, seed, 0.0, trace, size="tiny")


def _pass(name, seed=5):
    workload = WORKLOADS[name](seed, "tiny")
    workload.build(Spans(False))
    return workload, workload.execute(Spans(False))


def test_spec_names_every_workload_and_kernel_version():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    versions = {n.split("mcl.verify_s.", 1)[1] for n in _units("per_layer")
                if n.startswith("mcl.verify_s.")}
    assert versions == set(mcl_versions())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics_with_units(name):
    result = _run(name, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_per_layer_metrics_with_units(name):
    result = _run(name, trace=True)
    assert result["correct"] and result["failed"] == 0
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _units("per_layer")
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    written = json.loads(
        (run.TRACE_DIR / f"trace-{name}-seed5.json").read_text())
    assert written["spans"]["traced_pass"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_held_out_seed_repeats_exactly(name):
    stats = []
    for _ in range(2):
        workload, raw = _pass(name, HELD_OUT_SEED)
        stats.append(workload.stats(raw))
        assert all(ok for _, ok in workload.checks(raw))
    assert fingerprint(stats[0]) == fingerprint(stats[1])
    if name == "cashmere-kmeans":
        assert stats[0]["obs.sha256"] == stats[1]["obs.sha256"]


def test_seed_draws_the_inputs():
    a = WORKLOADS["cashmere-kmeans"](1, "tiny")
    b = WORKLOADS["cashmere-kmeans"](2, "tiny")
    for w in (a, b):
        w.build(Spans(False))
    assert not np.array_equal(a.initial, b.initial)


def test_satin_check_catches_wrong_counts():
    workload, (cluster, stats) = _pass("satin-raytracer")
    jobs, leaves = workload.geometry()
    fake = SimpleNamespace(total_leaves=leaves - 1, total_jobs=jobs)
    assert not all(ok for _, ok in workload.checks((cluster, fake)))
    fake = SimpleNamespace(total_leaves=leaves, total_jobs=jobs + 1)
    assert not all(ok for _, ok in workload.checks((cluster, fake)))


def test_kmeans_check_catches_wrong_centroids():
    workload, (cluster, stats, centroids) = _pass("cashmere-kmeans")
    bad = centroids.copy()
    bad[0, 0] += 1e-6
    assert not all(ok for _, ok in workload.checks((cluster, stats, bad)))


def test_graph_check_catches_missing_node_and_bad_lane():
    workload, runs = _pass("graph-dag")
    graph, cluster, result = runs[0]
    short = SimpleNamespace(nodes_run=result.nodes_run - 1,
                            placements=result.placements)
    assert not all(ok for _, ok in workload.checks([(graph, cluster, short)]))
    placements = dict(result.placements)
    placements[next(iter(placements))] = "node99/nowhere[0]"
    moved = SimpleNamespace(nodes_run=result.nodes_run, placements=placements)
    assert not all(ok for _, ok in workload.checks([(graph, cluster, moved)]))


def test_lint_check_catches_changed_findings():
    workload, found = _pass("mcl-lint")
    version = next(v for v, fs in found.items() if fs)
    dropped = dict(found, **{version: found[version][1:]})
    assert not all(ok for _, ok in workload.checks(dropped))
    error = {"code": "MCL201", "line": 1, "message": "injected",
             "severity": "error", "suppressed": False}
    extra = dict(found, **{version: found[version] + [error]})
    failed = [label for label, ok in workload.checks(extra) if not ok]
    assert "no unsuppressed errors" in failed


def test_classify_attributes_modules_to_layers():
    assert classify("/x/src/repro/sim/engine.py", "run") == "sim"
    assert classify("/x/site-packages/numpy/core/fromnumeric.py", "sum") \
        == "numpy"
    assert classify("~", "<method 'reduce' of 'numpy.ufunc' objects>") \
        == "numpy"
    assert classify("/usr/lib/python3.11/heapq.py", "heappush") == "python"


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graph-dag",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
