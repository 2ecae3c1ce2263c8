"""Work bounds of the interval analysis, counted rather than timed.

A loop's fixpoint runs its body a few times and an inner loop's fixpoint
runs inside each of those trips, so without per-loop summaries the work
grows geometrically with loop depth (3,281 evaluations of the innermost
statement of a seven-deep ``for`` nest).  These tests count evaluations
through a patched method, so they fail on code that redoes work and pass
on a slow host.
"""

from __future__ import annotations

import pytest

from repro.apps.matmul import KERNELS_MIC
from repro.mcl.mcpl import ast, parse_kernels
from repro.mcl.mcpl.semantics import analyze
from repro.mcl.verify.intervals import IntervalAnalysis, analyze_intervals


def nested_for_source(depth: int) -> str:
    """A kernel whose accumulator update sits under ``depth`` for loops."""
    lines = ["perfect void deep(int n, float[n] a) {", "  int s = 0;"]
    for d in range(depth):
        pad = "  " * (d + 1)
        lines.append(f"{pad}for (int i{d} = 0; i{d} < n; i{d}++) {{")
    lines.append("  " * (depth + 1) + f"s = s + i{depth - 1};")
    lines += ["  " * (d + 1) + "}" for d in reversed(range(depth))]
    lines += ["  a[0] = s;", "}"]
    return "\n".join(lines)


@pytest.mark.parametrize("depth", range(1, 8))
def test_innermost_statement_work_is_linear_in_loop_depth(depth, monkeypatch):
    kernel = parse_kernels(nested_for_source(depth))[0]
    info = analyze(kernel)
    innermost = [s for s in ast.walk_stmts(kernel.body)
                 if isinstance(s, ast.Assign)
                 and isinstance(s.target, ast.Var) and s.target.name == "s"]
    assert len(innermost) == 1
    evaluations = 0
    stmt = IntervalAnalysis._stmt

    def counting(self, node, env, facts):
        nonlocal evaluations
        if node is innermost[0]:
            evaluations += 1
        return stmt(self, node, env, facts)

    monkeypatch.setattr(IntervalAnalysis, "_stmt", counting)
    analysis = analyze_intervals(info)
    assert analysis.accesses
    assert evaluations <= 16 * depth


def test_matmul_mic_loop_fixpoints_are_bounded(monkeypatch):
    calls = 0
    loop_body_fix = IntervalAnalysis._loop_body_fix

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return loop_body_fix(self, *args, **kwargs)

    monkeypatch.setattr(IntervalAnalysis, "_loop_body_fix", counting)
    analyze_intervals(analyze(parse_kernels(KERNELS_MIC)[0]))
    # 427 here; the fixpoint without per-loop summaries makes 4,552.
    assert calls <= 1000
