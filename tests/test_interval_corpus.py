"""Recorded interval corpus: what the symbolic interval analysis records
for every kernel in the repository, pinned.

The corpus kernels are those of the MCPL pass corpus
(:func:`test_mcpl_pass_corpus.collect`): every builtin kernel version,
matmul's optimized versions included, plus every ``foreach`` string
literal in ``tests/*.py`` and ``examples/*.py`` that parses and passes
semantic analysis.  For each kernel the corpus stores one sha256 over
``analyze_intervals(info).accesses`` in list order: for every access its
array, line and write flag, for every dimension the subscript's source,
the ``repr`` of each lower and upper bound candidate and the subscript's
polynomial, and then the guard facts active at the access.

This is the exactness oracle of the interval analysis's cost
optimizations (per-loop summaries, integer coefficients): any change to a
bound candidate, to candidate order or to the recorded accesses shows up
here before it reaches a finding.  A second test checks every loop
summary the analysis uses against the fixpoint it stands for, output
environment and all, which also covers names that no recorded access
reads (a local or ``foreach`` variable the loop declares but never uses,
as in :data:`UNUSED_NAMES`).  Re-recording
(``python tests/test_interval_corpus.py --record``) is a conscious
re-golden and needs a changelog note.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

from repro.mcl.mcpl import ast
from repro.mcl.mcpl.semantics import analyze
from repro.mcl.verify.intervals import IntervalAnalysis, analyze_intervals

from test_mcpl_pass_corpus import collect

CORPUS_PATH = Path(__file__).with_name("interval_corpus.json")

#: loops that declare a local and a parallel variable and never read them;
#: a corpus kernel like every ``foreach`` literal in ``tests/*.py``
UNUSED_NAMES = """
perfect void unused_names(int n, float[n] a) {
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < i; j++) {
      int t = j;
      foreach (int u in j threads) {
        a[i] = 0.0;
      }
    }
  }
}
"""


def kernels() -> Dict[str, ast.Kernel]:
    return {key: kernel for key, (kernel, _) in collect().items()}


def digest(kernel: ast.Kernel) -> str:
    state = []
    for rec in analyze_intervals(analyze(kernel)).accesses:
        dims = [(str(idx), [repr(lo) for lo in iv.los],
                 [repr(hi) for hi in iv.his], repr(poly))
                for idx, iv, poly in rec.dims]
        facts = [(repr(lhs), repr(bound)) for lhs, bound in rec.facts]
        state.append((rec.array, rec.line, rec.write, dims, facts))
    return hashlib.sha256(repr(state).encode()).hexdigest()


def _load() -> Dict[str, str]:
    return json.loads(CORPUS_PATH.read_text())["digests"]


def test_interval_corpus_covers_every_builtin_kernel():
    recorded = _load()
    builtin = [key for key in kernels() if key.startswith("app:")]
    assert len(builtin) >= 10
    assert any(key.endswith(":matmul@mic") for key in builtin)
    assert set(builtin) <= set(recorded)
    assert len(recorded) >= 80


def test_interval_corpus_matches_recorded_digests():
    current = kernels()
    recorded = _load()
    missing = sorted(set(recorded) - set(current))
    assert not missing, (
        f"{len(missing)} corpus kernels no longer exist (first: {missing[:5]}); "
        "re-record deliberately if they were changed on purpose")
    changed = [key for key, want in recorded.items()
               if digest(current[key]) != want]
    assert not changed, (
        f"{len(changed)} kernels changed interval records "
        f"(first: {changed[:5]})")


def test_loop_summaries_equal_the_fixpoints_they_replace(monkeypatch):
    loop_body_fix = IntervalAnalysis._loop_body_fix
    checked = 0

    def checking(self, body, env, facts, cond, step, pinned=()):
        nonlocal checked
        out = loop_body_fix(self, body, env, facts, cond, step, pinned)
        if not self.record:
            assert out == self._fixpoint(body, env, facts, cond, step, pinned)
            checked += 1
        return out

    monkeypatch.setattr(IntervalAnalysis, "_loop_body_fix", checking)
    for kernel in kernels().values():
        analyze_intervals(analyze(kernel))
    assert checked > 1000


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_interval_corpus.py --record")
    CORPUS_PATH.write_text(json.dumps({
        "kernels": "tests/test_mcpl_pass_corpus.py:collect",
        "digests": {key: digest(kernel)
                    for key, kernel in sorted(kernels().items())},
    }, indent=1) + "\n")
