"""Recorded MCPL pass corpus: what every compiler and verifier pass says
about every kernel in the repository, pinned.

The corpus kernels are every builtin kernel version
(:func:`repro.mcl.verify.cli.app_sources`) plus every string literal
containing ``foreach`` in ``tests/*.py`` and ``examples/*.py`` that parses
and passes semantic analysis.  For each kernel the corpus stores one sha256
over:

* the raw verifier findings (``verify_kernel(info)``, before suppression);
* the compiler feedback without parameters and with every scalar
  parameter bound to 64;
* the static cost analysis with the same parameters;
* the OpenCL of the kernel;
* for every level below the kernel's own that ``translate`` reaches: the
  feedback, cost and OpenCL of the translated kernel.

The verifier half is skipped for matmul's optimized versions, which took
about a minute each when the corpus was recorded;
``perfbench/golden_findings.json`` pins their findings, suppressed ones
included, and ``tests/interval_corpus.json`` their interval records.

Kernels are keyed by origin (app name or file), a hash of their source
text and ``name@level``, so moving a literal within a file or adding new
kernels leaves the recorded entries valid.  Re-recording
(``python tests/test_mcpl_pass_corpus.py --record``) is a conscious
re-golden and needs a changelog note.
"""

from __future__ import annotations

import ast as pyast
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.apps.matmul import MatmulApp
from repro.mcl import analyze_cost, generate_opencl, get_feedback, translate
from repro.mcl.compiler import TranslationError
from repro.mcl.hdl import builtin_library
from repro.mcl.mcpl import ast, parse_kernels
from repro.mcl.mcpl.lexer import McplSyntaxError
from repro.mcl.mcpl.semantics import McplSemanticError, analyze
from repro.mcl.verify import verify_kernel
from repro.mcl.verify.cli import app_sources

ROOT = Path(__file__).resolve().parent.parent
CORPUS_PATH = Path(__file__).with_name("mcpl_pass_corpus.json")


def _sources() -> Iterator[Tuple[str, str]]:
    """(origin, MCPL source) for every candidate source string."""
    for app, sources in app_sources().items():
        for source in sources:
            yield f"app:{app}", source
    files = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("examples/*.py"))
    for path in files:
        for node in pyast.walk(pyast.parse(path.read_text())):
            if isinstance(node, pyast.Constant) and isinstance(node.value, str) \
                    and "foreach" in node.value:
                yield path.relative_to(ROOT).as_posix(), node.value


def collect() -> Dict[str, Tuple[ast.Kernel, bool]]:
    """Corpus key -> (kernel, run the verifier on it)."""
    kernels: Dict[str, Tuple[ast.Kernel, bool]] = {}
    for origin, source in _sources():
        try:
            parsed = parse_kernels(source)
            for kernel in parsed:
                analyze(kernel)
        except (McplSyntaxError, McplSemanticError):
            continue
        tag = hashlib.sha256(source.encode()).hexdigest()[:12]
        verify = source != MatmulApp.KERNELS_OPTIMIZED
        for kernel in parsed:
            kernels[f"{origin}:{tag}:{kernel.name}@{kernel.level}"] = (kernel, verify)
    return kernels


def _translations(kernel: ast.Kernel) -> List[ast.Kernel]:
    out = []
    for level, hd in builtin_library().items():
        if level != kernel.level and hd.is_descendant_of(kernel.level):
            try:
                out.append(translate(kernel, level))
            except (TranslationError, McplSemanticError):
                continue
    return out


def _passes(kernel: ast.Kernel) -> tuple:
    """Feedback, cost and OpenCL of one kernel."""
    info = analyze(kernel)
    params = {p.name: 64 for p in kernel.scalar_params}
    try:
        cost = repr(analyze_cost(info, params))
    except Exception as exc:  # a failing pass is an outcome too
        cost = f"{type(exc).__name__}: {exc}"
    return (get_feedback(info), get_feedback(info, params), cost,
            generate_opencl(info))


def digest(kernel: ast.Kernel, verify: bool) -> str:
    findings = verify_kernel(analyze(kernel)) if verify else None
    state = (findings, _passes(kernel),
             [(t.level, _passes(t)) for t in _translations(kernel)])
    return hashlib.sha256(repr(state).encode()).hexdigest()


def _load() -> Dict[str, str]:
    return json.loads(CORPUS_PATH.read_text())["digests"]


def test_corpus_covers_every_builtin_kernel():
    recorded = _load()
    builtin = [key for key in collect() if key.startswith("app:")]
    assert len(builtin) >= 10
    assert set(builtin) <= set(recorded)
    assert len(recorded) >= 80


def test_pass_corpus_matches_recorded_digests():
    kernels = collect()
    recorded = _load()
    missing = sorted(set(recorded) - set(kernels))
    assert not missing, (
        f"{len(missing)} corpus kernels no longer exist (first: {missing[:5]}); "
        "re-record deliberately if they were changed on purpose")
    changed = [key for key, want in recorded.items()
               if digest(*kernels[key]) != want]
    assert not changed, (
        f"{len(changed)} kernels changed pass outputs (first: {changed[:5]})")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_mcpl_pass_corpus.py --record")
    CORPUS_PATH.write_text(json.dumps({
        "kernels": "tests/test_mcpl_pass_corpus.py:collect",
        "digests": {key: digest(kernel, verify)
                    for key, (kernel, verify) in sorted(collect().items())},
    }, indent=1) + "\n")
