"""Reach report: which src statements the tier-1 tests, or the generated
valid runs, never run.

Runs pytest in this process under a stdlib `sys.settrace` line tracer that
records the lines executed in `src/faultdir/*.py`, then prints, per file,
the statement lines no test reached, as ranges. A statement counts as
reached when a line event fires on its first line; docstrings are not
statements here. The module is named so that pytest does not collect it.

    PYTHONPATH=src python tests/reach.py            # the whole tier-1 suite
    PYTHONPATH=src python tests/reach.py tests/test_graph.py -x
    PYTHONPATH=src python tests/reach.py --corpus   # the 271 corpus runs

Arguments are passed to pytest. With `--corpus` it runs, instead of
pytest, each scenario of `tests/golden/corpus.py` as its `outcome` does:
the run, the artifact writer and the bound check. So a statement that
the suite reaches but the corpus does not is reached only by tests that
drive the code directly, not by any generated valid run. Tracing makes
either several times slower; the report is printed even when tests fail
or a run raises.
"""
from __future__ import annotations

import ast
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "faultdir")


def statement_lines(path: str) -> set[int]:
    """First lines of the statements in a source file, docstrings excluded."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        lines.add(node.lineno)
    return lines


def ranges(lines: list[int]) -> str:
    out = []
    for x in lines:
        if out and x == out[-1][1] + 1:
            out[-1][1] = x
        else:
            out.append([x, x])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def run_corpus() -> int:
    """Every corpus scenario's outcome, as `corpus.py` computes it; 0 when
    each run finished, else 1 (a crash is part of an outcome)."""
    from golden.corpus import SCENARIOS, outcome

    with tempfile.TemporaryDirectory() as work_dir:
        crashed = sum("error" in outcome(name, work_dir)
                      for name in sorted(SCENARIOS))
    print(f"{len(SCENARIOS)} corpus runs, {crashed} raised")
    return 1 if crashed else 0


def main(argv: list[str]) -> int:
    import pytest

    hit: dict[str, set[int]] = {}
    # code file name -> its lines in `hit`, or None outside src; names are
    # resolved on first sight, at import, before any test changes directory
    files: dict[str, set[int] | None] = {}

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.abspath(name)
            files[name] = hit.setdefault(path, set()) \
                if os.path.dirname(path) == SRC else None
        lines = files[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    os.chdir(ROOT)
    sys.settrace(global_)
    try:
        if argv == ["--corpus"]:
            rc = run_corpus()
        else:
            rc = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
    total = unreached = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        want = statement_lines(path)
        missed = sorted(want - hit.get(path, set()))
        total += len(want)
        unreached += len(missed)
        print(f"src/faultdir/{name}: {len(missed)} of {len(want)} unreached"
              + (f": {ranges(missed)}" if missed else ""))
    print(f"total: {unreached} of {total} statements unreached")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
