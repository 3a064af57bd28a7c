#!/usr/bin/env python3
"""List the statements of the package that the test suite never runs.

The script runs pytest in this process under a line tracer (`sys.settrace`,
and `threading.settrace` for threads the tests start) that records the lines
executed in src/sccore, then reads each module's syntax tree and prints every
statement none of whose lines ran.  Definitions (`def`, `class`), imports
and docstrings are left out: they run at import, not under a test.  A test
that runs the package in a subprocess (`python -m sccore ...`) is not
traced, so a line that only such a test reaches is listed too.

A compound statement (if, for, while, with, try) counts as run when its
header ran; a simple statement spread over several lines when any of them ran.

Usage (from the repository root; extra arguments go to pytest):
  PYTHONPATH=src python scripts/reach.py [pytest args] > scripts/reach.txt

With no arguments it runs the tier-1 suite without the c11 round trip
(`test_c11_core_quotient_round_trip`, the slowest test, whose lines other
tests reach); traced, that takes minutes.
"""

from __future__ import annotations

import ast
import contextlib
import os
import platform
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sccore"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                "--deselect", "tests/test_acceptance.py::test_c11_core_quotient_round_trip"]
# statements that run at import or compile to nothing
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Global, ast.Nonlocal)


def trace_lines(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with pytest_args under the tracer: (exit code, file -> lines run)."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        # pytest's own report goes to stderr, so stdout holds the listing alone
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def _header_end(node: ast.stmt) -> int:
    """The last line of a statement that is its own and not a nested statement's."""
    nested = [child for field in ("body", "orelse", "finalbody", "handlers", "cases")
              for child in getattr(node, field, ()) or ()]
    if not nested:
        return node.end_lineno
    return max(node.lineno, min(child.lineno for child in nested) - 1)


def unreached(path: Path, lines_run: set[int]) -> list[tuple[int, str]]:
    """(line, source line) of every statement of the module at path that never ran."""
    source = path.read_text()
    text = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or _is_docstring(node):
            continue
        if not lines_run.intersection(range(node.lineno, _header_end(node) + 1)):
            out.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(out)


def main(argv: list[str]) -> int:
    args = argv or DEFAULT_ARGS
    start = time.perf_counter()
    code, ran = trace_lines(args)
    elapsed = time.perf_counter() - start
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        report += [(path.relative_to(ROOT), line, text)
                   for line, text in unreached(path, ran.get(str(path), set()))]
    print(f"# statements of src/sccore that no in-process test runs: {len(report)}")
    print(f"# pytest {' '.join(args)} (exit code {code}), traced in {elapsed:.0f} s")
    print(f"# Python {platform.python_version()} on {platform.system()} {platform.machine()}, "
          f"{os.cpu_count()} CPUs")
    print("# tests that run the package in a subprocess are not traced; def, class, imports and "
          "docstrings are left out")
    for rel, line, text in report:
        print(f"{rel}:{line}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
