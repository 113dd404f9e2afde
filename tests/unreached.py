#!/usr/bin/env python3
"""List the executable ``src`` statements that the tier-1 suite never runs.

    python tests/unreached.py [PYTEST_ARG ...]

Runs pytest in this process (by default the tier-1 suite with
``--hypothesis-seed=0``; any arguments replace the default ones) under a
``sys.settrace`` line tracer that follows only frames of ``src/sdnsim``. It
then prints each statement of ``src/sdnsim`` that ran no line, as
``path:line: text``, and a count. A statement counts as run if any line of
its own text ran: for a compound statement (``if``, ``for``, ``def``...)
that is its header, from its first line (or first decorator) to the line
before its body, so a multi-line condition that is evaluated from its
second line on is not reported. Docstrings and ``try`` headers, which run
no line of their own, are left out. Code that the suite runs in a
subprocess is not traced.

This is not part of the tier-1 suite, and uses only the standard library
beside pytest. It exits with pytest's status. The tracer slows the suite
about twice, so ``test_criterion_9_suite_runtime``, which bounds the
suite's own time, may fail under it; the listing is complete either way.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sdnsim"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                str(ROOT / "tests"), str(ROOT / "perfbench")]


def _is_docstring(stmt: ast.stmt, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
            and body and stmt is body[0] and isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str))


def statements(path: Path) -> dict[int, range]:
    """Each executable statement of ``path`` by its first line, with the
    lines that belong to it alone."""
    tree = ast.parse(path.read_text(), str(path))
    spans = {}
    for parent in ast.walk(tree):
        for stmt in ast.iter_child_nodes(parent):
            if not isinstance(stmt, ast.stmt) or isinstance(stmt, ast.Try):
                continue
            if _is_docstring(stmt, parent):
                continue
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
            body = getattr(stmt, "body", None)
            last = body[0].lineno - 1 if isinstance(body, list) and body else stmt.end_lineno
            spans[first] = range(first, max(first, last) + 1)
    return spans


def main(argv: list[str]) -> int:
    src = str(SRC)
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(src):
            return None
        ran.setdefault(filename, set())
        return local

    sys.settrace(trace)
    try:
        code = pytest.main(argv or DEFAULT_ARGS)
    finally:
        sys.settrace(None)

    unreached = total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = ran.get(str(path), set())
        text = path.read_text().splitlines()
        for first, span in sorted(statements(path).items()):
            total += 1
            if lines.isdisjoint(span):
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
    print(f"{unreached} of {total} executable statements never ran")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
