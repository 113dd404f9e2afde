#!/usr/bin/env python3
"""List the executable ``src`` statements that the tier-1 suite, or every
CLI run, never runs.

    python tests/unreached.py [PYTEST_ARG ...]
    python tests/unreached.py --cli

The first form runs pytest in this process (by default the tier-1 suite
with ``--hypothesis-seed=0``; any arguments replace the default ones) under
a ``sys.settrace`` line tracer that follows only frames of ``src/sdnsim``,
and exits with pytest's status. The tracer slows the suite about twice, so
``test_criterion_9_suite_runtime``, which bounds the suite's own time, may
fail under it; the listing is complete either way.

With ``--cli``, the same tracer follows ``cli.main`` in this process
instead: ``sdnsim run`` on each scenario of ``tests/ladder.py``'s
``SCENARIOS``, ``sdnsim init-config`` to stdout and to a file, and ``sdnsim
run`` on each config-error document that ``tests/test_cli.py`` lists (its
``doc, message`` table and the documents of ``VALUE_ERRORS``, read from its
source). A statement that only this listing holds is run by tests alone.
It exits 1 if a scenario does not exit 0 or an error document does not
exit 2.

Either way it then prints each statement of ``src/sdnsim`` that ran no
line, as ``path:line: text``, and a count. A statement counts as run if any
line of its own text ran: for a compound statement (``if``, ``for``,
``def``...) that is its header, from its first line (or first decorator) to
the line before its body, so a multi-line condition that is evaluated from
its second line on is not reported. Docstrings and ``try`` headers, which
run no line of their own, are left out. Code run in a subprocess is not
traced.

This is not part of the tier-1 suite. It uses only the standard library,
beside pytest in the first form.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

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


def traced(call):
    """``call()``'s result, and the lines of ``src/sdnsim`` that ran in it,
    by file."""
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
        result = call()
    finally:
        sys.settrace(None)
    return result, ran


def config_errors() -> list[dict]:
    """The config-error documents of ``tests/test_cli.py``: the first column
    of its ``doc, message`` table and the last item of each value of
    ``VALUE_ERRORS``."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    docs = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and len(node.args) == 2
                and isinstance(node.args[0], ast.Constant) and node.args[0].value == "doc, message"):
            docs += [doc for doc, _ in ast.literal_eval(node.args[1])]
        elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "VALUE_ERRORS":
            docs += [ast.literal_eval(value.elts[-1]) for value in node.value.values]
    return docs


def cli_runs() -> int:
    """Run ``cli.main`` over the ladder, ``init-config`` and the config
    errors; the number of runs that did not exit as they should."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    from ladder import SCENARIOS
    from sdnsim.cli import EXIT_CONFIG, EXIT_OK, main

    wrong = 0
    with tempfile.TemporaryDirectory(prefix="sdnsim-unreached-") as tmp:
        tmp = Path(tmp)
        config, out = tmp / "scenario.json", tmp / "out"
        runs = [(f"init-config {args}", ["init-config", *args], EXIT_OK, None)
                for args in ([], ["--out", str(tmp / "reference.json")])]
        runs += [(name, ["run", "--config", str(config), "--out", str(out)], EXIT_OK, doc)
                 for name, doc in SCENARIOS.items()]
        runs += [(json.dumps(doc), ["run", "--config", str(config)], EXIT_CONFIG,
                  {"output_dir": str(out), **doc}) for doc in config_errors()]
        for name, argv, expected, doc in runs:
            if doc is not None:
                config.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            if code != expected:
                wrong += 1
                print(f"{name}: exit {code}, expected {expected}")
    print(f"{len(runs)} CLI runs, {wrong} with an unexpected exit code")
    return wrong


def main(argv: list[str]) -> int:
    if argv == ["--cli"]:
        wrong, ran = traced(cli_runs)
        code = 1 if wrong else 0
    else:
        import pytest

        code, ran = traced(lambda: int(pytest.main(argv or DEFAULT_ARGS)))

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
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
