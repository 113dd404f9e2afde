"""Every module-level import in ``src/sdnsim`` is used by its module, and
the layers stay apart.

Only the standard library is needed. A name bound by an import at module
level must be read somewhere in the module, or be listed in its
``__all__``. Only ``cli`` knows the report's format, so no other module
gives a class a ``to_dict`` or ``dump`` method; and the engine's layers
load no numpy, which only the analytics need.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sdnsim"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_has_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_check_finds_an_unused_import():
    source = "import os, json as j\nfrom .topology import NodeId, NodeKind\n"
    source += "__all__ = ['NodeKind']\nprint(os.sep)\n"
    assert unused_imports(source) == ["line 1: j", "line 2: NodeId"]


def report_methods(source: str) -> list[str]:
    """Methods named ``to_dict`` or ``dump``: a report form of a class."""
    return [f"{cls.name}.{node.name}"
            for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name in ("to_dict", "dump")]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "cli.py"))
def test_only_cli_knows_the_report_format(module):
    assert report_methods((PACKAGE / module).read_text()) == []


def test_check_finds_a_report_method():
    source = "class A:\n    def to_dict(self):\n        pass\n\n    def dumps(self):\n        pass\n"
    assert report_methods(source) == ["A.to_dict"]


def test_engine_layers_import_no_numpy():
    # numpy is for the analytics alone; a fresh interpreter tells.
    code = ("import sys\n"
            "import sdnsim.topology, sdnsim.routing, sdnsim.telemetry, sdnsim.simnet,"
            " sdnsim.mitigation\n"
            "print('numpy' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    assert result.stdout == "False\n"
