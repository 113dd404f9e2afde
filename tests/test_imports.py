"""Every module-level import in ``src/sdnsim`` is used by its module, and
the layers stay apart.

Only the standard library is needed. A name bound by an import at module
level must be read somewhere in the module, or be listed in its
``__all__``. Only ``cli`` knows the report's format, so no other module
gives a class a ``to_dict`` or ``dump`` method; no module, nor a whole
run, loads numpy, which only the tests' oracle needs; and importing the
package generates no dataclass code and loads no ``csv`` module, which
every run would pay for at start-up.
"""

import ast
import json
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


def test_engine_layers_import_no_numpy(tmp_path):
    # numpy is the tests' oracle alone: importing every module and running
    # the reference scenario, one that detects with k > 1 (the path that
    # takes a median), loads none of it. A fresh interpreter tells.
    modules = ", ".join(f"sdnsim.{p.stem}" for p in sorted(PACKAGE.glob("*.py")))
    code = ("import sys\n"
            f"import {modules}\n"
            "from sdnsim import cli\n"
            "cfg, _ = cli.validate_config(\n"
            f"    dict(cli.reference_template(), output_dir={str(tmp_path)!r}))\n"
            "assert cli.run_scenario(cfg) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    assert result.stdout == "[]\n"
    polls = json.loads((tmp_path / "report.json").read_text())["polls"]
    assert any(p["detection"] and p["detection"]["attack"] and p["clustering"]["k"] > 1
               for p in polls)


def test_import_decorates_no_dataclass():
    # Each class a @dataclass decoration builds passes through
    # dataclasses._process_class once; a fresh interpreter counts them.
    # Every record on the run path is a named tuple or a plain class, so
    # a new decoration is a visible choice: name its class here.
    code = ("import dataclasses\n"
            "built = []\n"
            "process = dataclasses._process_class\n"
            "def counted(cls, *args):\n"
            "    built.append(cls.__qualname__)\n"
            "    return process(cls, *args)\n"
            "dataclasses._process_class = counted\n"
            "import sdnsim.cli\n"
            "print(built)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    assert result.stdout == "[]\n"


def test_import_and_run_load_no_csv_module(tmp_path):
    # telemetry writes and reads the stats file's lines itself; csv is the
    # tests' oracle alone (test_telemetry). A fresh interpreter tells.
    code = ("import sys\n"
            "import sdnsim.cli\n"
            "loaded = [m for m in ('csv', '_csv') if m in sys.modules]\n"
            "cfg, _ = sdnsim.cli.validate_config(\n"
            f"    dict(sdnsim.cli.reference_template(), output_dir={str(tmp_path)!r}))\n"
            "assert sdnsim.cli.run_scenario(cfg) == 0\n"
            "print(loaded, [m for m in ('csv', '_csv') if m in sys.modules])\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    assert result.stdout == "[] []\n"
    assert (tmp_path / "stats.csv").stat().st_size > 0
