"""Source layout: each module of the package uses every name it imports,
each command of the command line reads every option it accepts, and importing
the package leaves the heavy numpy submodules unloaded."""

import argparse
import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "phi_entropy_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the imports of source that no other line references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_are_found():
    source = "import numpy as np\nfrom os import path, sep\nprint(np.pi, sep)\n"
    assert unused_imports(source) == ["path (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_args(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "args"


def _reads_of_args(functions: dict, name: str, seen: set) -> set:
    """The option dests that cli function name and the cli functions it calls
    read, as args.<dest> or getattr(args, "<dest>", ...)."""
    seen.add(name)
    reads = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and _is_args(node.value):
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "getattr" and _is_args(node.args[0]):
                reads.add(node.args[1].value)
            elif node.func.id in functions and node.func.id not in seen:
                reads |= _reads_of_args(functions, node.func.id, seen)
    return reads


def test_every_cli_option_is_read():
    from phi_entropy_lab import cli

    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    unread = {}
    for command, parser in subparsers.choices.items():
        reads = _reads_of_args(functions, cli._COMMANDS[command].__name__, set())
        dests = {a.dest for a in parser._actions if a.dest != "help"}
        if dests - reads:
            unread[command] = sorted(dests - reads)
    assert unread == {}


def test_import_leaves_numpy_random_and_ma_unloaded():
    # Every command pays for what importing the package loads; numpy.random
    # is loaded on the first draw, and numpy.ma is never needed.
    code = ("import sys, phi_entropy_lab, phi_entropy_lab.cli; "
            "print(sorted(m for m in ('numpy.random', 'numpy.ma') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=PACKAGE.parent, check=True)
    assert done.stdout.strip() == "[]"
