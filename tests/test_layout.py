"""Source layout: each module of the package and of its tests uses every
name it imports, the package uses every function it defines, the gap
functions take columns and never objects, one module lays out the Hermitian
parameters, each command of the command line reads every option it accepts,
and importing the package leaves the heavy numpy submodules unloaded."""

import argparse
import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "phi_entropy_lab"
TRACING = PACKAGE.parent.parent / "perfbench" / "tracing.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the imports of source that no other line references;
    an import line marked "# noqa: F401" is kept for its side effect."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and "# noqa: F401" in lines[node.lineno - 1]:
            continue
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
    source = ("import numpy as np\nfrom os import path, sep\nimport json  # noqa: F401\n"
              "print(np.pi, sep)\n")
    assert unused_imports(source) == ["path (line 2)"]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_functions(sources: dict, exempt: set) -> list:
    """The module-level functions of sources (module name -> source), not in
    exempt, that no module names outside the function's own definition."""
    named, defined = set(), []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if isinstance(node, ast.FunctionDef):
                defined.append((module, node.name))
                names.discard(node.name)
            named |= names
    return [f"{module}.{name}" for module, name in defined
            if name not in named and name not in exempt]


def test_unused_functions_are_found():
    sources = {"a": "def used():\n    return 1\n\ndef unused():\n    return unused()\n",
               "b": "from a import used\n\ndef traced():\n    return used()\n"}
    assert unused_functions(sources, {"traced"}) == ["a.unused"]


def _traced_names() -> set:
    """The function names the benchmark's tracer wraps, read from its LAYERS."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    layers = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["LAYERS"])
    return {attr for targets in ast.literal_eval(layers).values() for _, attr in targets}


def test_every_src_function_is_used_in_src():
    # A function of the package that no module calls is kept for tests or
    # tools only; the benchmark's tracer may wrap such a function by name,
    # so the functions it lists stay where it finds them.
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unused_functions(sources, _traced_names()) == []


# The ensemble, product and channel objects and their fields: the JSON
# boundary, which the gap functions never cross.
OBJECTS = {"MatrixEnsemble", "ProductEnsemble", "KrausChannel"}
OBJECT_FIELDS = {"weights", "atoms", "factor_weights", "kraus", "joint_weights", "column"}
# The functions of the gap modules that take or make objects: single-object
# forms at the boundary.
BOUNDARY = {"pushforward", "random_unital_channel"}


def object_uses(source: str) -> list:
    """(function, line) where a module-level function of source, not a
    boundary one, names an object class or reads an object's field."""
    found = []
    for function in ast.parse(source).body:
        if not isinstance(function, ast.FunctionDef) or function.name in BOUNDARY:
            continue
        found += [(function.name, node.lineno) for node in ast.walk(function)
                  if isinstance(node, ast.Name) and node.id in OBJECTS
                  or isinstance(node, ast.Attribute) and node.attr in OBJECT_FIELDS]
    return found


def point_identity_tests(source: str) -> list:
    """The lines of source that compare an item of a container with is or is not."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Compare)
                  and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                  and any(isinstance(side, ast.Subscript)
                          for side in (node.left, *node.comparators)))


def test_layout_guards_find_what_they_guard():
    source = ("def gap(f, E):\n    return f(E.atoms)\n\n"
              "def stack(E):\n    return MatrixEnsemble.stack(E)\n\n"
              "def pushforward(N, E):\n    return MatrixEnsemble(E.weights, N.kraus)\n\n"
              "def same(p, q):\n    return p['A'] is q['A'] or p is None\n")
    assert object_uses(source) == [("gap", 2), ("stack", 5)]
    assert point_identity_tests(source) == [11]


def test_gap_functions_take_columns_only():
    # One form per gap function: columns in, one result per trial.  No
    # function of a gap module but the single-object boundary builds,
    # unpacks or dispatches on an ensemble, product or channel object, and
    # the suite never finds the trials of a draw by comparing point values
    # with "is".
    found = {name: object_uses((PACKAGE / name).read_text(encoding="utf-8"))
             for name in ("entropy.py", "channels.py", "characterizations.py")}
    assert {name: uses for name, uses in found.items() if uses} == {}
    assert point_identity_tests((PACKAGE / "suite.py").read_text(encoding="utf-8")) == []


def test_one_hermitian_parameter_layout():
    # spectral.herm_from_params is the one layout of a Hermitian matrix's d^2
    # reals, which the wire format's "h" blocks hold.
    calls = {path.name for path in PACKAGE.glob("*.py")
             if "triu_indices(" in path.read_text(encoding="utf-8")}
    assert calls == {"spectral.py"}


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
