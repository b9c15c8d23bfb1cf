"""The package's modules import one another one way, each at its top.

The layers run ``model`` <- {``geometry``, ``spectral``} <- ``em`` <- {``diagnostics``,
``simulate``, ``io``} <- ``cli``: a module imports only those below it, so none needs an
import inside a function to break a cycle, and each loads alone.
"""

import ast
import graphlib
import subprocess
import sys
from pathlib import Path

import pytest

import hawkesgeo

PACKAGE = Path(hawkesgeo.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def package_imports(path):
    """``(top, nested)``: the package modules that ``path`` imports at module level and
    inside a function, by name."""
    top, nested = set(), set()

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            inner = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                      ast.Lambda))
            names = []
            if isinstance(child, ast.ImportFrom):
                base = "hawkesgeo" if child.level else child.module
                if child.level and child.module:
                    base = f"hawkesgeo.{child.module}"
                if base == "hawkesgeo":  # from . import em
                    names = [alias.name for alias in child.names]
                elif base and base.startswith("hawkesgeo."):
                    names = [base.split(".")[1]]
            elif isinstance(child, ast.Import):
                names = [alias.name.split(".")[1] for alias in child.names
                         if alias.name.startswith("hawkesgeo.")]
            (nested if inner else top).update(names)
            visit(child, inner)

    visit(ast.parse(path.read_text()), False)
    return top, nested


def test_no_module_imports_the_package_inside_a_function():
    for path in sorted(PACKAGE.glob("*.py")):
        assert package_imports(path)[1] == set(), path.name


def test_the_import_graph_has_no_cycle():
    # with the imports inside functions, which would only hide a cycle
    graph = {name: set().union(*package_imports(PACKAGE / f"{name}.py")) for name in MODULES}
    assert set().union(*graph.values()) <= set(MODULES)
    order = list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert order[0] == "model" and order[-1] == "cli"


def test_the_parser_sees_every_kind_of_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from .model import x\nfrom . import em, io\nimport hawkesgeo.cli\n"
                    "def f():\n    from hawkesgeo.spectral import y\n")
    assert package_imports(path) == ({"model", "em", "io", "cli"}, {"spectral"})


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_alone(name):
    # the package's __init__ imports every module in one order; a bare package lets
    # `name` be the first module loaded, so a cycle that order hides still shows
    code = ("import importlib, sys, types\n"
            "package = types.ModuleType('hawkesgeo')\n"
            f"package.__path__ = [{str(PACKAGE)!r}]\n"
            "sys.modules['hawkesgeo'] = package\n"
            f"importlib.import_module('hawkesgeo.{name}')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
