"""The library core stays numpy-only: it imports numpy, the standard
library and its own modules, nothing else. A module imports no underscore
name from a sibling: what another module needs is public. The package's
`__all__` lists what its root binds."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import scatter_tsp


def foreign_imports(source: str) -> list:
    """(line, module) of every absolute import outside numpy and the
    standard library."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "numpy" and top not in sys.stdlib_module_names:
                bad.append((node.lineno, name))
    return bad


def test_the_check_flags_foreign_imports():
    source = ("import json, scipy.sparse\n"
              "from numpy.linalg import norm\n"
              "from .graphs import _Dinic\n"
              "def f():\n"
              "    from networkx import Graph\n")
    assert foreign_imports(source) == [(1, "scipy.sparse"), (5, "networkx")]


def test_core_imports_only_numpy_and_the_standard_library():
    modules = sorted(Path(scatter_tsp.__file__).parent.rglob("*.py"))
    assert len(modules) >= 9
    bad = [(path.name, line, name) for path in modules
           for line, name in foreign_imports(path.read_text())]
    assert bad == []


def private_sibling_imports(source: str) -> list:
    """(line, name) of every underscore name imported from a sibling module
    of the package."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or node.module.split(".")[0] == "scatter_tsp"):
            bad.extend((node.lineno, alias.name) for alias in node.names
                       if alias.name.startswith("_"))
    return bad


def test_the_check_flags_private_sibling_imports():
    source = ("from .graphs import components, _max_flow\n"
              "from scatter_tsp.oracle import _BRUTE_CAP\n"
              "from . import hardness\n"
              "from collections import _OrderedDictKeysView\n")
    assert private_sibling_imports(source) == [(1, "_max_flow"), (2, "_BRUTE_CAP")]


def test_modules_import_no_private_name_of_a_sibling():
    modules = sorted(Path(scatter_tsp.__file__).parent.rglob("*.py"))
    bad = [(path.name, line, name) for path in modules
           for line, name in private_sibling_imports(path.read_text())]
    assert bad == []


def test_all_names_exactly_the_public_names_at_the_root():
    # a deleted function cannot stay listed, nor stay imported but unlisted;
    # the submodules are bound at the root too, and are not exported
    public = {name for name, value in vars(scatter_tsp).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert len(set(scatter_tsp.__all__)) == len(scatter_tsp.__all__)
    assert set(scatter_tsp.__all__) == public
