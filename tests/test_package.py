"""The package's own structure: which module imports which."""

import ast
import graphlib
from pathlib import Path

import cdga_config

PACKAGE = Path(cdga_config.__file__).parent


def _relative_imports():
    """(module, enclosing function or None, imported module) of every
    relative import in the package: at module top, under TYPE_CHECKING or
    in a function body. `from . import name` imports the module `name`,
    or else the package's `__init__`."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        enclosing = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                enclosing.update((id(node), fn.name) for node in ast.walk(fn) if node is not fn)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module.split(".")[0]] if node.module else [
                    alias.name if alias.name in modules else "__init__" for alias in node.names]
                found += [(path.stem, enclosing.get(id(node)), target) for target in targets]
    return found


def test_the_package_imports_in_one_direction():
    imports = _relative_imports()
    # `twisted` builds on the cone, and `cone.even_model` on `twisted`
    assert [(module, fn, target) for module, fn, target in imports if fn is not None] == [
        ("cone", "even_model", "twisted")]
    graph = {}
    for module, _, target in imports:
        if (module, target) != ("cone", "twisted"):
            graph.setdefault(module, set()).add(target)
    # raises CycleError, naming the cycle, if the rest is not one-way
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert order.index("algebra") < order.index("io") < order.index("sullivan")
    assert not {"cone", "twisted", "sullivan", "presets"} & graph["io"]
