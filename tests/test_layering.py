"""The package's modules form layers, read from their import statements.

The kernel layer (``dephasing``) is the one module that calls the special
functions; the witness and QFI layers read the exponent, its slope and the
time window from it, not from each other.  It also holds the package's one
memo, the per-Q revival search.  The test parses the source, so it checks
the imports and decorators as written, not what happens to be loaded.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "topoqubit"

# Each module may import only from modules of a strictly lower layer.
_LAYERS = {
    "errors": 0,
    "specfun": 1,
    "dephasing": 2,
    "states": 2,
    "correlations": 3,
    "nonmarkov": 4,
    "magnetometry": 4,
    "_csvcells": 4,
    "cli": 5,
}

# The modules that may import specfun.
_SPECFUN_IMPORTERS = {"dephasing", "__init__"}


def _relative_imports(name: str) -> set[str]:
    # The package modules that ``name`` imports: ``from .m import x`` gives m,
    # ``from . import m`` gives m, and ``from . import x`` for a name that is
    # no module gives the package root, "__init__".
    modules = {p.stem for p in _SRC.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse((_SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.partition(".")[0])
            else:
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in _SRC.glob("*.py")} == set(_LAYERS) | {"__init__"}


@pytest.mark.parametrize("name", sorted(_LAYERS))
def test_imports_go_to_lower_layers(name):
    # the package root, which cli reads for __version__, is no layer
    upward = sorted(
        m for m in _relative_imports(name) - {"__init__"} if _LAYERS[m] >= _LAYERS[name]
    )
    assert upward == []


def test_only_the_kernel_layer_imports_specfun():
    importers = {p.stem for p in _SRC.glob("*.py") if "specfun" in _relative_imports(p.stem)}
    assert importers <= _SPECFUN_IMPORTERS
    assert "dephasing" in importers


def test_witness_layer_binds_no_special_function():
    from topoqubit import nonmarkov

    assert not hasattr(nonmarkov, "specfun")
    assert not hasattr(nonmarkov, "ConvergenceError")
    assert not hasattr(nonmarkov, "_kernel")


def test_witness_layer_defines_no_revival_search():
    # the search, its refiner, its walk and its memo live in the kernel layer
    from topoqubit import nonmarkov

    assert not hasattr(nonmarkov, "_reduced_revival")
    assert not hasattr(nonmarkov, "_refine_sign_change")
    assert [name for name in vars(nonmarkov) if name.startswith("_WALK")] == []


def _is_cache(decorator: ast.expr) -> bool:
    # lru_cache, lru_cache(...), functools.cache, cached_property, ...
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in {"lru_cache", "cache", "cached_property"}


def test_the_revival_search_is_the_one_memo():
    # one memo of results, per-Q revival data in the kernel layer
    cached = {
        (p.stem, node.name)
        for p in _SRC.glob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(map(_is_cache, node.decorator_list))
    }
    assert cached == {("dephasing", "_reduced_revival")}


def _imported_names(tree: ast.Module) -> set[str]:
    # The names the module's import statements bind: ``import a.b`` binds a,
    # ``from m import x as y`` binds y; ``from __future__`` binds nothing.
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("name", sorted(_LAYERS))
def test_every_imported_name_is_used(name):
    # __init__ imports to re-export; every other module reads what it imports
    tree = ast.parse((_SRC / f"{name}.py").read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used) == []


def _object_new_sites(node: ast.AST, where: tuple[str, ...] = ()):
    # The enclosing class and function names of every object.__new__ below node.
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = where + (child.name,)
        elif (isinstance(child, ast.Attribute) and child.attr == "__new__"
              and isinstance(child.value, ast.Name) and child.value.id == "object"):
            yield where
        yield from _object_new_sites(child, inner)


def test_states_bypass_their_checks_in_one_place():
    # a state built without its constructor's checks is built by
    # states._unchecked, for what the states module's formulas give
    sites = [
        (p.stem, *where)
        for p in sorted(_SRC.glob("*.py"))
        for where in _object_new_sites(ast.parse(p.read_text()))
    ]
    assert sites == [("states", "_unchecked")]
