"""The package's public surface is the union of its five modules' export lists.

The modules are layered: ``states`` imports no other module of the package,
and every import of one package module by another is made at load time.
"""

import ast
import importlib
from pathlib import Path

import rotbell

MODULES = [
    importlib.import_module(f"rotbell.{name}")
    for name in ("correlation", "oracle", "separability", "states", "witness")
]


def test_package_exports_the_union_of_the_module_lists():
    union = set().union(*(mod.__all__ for mod in MODULES))
    assert sorted(rotbell.__all__) == sorted(union)  # so no name comes from two modules


def test_every_exported_name_resolves_to_its_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(rotbell, name) is getattr(mod, name)


def test_no_module_lists_a_name_twice_or_a_private_name():
    for mod in MODULES:
        assert len(mod.__all__) == len(set(mod.__all__)), mod.__name__
        assert not [name for name in mod.__all__ if name.startswith("_")], mod.__name__


def _package_imports(tree):
    """Every import of a ``rotbell`` module in ``tree``, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("rotbell")):
            yield node
        elif isinstance(node, ast.Import) and any(a.name.startswith("rotbell") for a in node.names):
            yield node


def test_package_imports_sit_at_module_level_and_states_imports_none():
    sources = Path(rotbell.__file__).parent.glob("*.py")
    trees = {path.stem: ast.parse(path.read_text(), path.name) for path in sources}
    assert {"cli", "states", "separability"} <= set(trees)
    for name, tree in trees.items():
        nested = [node.lineno for node in _package_imports(tree) if node not in tree.body]
        assert not nested, f"{name}.py imports a package module inside a function, at lines {nested}"
    assert not list(_package_imports(trees["states"]))
