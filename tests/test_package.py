"""The package's public surface is the union of its five modules' export lists."""

import importlib

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
