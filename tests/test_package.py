"""Tests for the package's public surface."""

import types

import circumlib


def test_all_names_the_public_surface():
    names = circumlib.__all__
    for name in names:
        assert hasattr(circumlib, name), name
    assert len(set(names)) == len(names)
    # submodules (circumlib.cli once imported) are not part of __all__
    bound = {
        name
        for name, value in vars(circumlib).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(names)
