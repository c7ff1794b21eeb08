"""The package's public namespace."""

import types

import stonework


def test_all_names_resolve_and_are_not_modules():
    assert len(set(stonework.__all__)) == len(stonework.__all__)
    for name in stonework.__all__:
        assert not isinstance(getattr(stonework, name), types.ModuleType), name
