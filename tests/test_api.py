"""The package's public surface: ``quandles.__all__`` lists exactly the
names the package exports, so a deletion or rename shows up here.  The
exports load lazily, so each name is checked against its home module."""

import importlib
import types

import pytest

import quandles


def test_all_is_sorted_and_distinct():
    assert quandles.__all__ == sorted(set(quandles.__all__))


def test_every_listed_name_resolves():
    """Each name is the very object its home module defines."""
    for name in quandles.__all__:
        value = getattr(quandles, name)
        assert value.__module__.startswith("quandles.")
        assert getattr(importlib.import_module(value.__module__), name) is value
    assert quandles.build_ball is quandles.schreier.build_ball


def test_every_public_attribute_is_listed():
    for name in quandles.__all__:
        getattr(quandles, name)
    public = {
        name
        for name, value in vars(quandles).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(quandles.__all__)


def test_dir_covers_all():
    assert set(quandles.__all__) <= set(dir(quandles))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        quandles.no_such_name
    assert not hasattr(quandles, "DEFAULT_VERTEX_BOUND")


def test_submodules_import_by_name():
    from quandles import cli, families, groups, perms, quandle, schreier, verify

    names = [m.__name__ for m in (cli, families, groups, perms, quandle, schreier, verify)]
    assert names == ["quandles." + n for n in "cli families groups perms quandle schreier verify".split()]
