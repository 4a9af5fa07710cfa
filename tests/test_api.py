"""The package's public surface: ``quandles.__all__`` lists exactly the
names the package exports, so a deletion or rename shows up here."""

import types

import quandles


def test_all_is_sorted_and_distinct():
    assert quandles.__all__ == sorted(set(quandles.__all__))


def test_every_listed_name_resolves():
    missing = [name for name in quandles.__all__ if not hasattr(quandles, name)]
    assert missing == []


def test_every_public_attribute_is_listed():
    public = {
        name
        for name, value in vars(quandles).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(quandles.__all__) == set()
