"""Every public name a meanrisk module declares in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import meanrisk

_MODULES = ["meanrisk"] + sorted(
    "meanrisk." + info.name for info in pkgutil.iter_modules(meanrisk.__path__)
)


@pytest.mark.parametrize("name", _MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []
