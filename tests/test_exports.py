"""Every name a ringosc module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import ringosc

MODULES = [info.name for info in pkgutil.iter_modules(ringosc.__path__, "ringosc.")]


def test_every_module_is_found():
    assert {"ringosc.cli", "ringosc.partition", "ringosc.thermo"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
