"""The public names each entrokit module lists in ``__all__``."""

import importlib
import pkgutil

import pytest

import entrokit

MODULES = sorted(info.name for info in pkgutil.iter_modules(entrokit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    # a stale entry breaks ``from entrokit.<name> import *`` but not ``import``
    module = importlib.import_module(f"entrokit.{name}")
    listed = getattr(module, "__all__", [])
    assert [attr for attr in listed if not hasattr(module, attr)] == []
