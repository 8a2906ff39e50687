"""``from fracmv.<module> import *`` raises on a stale ``__all__`` entry."""

import importlib
import pkgutil

import pytest

import fracmv

MODULES = sorted(m.name for m in pkgutil.iter_modules(fracmv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"fracmv.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
