"""Every name a module exports in `__all__` exists, so a deleted function
cannot linger as a stale export."""

import importlib
import pkgutil

import pytest

import divfilt

MODULES = ["divfilt"] + [
    f"divfilt.{m.name}" for m in pkgutil.iter_modules(divfilt.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
