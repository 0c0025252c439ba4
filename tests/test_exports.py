"""Every name a ``mixanchor`` module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import mixanchor

MODULES = ["mixanchor"] + [
    f"mixanchor.{info.name}" for info in pkgutil.iter_modules(mixanchor.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
