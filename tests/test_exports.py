"""Every exported name resolves, so a deletion cannot leave a name behind in ``__all__``."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import fjs

MODULES = ["fjs", *(f"fjs.{info.name}" for info in pkgutil.iter_modules(fjs.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
