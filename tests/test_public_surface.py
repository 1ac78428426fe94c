"""Every name that a wristband module lists in `__all__` exists.

A deletion that leaves its name in an export list fails here rather than
at a user's `from wristband.<module> import *`.
"""

import importlib
import pkgutil

import pytest

import wristband

MODULES = ["wristband"] + sorted(
    f"wristband.{info.name}" for info in pkgutil.iter_modules(wristband.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
