"""The public API is each module's `__all__`, declared once.

Every name that a wristband module lists in `__all__` exists, so a
deletion that leaves its name in an export list fails here rather than at
a user's `from wristband.<module> import *`.  The package re-exports every
module's list unchanged, no name is listed by two modules, and a star
import of a module binds exactly its list.  `wristband.cli` is the command
line, not a library module, and lists no API.
"""

import collections
import importlib
import pkgutil

import pytest

import wristband

MODULES = ["wristband"] + sorted(
    f"wristband.{info.name}" for info in pkgutil.iter_modules(wristband.__path__)
)
API_MODULES = [name for name in MODULES[1:] if name != "wristband.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_the_package_exports_every_module_api():
    missing = []
    for name in API_MODULES:
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in module.__all__
                    if getattr(wristband, n, None) is not getattr(module, n)]
    assert not missing


def test_no_name_is_listed_by_two_modules():
    counts = collections.Counter(n for name in API_MODULES
                                 for n in importlib.import_module(name).__all__)
    assert [n for n, count in counts.items() if count > 1] == []


@pytest.mark.parametrize("name", API_MODULES)
def test_star_import_binds_exactly_the_api(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(getattr(importlib.import_module(name), "__all__", ()))
