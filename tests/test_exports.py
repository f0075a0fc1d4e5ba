"""The package exports exactly the names its modules list in __all__."""

import importlib
import inspect
import pkgutil

import menshov


def test_package_exports_the_union_of_module_all_lists():
    listed = set()
    for info in pkgutil.iter_modules(menshov.__path__):
        if info.name == "cli":  # the command-line driver, not library API
            continue
        listed |= set(importlib.import_module(f"menshov.{info.name}").__all__)
    public = {name for name, value in vars(menshov).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == listed
