"""The package surface: what ``vactrap`` exports is what its modules declare."""
import importlib
import inspect
import pkgutil

import vactrap
from vactrap import errors


def test_package_exports_every_declared_name_and_nothing_else():
    # each public submodule's __all__ minus cli.main (the console entry
    # point), plus the error classes, which errors declares by defining them
    declared = set()
    for info in pkgutil.iter_modules(vactrap.__path__):
        if not info.name.startswith("_"):
            module = importlib.import_module(f"vactrap.{info.name}")
            declared.update(getattr(module, "__all__", ()))
    declared.remove("main")
    declared.update(
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == errors.__name__
    )
    exported = {
        name
        for name, obj in vars(vactrap).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert exported == declared
