"""Every ``repro`` package imports, and every name its ``__all__``
exports resolves: a deletion cannot leave an export naming nothing."""

import importlib
import pkgutil

import repro


def _packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    packages = list(_packages())
    assert len(packages) > 30
    unresolved = [f"{package.__name__}.{name}" for package in packages
                  for name in package.__all__
                  if not hasattr(package, name)]
    assert unresolved == []
