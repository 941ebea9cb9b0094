"""Every package's ``__all__`` names only what the package exports.

A name left in ``__all__`` after its module is deleted breaks
``from repro.<package> import *`` and the docs that list the public API, so
each package is checked on its own.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg and hasattr(importlib.import_module(info.name), "__all__")
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    exported = list(module.__all__)
    assert exported, package
    assert len(exported) == len(set(exported)), f"{package}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(exported) <= set(namespace)
