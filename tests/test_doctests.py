"""Run the doctest examples embedded in the library's docstrings."""

from __future__ import annotations

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "repro.core.csr",
    "repro.core.graph",
    "repro.core.rng",
    "repro.generators.degree_sequence",
    "repro.substrate.mesh",
    "repro.analysis.components",
    "repro.analysis.cutoff",
    "repro.analysis.degree_distribution",
    "repro.analysis.paths",
    "repro.experiments.sweeps",
    "repro.engine.store",
]


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_module_doctests(module_name):
    # importlib is used (rather than attribute access on the package) because
    # several packages re-export a function with the same name as one of
    # their submodules, e.g. ``repro.analysis.degree_distribution``.
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module_name}"
