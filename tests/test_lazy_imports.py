"""``import repro`` loads neither SciPy nor networkx; only their users do.

``CSRGraph.sparse_adjacency`` (the batched flood kernel's matrix) imports
``scipy.sparse`` and ``Graph.to_networkx`` imports networkx, each on first
use, so serve, generation and NF/PF/RW search never pay for either module.
No stage so much as tries to import numba: nothing in the package uses it.
``import repro.cli``, which every ``repro`` command pays for, ``repro serve``
included, adds no ``repro`` module but itself.  Each check runs in a fresh
interpreter, since this test process has long since imported all of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Runs three scenarios at the smoke preset and prints, as one JSON object,
#: the scipy/networkx modules loaded after each stage, and under
#: ``numba-imports`` every attempt any stage made to import numba (a
#: ``sys.meta_path`` finder sees each one, whether numba is installed or
#: not).
_STAGES = r"""
import json, sys

numba_imports = []

class NumbaWatch:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numba":
            numba_imports.append(name)
        return None

sys.meta_path.insert(0, NumbaWatch())

def loaded():
    return sorted(
        name for name in sys.modules
        if name.split(".")[0] in ("scipy", "networkx")
    )

stages = {}
import repro
stages["import"] = loaded()

from repro.experiments.runner import ExperimentScale
from repro.scenarios.compile import run_scenario_cached
from repro.scenarios.spec import ScenarioSpec

def run(model, measurement):
    spec = ScenarioSpec.from_dict({
        "id": "lazy-imports", "title": "lazy imports", "label": "x",
        "topology": {"model": model, "stubs": 2, "hard_cutoff": 10},
        "measurement": measurement,
    })
    run_scenario_cached(spec, scale=ExperimentScale.smoke())
    return loaded()

stages["hapa-degree-distribution"] = run("hapa", {"kind": "degree-distribution"})
stages["nf-search-curve"] = run("pa", {"kind": "search-curve", "algorithm": "nf"})
stages["fl-search-curve"] = run("pa", {"kind": "search-curve", "algorithm": "fl"})
stages["numba-imports"] = numba_imports
print(json.dumps(stages))
"""

#: Prints, as a JSON list, the ``repro`` modules ``import repro.cli`` loads
#: on top of ``import repro``.
_CLI_IMPORT = r"""
import json, sys

def loaded():
    return {name for name in sys.modules if name.split(".")[0] == "repro"}

import repro
package = loaded()
import repro.cli
print(json.dumps(sorted(loaded() - package)))
"""


def _run_fresh(script: str):
    """Run ``script`` in a fresh interpreter; parse its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def stages():
    return _run_fresh(_STAGES)


def test_import_repro_loads_neither_scipy_nor_networkx(stages):
    assert stages["import"] == []


def test_generation_and_nf_search_load_neither(stages):
    assert stages["hapa-degree-distribution"] == []
    assert stages["nf-search-curve"] == []


def test_no_stage_attempts_to_import_numba(stages):
    assert stages["numba-imports"] == []


def test_fl_search_curve_loads_scipy_sparse(stages):
    pytest.importorskip("scipy.sparse")
    loaded = stages["fl-search-curve"]
    assert "scipy.sparse" in loaded
    assert not [name for name in loaded if name.split(".")[0] == "networkx"]


def test_import_repro_cli_loads_no_other_repro_module():
    # A subcommand's dependencies load inside the function that runs it,
    # so no command pays at start-up for code another command needs.
    assert _run_fresh(_CLI_IMPORT) == ["repro.cli"]
