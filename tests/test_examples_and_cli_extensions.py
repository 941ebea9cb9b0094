"""Smoke tests for the example scripts and the CLI's extension models."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLE_SCRIPTS = [
    "quickstart.py",
    "cutoff_tradeoff_study.py",
    "reproduce_paper.py",
    "custom_scenario.py",
]


def load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # type: ignore[union-attr]
    return module


class TestExamples:
    def test_all_examples_exist(self):
        for name in EXAMPLE_SCRIPTS:
            assert (EXAMPLES_DIR / name).exists(), name

    @pytest.mark.parametrize("name", EXAMPLE_SCRIPTS)
    def test_example_imports_and_has_main(self, name):
        module = load_example(name)
        assert callable(getattr(module, "main", None)), f"{name} has no main()"

    def test_cutoff_study_row_helper(self):
        """The trade-off study's measurement cell works on a tiny input."""
        module = load_example("cutoff_tradeoff_study.py")
        module.NODES = 200
        module.QUERIES = 5
        row = module.row_for(2, 10)
        assert row["m"] == 2
        assert row["kmax"] <= 10
        assert row["fl_hits"] > 0

    def test_quickstart_describe_handles_degenerate_graph(self, capsys):
        module = load_example("quickstart.py")
        from repro.core.graph import Graph

        module.describe("tiny", Graph.complete(3))
        assert "tiny" in capsys.readouterr().out


class TestCLIExtensions:
    def test_generate_nonlinear_pa_via_cli(self, capsys):
        code = main(
            ["generate", "nlpa", "--nodes", "150", "--stubs", "2", "--cutoff", "12",
             "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"]["model"] == "nlpa"
        assert payload["stats"]["max_degree"] <= 12

    def test_list_includes_all_seventeen_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert len(output.strip().splitlines()) >= 17
