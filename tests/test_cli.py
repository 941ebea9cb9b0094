"""Unit tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.generators.registry import create_generator
from repro.search.flooding import FloodingSearch
from repro.search.metrics import normalized_walk_curve, search_curve
from repro.search.normalized_flooding import NormalizedFloodingSearch

ROOT = Path(__file__).resolve().parents[1]


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_parser_knows_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("list", "figure", "generate", "search"):
            assert command in text

    @pytest.mark.parametrize(
        "command",
        [
            ["figure", "fig9", "--scale", "smoke"],
            ["suite", "--scale", "smoke"],
            ["run", "fig9", "--scale", "smoke"],
            ["generate", "hapa", "--nodes", "60"],
            ["search", "nf", "--nodes", "60"],
            ["serve", "--port", "0"],
        ],
        ids=lambda command: command[0],
    )
    def test_kernels_flag_is_gone(self, command, capsys):
        """No subcommand takes ``--kernels``.  Only the parser runs, so a
        subcommand that took the flag again fails here instead of running
        (``serve`` would block)."""
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args([*command, "--kernels", "jit"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --kernels jit" in capsys.readouterr().err


def _run_cli(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    """``python -W error::RuntimeWarning -m repro *argv`` in a fresh
    interpreter, so a warning raised anywhere fails the run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


class TestWarningFreeRuns:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "hapa", "--nodes", "300", "--stubs", "2", "--cutoff", "10",
             "--seed", "7"],
            ["search", "nf", "--model", "pa", "--nodes", "200", "--ttl", "4",
             "--queries", "8", "--seed", "5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_runs_with_warnings_as_errors_and_empty_stderr(self, argv, tmp_path):
        completed = _run_cli(*argv, cwd=tmp_path)
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""
        json.loads(completed.stdout)

    def test_json_telemetry_block_has_no_kernels_key(self, tmp_path):
        completed = _run_cli("figure", "fig9", "--scale", "smoke", "--json", cwd=tmp_path)
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""
        telemetry = json.loads(completed.stdout)["telemetry"]
        assert set(telemetry) == {"enabled", "wall_seconds", "cache"}


class TestListCommand:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig1" in output
        assert "table2" in output


class TestGenerateCommand:
    def test_generate_pa_prints_summary(self, capsys):
        code = main(
            ["generate", "pa", "--nodes", "300", "--stubs", "2", "--cutoff", "10",
             "--seed", "1"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["number_of_nodes"] == 300
        assert payload["stats"]["max_degree"] <= 10

    def test_generate_with_fit_and_edge_list(self, capsys, tmp_path):
        out_file = tmp_path / "edges.txt"
        code = main(
            ["generate", "pa", "--nodes", "400", "--stubs", "2", "--seed", "2",
             "--fit", "--out", str(out_file)]
        )
        assert code == 0
        assert out_file.exists()
        assert len(out_file.read_text().splitlines()) > 300
        output = capsys.readouterr().out
        assert "power_law_fit" in output

    def test_generate_dapa_uses_tau_sub(self, capsys):
        code = main(
            ["generate", "dapa", "--nodes", "100", "--stubs", "1", "--tau-sub", "3",
             "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"]["local_ttl"] == 3

    def test_invalid_parameters_return_error_code(self, capsys):
        code = main(["generate", "pa", "--nodes", "100", "--stubs", "5", "--cutoff", "2"])
        assert code == 1
        assert "error" in capsys.readouterr().err.lower()


class TestSearchCommand:
    def test_search_outputs_curve(self, capsys):
        code = main(
            ["search", "nf", "--model", "pa", "--nodes", "300", "--stubs", "2",
             "--cutoff", "10", "--ttl", "4", "--queries", "10", "--seed", "5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "nf"
        assert len(payload["mean_hits"]) == 4

    def test_search_rw_normalized(self, capsys):
        code = main(
            ["search", "rw", "--model", "pa", "--nodes", "200", "--stubs", "2",
             "--ttl", "3", "--queries", "5", "--seed", "6"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["normalization"] == "nf_messages"

    @pytest.mark.parametrize("algorithm", ["nf", "rw"])
    def test_search_without_queries_fails(self, algorithm, capsys):
        code = main(["search", algorithm, "--nodes", "50", "--queries", "0", "--seed", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: the query batch is empty" in captured.err


#: Per model: the ``generate``/``search`` options, and the generator
#: parameters they stand for (CM's ``--stubs`` is its minimum degree,
#: DAPA's ``--nodes`` its overlay size and ``--tau-sub`` its horizon).
CLI_MODELS = {
    "pa": (
        ["--nodes", "200", "--stubs", "2", "--cutoff", "10"],
        {"number_of_nodes": 200, "stubs": 2, "hard_cutoff": 10},
    ),
    "nlpa": (
        ["--nodes", "200", "--stubs", "2", "--cutoff", "10"],
        {"number_of_nodes": 200, "stubs": 2, "hard_cutoff": 10},
    ),
    "hapa": (
        ["--nodes", "200", "--stubs", "1", "--cutoff", "8"],
        {"number_of_nodes": 200, "stubs": 1, "hard_cutoff": 8},
    ),
    "cm": (
        ["--nodes", "200", "--stubs", "2", "--cutoff", "20", "--exponent", "2.5"],
        {"number_of_nodes": 200, "min_degree": 2, "hard_cutoff": 20, "exponent": 2.5},
    ),
    "dapa": (
        ["--nodes", "120", "--stubs", "2", "--cutoff", "10", "--tau-sub", "3"],
        {"overlay_size": 120, "stubs": 2, "hard_cutoff": 10, "local_ttl": 3},
    ),
}


def _as_printed(payload):
    """``payload`` as the CLI prints it: through JSON."""
    return json.loads(json.dumps(payload, sort_keys=True))


class TestCommandsMatchTheLibrary:
    """``generate`` and ``search`` print what the library computes from
    the parameters their options stand for, with the same seed."""

    @pytest.mark.parametrize("model", sorted(CLI_MODELS))
    def test_generate_prints_the_library_summary(self, model, capsys):
        options, parameters = CLI_MODELS[model]
        assert main(["generate", model, *options, "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        summary = create_generator(model, seed=3, **parameters).generate().summary()
        payload.pop("elapsed_seconds")
        summary.pop("elapsed_seconds")
        assert payload == _as_printed(summary)

    @pytest.mark.parametrize("model", sorted(CLI_MODELS))
    @pytest.mark.parametrize("algorithm", ["fl", "nf", "rw"])
    def test_search_prints_the_library_curve(self, algorithm, model, capsys):
        options, parameters = CLI_MODELS[model]
        argv = ["search", algorithm, "--model", model, *options]
        assert main([*argv, "--ttl", "4", "--queries", "6", "--seed", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        graph = create_generator(model, seed=5, **parameters).generate_graph().freeze()
        stubs = parameters.get("stubs", parameters.get("min_degree"))
        ttl_values = [1, 2, 3, 4]
        if algorithm == "rw":
            curve = normalized_walk_curve(graph, ttl_values, k_min=stubs, queries=6, rng=5)
        else:
            search = (
                FloodingSearch()
                if algorithm == "fl"
                else NormalizedFloodingSearch(k_min=stubs)
            )
            curve = search_curve(graph, search, ttl_values, queries=6, rng=5)
        assert payload == _as_printed(curve.as_dict())


class TestFigureCommand:
    def test_figure_table2_smoke(self, capsys, tmp_path):
        code = main(["figure", "table2", "--scale", "smoke", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "table2.json").exists()
        assert (tmp_path / "table2.csv").exists()
        assert "table2" in capsys.readouterr().out

    def test_unknown_figure_is_an_error(self, capsys):
        assert main(["figure", "fig99", "--scale", "smoke"]) == 1
