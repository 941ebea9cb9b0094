"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


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


class TestFigureCommand:
    def test_figure_table2_smoke(self, capsys, tmp_path):
        code = main(["figure", "table2", "--scale", "smoke", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "table2.json").exists()
        assert (tmp_path / "table2.csv").exists()
        assert "table2" in capsys.readouterr().out

    def test_unknown_figure_is_an_error(self, capsys):
        assert main(["figure", "fig99", "--scale", "smoke"]) == 1
