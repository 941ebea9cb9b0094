"""Built-in artefacts run and cache exactly like user scenarios.

``repro figure``, ``repro run``, ``repro suite``, :func:`run_suite` and
``repro serve`` all key a built-in's store entry by its canonical spec hash
(:func:`repro.scenarios.scenario_cache_extra`).  So a result any of them
stored is a hit for the others and takes one store entry, and a built-in
whose spec changed is recomputed instead of being answered with the old
series.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.engine.store import ResultStore
from repro.engine.tasks import run_suite
from repro.experiments.figures import fig1_pa_degree
from repro.experiments.runner import ExperimentScale
from repro.scenarios import (
    ScenarioSpec,
    builtin_scenarios,
    get_builtin_scenario,
    scenario_cache_extra,
)
from repro.serve import ScenarioService


def _run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _serve_submit(cache, spec: ScenarioSpec) -> dict:
    service = ScenarioService(store=ResultStore(cache), scale="smoke")
    try:
        return service.submit(spec.to_json())
    finally:
        service.close()


def _cli_argv(command: str, experiment_id: str, cache) -> list:
    """``repro figure|run|suite`` argv for one built-in at smoke scale."""
    verb = ["suite", "--only"] if command == "suite" else [command]
    return verb + [experiment_id, "--scale", "smoke", "--cache", str(cache), "--json"]


def _write_table2(writer: str, cache, capsys) -> None:
    if writer == "serve":
        assert _serve_submit(cache, get_builtin_scenario("table2"))["status"] == "done"
    elif writer == "run_suite":
        run_suite(["table2"], scale=ExperimentScale.smoke(), store=ResultStore(cache))
    else:
        _run_json(capsys, _cli_argv(writer, "table2", cache))


@pytest.mark.parametrize("writer", ["figure", "run", "suite", "run_suite", "serve"])
def test_every_writer_keys_the_entry_by_the_spec_hash(writer, capsys, tmp_path):
    _write_table2(writer, tmp_path, capsys)
    extra = scenario_cache_extra(get_builtin_scenario("table2"))
    (entry,) = [path.parent for path in tmp_path.glob("*/*/result.json")]
    assert json.loads((entry / "meta.json").read_text())["extra"] == extra
    assert entry.name == ResultStore.key_for("table2", ExperimentScale.smoke(), extra)


def test_list_and_scenarios_list_print_the_same_registry(capsys):
    assert main(["list"]) == 0
    listed = capsys.readouterr().out
    assert main(["scenarios", "list"]) == 0
    assert capsys.readouterr().out == listed
    assert [line.split()[0] for line in listed.splitlines()] == list(builtin_scenarios())


class TestOneEntryServesEveryEntryPoint:
    def test_figure_entry_is_a_serve_warm_hit(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        first = _run_json(capsys, _cli_argv("figure", "table2", cache))
        assert first["from_cache"] is False
        response = _serve_submit(cache, get_builtin_scenario("table2"))
        assert response["from_cache"] is True
        assert response["result"] == first["result"]
        assert ResultStore(cache).disk_stats()["entries"] == 1

    def test_suite_entry_is_a_serve_warm_hit(self, tmp_path):
        report = run_suite(["table2"], scale=ExperimentScale.smoke(),
                           store=ResultStore(tmp_path))
        assert report.cache_hits == 0
        response = _serve_submit(tmp_path, get_builtin_scenario("table2"))
        assert response["from_cache"] is True
        assert response["result"] == report.results()["table2"].as_dict()
        assert ResultStore(tmp_path).disk_stats()["entries"] == 1

    def test_figure_entry_is_an_inline_run_hit(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        first = _run_json(capsys, _cli_argv("figure", "table2", cache))
        inline = get_builtin_scenario("table2").to_json()
        via_inline = _run_json(capsys, ["run", "--inline", inline, "--scale",
                                        "smoke", "--cache", cache, "--json"])
        assert via_inline["from_cache"] is True
        assert via_inline["result"] == first["result"]


def _fig1_with_smoke_cutoffs(cutoffs) -> ScenarioSpec:
    """fig1 with panel (b)'s smoke hard-cutoff grid replaced."""
    spec = fig1_pa_degree.SCENARIO.to_dict()
    spec["panels"][1]["sweep"]["axes"]["hard_cutoff"]["smoke"] = list(cutoffs)
    return ScenarioSpec.from_dict(spec)


def _payload(command, payload):
    """(from_cache, series labels) from a figure/run/suite ``--json`` payload."""
    if command == "suite":
        (payload,) = payload["entries"]
    labels = [series["label"] for series in payload["result"]["series"]]
    return payload["from_cache"], labels


@pytest.mark.parametrize("command", ["figure", "run", "suite"])
def test_edited_builtin_is_recomputed_not_served_stale(
    command, capsys, tmp_path, monkeypatch
):
    argv = _cli_argv(command, "fig1", tmp_path / "cache")
    from_cache, labels = _payload(command, _run_json(capsys, argv))
    assert from_cache is False
    assert "P(k) m=1, kc=40" in labels and "P(k) m=1, kc=20" not in labels

    monkeypatch.setattr(fig1_pa_degree, "SCENARIO", _fig1_with_smoke_cutoffs([10, 20]))
    from_cache, labels = _payload(command, _run_json(capsys, argv))
    assert from_cache is False
    assert "P(k) m=1, kc=20" in labels and "P(k) m=1, kc=40" not in labels
    # The edited spec's own entry serves the next run.
    from_cache, again = _payload(command, _run_json(capsys, argv))
    assert from_cache is True and again == labels
