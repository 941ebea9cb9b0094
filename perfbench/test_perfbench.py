"""Self-tests of the benchmark, at a tiny size.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness import run_serve_workload, sample_while_stopped
from run import END_TO_END_UNITS
from tracer import PER_LAYER_METRICS, layer_metrics, self_times
from worker import run_artefacts
from workloads import ARTEFACTS, artefact_scale_fields

pytestmark = pytest.mark.bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _tiny_artefacts(workload, seed, run=None, count=2):
    import repro
    from repro.experiments.runner import ExperimentScale
    from repro.scenarios import ScenarioSpec, compile_scenario

    spec = ScenarioSpec.from_dict(ARTEFACTS[workload]["spec"])
    scale = ExperimentScale(**artefact_scale_fields(workload, seed, warmup=True))
    expected = len(compile_scenario(spec, scale))
    return run_artefacts(run or repro.run_scenario, spec, scale, count, expected)


@pytest.mark.parametrize("workload", sorted(ARTEFACTS))
def test_artefact_seed_fixes_digest_and_counts(workload):
    first = _tiny_artefacts(workload, seed=1)
    again = _tiny_artefacts(workload, seed=1)
    other = _tiny_artefacts(workload, seed=2)
    assert first["failed"] == 0, first["problems"]
    assert (first["digest"], first["counts"]) == (again["digest"], again["counts"])
    assert other["digest"] != first["digest"]


def test_injected_failures_count_as_failed_ops():
    import repro

    calls = []

    def flaky(spec, scale):
        calls.append(scale)
        if len(calls) == 2:
            raise RuntimeError("injected")
        result = repro.run_scenario(spec, scale=scale)
        if len(calls) == 3:
            result.series[0].y[0] += 0.5  # P(k) no longer sums to 1
        return result

    report = _tiny_artefacts("artefact-generation", seed=1, run=flaky, count=4)
    assert report["attempted"] == 4
    assert report["failed"] == 2
    assert any("injected" in problem for problem in report["problems"])


def test_serve_seed_fixes_digest_and_counts(tmp_path):
    runs = [run_serve_workload(ROOT, tmp_path, seed, 0.1, setups=1) for seed in (1, 1, 2)]
    for run in runs:
        assert run["failed"] == 0, run["problems"]
        assert not run["problems"]
    assert (runs[0]["digest"], runs[0]["counts"]) == (runs[1]["digest"], runs[1]["counts"])
    assert runs[2]["digest"] != runs[0]["digest"]
    assert runs[0]["counts"]["warm_requests"] == runs[0]["counts"]["cold_requests"] > 0


def test_calibration_sample_leaves_the_program_running():
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; sys.stdout.write(sys.stdin.readline())"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    samples = [sample_while_stopped(child), sample_while_stopped(child)]
    assert all(sample > 0 for sample in samples)
    output, _ = child.communicate("resumed\n", timeout=30)
    assert (child.returncode, output) == (0, "resumed\n")


def _run_benchmark(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-cold-warm",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    declared = {
        item["name"]: item["unit"]
        for item in json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    }
    finished = _run_benchmark(ROOT, trace)
    assert finished.returncode == 0, finished.stderr
    lines = finished.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}") for line in lines)


def test_declared_metrics_match_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == PER_LAYER_METRICS


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    finished = _run_benchmark(tmp_path, 0)
    assert finished.returncode != 0
    assert '"metrics"' not in finished.stdout


def test_self_time_subtracts_children():
    spans = [
        {"id": 1, "parent": None, "name": "scenarios", "start": 0.0, "end": 10.0, "trace_id": None},
        {"id": 2, "parent": 1, "name": "generators.hapa", "start": 1.0, "end": 7.0,
         "trace_id": None, "hops": 3, "edges": 3},
        {"id": 3, "parent": 2, "name": "substrate", "start": 2.0, "end": 4.0, "trace_id": None},
    ]
    assert self_times(spans) == {1: 4.0, 2: 4.0, 3: 2.0}
    metrics = layer_metrics(spans)
    assert set(metrics) == set(PER_LAYER_METRICS) - {"trace.overhead"}
    assert metrics["generators.hapa.us_per_hop"] == pytest.approx(4.0e6 / 3)
    assert metrics["engine.store.gets"] == 0
