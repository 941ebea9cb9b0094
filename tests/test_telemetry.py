"""Telemetry subsystem: overhead guard, worker merge, schema."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.cli import main
from repro.core.graph import Graph
from repro.engine.executor import ParallelExecutor, SerialExecutor, use_executor
from repro.engine.progress import ProgressReporter
from repro.engine.store import ResultStore
from repro.engine.tasks import Task
from repro.experiments.results import ExperimentResult, Series
from repro.experiments.runner import ExperimentScale
from repro.search.normalized_flooding import NormalizedFloodingSearch
from repro.telemetry.collector import (
    NULL_TELEMETRY,
    TRACE_SCHEMA_VERSION,
    TelemetryCollector,
    active_telemetry,
    use_telemetry,
)


def _ladder_graph(rungs: int = 30) -> Graph:
    edges = []
    for index in range(rungs - 1):
        edges.append((2 * index, 2 * index + 2))
        edges.append((2 * index + 1, 2 * index + 3))
    edges.extend((2 * index, 2 * index + 1) for index in range(rungs))
    return Graph.from_edges(2 * rungs, edges)


class TestDisabledByDefault:
    def test_ambient_default_is_null(self):
        assert active_telemetry() is NULL_TELEMETRY
        assert not NULL_TELEMETRY.enabled

    def test_null_span_is_shared_and_reusable(self):
        span_a = NULL_TELEMETRY.span("generate")
        span_b = NULL_TELEMETRY.span("search")
        assert span_a is span_b
        with span_a:
            with span_b:
                pass

    def test_nf_hot_loop_allocates_nothing_in_telemetry(self):
        """The overhead guard: with telemetry off (the default), running the
        NF hot loop must not allocate a single object inside the telemetry
        module."""
        import repro.telemetry.collector as collector_module

        graph = _ladder_graph()
        search = NormalizedFloodingSearch(k_min=2)
        # Warm up: thread-local ambient stack, lazy imports, caches.
        search.run(graph, source=0, ttl=6, rng=1)

        tracemalloc.start()
        try:
            search.run(graph, source=0, ttl=6, rng=2)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        telemetry_file = collector_module.__file__
        allocations = [
            stat
            for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename == telemetry_file
        ]
        assert allocations == []


class TestCollector:
    def test_span_counter_histogram_recording(self):
        collector = TelemetryCollector()
        with collector.span("generate"):
            pass
        collector.count("draws", 3)
        collector.count("draws", 2)
        collector.observe("frontier", 4)
        collector.observe("frontier", 10)
        collector.observe("frontier", 1)
        assert collector.spans["generate"]["count"] == 1
        assert collector.counters["draws"] == 5
        histogram = collector.histograms["frontier"]
        assert histogram["count"] == 3
        assert histogram["total"] == 15
        assert histogram["min"] == 1
        assert histogram["max"] == 10
        # Since schema 2 every observation also lands in a bucket.
        assert sum(histogram["buckets"]) == 3

    def test_export_round_trip(self):
        collector = TelemetryCollector()
        with collector.span("search"):
            pass
        collector.count("queries", 7)
        collector.observe("frontier", 3)
        collector.merge_task("t0", 0.5, collector.export())
        exported = collector.export()
        assert exported["schema"] == TRACE_SCHEMA_VERSION
        rebuilt = TelemetryCollector.from_dict(exported)
        assert rebuilt.export() == exported

    def test_from_dict_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            TelemetryCollector.from_dict({"schema": 999})

    def test_trace_json_round_trip_through_text(self):
        collector = TelemetryCollector()
        collector.count("a", 1)
        collector.observe("h", 2.5)
        with collector.span("s"):
            pass
        text = json.dumps(collector.export(), sort_keys=True)
        rebuilt = TelemetryCollector.from_dict(json.loads(text))
        assert json.dumps(rebuilt.export(), sort_keys=True) == text


def _traced_run(executor, tasks):
    collector = TelemetryCollector()
    with use_telemetry(collector), use_executor(executor):
        results = executor.run(tasks)
    return results, collector


def _telemetry_task(seed: int) -> Task:
    return Task(key=f"real[{seed}]", fn=_generate_and_search, args=(seed,))


def _generate_and_search(seed: int):
    """A realization-shaped workload (module-level: must pickle to workers)."""
    from repro.generators.pa import PreferentialAttachmentGenerator
    from repro.search.metrics import search_curve

    graph = PreferentialAttachmentGenerator(
        80, stubs=2, hard_cutoff=8, seed=seed
    ).generate_graph()
    curve = search_curve(
        graph, NormalizedFloodingSearch(k_min=2), [2, 4], queries=5, rng=seed
    )
    return curve.mean_hits


class TestWorkerMerge:
    def test_parallel_trace_matches_serial(self):
        tasks = [_telemetry_task(seed) for seed in (11, 12, 13, 14)]
        serial_results, serial_collector = _traced_run(SerialExecutor(), tasks)
        with ParallelExecutor(jobs=2) as parallel:
            parallel_results, parallel_collector = _traced_run(
                parallel, [_telemetry_task(seed) for seed in (11, 12, 13, 14)]
            )

        # Results byte-identical to serial execution.
        assert parallel_results == serial_results

        serial_export = serial_collector.export()
        parallel_export = parallel_collector.export()

        # Counters and histograms merge to exactly the serial values.
        assert parallel_export["counters"] == serial_export["counters"]
        assert parallel_export["histograms"] == serial_export["histograms"]
        # Spans agree on structure and counts (wall time differs).
        assert {
            name: entry["count"]
            for name, entry in parallel_export["spans"].items()
        } == {
            name: entry["count"]
            for name, entry in serial_export["spans"].items()
        }
        # Per-task records arrive in submission order on both paths.
        assert [task["key"] for task in parallel_export["tasks"]] == [
            task["key"] for task in serial_export["tasks"]
        ]

    def test_task_records_account_for_wall_time(self):
        tasks = [_telemetry_task(seed) for seed in (21, 22)]
        _, collector = _traced_run(SerialExecutor(), tasks)
        for task in collector.export()["tasks"]:
            span_seconds = sum(
                entry["seconds"] for entry in task["spans"].values()
            )
            # Named spans must account for the bulk of each realization; the
            # acceptance bar is 95% at experiment scale — on these tiny test
            # tasks fixed per-call overhead is proportionally larger, so the
            # guard is set below it to stay deterministic.
            assert span_seconds >= 0.5 * task["seconds"]
            assert span_seconds <= task["seconds"] * 1.05


class TestProgressThroughput:
    def test_task_line_includes_elapsed_and_rate(self, capsys):
        import sys

        reporter = ProgressReporter(stream=sys.stderr)
        reporter.experiment_started("fig9")
        reporter.task_finished("t0", 0.5)
        reporter.experiment_finished("fig9")
        err = capsys.readouterr().err
        assert "elapsed" in err
        assert "tasks/s" in err


class TestStoreTelemetry:
    def _result(self):
        return ExperimentResult(
            "fake", "t", series=[Series(label="a", x=[1], y=[2.0])]
        )

    def test_bytes_and_last_run_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        scale = ExperimentScale.smoke()
        store.get("fake", scale)
        store.put("fake", scale, self._result())
        store.get("fake", scale)
        assert store.bytes_written > 0
        assert store.bytes_read > 0
        disk = store.disk_stats()
        assert disk["entries"] == 1
        assert disk["total_bytes"] >= store.bytes_written
        assert store.last_run_stats() is None
        store.save_stats()
        recorded = store.last_run_stats()
        assert recorded["hits"] == 1
        assert recorded["misses"] == 1

    def test_store_counters_reach_collector(self, tmp_path):
        collector = TelemetryCollector()
        store = ResultStore(tmp_path)
        scale = ExperimentScale.smoke()
        with use_telemetry(collector):
            store.get("fake", scale)
            store.put("fake", scale, self._result())
            store.get("fake", scale)
        assert collector.counters["store.misses"] == 1
        assert collector.counters["store.hits"] == 1
        assert collector.counters["store.bytes_written"] > 0
        assert collector.spans["store"]["count"] == 3


class TestCLITelemetry:
    def test_figure_json_telemetry_block(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main([
            "figure", "fig9", "--scale", "smoke", "--json",
            "--trace", str(trace_path), "--cache", str(tmp_path / "cache"),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        telemetry = payload["telemetry"]
        assert telemetry["enabled"] is True
        assert telemetry["wall_seconds"] > 0
        assert telemetry["cache"]["misses"] == 1
        assert "generate" in telemetry["trace"]["spans"]
        assert "search" in telemetry["trace"]["spans"]
        trace = json.loads(trace_path.read_text())
        assert trace["schema"] == TRACE_SCHEMA_VERSION
        assert trace["tasks"]

    def test_cache_stats_subcommand(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main([
            "figure", "fig9", "--scale", "smoke", "--json",
            "--cache", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache", str(cache_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["disk"]["entries"] == 1
        assert payload["disk"]["total_bytes"] > 0
        assert payload["last_run"]["misses"] == 1

    def test_metrics_summary_on_stderr(self, tmp_path, capsys):
        assert main([
            "generate", "pa", "--nodes", "60", "--stubs", "2",
            "--cutoff", "8", "--seed", "5", "--metrics",
        ]) == 0
        captured = capsys.readouterr()
        # The stdout payload is unchanged (CI diffs it byte-wise).
        summary = json.loads(captured.out)
        assert "telemetry" not in summary
        assert "spans:" in captured.err
        assert "generate" in captured.err
