"""Tests for the parallel experiment engine (executors, store, suite, CLI).

The load-bearing guarantees:

* ``ParallelExecutor`` output is **numerically identical** to
  ``SerialExecutor`` output (explicit per-task seeds + submission-order
  results), verified end to end on a real figure experiment;
* the on-disk :class:`~repro.engine.store.ResultStore` round-trips results
  and serves cache hits without recomputing;
* the suite scheduler resumes from the store.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.csr import CSRGraph
from repro.core.errors import ExperimentError, GraphError
from repro.core.graph import Graph
from repro.engine.executor import (
    ParallelExecutor,
    SerialExecutor,
    active_executor,
    executor_from_jobs,
    use_executor,
)
from repro.engine.progress import ProgressReporter
from repro.engine.store import ResultStore
from repro.engine.tasks import Task, run_suite
from repro.experiments.results import ExperimentResult, Series
from repro.experiments.runner import ExperimentScale
from repro.generators.pa import generate_pa
from repro.scenarios import get_builtin_scenario, run_scenario
from repro.scenarios.measure import averaged_search_curve, degree_distribution_series
from repro.telemetry.collector import TelemetryCollector, use_telemetry
from repro.telemetry.logs import MemoryHandler, use_log_handler


# Module-level task bodies: picklable, so they can cross process boundaries.
def _square(value: int) -> int:
    return value * value


def _degree_sum(graph: CSRGraph) -> int:
    return sum(graph.degree(node) for node in graph.nodes())


def _neighbor_signature(graph: CSRGraph, node: int) -> tuple:
    return tuple(graph.neighbors(node))


def _pid_and_degree_sum(graph) -> tuple:
    """The degree sum and the process that computed it."""
    return os.getpid(), _degree_sum(graph)


def _nested_degree_sums(graphs: list, pair: tuple) -> tuple:
    sums = [_degree_sum(g) if isinstance(g, (Graph, CSRGraph)) else g for g in graphs]
    return os.getpid(), sums, _degree_sum(pair[1])


def _snapshot_is_frozen(graph: CSRGraph) -> tuple:
    try:
        graph.add_edge(0, 1)
        rejected = False
    except GraphError:
        rejected = True
    return type(graph).__name__, rejected, graph.degree_array().flags.writeable


def _result_json(result: ExperimentResult) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


class TestTask:
    def test_run_executes_callable(self):
        task = Task(fn=_square, args=(7,), key="sq")
        assert task.run() == 49

    def test_module_level_function_is_picklable(self):
        assert Task(fn=_square, args=(3,)).is_picklable()

    def test_closure_is_not_picklable(self):
        assert not Task(fn=lambda: 1).is_picklable()

    def test_task_with_frozen_graph_is_picklable(self):
        # ParallelExecutor probes a batch's first task: a frozen graph
        # argument must pass, or the batch would run in-process.
        frozen = generate_pa(100, stubs=2, hard_cutoff=10, seed=3).freeze()
        task = Task(fn=_degree_sum, args=(frozen,))
        assert task.is_picklable()
        assert pickle.loads(pickle.dumps(task)).run() == task.run()


class TestSerialExecutor:
    def test_results_in_submission_order(self):
        tasks = [Task(fn=_square, args=(i,)) for i in range(5)]
        assert SerialExecutor().run(tasks) == [0, 1, 4, 9, 16]

    def test_progress_receives_every_task(self):
        reporter = ProgressReporter()
        reporter.experiment_started("x")
        SerialExecutor().run([Task(fn=_square, args=(i,), key=f"t{i}") for i in range(3)], reporter)
        reporter.experiment_finished("x")
        assert reporter.timings[-1].tasks == 3


class TestParallelExecutor:
    def test_matches_serial_and_preserves_order(self):
        tasks = [Task(fn=_square, args=(i,)) for i in range(8)]
        with ParallelExecutor(jobs=2) as pool:
            assert pool.run(tasks) == SerialExecutor().run(tasks)

    def test_single_task_runs_in_process(self):
        with ParallelExecutor(jobs=2) as pool:
            assert pool.run([Task(fn=_square, args=(4,))]) == [16]

    def test_unpicklable_tasks_fall_back_to_serial(self):
        captured = []
        tasks = [Task(fn=lambda i=i: captured.append(i) or i) for i in range(3)]
        with ParallelExecutor(jobs=2) as pool:
            with pytest.warns(RuntimeWarning, match="non-picklable"):
                assert pool.run(tasks) == [0, 1, 2]
        assert captured == [0, 1, 2]

    def test_unpicklable_straggler_degrades_individually(self):
        # First task picklable (the probe passes), a later one is not: that
        # task alone reruns in-process, the batch still returns in order.
        tasks = [Task(fn=_square, args=(3,)), Task(fn=lambda: 5), Task(fn=_square, args=(4,))]
        with ParallelExecutor(jobs=2) as pool:
            assert pool.run(tasks) == [9, 5, 16]

    def test_parallel_results_identical_to_serial(self):
        # Frozen graph arguments cross the pool by pickling.
        frozen = generate_pa(300, stubs=2, hard_cutoff=15, seed=7).freeze()
        expected = [_degree_sum(frozen)] + [
            _neighbor_signature(frozen, node) for node in range(10)
        ]
        tasks = [Task(fn=_degree_sum, args=(frozen,), key="degsum")] + [
            Task(fn=_neighbor_signature, args=(frozen, node), key=f"n{node}")
            for node in range(10)
        ]
        with ParallelExecutor(jobs=2) as executor:
            assert executor.run(tasks) == expected

    def test_frozen_graph_arguments_cross_the_pool(self):
        # Matching results alone would not show that a task left the parent
        # (a task that fails to pickle reruns in-process); the pid does.
        frozen = generate_pa(200, stubs=2, hard_cutoff=15, seed=11).freeze()
        tasks = [Task(fn=_pid_and_degree_sum, args=(frozen,), key=f"t{i}") for i in range(4)]
        with ParallelExecutor(jobs=2) as executor:
            results = executor.run(tasks)
        assert all(pid != os.getpid() for pid, _ in results)
        assert [total for _, total in results] == [_degree_sum(frozen)] * 4

    def test_mutable_graph_arguments_cross_the_pool(self):
        graph = generate_pa(150, stubs=2, hard_cutoff=15, seed=12)
        tasks = [Task(fn=_pid_and_degree_sum, args=(graph,), key=f"t{i}") for i in range(3)]
        with ParallelExecutor(jobs=2) as executor:
            results = executor.run(tasks)
        assert all(pid != os.getpid() for pid, _ in results)
        assert [total for _, total in results] == [_degree_sum(graph)] * 3

    def test_graphs_nested_in_containers_cross_the_pool(self):
        frozen = generate_pa(120, stubs=2, hard_cutoff=12, seed=13).freeze()
        graph = generate_pa(80, stubs=1, hard_cutoff=8, seed=14)
        task = Task(
            fn=_nested_degree_sums,
            kwargs={"graphs": [frozen, 3, graph], "pair": (1, frozen)},
            key="nested",
        )
        with ParallelExecutor(jobs=2) as executor:
            results = executor.run([task, task])
        expected = ([_degree_sum(frozen), 3, _degree_sum(graph)], _degree_sum(frozen))
        for pid, sums, pair_sum in results:
            assert pid != os.getpid()
            assert (sums, pair_sum) == expected

    def test_workers_receive_an_immutable_snapshot(self):
        frozen = generate_pa(100, stubs=2, hard_cutoff=10, seed=15).freeze()
        tasks = [Task(fn=_snapshot_is_frozen, args=(frozen,), key=f"t{i}") for i in range(2)]
        with ParallelExecutor(jobs=2) as executor:
            assert executor.run(tasks) == [("CSRGraph", True, False)] * 2

    def test_pool_reused_until_closed_and_close_is_idempotent(self):
        tasks = [Task(fn=_square, args=(i,)) for i in range(4)]
        executor = ParallelExecutor(jobs=2)
        assert executor.run(tasks) == [0, 1, 4, 9]
        pool = executor._pool
        assert pool is not None
        assert executor.run(tasks) == [0, 1, 4, 9]
        assert executor._pool is pool
        executor.close()
        executor.close()
        assert executor._pool is None
        # A closed executor starts a fresh pool for its next batch.
        assert executor.run(tasks) == [0, 1, 4, 9]
        executor.close()

    def test_rejects_zero_workers(self):
        with pytest.raises(ExperimentError):
            ParallelExecutor(jobs=0)

    def test_executor_from_jobs(self):
        assert isinstance(executor_from_jobs(None), SerialExecutor)
        assert isinstance(executor_from_jobs(1), SerialExecutor)
        parallel = executor_from_jobs(3)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.jobs == 3
        parallel.close()


class TestExecutorContext:
    def test_default_is_serial(self):
        assert isinstance(active_executor(), SerialExecutor)

    def test_use_executor_installs_and_restores(self):
        pool = ParallelExecutor(jobs=2)
        with use_executor(pool) as active:
            assert active is pool
            assert active_executor() is pool
        assert active_executor() is not pool
        pool.close()

    def test_use_executor_none_keeps_current(self):
        with use_executor(None) as active:
            assert active is active_executor()


#: Small enough that a realization takes milliseconds, with enough
#: realizations that a two-worker pool genuinely receives pickled tasks.
_TINY_SCALE = ExperimentScale(
    name="custom", nodes=120, search_nodes=80, substrate_nodes=160,
    realizations=4, queries=6, max_ttl=4, flooding_max_ttl=4,
)


class TestRealizationSeriesThroughEngine:
    def test_parallel_equals_serial(self):
        with use_executor(SerialExecutor()):
            serial = degree_distribution_series(
                "pa", "engine", _TINY_SCALE, stubs=2, hard_cutoff=10
            )
        with ParallelExecutor(jobs=2) as pool, use_executor(pool):
            parallel = degree_distribution_series(
                "pa", "engine", _TINY_SCALE, stubs=2, hard_cutoff=10
            )
        assert parallel.as_dict() == serial.as_dict()

    def test_uses_ambient_executor_by_default(self):
        def curve():
            return averaged_search_curve(
                "cm", _TINY_SCALE, "ambient", "nf", [2, 4], stubs=2,
                hard_cutoff=10, exponent=2.5, tau_sub=4,
            )

        baseline = curve()
        with ParallelExecutor(jobs=2) as pool:
            with use_executor(pool):
                ambient = curve()
        assert ambient.as_dict() == baseline.as_dict()


class TestResultStore:
    def _result(self) -> ExperimentResult:
        return ExperimentResult(
            experiment_id="fake",
            title="fake experiment",
            series=[Series(label="a", x=[1, 2], y=[0.5, 1.5], metadata={"m": 1})],
            parameters={"name": "smoke"},
            notes="round-trip me",
        )

    def test_round_trip(self, tmp_path, smoke_scale):
        store = ResultStore(tmp_path)
        assert not store.contains("fake", smoke_scale)
        assert store.get("fake", smoke_scale) is None
        store.put("fake", smoke_scale, self._result())
        assert store.contains("fake", smoke_scale)
        loaded = store.get("fake", smoke_scale)
        assert loaded is not None
        assert _result_json(loaded) == _result_json(self._result())
        stats = store.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)
        assert stats["bytes_read"] > 0
        assert stats["bytes_written"] > 0

    def test_stats_counts_entries_by_result_marker(self, tmp_path, smoke_scale):
        """An unreadable meta.json does not hide an entry get can serve."""
        store = ResultStore(tmp_path)
        directory = store.put("fake", smoke_scale, self._result())
        (directory / "meta.json").write_text("{torn")
        assert store.get("fake", smoke_scale) is not None
        # A put that died before its last rename has no result.json.
        unfinished = store.path_for(store.key_for("fake", smoke_scale.with_seed(9)))
        unfinished.mkdir(parents=True)
        (unfinished / "meta.json").write_text("{}")
        assert store.stats()["entries"] == 1

    def test_key_depends_on_scale_seed_and_extra(self, smoke_scale):
        base = ResultStore.key_for("fig9", smoke_scale)
        assert ResultStore.key_for("fig9", smoke_scale) == base
        assert ResultStore.key_for("fig10", smoke_scale) != base
        assert ResultStore.key_for("fig9", smoke_scale.with_seed(1)) != base
        assert ResultStore.key_for("fig9", ExperimentScale.small()) != base
        assert ResultStore.key_for("fig9", smoke_scale, extra={"v": 2}) != base

    def test_artifacts_on_disk(self, tmp_path, smoke_scale):
        store = ResultStore(tmp_path)
        directory = store.put("fake", smoke_scale, self._result())
        assert (directory / "result.json").exists()
        assert (directory / "result.csv").exists()
        meta = json.loads((directory / "meta.json").read_text())
        assert meta["experiment_id"] == "fake"
        assert meta["scale"]["name"] == "smoke"

    def test_corrupted_entry_is_a_miss(self, tmp_path, smoke_scale):
        store = ResultStore(tmp_path)
        directory = store.put("fake", smoke_scale, self._result())
        (directory / "result.json").write_text("{ truncated")
        assert store.get("fake", smoke_scale) is None

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda text: text[: len(text) // 2], "JSONDecodeError"),
            (lambda text: json.dumps({"title": "no experiment id"}), "KeyError"),
            (lambda text: "[]", "TypeError"),
        ],
        ids=["truncated", "missing-key", "wrong-shape"],
    )
    def test_corrupt_entry_is_counted_logged_and_recomputed(
        self, tmp_path, smoke_scale, capsys, corrupt, error
    ):
        store = ResultStore(tmp_path)
        path = store.put("fake", smoke_scale, self._result()) / "result.json"
        path.write_text(corrupt(path.read_text()))
        collector, records = TelemetryCollector(), MemoryHandler()
        with use_telemetry(collector), use_log_handler(records):
            assert store.get("fake", smoke_scale) is None
        assert (store.corrupt, store.misses, store.hits) == (1, 1, 0)
        assert collector.counters["store.corrupt"] == 1
        (record,) = [item for item in records.records if item["event"] == "store-corrupt"]
        assert record["level"] == "warning"
        assert record["key"] == ResultStore.key_for("fake", smoke_scale)
        assert record["error"] == error

        # Recompute: the next put replaces the entry and get hits again.
        store.put("fake", smoke_scale, self._result())
        loaded = store.get("fake", smoke_scale)
        assert loaded is not None
        assert _result_json(loaded) == _result_json(self._result())

        store.save_stats()
        assert store.last_run_stats()["corrupt"] == 1
        assert main(["cache", "stats", "--cache", str(tmp_path)]) == 0
        assert "1 misses (1 corrupt)" in capsys.readouterr().out

    def test_fetch_or_run_runs_exactly_once(self, tmp_path, smoke_scale):
        store = ResultStore(tmp_path)
        calls = []

        def runner():
            calls.append(1)
            return self._result()

        first, from_cache_first = store.fetch_or_run("fake", smoke_scale, runner)
        second, from_cache_second = store.fetch_or_run("fake", smoke_scale, runner)
        assert (from_cache_first, from_cache_second) == (False, True)
        assert len(calls) == 1
        assert _result_json(first) == _result_json(second)


class TestEngineDeterminism:
    """The acceptance bar: parallel figure runs are byte-identical to serial."""

    def test_fig9_parallel_identical_to_serial(self, smoke_scale):
        # Two realizations per curve so the batches genuinely cross process
        # boundaries (at realizations=1 a batch degenerates to in-process).
        scale = replace(smoke_scale, realizations=2)
        serial = run_scenario(get_builtin_scenario("fig9"), scale=scale, executor=SerialExecutor())
        with ParallelExecutor(jobs=2) as pool:
            parallel = run_scenario(get_builtin_scenario("fig9"), scale=scale, executor=pool)
        assert _result_json(parallel) == _result_json(serial)

    def test_progress_counts_realization_tasks(self, smoke_scale):
        """Per-task events reach the reporter through the ambient context."""
        reporter = ProgressReporter()
        run_scenario(get_builtin_scenario("fig9"), scale=smoke_scale, progress=reporter)
        timing = reporter.timings[-1]
        assert timing.experiment_id == "fig9"
        # fig9 at smoke scale: 3 models x 2 stub values x 2 cutoffs, one
        # realization each.
        assert timing.tasks == 12
        assert timing.task_seconds > 0

    def test_cached_rerun_skips_recompute(self, tmp_path, smoke_scale):
        store = ResultStore(tmp_path)
        first = run_scenario(get_builtin_scenario("fig9"), scale=smoke_scale, store=store)
        reporter = ProgressReporter()
        second = run_scenario(get_builtin_scenario("fig9"), scale=smoke_scale, store=store, progress=reporter)
        assert store.hits == 1
        assert reporter.timings[-1].from_cache is True
        assert reporter.timings[-1].tasks == 0  # nothing was recomputed
        assert _result_json(first) == _result_json(second)


class TestSuiteScheduler:
    def test_suite_runs_and_resumes_from_store(self, tmp_path, smoke_scale):
        store = ResultStore(tmp_path)
        first = run_suite(["table2", "natural_cutoff"], scale=smoke_scale, store=store)
        assert [entry.experiment_id for entry in first.entries] == ["table2", "natural_cutoff"]
        assert first.cache_hits == 0
        second = run_suite(["table2", "natural_cutoff"], scale=smoke_scale, store=store)
        assert second.cache_hits == 2
        assert all(entry.from_cache for entry in second.entries)
        assert _result_json(second.results()["table2"]) == _result_json(
            first.results()["table2"]
        )
        assert "2/2 from cache" in second.summary()

    def test_unknown_experiment_rejected(self, smoke_scale):
        with pytest.raises(ExperimentError):
            run_suite(["fig99"], scale=smoke_scale)


class TestEngineCLI:
    def test_figure_with_jobs_and_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        code = main(
            ["figure", "table2", "--scale", "smoke", "--jobs", "2",
             "--cache", str(cache)]
        )
        assert code == 0
        assert "table2" in capsys.readouterr().out
        # Re-run: served from the store.
        assert main(["figure", "table2", "--scale", "smoke", "--cache", str(cache)]) == 0
        captured = capsys.readouterr()
        assert "table2" in captured.out
        assert "served from cache" in captured.err

    def test_suite_subcommand(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            ["suite", "--scale", "smoke", "--only", "table2",
             "--cache", str(tmp_path / "cache"), "--out", str(out_dir)]
        )
        assert code == 0
        assert (out_dir / "table2.json").exists()
        assert (out_dir / "table2.csv").exists()
        output = capsys.readouterr().out
        assert "table2" in output
        assert "total" in output

    def test_parser_knows_suite(self):
        from repro.cli import build_parser

        assert "suite" in build_parser().format_help()


class TestAmbientStackThreadLocality:
    """The ambient context stacks must isolate threads (plan distribution)."""

    def test_push_in_one_thread_invisible_in_another(self):
        import threading

        from repro.core.ambient import AmbientStack

        stack: AmbientStack = AmbientStack()
        stack.push("outer")
        seen = {}

        def worker():
            seen["before"] = stack.top("default")
            stack.push("inner")
            seen["after"] = stack.top("default")

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen == {"before": "default", "after": "inner"}
        assert stack.top("default") == "outer"

    def test_use_executor_is_thread_local(self):
        import threading

        from repro.engine.executor import active_executor, use_executor

        serial = SerialExecutor()
        results = {}

        def worker():
            results["ambient"] = active_executor()

        with use_executor(serial):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert active_executor() is serial
        # The worker thread saw the default, not the caller's context.
        assert results["ambient"] is not serial


class TestScenarioPlanDistribution:
    """A multi-panel scenario must parallelize under --jobs, byte-identically.

    Panels used to serialize: each series barriers on its own realization
    batch, idling the pool.  _run_plans spreads the compiled plans over a
    thread pool (tasks still execute in the shared process pool), and the
    result must be byte-identical to the serial order.
    """

    def _spec(self):
        from repro.scenarios import ScenarioSpec

        return ScenarioSpec.from_dict({
            "id": "panel-dist",
            "title": "panel distribution probe",
            "topology": {"stubs": 1, "hard_cutoff": 10},
            "panels": [
                {"topology": {"model": "pa"},
                 "series": [{"label": "pa P(k)",
                             "measurement": {"kind": "degree-distribution"}}]},
                {"topology": {"model": "cm", "exponent": 2.5},
                 "series": [{"label": "cm P(k)",
                             "measurement": {"kind": "degree-distribution"}}]},
                {"topology": {"model": "pa"},
                 "series": [{"label": "pa NF",
                             "measurement": {"kind": "search-curve",
                                             "algorithm": "nf"}}]},
            ],
        })

    def test_jobs_byte_identical_to_serial(self, smoke_scale):
        from repro.scenarios import run_scenario

        serial = run_scenario(self._spec(), scale=smoke_scale)
        with ParallelExecutor(jobs=2) as executor:
            parallel = run_scenario(
                self._spec(), scale=smoke_scale, executor=executor
            )
        assert [series.as_dict() for series in serial.series] == [
            series.as_dict() for series in parallel.series
        ]

    def test_plans_actually_distribute_across_threads(self, smoke_scale, monkeypatch):
        import threading

        from repro.scenarios import compile as compile_module
        from repro.scenarios import run_scenario

        seen_threads = []
        original = compile_module.run_series_plan

        def recording(plan, scale):
            seen_threads.append(threading.current_thread().name)
            return original(plan, scale)

        monkeypatch.setattr(compile_module, "run_series_plan", recording)
        with ParallelExecutor(jobs=2) as executor:
            run_scenario(self._spec(), scale=smoke_scale, executor=executor)
        assert len(seen_threads) == 3
        assert all(name.startswith("repro-plan") for name in seen_threads)

    def test_serial_executor_keeps_plans_in_process(self, smoke_scale, monkeypatch):
        import threading

        from repro.scenarios import compile as compile_module
        from repro.scenarios import run_scenario

        seen_threads = []
        original = compile_module.run_series_plan

        def recording(plan, scale):
            seen_threads.append(threading.current_thread().name)
            return original(plan, scale)

        monkeypatch.setattr(compile_module, "run_series_plan", recording)
        run_scenario(self._spec(), scale=smoke_scale)
        assert seen_threads == [threading.main_thread().name] * 3

    def test_suite_jobs_distributes_scenario_panels(self, smoke_scale):
        """`repro suite --jobs` path: run_suite with a shared pool must
        reproduce the serial suite byte for byte for a multi-panel
        experiment (fig1 has three cutoff series)."""
        serial_report = run_suite(["fig1"], scale=smoke_scale)
        with ParallelExecutor(jobs=2) as executor:
            parallel_report = run_suite(["fig1"], scale=smoke_scale, executor=executor)
        serial_result = serial_report.results()["fig1"]
        parallel_result = parallel_report.results()["fig1"]
        assert [series.as_dict() for series in serial_result.series] == [
            series.as_dict() for series in parallel_result.series
        ]
