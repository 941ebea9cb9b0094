"""Tracing v2 tests: span trees, trace context, logs, and Prometheus.

The load-bearing guarantees:

* spans form a *tree* — parent linkage follows the ambient stack, worker
  subtrees merge back under the submitting thread's open span, and a
  parallel run's canonical tree is identical to the serial one;
* the request trace id crosses the process-pool pickle boundary by value
  and stamps every worker-side span node;
* structured log records carry the ambient trace/span ids at emit time,
  and the no-handler default stays a no-op;
* the Prometheus text exposition is well-formed (cumulative buckets,
  ``+Inf`` == ``_count``) — parsed with ``prometheus_client`` when that
  package is installed, checked against the golden format otherwise.
"""

from __future__ import annotations

import io
import itertools
import json

import pytest

from repro.engine.executor import ParallelExecutor, SerialExecutor, use_executor
from repro.engine.tasks import Task
from repro.search.normalized_flooding import NormalizedFloodingSearch
from repro.telemetry.collector import (
    HISTOGRAM_BUCKETS,
    TRACE_SCHEMA_VERSION,
    TelemetryCollector,
    histogram_quantile,
    use_telemetry,
)
from repro.telemetry.logs import (
    JsonLinesHandler,
    MemoryHandler,
    get_logger,
    install_log_handler,
    use_log_handler,
)
from repro.telemetry.prometheus import CONTENT_TYPE, render_prometheus
from repro.telemetry.trace import (
    current_span_id,
    current_trace_id,
    new_trace_id,
    to_chrome_trace,
    use_trace_id,
)


# --------------------------------------------------------------------------- #
# Span-tree structure
# --------------------------------------------------------------------------- #
class TestSpanTree:
    def test_nesting_records_parent_ids(self):
        collector = TelemetryCollector()
        with collector.span("outer"):
            with collector.span("inner"):
                with collector.span("leaf"):
                    pass
            with collector.span("sibling"):
                pass
        nodes = {node["name"]: node for node in collector.export()["span_tree"]}
        assert nodes["outer"]["parent"] is None
        assert nodes["inner"]["parent"] == nodes["outer"]["id"]
        assert nodes["leaf"]["parent"] == nodes["inner"]["id"]
        assert nodes["sibling"]["parent"] == nodes["outer"]["id"]
        assert all(node["end"] >= node["start"] for node in nodes.values())

    def test_trace_id_inherited_from_ambient(self):
        collector = TelemetryCollector()
        trace_id = new_trace_id()
        with use_trace_id(trace_id):
            with collector.span("a"):
                assert current_trace_id() == trace_id
                with collector.span("b"):
                    pass
        assert [node["trace_id"] for node in collector.span_tree] == [
            trace_id,
            trace_id,
        ]

    def test_fresh_collector_roots_its_own_tree(self):
        # A span of a *different* collector must not become the parent —
        # that is what lets a worker-side collector start its own root
        # even when code runs serially under the parent's open spans.
        outer = TelemetryCollector()
        inner = TelemetryCollector()
        trace_id = new_trace_id()
        with use_trace_id(trace_id), outer.span("request"):
            with inner.span("worker-root"):
                pass
        (node,) = inner.span_tree
        assert node["parent"] is None
        assert node["trace_id"] == trace_id  # trace id crosses; parent does not

    def test_attrs_are_recorded_and_copied(self):
        collector = TelemetryCollector()
        attrs = {"spec_hash": "abc", "scale": "smoke"}
        with collector.span("scenario", attrs=attrs):
            pass
        attrs["mutated"] = True  # caller mutation after exit must not leak
        (node,) = collector.span_tree
        assert node["attrs"] == {"spec_hash": "abc", "scale": "smoke"}

    def test_aggregate_false_is_tree_only(self):
        collector = TelemetryCollector()
        with collector.span("task", attrs={"index": 0}, aggregate=False):
            pass
        assert "task" not in collector.export()["spans"]
        assert [node["name"] for node in collector.span_tree] == ["task"]

    def test_span_ids_restore_ambient_on_exit(self):
        collector = TelemetryCollector()
        assert current_span_id() is None
        with collector.span("a"):
            first = current_span_id()
            assert first is not None
        assert current_span_id() is None
        with collector.span("b"):
            assert current_span_id() != first
        assert current_span_id() is None


class TestAggregatesOnly:
    """``tree=False`` keeps the aggregates a tree-keeping collector keeps."""

    @staticmethod
    def _worker_payload():
        worker = TelemetryCollector()
        with worker.span("task", attrs={"key": "k"}, aggregate=False):
            with worker.span("generate", attrs={"model": "pa"}):
                worker.count("generate.pa")
            worker.observe("bfs.frontier", 12)
        return worker.export()

    @staticmethod
    def _feed(collector, payload, monkeypatch):
        ticks = itertools.count()
        monkeypatch.setattr(
            "repro.telemetry.collector.telemetry_clock", lambda: float(next(ticks))
        )
        with use_trace_id("trace-a"):
            with collector.span("serve.request", attrs={"seed": 1}):
                with collector.span("store"):
                    collector.count("store.misses")
                collector.merge_task("task-0", 0.5, payload)
            collector.observe("serve.request_seconds", 0.25)
        collector.merge(payload)
        return collector.export()

    def test_same_aggregates_without_tree_or_tasks(self, monkeypatch):
        payload = self._worker_payload()
        full = self._feed(TelemetryCollector(), payload, monkeypatch)
        aggregates = self._feed(TelemetryCollector(tree=False), payload, monkeypatch)
        for part in ("spans", "counters", "histograms"):
            assert aggregates[part] == full[part], part
        assert full["spans"]["generate"]["count"] == 2
        assert full["span_tree"] and full["tasks"]
        assert aggregates["span_tree"] == []
        assert aggregates["tasks"] == []

    def test_spans_still_set_the_ambient_span(self):
        collector = TelemetryCollector(tree=False)
        with collector.span("outer"):
            assert current_span_id() is not None
        assert current_span_id() is None
        assert collector.span_tree == []


class TestGenerateSpanAttributes:
    """A ``generate`` span names the model, its scalar parameters (not the
    seed) and the build's work counters, copied from the metadata."""

    @staticmethod
    def _traced(generator):
        collector = TelemetryCollector()
        with use_telemetry(collector):
            result = generator.generate(5)
        (node,) = [node for node in collector.span_tree if node["name"] == "generate"]
        return node["attrs"], result, collector

    def test_hapa_span(self):
        from repro.generators.hapa import HAPAGenerator

        attrs, result, _ = self._traced(HAPAGenerator(120, stubs=2, hard_cutoff=10))
        assert attrs == {
            "model": "hapa",
            "number_of_nodes": 120,
            "stubs": 2,
            "hard_cutoff": 10,
            "max_hops_per_stub": 10_000,
            "total_hops": result.metadata["total_hops"],
            "unfilled_stubs": result.metadata["unfilled_stubs"],
            "fallback_attachments": result.metadata["fallback_attachments"],
        }
        assert attrs["total_hops"] > 0

    def test_hapa_span_and_counter_carry_the_fallback_count(self):
        from repro.generators.hapa import HAPAGenerator

        # A five-hop bound makes the fallback fire on this small build.
        attrs, result, collector = self._traced(
            HAPAGenerator(120, stubs=2, hard_cutoff=4, max_hops_per_stub=5)
        )
        fallbacks = result.metadata["fallback_attachments"]
        assert fallbacks > 0
        assert attrs["fallback_attachments"] == fallbacks
        assert collector.counters["generate.fallback_attachments"] == fallbacks

    def test_dapa_span(self):
        from repro.generators.dapa import DAPAGenerator

        attrs, result, collector = self._traced(
            DAPAGenerator(overlay_size=60, stubs=2, hard_cutoff=8, local_ttl=3)
        )
        # ``substrate`` is the substrate's node count (the default GRN has
        # twice the overlay's nodes); parameters() still names its source.
        assert attrs == {
            "model": "dapa",
            "overlay_size": 60,
            "stubs": 2,
            "hard_cutoff": 8,
            "local_ttl": 3,
            "initial_peers": 2,
            "substrate": 120,
            "discovery_messages": result.metadata["discovery_messages"],
        }
        assert attrs["discovery_messages"] > 0
        assert result.parameters["substrate"] == "default_grn"

        # The substrate build is a child span of generate, with its size.
        (generate,) = [node for node in collector.span_tree if node["name"] == "generate"]
        (substrate,) = [node for node in collector.span_tree if node["name"] == "substrate"]
        assert substrate["parent"] == generate["id"]
        assert substrate["attrs"] == {
            "nodes": 120,
            "edges": result.metadata["substrate_edges"],
        }
        assert substrate["attrs"]["edges"] > 0

    @pytest.mark.parametrize("source", ["explicit", "mesh"])
    def test_dapa_span_names_the_substrate_size(self, source):
        from repro.core.config import MeshConfig
        from repro.core.graph import Graph
        from repro.generators.dapa import DAPAGenerator

        if source == "explicit":
            ring = [(node, (node + 1) % 50) for node in range(50)]
            generator = DAPAGenerator(
                overlay_size=20, stubs=1, local_ttl=3, substrate_graph=Graph.from_edges(50, ring)
            )
        else:
            generator = DAPAGenerator(
                overlay_size=20, stubs=1, local_ttl=3, substrate_config=MeshConfig(6, 7)
            )
        attrs, result, collector = self._traced(generator)
        (substrate,) = [node for node in collector.span_tree if node["name"] == "substrate"]
        assert attrs["substrate"] == substrate["attrs"]["nodes"]
        assert attrs["substrate"] == result.metadata["substrate_nodes"]

    def test_untraced_build_skips_the_attributes(self, monkeypatch):
        from repro.generators.base import TopologyGenerator
        from repro.generators.dapa import DAPAGenerator
        from repro.generators.hapa import HAPAGenerator
        from repro.telemetry.collector import NullTelemetry

        def refuse(self):
            raise AssertionError("span attributes built with telemetry off")

        passed = []
        null_span = NullTelemetry.span

        def record(self, name, attrs=None, aggregate=True):
            passed.append((name, attrs))
            return null_span(self, name, attrs, aggregate)

        monkeypatch.setattr(TopologyGenerator, "_span_attributes", refuse)
        monkeypatch.setattr(DAPAGenerator, "_span_attributes", refuse)
        monkeypatch.setattr(NullTelemetry, "span", record)
        HAPAGenerator(30, stubs=1, hard_cutoff=5).generate(5)
        DAPAGenerator(overlay_size=30, stubs=1, hard_cutoff=5).generate(5)
        assert [name for name, _ in passed].count("substrate") == 1
        assert all(attrs is None for _, attrs in passed)


class TestFreezeSpanAttributes:
    """A search realization's ``freeze`` span names the snapshot's size and
    whether the bulk build's snapshot came back (``cached``)."""

    @staticmethod
    def _traced(model):
        from repro.experiments.runner import ExperimentScale
        from repro.scenarios.measure import RealizationSpec

        scale = ExperimentScale(name="custom", search_nodes=80, queries=2)
        spec = RealizationSpec(model, scale, seed=3, stubs=2, hard_cutoff=8, for_search=True)
        collector = TelemetryCollector()
        with use_telemetry(collector):
            frozen = spec.build_for_measurement()
        (node,) = [node for node in collector.span_tree if node["name"] == "freeze"]
        return node["attrs"], frozen

    @pytest.mark.parametrize(
        "model, cached", [("pa", True), ("cm", True), ("hapa", True), ("dapa", True)]
    )
    def test_freeze_span(self, model, cached):
        attrs, frozen = self._traced(model)
        assert attrs == {
            "nodes": 80,
            "edges": frozen.number_of_edges,
            "cached": cached,
        }
        assert attrs["edges"] > 0

    def test_freeze_span_of_an_add_edge_graph(self, monkeypatch):
        # Every search model is bulk-built; a graph grown edge by edge is
        # snapshotted by the freeze, which the span reports as not cached.
        from repro.core.graph import Graph
        from repro.scenarios.measure import RealizationSpec

        grown = Graph(80)
        for node in range(1, 80):
            grown.add_edge(node - 1, node)
        monkeypatch.setattr(RealizationSpec, "build", lambda self: grown)
        attrs, frozen = self._traced("pa")
        assert attrs == {"nodes": 80, "edges": 79, "cached": False}
        assert frozen.neighbors(5) == [4, 6]

    def test_untraced_freeze_builds_no_attributes(self, monkeypatch):
        from repro.experiments.runner import ExperimentScale
        from repro.scenarios.measure import RealizationSpec
        from repro.telemetry.collector import NullTelemetry

        seen = []
        original = NullTelemetry.span

        def record(self, name, attrs=None, aggregate=True):
            seen.append((name, attrs))
            return original(self, name, attrs, aggregate)

        monkeypatch.setattr(NullTelemetry, "span", record)
        scale = ExperimentScale(name="custom", search_nodes=40, queries=2)
        RealizationSpec("pa", scale, seed=3, stubs=2, for_search=True).build_for_measurement()
        assert [attrs for name, attrs in seen if name == "freeze"] == [None]


class TestSearchSpanAttributes:
    """A ``search`` span names the algorithm, the batch size and the batch's
    messages at the largest TTL (what ``search.messages.total`` adds)."""

    @staticmethod
    def _graph():
        from repro.generators.pa import generate_pa

        return generate_pa(150, stubs=2, hard_cutoff=10, seed=3).freeze()

    @staticmethod
    def _traced(run):
        collector = TelemetryCollector()
        with use_telemetry(collector):
            curve = run()
        (node,) = [node for node in collector.span_tree if node["name"] == "search"]
        assert node["attrs"]["messages"] == collector.counters["search.messages.total"]
        return node["attrs"], curve

    @pytest.mark.parametrize("algorithm", ["fl", "nf"])
    def test_search_curve_span(self, algorithm):
        from repro.search.metrics import search_curve
        from repro.search.registry import create_search_algorithm

        graph = self._graph()
        searcher = create_search_algorithm(algorithm)
        attrs, curve = self._traced(
            lambda: search_curve(graph, searcher, [1, 3, 5], queries=7, rng=2)
        )
        assert attrs == {
            "algorithm": algorithm,
            "queries": 7,
            "messages": round(curve.mean_messages[-1] * 7),
        }
        assert attrs["messages"] > 0

    def test_normalized_walk_span(self):
        from repro.search.metrics import normalized_walk_curve

        graph = self._graph()
        attrs, curve = self._traced(
            lambda: normalized_walk_curve(graph, [2, 4], k_min=2, queries=6, rng=2)
        )
        assert attrs == {
            "algorithm": "rw",
            "queries": 6,
            "messages": round(curve.mean_messages[-1] * 6),
        }

    def test_untraced_search_builds_no_attributes(self, monkeypatch):
        from repro.search.flooding import FloodingSearch
        from repro.search.metrics import normalized_walk_curve, search_curve
        from repro.telemetry.collector import NullTelemetry

        seen = []
        original = NullTelemetry.span

        def record(self, name, attrs=None, aggregate=True):
            seen.append((name, attrs))
            return original(self, name, attrs, aggregate)

        monkeypatch.setattr(NullTelemetry, "span", record)
        graph = self._graph()
        search_curve(graph, FloodingSearch(), [1, 2], queries=3, rng=1)
        search_curve(graph, NormalizedFloodingSearch(k_min=2), [1, 2], queries=3, rng=1)
        normalized_walk_curve(graph, [1, 2], k_min=2, queries=3, rng=1)
        assert [attrs for name, attrs in seen if name == "search"] == [None, None, None]


# --------------------------------------------------------------------------- #
# Serial vs parallel tree identity + trace-context pickling
# --------------------------------------------------------------------------- #
def _search_task(seed: int) -> Task:
    return Task(key=f"real[{seed}]", fn=_tiny_workload, args=(seed,))


def _tiny_workload(seed: int):
    """A realization-shaped workload (module-level: must pickle to workers)."""
    from repro.generators.pa import PreferentialAttachmentGenerator
    from repro.search.metrics import search_curve

    graph = PreferentialAttachmentGenerator(
        60, stubs=2, hard_cutoff=8, seed=seed
    ).generate_graph()
    curve = search_curve(
        graph, NormalizedFloodingSearch(k_min=2), [2], queries=3, rng=seed
    )
    return curve.mean_hits


def _traced_batch(executor, seeds, trace_id):
    collector = TelemetryCollector()
    tasks = [_search_task(seed) for seed in seeds]
    with use_telemetry(collector), use_trace_id(trace_id):
        with collector.span("batch"):
            with use_executor(executor):
                results = executor.run(tasks)
    return results, collector.export()


def _canonical_tree(export):
    """Reduce a span tree to (name, attrs, children) shape, order-free.

    Ids, timestamps, and thread ids differ between serial and parallel
    runs by construction; the tree *shape* must not.
    """
    nodes = export["span_tree"]
    ids = {node["id"] for node in nodes}
    children = {}
    roots = []
    for node in nodes:
        parent = node["parent"]
        if parent is None or parent not in ids:
            roots.append(node)
        else:
            children.setdefault(parent, []).append(node)

    def shape(node):
        shaped = {
            "name": node["name"],
            "attrs": node["attrs"],
            "children": sorted(
                (shape(child) for child in children.get(node["id"], [])),
                key=lambda s: json.dumps(s, sort_keys=True),
            ),
        }
        return shaped

    return sorted(
        (shape(root) for root in roots),
        key=lambda s: json.dumps(s, sort_keys=True),
    )


class TestSerialParallelIdentity:
    def test_parallel_tree_matches_serial(self):
        trace_id = new_trace_id()
        serial_results, serial_export = _traced_batch(
            SerialExecutor(), (31, 32, 33), trace_id
        )
        with ParallelExecutor(jobs=2) as parallel:
            parallel_results, parallel_export = _traced_batch(
                parallel, (31, 32, 33), trace_id
            )
        assert parallel_results == serial_results
        serial_tree = _canonical_tree(serial_export)
        parallel_tree = _canonical_tree(parallel_export)
        assert parallel_tree == serial_tree
        # The batch root holds one synthetic ``task`` span per realization.
        (root,) = serial_tree
        assert root["name"] == "batch"
        task_nodes = [c for c in root["children"] if c["name"] == "task"]
        assert sorted(node["attrs"]["index"] for node in task_nodes) == [0, 1, 2]

    def test_merged_ids_are_unique_and_parents_resolve(self):
        with ParallelExecutor(jobs=2) as parallel:
            _, export = _traced_batch(parallel, (41, 42, 43), new_trace_id())
        nodes = export["span_tree"]
        ids = [node["id"] for node in nodes]
        assert len(ids) == len(set(ids))
        known = set(ids)
        for node in nodes:
            assert node["parent"] is None or node["parent"] in known
            assert node["end"] >= node["start"]

    def test_trace_id_pickles_into_worker_spans(self):
        trace_id = new_trace_id()
        with ParallelExecutor(jobs=2) as parallel:
            _, export = _traced_batch(parallel, (51, 52), trace_id)
        # Every node — including those recorded inside pool worker
        # processes, where the ambient stack starts empty — carries the
        # request trace id that travelled by value with the task.
        nodes = export["span_tree"]
        assert nodes
        assert {node["trace_id"] for node in nodes} == {trace_id}

    def test_export_round_trip_preserves_tree(self):
        _, export = _traced_batch(SerialExecutor(), (61,), new_trace_id())
        rebuilt = TelemetryCollector.from_dict(export)
        assert rebuilt.export() == export
        # New spans continue past the imported id sequence.
        with rebuilt.span("post-import"):
            pass
        ids = [node["id"] for node in rebuilt.span_tree]
        assert len(ids) == len(set(ids))


# --------------------------------------------------------------------------- #
# Chrome trace-event export
# --------------------------------------------------------------------------- #
class TestChromeTrace:
    def _export(self):
        collector = TelemetryCollector()
        with use_trace_id("cafecafecafecafe"):
            with collector.span("scenario", attrs={"scale": "smoke"}):
                with collector.span("series"):
                    pass
        collector.count("rng.rejections", 3)
        return collector.export()

    def test_complete_events_with_micro_timestamps(self):
        export = self._export()
        chrome = to_chrome_trace(export)
        events = chrome["traceEvents"]
        assert [event["name"] for event in events] == ["scenario", "series"]
        by_name = {event["name"]: event for event in events}
        nodes = {node["name"]: node for node in export["span_tree"]}
        for name, event in by_name.items():
            assert event["ph"] == "X"
            node = nodes[name]
            assert event["ts"] == pytest.approx(node["start"] * 1e6)
            assert event["dur"] == pytest.approx(
                (node["end"] - node["start"]) * 1e6
            )
            assert event["args"]["trace_id"] == "cafecafecafecafe"
        assert by_name["series"]["args"]["parent_id"] == nodes["scenario"]["id"]
        assert "parent_id" not in by_name["scenario"]["args"]
        assert by_name["scenario"]["args"]["scale"] == "smoke"

    def test_other_data_and_ordering(self):
        chrome = to_chrome_trace(self._export())
        assert chrome["otherData"]["schema"] == TRACE_SCHEMA_VERSION
        assert chrome["otherData"]["counters"] == {"rng.rejections": 3}
        stamps = [event["ts"] for event in chrome["traceEvents"]]
        assert stamps == sorted(stamps)
        json.dumps(chrome)  # the payload must be directly serialisable


# --------------------------------------------------------------------------- #
# Histogram quantiles
# --------------------------------------------------------------------------- #
class TestQuantiles:
    def test_uniform_values_interpolate_accurately(self):
        collector = TelemetryCollector()
        for value in range(1, 101):
            collector.observe("sizes", value)
        entry = collector.histograms["sizes"]
        # Uniform 1..100: the (50,100] bucket interpolates p95 exactly.
        assert histogram_quantile(entry, 0.95) == pytest.approx(95.0, rel=0.01)
        p50 = histogram_quantile(entry, 0.50)
        p99 = histogram_quantile(entry, 0.99)
        assert 25.0 <= p50 <= 75.0  # bucket-resolution bound
        assert p50 <= histogram_quantile(entry, 0.95) <= p99 <= 100.0

    def test_single_observation_clamps_to_value(self):
        collector = TelemetryCollector()
        collector.observe("latency", 0.0375)
        entry = collector.histograms["latency"]
        for q in (0.5, 0.95, 0.99):
            assert histogram_quantile(entry, q) == pytest.approx(0.0375)

    def test_bucketless_entry_returns_none(self):
        assert (
            histogram_quantile(
                {"count": 4, "total": 10.0, "min": 1.0, "max": 4.0}, 0.5
            )
            is None
        )

    def test_export_derives_percentiles(self):
        collector = TelemetryCollector()
        for value in (0.01, 0.02, 0.04):
            collector.observe("serve.request_seconds", value)
        entry = collector.export()["histograms"]["serve.request_seconds"]
        assert entry["p50"] <= entry["p95"] <= entry["p99"] <= entry["max"]
        assert sum(entry["buckets"]) == 3

    def test_summary_lines_include_percentiles(self):
        collector = TelemetryCollector()
        for value in (1.0, 2.0, 3.0):
            collector.observe("frontier", value)
        (line,) = [
            line for line in collector.summary_lines() if "frontier" in line
        ]
        assert "p50=" in line and "p95=" in line and "p99=" in line


# --------------------------------------------------------------------------- #
# Schema compatibility
# --------------------------------------------------------------------------- #
class TestSchemaCompat:
    V1_PAYLOAD = {
        "schema": 1,
        "spans": {"generate": {"count": 2, "seconds": 0.5}},
        "counters": {"store.hits": 3},
        "histograms": {"sizes": {"count": 4, "total": 10.0, "min": 1.0, "max": 4.0}},
        "tasks": [],
    }

    def test_v1_payload_loads(self):
        collector = TelemetryCollector.from_dict(self.V1_PAYLOAD)
        export = collector.export()
        assert export["schema"] == TRACE_SCHEMA_VERSION
        assert export["span_tree"] == []
        entry = export["histograms"]["sizes"]
        assert entry["count"] == 4
        assert "buckets" not in entry and "p50" not in entry

    def test_v1_histogram_degrades_to_prometheus_summary(self):
        collector = TelemetryCollector.from_dict(self.V1_PAYLOAD)
        text = render_prometheus(collector.export())
        assert "# TYPE sizes summary" in text
        assert "sizes_count 4" in text
        assert "sizes_bucket" not in text


# --------------------------------------------------------------------------- #
# Structured logging
# --------------------------------------------------------------------------- #
class TestStructuredLogs:
    def test_no_handler_is_a_noop(self):
        assert install_log_handler(None) is None  # default state
        get_logger("repro.test").info("nothing-listens", detail=1)

    def test_memory_handler_captures_record_shape(self):
        handler = MemoryHandler()
        with use_log_handler(handler):
            get_logger("repro.test").warning("something", count=7, key="a")
        (record,) = handler.records
        assert record["level"] == "warning"
        assert record["logger"] == "repro.test"
        assert record["event"] == "something"
        assert record["count"] == 7 and record["key"] == "a"
        assert record["ts"] > 0
        assert record["trace_id"] is None and record["span_id"] is None

    def test_records_stamp_ambient_trace_and_span(self):
        handler = MemoryHandler()
        collector = TelemetryCollector()
        trace_id = new_trace_id()
        with use_log_handler(handler), use_trace_id(trace_id):
            with collector.span("request"):
                get_logger("repro.test").info("inside")
        (record,) = handler.records
        assert record["trace_id"] == trace_id
        assert record["span_id"] == collector.span_tree[0]["id"]

    def test_json_lines_handler_writes_parseable_lines(self):
        stream = io.StringIO()
        with use_log_handler(JsonLinesHandler(stream)):
            get_logger("a").info("one", n=1)
            get_logger("b").error("two", n=2)
        lines = stream.getvalue().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert [record["event"] for record in parsed] == ["one", "two"]
        assert parsed[1]["level"] == "error"

    def test_json_lines_handler_survives_broken_stream(self):
        stream = io.StringIO()
        stream.close()
        with use_log_handler(JsonLinesHandler(stream)):
            get_logger("a").info("into-the-void")  # must not raise

    def test_use_log_handler_restores_previous(self):
        outer = MemoryHandler()
        with use_log_handler(outer):
            with use_log_handler(MemoryHandler()):
                pass
            get_logger("a").info("after-inner")
        assert [record["event"] for record in outer.records] == ["after-inner"]

    def test_get_logger_is_cached(self):
        assert get_logger("repro.same") is get_logger("repro.same")


# --------------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------------- #
def _sample_export():
    collector = TelemetryCollector()
    collector.count("serve.requests", 5)
    collector.count("store.hits", 2)
    for value in (0.01, 0.02, 0.04):
        collector.observe("serve.request_seconds", value)
    with collector.span("generate"):
        pass
    return collector.export()


class TestPrometheusExposition:
    def test_counters_become_total_families(self):
        text = render_prometheus(_sample_export())
        assert "# TYPE serve_requests_total counter" in text
        assert "serve_requests_total 5" in text
        assert "store_hits_total 2" in text

    def test_histogram_buckets_are_cumulative_and_inf_closes(self):
        text = render_prometheus(_sample_export())
        assert "# TYPE serve_request_seconds histogram" in text
        bucket_values = []
        for line in text.splitlines():
            if line.startswith("serve_request_seconds_bucket{"):
                bucket_values.append(int(line.rsplit(" ", 1)[1]))
        assert len(bucket_values) == len(HISTOGRAM_BUCKETS) + 1
        assert bucket_values == sorted(bucket_values)  # cumulative, monotone
        assert 'serve_request_seconds_bucket{le="+Inf"} 3' in text
        assert "serve_request_seconds_count 3" in text
        assert "serve_request_seconds_sum 0.07" in text

    def test_spans_and_gauges(self):
        text = render_prometheus(
            _sample_export(), gauges={"serve_inflight": 0, "serve_uptime_seconds": 1.5}
        )
        assert 'repro_span_calls_total{span="generate"} 1' in text
        assert 'repro_span_seconds_total{span="generate"}' in text
        assert "# TYPE serve_inflight gauge" in text
        assert "serve_inflight 0" in text
        assert "serve_uptime_seconds 1.5" in text

    def test_metric_names_are_sanitized(self):
        collector = TelemetryCollector()
        collector.count("weird-name.with~chars", 1)
        text = render_prometheus(collector.export())
        assert "weird_name_with_chars_total 1" in text

    def test_exposition_parses_with_client_or_matches_golden(self):
        text = render_prometheus(_sample_export(), gauges={"serve_inflight": 1})
        try:
            from prometheus_client.parser import text_string_to_metric_families
        except ImportError:
            # Golden-format fallback: every sample line a `# TYPE` family
            # declared above it, bucket labels well-formed.
            families = {}
            for line in text.splitlines():
                if line.startswith("# TYPE "):
                    _, _, name, kind = line.split(" ")
                    families[name] = kind
            assert families["serve_requests_total"] == "counter"
            assert families["serve_request_seconds"] == "histogram"
            assert families["serve_inflight"] == "gauge"
            for line in text.splitlines():
                if line.startswith("#") or not line:
                    continue
                name = line.split("{")[0].split(" ")[0]
                base = name
                for suffix in ("_bucket", "_sum", "_count"):
                    if name.endswith(suffix) and name[: -len(suffix)] in families:
                        base = name[: -len(suffix)]
                assert base in families
        else:
            families = {
                family.name: family
                for family in text_string_to_metric_families(text)
            }
            assert families["serve_requests"].type == "counter"
            histogram = families["serve_request_seconds"]
            assert histogram.type == "histogram"
            samples = {
                (s.name, s.labels.get("le")): s.value
                for s in histogram.samples
            }
            assert samples[("serve_request_seconds_bucket", "+Inf")] == 3
            assert samples[("serve_request_seconds_count", None)] == 3

    def test_content_type_advertises_text_format(self):
        assert CONTENT_TYPE.startswith("text/plain; version=0.0.4")
