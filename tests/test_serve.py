"""Tests for the scenario service (:mod:`repro.serve`).

The load-bearing guarantees:

* two concurrent identical specs trigger exactly **one** computation
  (in-flight dedup) and both callers get identical responses;
* a warm request (result already in the store) is answered from disk —
  including across a service restart — byte-identical to a direct
  :func:`run_scenario_cached` call;
* malformed specs surface as :class:`ScenarioError` → HTTP 400 with the
  validation detail, and never touch the executor;
* the NDJSON event stream carries the structured progress events.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import sys
import threading
import time

import pytest

from repro.core.errors import ScenarioError
from repro.engine.executor import ParallelExecutor
from repro.engine.store import ResultStore
from repro.scenarios.compile import run_scenario_cached
from repro.scenarios.spec import ScenarioSpec
from repro.serve import EventLog, ScenarioService, ServeHTTP
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.logs import MemoryHandler, use_log_handler

SPEC = {
    "id": "serve-test",
    "title": "Serve test scenario",
    "topology": {"model": "pa", "stubs": 2, "hard_cutoff": 10},
    "label": "dd",
    "measurement": {"kind": "degree-distribution"},
}
SPEC_JSON = json.dumps(SPEC)


def _service(tmp_path=None, **kwargs) -> ScenarioService:
    kwargs.setdefault("scale", "smoke")
    kwargs.setdefault("telemetry", TelemetryCollector())
    if tmp_path is not None:
        kwargs.setdefault("store", ResultStore(tmp_path / "cache"))
    return ScenarioService(**kwargs)


def _counter(service: ScenarioService, name: str) -> float:
    return service.telemetry.export()["counters"].get(name, 0)


class TestEventLog:
    def test_append_stamps_sequence_numbers(self):
        log = EventLog()
        log.append({"event": "a"})
        log.append({"event": "b"})
        assert [e["seq"] for e in log.snapshot()] == [0, 1]

    def test_after_returns_only_new_events_and_closed_flag(self):
        log = EventLog()
        log.append({"event": "a"})
        events, closed = log.after(0, timeout=0)
        assert [e["event"] for e in events] == ["a"]
        assert not closed
        events, closed = log.after(1, timeout=0)
        assert events == [] and not closed
        log.close()
        events, closed = log.after(1, timeout=0)
        assert events == [] and closed

    def test_after_wakes_blocked_consumer(self):
        log = EventLog()
        seen = []

        def consume():
            events, _ = log.after(0, timeout=5.0)
            seen.extend(events)

        thread = threading.Thread(target=consume)
        thread.start()
        log.append({"event": "late"})
        thread.join(timeout=5.0)
        assert [e["event"] for e in seen] == ["late"]


class TestWarmAndCold:
    def test_cold_then_warm(self, tmp_path):
        service = _service(tmp_path)
        try:
            cold = service.submit(SPEC_JSON)
            assert cold["status"] == "done"
            assert cold["from_cache"] is False
            warm = service.submit(SPEC_JSON)
            assert warm["status"] == "done"
            assert warm["from_cache"] is True
            assert warm["result"] == cold["result"]
            assert _counter(service, "serve.cold_misses") == 1
            assert _counter(service, "serve.warm_hits") == 1
            assert _counter(service, "serve.computations") == 1
        finally:
            service.close()

    def test_cold_and_warm_probe_the_store_once_each(self, tmp_path):
        # submit() probes the store; the cold job then computes and puts
        # without probing it again.
        service = _service(tmp_path)
        try:
            service.submit(SPEC_JSON)
            service.submit(SPEC_JSON)
            store = service.metrics()["store"]
            assert (store["misses"], store["hits"]) == (1, 1)
            assert _counter(service, "store.misses") == 1
            assert _counter(service, "store.hits") == 1
            assert store["entries"] == 1
        finally:
            service.close()

    def test_restarted_service_serves_from_disk(self, tmp_path):
        first = _service(tmp_path)
        try:
            cold = first.submit(SPEC_JSON)
        finally:
            first.close()
        second = _service(tmp_path)
        try:
            warm = second.submit(SPEC_JSON)
            assert warm["from_cache"] is True
            assert warm["result"] == cold["result"]
            assert _counter(second, "serve.computations") == 0
        finally:
            second.close()

    def test_result_identical_to_direct_run(self, tmp_path):
        service = _service(tmp_path)
        try:
            served = service.submit(SPEC_JSON)
        finally:
            service.close()
        spec = ScenarioSpec.from_json(SPEC_JSON)
        direct, _ = run_scenario_cached(spec, scale=service.default_scale)
        assert json.dumps(served["result"], sort_keys=True) == json.dumps(
            direct.as_dict(), sort_keys=True
        )

    def test_store_key_includes_spec_hash(self, tmp_path):
        """Two different specs with the same id do not collide."""
        service = _service(tmp_path)
        other = dict(SPEC, topology={"model": "pa", "stubs": 3, "hard_cutoff": 10})
        try:
            first = service.submit(SPEC_JSON)
            second = service.submit(json.dumps(other))
            assert second["from_cache"] is False
            assert second["spec_hash"] != first["spec_hash"]
            assert _counter(service, "serve.computations") == 2
        finally:
            service.close()

    def test_warm_lookup_uses_shared_cache_extra(self, tmp_path):
        """A result persisted by ``repro run`` is warm for the service."""
        store = ResultStore(tmp_path / "cache")
        spec = ScenarioSpec.from_json(SPEC_JSON)
        service = _service(tmp_path)
        try:
            run_scenario_cached(spec, scale=service.default_scale, store=store)
            warm = service.submit(SPEC_JSON)
            assert warm["from_cache"] is True
            assert _counter(service, "serve.computations") == 0
        finally:
            service.close()


class TestInFlightDedup:
    def test_concurrent_identical_specs_compute_once(self, tmp_path, monkeypatch):
        """Two concurrent identical submits → one computation, equal bodies."""
        release = threading.Event()
        running = threading.Event()
        calls = []
        real = run_scenario_cached

        def blocking(spec, **kwargs):
            calls.append(spec.spec_hash())
            running.set()
            assert release.wait(timeout=10.0), "test deadlock"
            return real(spec, **kwargs)

        monkeypatch.setattr(
            "repro.serve.service.run_scenario_cached", blocking
        )
        service = _service(tmp_path, workers=4)
        responses = []
        try:
            threads = [
                threading.Thread(
                    target=lambda: responses.append(service.submit(SPEC_JSON))
                )
                for _ in range(2)
            ]
            threads[0].start()
            assert running.wait(timeout=10.0)  # first request is in flight
            threads[1].start()
            # The second submit must dedup against the first before the
            # computation is allowed to finish.
            deadline = 50
            while _counter(service, "serve.dedup_hits") < 1 and deadline:
                threading.Event().wait(0.05)
                deadline -= 1
            release.set()
            for thread in threads:
                thread.join(timeout=30.0)
            assert len(responses) == 2
            assert responses[0] == responses[1]  # byte-identical bodies
            assert len(calls) == 1  # exactly one computation ran
            assert _counter(service, "serve.cold_misses") == 1
            assert _counter(service, "serve.dedup_hits") == 1
        finally:
            release.set()
            service.close()

    def test_different_seeds_do_not_dedup(self, tmp_path):
        service = _service(tmp_path)
        try:
            first = service.submit(SPEC_JSON, seed=1)
            second = service.submit(SPEC_JSON, seed=2)
            assert first["seed"] != second["seed"]
            assert _counter(service, "serve.dedup_hits") == 0
            assert _counter(service, "serve.computations") == 2
        finally:
            service.close()


class TestErrors:
    def test_malformed_json_raises_scenario_error(self):
        service = _service()
        try:
            with pytest.raises(ScenarioError, match="not valid JSON"):
                service.submit("{not json")
            assert _counter(service, "serve.errors") == 1
        finally:
            service.close()

    def test_invalid_spec_raises_with_detail(self):
        service = _service()
        bad = dict(SPEC, topology={"model": "no-such-model"})
        try:
            with pytest.raises(ScenarioError, match="no-such-model"):
                service.submit(json.dumps(bad))
        finally:
            service.close()

    def test_unknown_scale_raises(self):
        service = _service()
        try:
            with pytest.raises(Exception):
                service.submit(SPEC_JSON, scale="galactic")
        finally:
            service.close()


class TestAsyncSubmit:
    def test_wait_false_returns_queued_then_resolves(self, tmp_path):
        service = _service(tmp_path)
        try:
            response = service.submit(SPEC_JSON, wait=False)
            assert response["status"] in ("queued", "running", "done")
            job = service.job_for(response["spec_hash"])
            assert job is not None
            job.future.result(timeout=30.0)
            assert job.status == "done"
            events = [e["event"] for e in job.events.snapshot()]
            assert events[0] == "accepted"
            assert "completed" in events
            assert job.events.closed
        finally:
            service.close()

    def test_progress_events_are_structured(self, tmp_path):
        service = _service(tmp_path)
        try:
            response = service.submit(SPEC_JSON)
            job = service.job_for(response["spec_hash"])
            kinds = {e["event"] for e in job.events.snapshot()}
            # ProgressReporter events funnel into the same log as the
            # service lifecycle events.
            assert {"accepted", "running", "completed"} <= kinds
            assert "experiment-started" in kinds
            for event in job.events.snapshot():
                json.dumps(event)  # every event is JSON-serializable
        finally:
            service.close()


class _HTTPFixture:
    """A ServeHTTP instance running on an event loop in a daemon thread."""

    def __init__(self, service: ScenarioService, access_log: bool = True) -> None:
        self.service = service
        self.http = ServeHTTP(service, port=0, access_log=access_log)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.http.start(), self.loop).result(10)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def request(self, method: str, path: str, body=None, headers=None):
        status, _headers, payload = self.request_full(method, path, body, headers)
        return status, payload

    def request_full(self, method: str, path: str, body=None, headers=None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.http.port, timeout=60
        )
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            conn.close()

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(self.http.close(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.service.close()


@pytest.fixture()
def served(tmp_path):
    fixture = _HTTPFixture(_service(tmp_path))
    yield fixture
    fixture.close()


class TestHTTP:
    def test_healthz(self, served):
        status, body = served.request("GET", "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0

    def test_post_cold_then_warm(self, served):
        status, body = served.request("POST", "/scenarios", SPEC_JSON)
        assert status == 200
        cold = json.loads(body)
        assert cold["status"] == "done" and cold["from_cache"] is False
        status, body = served.request("POST", "/scenarios", SPEC_JSON)
        warm = json.loads(body)
        assert status == 200
        assert warm["from_cache"] is True
        assert warm["result"] == cold["result"]

    def test_malformed_spec_is_400_with_detail(self, served):
        status, body = served.request("POST", "/scenarios", "{not json")
        assert status == 400
        payload = json.loads(body)
        assert payload["error"] == "ScenarioError"
        assert "JSON" in payload["detail"]

    def test_invalid_field_is_400_with_detail(self, served):
        bad = json.dumps(dict(SPEC, bogus_field=1))
        status, body = served.request("POST", "/scenarios", bad)
        assert status == 400
        assert "bogus_field" in json.loads(body)["detail"]

    def test_status_and_events_routes(self, served):
        _, body = served.request("POST", "/scenarios", SPEC_JSON)
        spec_hash = json.loads(body)["spec_hash"]
        status, body = served.request("GET", f"/scenarios/{spec_hash}")
        assert status == 200
        assert json.loads(body)["status"] == "done"
        status, body = served.request("GET", f"/scenarios/{spec_hash}/events")
        assert status == 200
        events = [json.loads(line) for line in body.decode().splitlines()]
        assert events  # NDJSON: one JSON object per line
        assert events[0]["event"] == "accepted"
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_unknown_routes(self, served):
        assert served.request("GET", "/nope")[0] == 404
        assert served.request("GET", "/scenarios/deadbeef")[0] == 404
        assert served.request("GET", "/scenarios")[0] == 405

    def test_metrics_counts_requests(self, served):
        served.request("POST", "/scenarios", SPEC_JSON)
        served.request("POST", "/scenarios", SPEC_JSON)
        status, body = served.request("GET", "/metrics")
        assert status == 200
        metrics = json.loads(body)
        counters = metrics["counters"]
        assert counters["serve.requests"] == 2
        assert counters.get("serve.warm_hits", 0) + counters.get(
            "serve.dedup_hits", 0
        ) >= 1
        assert "serve.request_seconds" in metrics["histograms"]
        assert metrics["store"] is not None


def _wait_for(predicate, timeout: float = 5.0):
    """Poll until ``predicate()`` is truthy (access-log records are emitted
    after the response bytes, so the client can observe the body first)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.01)
    return predicate()


class TestTraceCorrelation:
    def test_trace_id_links_response_stream_and_access_log(self, tmp_path):
        handler = MemoryHandler()
        with use_log_handler(handler):
            fixture = _HTTPFixture(_service(tmp_path))
            try:
                status, body = fixture.request("POST", "/scenarios", SPEC_JSON)
                assert status == 200
                cold = json.loads(body)
                trace_id = cold["trace_id"]
                assert trace_id
                # The job status route reports the same trace id...
                _, body = fixture.request(
                    "GET", f"/scenarios/{cold['spec_hash']}"
                )
                assert json.loads(body)["trace_id"] == trace_id
                # ...and every NDJSON event line carries it.
                _, body = fixture.request(
                    "GET", f"/scenarios/{cold['spec_hash']}/events"
                )
                events = [
                    json.loads(line) for line in body.decode().splitlines()
                ]
                assert events
                assert {event["trace_id"] for event in events} == {trace_id}
            finally:
                fixture.close()

        def access_records():
            return [
                record
                for record in handler.records
                if record["event"] == "http.access"
            ]

        access = _wait_for(lambda: len(access_records()) >= 3 and access_records())
        posts = [r for r in access if r["method"] == "POST"]
        assert posts and posts[0]["status"] == 200
        assert posts[0]["trace_id"] == trace_id
        streams = [r for r in access if r["path"].endswith("/events")]
        assert streams and streams[0]["trace_id"] == trace_id
        assert all("duration_ms" in r for r in access)
        # Job lifecycle records correlate through the same id.
        lifecycle = [
            record
            for record in handler.records
            if record["event"].startswith("job-")
        ]
        assert lifecycle
        assert {record["trace_id"] for record in lifecycle} == {trace_id}

    def test_quiet_mode_silences_access_log(self, tmp_path):
        handler = MemoryHandler()
        with use_log_handler(handler):
            fixture = _HTTPFixture(_service(tmp_path), access_log=False)
            try:
                status, _body = fixture.request("GET", "/healthz")
                assert status == 200
            finally:
                fixture.close()
        assert not [
            record
            for record in handler.records
            if record["event"] == "http.access"
        ]

    def test_warm_request_mints_its_own_trace_id(self, tmp_path):
        service = _service(tmp_path)
        try:
            cold = service.submit(SPEC_JSON)
            warm = service.submit(SPEC_JSON)
            assert warm["from_cache"] is True
            assert warm["trace_id"] and cold["trace_id"]
            assert warm["trace_id"] != cold["trace_id"]
        finally:
            service.close()

    def test_cold_request_builds_full_span_tree(self, tmp_path):
        # The acceptance flow: one cold request's trace reassembles into
        # serve.request -> scenario -> series -> task even when the
        # realization tasks ran in pool worker processes.
        executor = ParallelExecutor(jobs=2)
        service = _service(tmp_path, executor=executor)
        try:
            cold = service.submit(SPEC_JSON)
            trace_id = cold["trace_id"]
            export = service.telemetry.export()
        finally:
            service.close()
            executor.close()
        tree = export["span_tree"]
        by_id = {node["id"]: node for node in tree}
        tasks = [
            node
            for node in tree
            if node["name"] == "task" and node["trace_id"] == trace_id
        ]
        assert tasks
        chain = []
        node = tasks[0]
        while node is not None:
            chain.append(node["name"])
            assert node["trace_id"] == trace_id
            parent = node["parent"]
            node = by_id[parent] if parent is not None else None
        assert chain[0] == "task"
        assert chain[-1] == "serve.request"
        assert "scenario" in chain and "series" in chain
        request_node = by_id[
            [n["id"] for n in tree if n["name"] == "serve.request"][0]
        ]
        assert request_node["attrs"]["spec_hash"] == cold["spec_hash"]


class TestBoundedMemory:
    def test_default_collector_keeps_aggregates_only(self, tmp_path):
        service = ScenarioService(scale="smoke", store=ResultStore(tmp_path / "cache"))
        try:
            for seed in range(30):
                assert service.submit(SPEC_JSON, seed=seed)["from_cache"] is False
                assert service.submit(SPEC_JSON, seed=seed)["from_cache"] is True
            export = service.telemetry.export()
        finally:
            service.close()
        assert service.telemetry.span_tree == []
        assert service.telemetry.tasks == []
        assert export["span_tree"] == [] and export["tasks"] == []
        assert export["counters"]["serve.requests"] == 60
        assert export["histograms"]["serve.request_seconds"]["count"] == 60
        assert export["spans"]["serve.request"]["count"] == 30

    def test_job_table_keeps_the_newest_hashes(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.service.MAX_KNOWN_JOBS", 4)
        release = threading.Event()
        real = run_scenario_cached

        def gated(spec, **kwargs):
            if spec.scenario_id == "serve-held":
                assert release.wait(timeout=30.0), "test deadlock"
            return real(spec, **kwargs)

        monkeypatch.setattr("repro.serve.service.run_scenario_cached", gated)
        fixture = _HTTPFixture(_service(tmp_path))
        try:
            status, body = fixture.request(
                "POST", "/scenarios?wait=0", json.dumps(dict(SPEC, id="serve-held"))
            )
            assert status == 202
            held = json.loads(body)["spec_hash"]
            burst = []
            for index in range(10):
                status, body = fixture.request(
                    "POST", "/scenarios", json.dumps(dict(SPEC, id=f"serve-burst-{index}"))
                )
                assert status == 200
                burst.append(json.loads(body)["spec_hash"])
            assert len({held, *burst}) == 11
            assert json.loads(fixture.request("GET", "/metrics")[1])["known_jobs"] == 4
            assert fixture.request("GET", f"/scenarios/{burst[-1]}")[0] == 200
            assert fixture.request("GET", f"/scenarios/{burst[0]}")[0] == 404
            status, body = fixture.request("GET", f"/scenarios/{held}")
            assert status == 200
            assert json.loads(body)["status"] in ("queued", "running")
            release.set()
            fixture.service.job_for(held).future.result(timeout=30.0)
            assert fixture.request("GET", f"/scenarios/{held}")[0] == 200
            # An evicted hash's result is still in the store.
            status, body = fixture.request(
                "POST", "/scenarios", json.dumps(dict(SPEC, id="serve-burst-0"))
            )
            assert status == 200 and json.loads(body)["from_cache"] is True
        finally:
            release.set()
            fixture.close()

    def test_concurrent_admissions_keep_the_table_at_the_cap(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.serve.service.MAX_KNOWN_JOBS", 8)
        service = _service(tmp_path, workers=4)
        responses = []

        def submit_distinct(worker):
            for index in range(5):
                spec = json.dumps(dict(SPEC, id=f"serve-{worker}-{index}"))
                responses.append(service.submit(spec, timeout=60.0))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=submit_distinct, args=(worker,))
                for worker in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert len(responses) == 40
        assert all(response["status"] == "done" for response in responses)
        metrics = service.metrics()
        assert (metrics["known_jobs"], metrics["inflight"]) == (8, 0)


class TestMetricsExposition:
    def test_prometheus_text_negotiated_by_accept(self, served):
        served.request("POST", "/scenarios", SPEC_JSON)
        status, headers, body = served.request_full(
            "GET", "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = body.decode()
        assert "# TYPE serve_requests_total counter" in text
        assert "# TYPE serve_request_seconds histogram" in text
        count = int(
            [
                line
                for line in text.splitlines()
                if line.startswith("serve_request_seconds_count ")
            ][0].split()[1]
        )
        inf = [
            line
            for line in text.splitlines()
            if line.startswith('serve_request_seconds_bucket{le="+Inf"}')
        ]
        assert inf and int(inf[0].rsplit(" ", 1)[1]) == count >= 1
        assert "serve_uptime_seconds" in text
        assert "serve_inflight 0" in text

    def test_default_metrics_stay_json_with_percentiles(self, served):
        served.request("POST", "/scenarios", SPEC_JSON)
        status, headers, body = served.request_full("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        entry = json.loads(body)["histograms"]["serve.request_seconds"]
        assert entry["p50"] <= entry["p95"] <= entry["p99"]
        assert sum(entry["buckets"]) == entry["count"]
