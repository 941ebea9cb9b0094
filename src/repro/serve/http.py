"""A dependency-free asyncio HTTP/1.1 front end for the scenario service.

Hand-rolled on :func:`asyncio.start_server` — no framework, no new
dependencies — because the protocol surface is deliberately tiny:

====== ============================= ==========================================
Method Path                          Meaning
====== ============================= ==========================================
POST   ``/scenarios``                Submit a :class:`ScenarioSpec` JSON body.
                                     Query: ``wait=0`` (return 202
                                     immediately), ``scale=...``, ``seed=...``.
GET    ``/scenarios/<hash>``         Status/result of the newest job for a
                                     canonical spec hash; 404 once the job
                                     table has evicted the hash (its result
                                     stays in the store).
GET    ``/scenarios/<hash>/events``  NDJSON progress stream (one JSON object
                                     per line, live until the job finishes).
GET    ``/healthz``                  Liveness + uptime.
GET    ``/metrics``                  Telemetry counters/latencies/store stats.
====== ============================= ==========================================

Every connection serves one request and closes (``Connection: close``),
which keeps the parser trivial and NDJSON framing unambiguous: event
streams are terminated by EOF, not chunked encoding.  Blocking service
calls (``submit`` waits on a computation future) run in the event loop's
default thread pool so one slow scenario never stalls health checks.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.errors import ReproError, ScenarioError
from repro.serve.service import ScenarioService
from repro.telemetry.collector import telemetry_clock
from repro.telemetry.logs import get_logger
from repro.telemetry.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE

__all__ = ["ServeHTTP"]

_log = get_logger("repro.serve.http")

#: Specs are small; anything bigger than this is a client error.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Cap on the request line + one header line.
MAX_LINE_BYTES = 16 * 1024


class _BadRequest(Exception):
    """Maps to a 400 with its message as detail."""


class ServeHTTP:
    """Bind a :class:`ScenarioService` to a TCP port.

    ``port=0`` binds an ephemeral port (tests); the bound port is available
    as :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        service: ScenarioService,
        host: str = "127.0.0.1",
        port: int = 0,
        access_log: bool = True,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: Emit one structured ``http.access`` record per request through
        #: the ambient log handler (``repro serve --quiet`` turns this off).
        self.access_log = access_log
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    # Request plumbing
    # ------------------------------------------------------------------ #
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = telemetry_clock()
        # Per-connection response state: the send helpers record the status
        # and the response's trace id here so the access log can report
        # them after dispatch (connections interleave on one event loop, so
        # this must stay request-local).
        state: Dict[str, Any] = {"status": 0, "trace_id": None}
        method: Optional[str] = None
        path: Optional[str] = None
        try:
            method, path, params, body, headers = await self._read_request(reader)
            await self._dispatch(writer, method, path, params, body, headers, state)
        except _BadRequest as error:
            await self._send_json(
                writer, 400, {"error": "BadRequest", "detail": str(error)},
                state,
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/response
        except Exception as error:  # pragma: no cover - last-resort guard
            print(f"serve: unhandled error: {error!r}", file=sys.stderr)
            try:
                await self._send_json(
                    writer, 500,
                    {"error": type(error).__name__, "detail": str(error)},
                    state,
                )
            except ConnectionError:
                pass
        finally:
            if self.access_log and method is not None:
                _log.info(
                    "http.access",
                    method=method,
                    path=path or "-",
                    status=state["status"],
                    duration_ms=round((telemetry_clock() - started) * 1e3, 3),
                    trace_id=state["trace_id"],
                )
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes, Dict[str, str]]:
        request_line = await reader.readline()
        if not request_line:
            raise _BadRequest("empty request")
        if len(request_line) > MAX_LINE_BYTES:
            raise _BadRequest("request line too long")
        try:
            method, target, _version = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            raise _BadRequest("malformed request line") from None
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if len(line) > MAX_LINE_BYTES:
                raise _BadRequest("header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _BadRequest("malformed Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _BadRequest(f"body too large (limit {MAX_BODY_BYTES} bytes)")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        params = {
            name: values[-1]
            for name, values in parse_qs(split.query).items()
        }
        return method.upper(), split.path, params, body, headers

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        state: Optional[Dict[str, Any]] = None,
    ) -> None:
        if state is not None:
            state["status"] = status
            if payload.get("trace_id"):
                state["trace_id"] = payload["trace_id"]
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        writer.write(self._head(status, "application/json", len(body)) + body)
        await writer.drain()

    @staticmethod
    def _head(status: int, content_type: str, length: Optional[int]) -> bytes:
        reasons = {
            200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            500: "Internal Server Error",
        }
        lines = [
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            "Connection: close",
        ]
        if length is not None:
            lines.append(f"Content-Length: {length}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        params: Dict[str, str],
        body: bytes,
        headers: Dict[str, str],
        state: Dict[str, Any],
    ) -> None:
        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, self.service.health(), state)
            return
        if path == "/metrics" and method == "GET":
            # Content negotiation: Prometheus scrapers send ``Accept:
            # text/plain`` (or an openmetrics type) and get text exposition;
            # everything else — including bare curls and the pre-existing
            # JSON consumers — keeps the JSON body.
            accept = headers.get("accept", "")
            if "text/plain" in accept or "openmetrics" in accept:
                text = self.service.metrics_text().encode("utf-8")
                state["status"] = 200
                writer.write(
                    self._head(200, PROMETHEUS_CONTENT_TYPE, len(text)) + text
                )
                await writer.drain()
            else:
                await self._send_json(writer, 200, self.service.metrics(), state)
            return
        if path == "/scenarios":
            if method != "POST":
                await self._send_json(
                    writer, 405,
                    {"error": "MethodNotAllowed", "detail": "POST a spec here"},
                    state,
                )
                return
            await self._submit(writer, params, body, state)
            return
        if path.startswith("/scenarios/") and method == "GET":
            rest = path[len("/scenarios/"):]
            if rest.endswith("/events"):
                await self._stream_events(
                    writer, rest[: -len("/events")].rstrip("/"), state
                )
            else:
                await self._job_status(writer, rest, state)
            return
        await self._send_json(
            writer, 404,
            {"error": "NotFound", "detail": f"no route for {path}"},
            state,
        )

    async def _submit(
        self,
        writer: asyncio.StreamWriter,
        params: Dict[str, str],
        body: bytes,
        state: Dict[str, Any],
    ) -> None:
        wait = params.get("wait", "1") not in ("0", "false", "no")
        seed: Optional[int] = None
        if "seed" in params:
            try:
                seed = int(params["seed"])
            except ValueError:
                raise _BadRequest(f"malformed seed {params['seed']!r}") from None
        scale = params.get("scale")
        loop = asyncio.get_running_loop()
        try:
            response = await loop.run_in_executor(
                None,
                lambda: self.service.submit(body, scale=scale, seed=seed, wait=wait),
            )
        except ScenarioError as error:
            # Eager validation failed: the client's spec is the problem.
            await self._send_json(
                writer, 400, {"error": "ScenarioError", "detail": str(error)},
                state,
            )
            return
        except ReproError as error:
            await self._send_json(
                writer, 400,
                {"error": type(error).__name__, "detail": str(error)},
                state,
            )
            return
        if response.get("status") == "failed":
            await self._send_json(writer, 500, response, state)
        elif response.get("status") in ("queued", "running"):
            await self._send_json(writer, 202, response, state)
        else:
            await self._send_json(writer, 200, response, state)

    async def _job_status(
        self,
        writer: asyncio.StreamWriter,
        spec_hash: str,
        state: Dict[str, Any],
    ) -> None:
        job = self.service.job_for(spec_hash)
        if job is None:
            await self._send_json(
                writer, 404,
                {"error": "NotFound", "detail": f"unknown scenario {spec_hash!r}"},
                state,
            )
            return
        await self._send_json(writer, 200, job.describe(), state)

    async def _stream_events(
        self,
        writer: asyncio.StreamWriter,
        spec_hash: str,
        state: Dict[str, Any],
    ) -> None:
        job = self.service.job_for(spec_hash)
        if job is None:
            await self._send_json(
                writer, 404,
                {"error": "NotFound", "detail": f"unknown scenario {spec_hash!r}"},
                state,
            )
            return
        state["status"] = 200
        state["trace_id"] = job.trace_id
        writer.write(self._head(200, "application/x-ndjson", None))
        await writer.drain()
        loop = asyncio.get_running_loop()
        cursor = 0
        while True:
            # EventLog.after blocks in a worker thread (0.5 s slices keep
            # the coroutine cancellable); events flush line by line.
            events, closed = await loop.run_in_executor(
                None, job.events.after, cursor, 0.5
            )
            for event in events:
                writer.write(
                    (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
                )
            cursor += len(events)
            await writer.drain()
            if closed and not events:
                break
