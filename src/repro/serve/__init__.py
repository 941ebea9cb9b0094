"""Scenario service: warm-cache, dedup-aware serving of scenario runs.

``repro serve`` turns the scenario layer into a long-lived local service:

* :mod:`repro.serve.service` — the transport-free core.
  :class:`ScenarioService` answers warm requests straight from the
  :class:`~repro.engine.store.ResultStore`, schedules cold ones on a
  shared :class:`~repro.engine.executor.Executor` (``repro serve --jobs``
  sizes it; with the default one job, tasks run in the service's own
  process), and deduplicates identical in-flight specs by canonical
  hash — the second submitter awaits the first's future and receives a
  byte-identical response.  :class:`EventLog` buffers serializable
  progress events for streaming consumers.  Its state is bounded: the job
  table keeps the newest ``MAX_KNOWN_JOBS`` spec hashes, and the service
  collector keeps counters, histograms and per-name span totals but no
  span tree, so memory does not grow with the request count.
* :mod:`repro.serve.http` — :class:`ServeHTTP`, a stdlib-only asyncio
  HTTP front end (``POST /scenarios``, NDJSON ``/events`` streams,
  ``/healthz``, ``/metrics``).
"""

from repro.serve.http import ServeHTTP
from repro.serve.service import EventLog, ScenarioJob, ScenarioService

__all__ = ["EventLog", "ScenarioJob", "ScenarioService", "ServeHTTP"]
