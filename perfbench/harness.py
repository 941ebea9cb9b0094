"""Drive the program's processes: artefact workers and a real ``repro serve``.

Every program process is started from the repository root with ``src`` on
``PYTHONPATH``, its stderr goes to a log file in the run's temp directory,
and it is reaped with ``os.wait4`` so its peak RSS is known.  Set-up time
runs from spawning a process until it is ready: the worker's ``ready`` line,
or the server's first ``/healthz`` 200.

Calibration samples (:mod:`calibration`) are taken while no program thread
can run: before a program process is spawned, after it is reaped, or while
it is stopped with SIGSTOP between two ops.  CPU the program burns off the
request path therefore slows the requests but not the samples, and shows
in the scaled times.  Set-ups and the timed phase have separate samples.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import calibration
from workloads import (
    SERVE_SCALE,
    SERVE_SERIES,
    SERVE_SPEC,
    artefact_count,
    canonical,
    check_result,
    digest,
    search_messages,
    serve_schedule,
)

HERE = Path(__file__).resolve().parent
#: Requests between two calibration samples in the serve workload.
CALIBRATE_EVERY = 20
#: Longest any single program process may take before it is killed.
PROCESS_LIMIT_S = 150.0
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro-shm"


class ProgramError(RuntimeError):
    """A program process failed in a way that ends the run."""


def program_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def log_tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Wait for ``proc`` (killing it after ``timeout``); return (exit code, peak RSS MB).

    A process already reaped by ``Popen.poll`` has no RSS left to read: 0.
    """
    if proc.returncode is not None:
        return proc.returncode, 0.0
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.005)


def sample_while_stopped(
    proc: subprocess.Popen, sampler: Callable[[], float] = calibration.sample
) -> float:
    """One calibration sample taken while every thread of ``proc`` is stopped.

    Call it only between two ops, so the stop lands outside every timed span.
    """
    if proc.returncode is not None:
        return sampler()
    os.kill(proc.pid, signal.SIGSTOP)
    _pid, status = os.waitpid(proc.pid, os.WUNTRACED)
    if not os.WIFSTOPPED(status):  # it exited, and waitpid has reaped it
        proc.returncode = os.waitstatus_to_exitcode(status)
        return sampler()
    try:
        return sampler()
    finally:
        os.kill(proc.pid, signal.SIGCONT)


def shm_segments() -> set:
    """The program's shared-memory segments currently in ``/dev/shm``."""
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


# --------------------------------------------------------------------------- #
# Artefact workloads
# --------------------------------------------------------------------------- #
def start_worker(
    root: Path, tmp: Path, workload: str, seed: int, count: int, spans_out: Optional[Path]
) -> Tuple[subprocess.Popen, float, Path, threading.Timer]:
    """Spawn an artefact worker and wait for ``ready``; return it and its set-up time."""
    log = tmp / f"worker-{len(list(tmp.glob('worker-*')))}.log"
    command = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(count)]
    if spans_out is not None:
        command.append(str(spans_out))
    started = time.perf_counter()
    with open(log, "wb") as stderr:
        proc = subprocess.Popen(
            command, cwd=root, env=program_env(root), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=stderr, text=True,
        )
    watchdog = threading.Timer(PROCESS_LIMIT_S, proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - started
    if line.strip() != "ready":
        watchdog.cancel()
        proc.stdin.close()
        reap(proc, 10)
        raise ProgramError(f"artefact worker did not get ready: {log_tail(log)}")
    return proc, setup_s, log, watchdog


def run_artefact_workload(
    root: Path, tmp: Path, workload: str, seed: int, seconds: float, setups: int,
    spans_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """Set up ``setups`` times, then run the timed phase in the last process."""
    setup_times: List[float] = []
    setup_samples: List[float] = []
    for _ in range(setups - 1):
        setup_samples += [calibration.sample(), calibration.sample()]
        proc, setup_s, _log, watchdog = start_worker(root, tmp, workload, seed, 0, None)
        proc.stdin.close()
        proc.stdout.read()
        reap(proc, PROCESS_LIMIT_S)
        watchdog.cancel()
        setup_times.append(setup_s)
    setup_samples += [calibration.sample(), calibration.sample()]
    count = artefact_count(workload, seconds)
    proc, setup_s, log, watchdog = start_worker(root, tmp, workload, seed, count, spans_out)
    setup_times.append(setup_s)
    samples: List[float] = []
    line = proc.stdout.readline()
    while line.strip() == "next":
        samples += [sample_while_stopped(proc), sample_while_stopped(proc)]
        try:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        except BrokenPipeError:
            break  # the worker died; its exit code reports it
        line = proc.stdout.readline()
    with contextlib.suppress(BrokenPipeError):
        proc.stdin.close()
    output = line + proc.stdout.read()
    code, peak_rss_mb = reap(proc, PROCESS_LIMIT_S)
    watchdog.cancel()
    samples += [calibration.sample(), calibration.sample()]
    if code != 0 or not output.strip():
        raise ProgramError(f"artefact worker exited with {code}: {log_tail(log)}")
    report = json.loads(output.strip().splitlines()[-1])
    ops = len(report["latencies"])
    report.update({
        "setup_times": setup_times,
        "setup_factor": calibration.speed_factor(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        # An artefact lasts about a second: each is scaled by the two
        # samples taken before it and the two after it.
        "factors": [calibration.speed_factor(samples[2 * op:2 * op + 4]) for op in range(ops)],
        # Every timed artefact computes its result (this path has no result
        # store); every one after the first repeats the first one's inputs.
        "cold_ops": list(range(ops)),
        "warm_ops": list(range(1, ops)) or [0],
        "spans": json.loads(spans_out.read_text()) if spans_out is not None else None,
        "client_latency": None,
    })
    return report


# --------------------------------------------------------------------------- #
# Serve workload
# --------------------------------------------------------------------------- #
_SERVING = re.compile(r"serving on http://([0-9.]+):([0-9]+)")


class Server:
    """One ``repro serve`` process with its defaults, ``--port 0`` and a temp store."""

    def __init__(self, root: Path, tmp: Path, tag: str, spans_out: Optional[Path] = None) -> None:
        self.store = tmp / f"store-{tag}"
        self.log = tmp / f"serve-{tag}.log"
        command = [sys.executable, str(HERE / "serve_launcher.py")]
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        command += ["serve", "--port", "0", "--cache", str(self.store)]
        started = time.perf_counter()
        # The access log goes to a file: a pipe nobody drains would block it.
        with open(self.log, "wb") as stderr:
            self.proc = subprocess.Popen(
                command, cwd=root, env=program_env(root), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
        try:
            self.host, self.port = self._wait_for_address(started + 60)
            self._wait_for_health(started + 60)
        except ProgramError:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_for_address(self, deadline: float) -> Tuple[str, int]:
        while time.perf_counter() < deadline:
            match = _SERVING.search(self.log.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise ProgramError(f"server exited during start-up: {log_tail(self.log)}")
            time.sleep(0.005)
        raise ProgramError("server printed no 'serving on' line")

    def _wait_for_health(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                status, _body = self.request("GET", "/healthz", None, timeout=5)
                if status == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.005)
        raise ProgramError("server never answered /healthz")

    def request(self, method: str, path: str, body: Optional[bytes], timeout: float = 60) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            connection.request(method, path, body=body, headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stop(self) -> Tuple[List[str], float]:
        """SIGTERM the server; return (problems, peak RSS MB) and remove its store."""
        problems: List[str] = []
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        code, peak_rss_mb = reap(self.proc, 30)
        if code != 0:
            problems.append(f"server exited with {code}")
        if "serve: shut down cleanly" not in self.log.read_text(errors="replace"):
            problems.append("server did not report a clean shutdown")
        shutil.rmtree(self.store, ignore_errors=True)
        if self.store.exists():
            problems.append("temp store not removed")
        return problems, peak_rss_mb


def store_bytes(store: Path) -> int:
    """Bytes of the result files in a store (``meta.json`` holds a timestamp)."""
    return sum(path.stat().st_size for name in ("result.json", "result.csv") for path in store.rglob(name))


def run_serve_workload(
    root: Path, tmp: Path, seed: int, seconds: float, setups: int,
    spans_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """Closed loop: one client, one request per connection, cold and warm interleaved."""
    segments_before = shm_segments()
    problems: List[str] = []
    setup_times: List[float] = []
    setup_samples: List[float] = []
    for index in range(setups - 1):
        setup_samples += [calibration.sample(), calibration.sample()]
        server = Server(root, tmp, f"setup-{index}")
        setup_times.append(server.setup_s)
        problems.extend(server.stop()[0])
    setup_samples += [calibration.sample(), calibration.sample()]
    reference = calibration.ReferenceServer(tmp)
    try:
        server = Server(root, tmp, "main", spans_out)
    except BaseException:
        reference.stop()
        raise
    setup_times.append(server.setup_s)
    schedule = serve_schedule(seed, seconds)
    try:
        run = _send_requests(server, reference, schedule)
        written = store_bytes(server.store)
    finally:
        reference.stop()
        stop_problems, peak_rss_mb = server.stop()
    problems += run.pop("problems") + stop_problems
    leaked = shm_segments() - segments_before
    if leaked:
        problems.append(f"shared-memory segments left behind: {sorted(leaked)}")
    warm_trace_ids = run.pop("warm_trace_ids")
    kinds = run.pop("kinds")
    spans = json.loads(spans_out.read_text()) if spans_out is not None and spans_out.exists() else None
    if spans is not None:
        from tracer import compute_calls_by_trace

        computed = compute_calls_by_trace(spans)
        busy = sum(1 for trace_id in warm_trace_ids if computed.get(trace_id))
        if busy:
            run["failed"] += busy
            problems.append(f"{busy} warm requests ran generation or search")
    cold_results = run.pop("cold_results")
    run["counts"].update(store_bytes=written)
    run.update({
        "attempted": len(schedule),
        "problems": problems[:10],
        "digest": digest([cold_results[request["seed"]] for request in schedule
                          if request["kind"] == "cold" and request["seed"] in cold_results]),
        "setup_times": setup_times,
        "setup_factor": calibration.speed_factor(setup_samples),
        "cold_ops": [op for op, kind in enumerate(kinds) if kind == "cold"],
        "warm_ops": [op for op, kind in enumerate(kinds) if kind == "warm"],
        "peak_rss_mb": peak_rss_mb,
        "spans": spans,
    })
    return run


def _send_requests(
    server: Server, reference: calibration.ReferenceServer, schedule: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Send the schedule's POSTs in order, with calibration samples in between.

    Every :data:`CALIBRATE_EVERY` requests form a window, and each request
    is scaled by the reference samples taken just before and just after its
    window: a slow spell of the host usually spans a whole window.
    """
    body = canonical(SERVE_SPEC)
    problems: List[str] = []
    cold_results: Dict[int, bytes] = {}
    latencies: List[float] = []
    kinds: List[str] = []
    client_latency: Dict[str, float] = {}
    warm_trace_ids: List[str] = []
    samples: List[float] = []
    windows: List[int] = []
    messages = 0
    failed = 0
    for index, request in enumerate(schedule):
        if index % CALIBRATE_EVERY == 0:
            samples.append(sample_while_stopped(server.proc, reference.sample))
        path = f"/scenarios?scale={SERVE_SCALE}&seed={request['seed']}"
        started = time.perf_counter()
        try:
            status, raw = server.request("POST", path, body)
        except (OSError, http.client.HTTPException) as error:
            if server.proc.poll() is not None:
                failed += len(schedule) - index
                problems.append(f"server died: {log_tail(server.log)}")
                break
            failed += 1
            problems.append(f"request failed: {error!r}")
            continue
        latency = time.perf_counter() - started
        found = _check_response(request, status, raw, cold_results)
        if found:
            failed += 1
            problems.extend(found)
            continue
        response = json.loads(raw)
        client_latency[response["trace_id"]] = latency
        latencies.append(latency)
        kinds.append(request["kind"])
        windows.append(len(samples))
        if request["kind"] == "cold":
            messages += search_messages(response["result"])
        else:
            warm_trace_ids.append(response["trace_id"])
    samples.append(sample_while_stopped(server.proc, reference.sample))
    return {
        "failed": failed,
        "problems": problems,
        "counts": {
            "cold_requests": kinds.count("cold"),
            "warm_requests": kinds.count("warm"),
            "search_messages": messages,
        },
        "latencies": latencies,
        "factors": [
            calibration.speed_factor(samples[window - 1:window + 1], calibration.REFERENCE_ROUND_TRIPS_S)
            for window in windows
        ],
        "kinds": kinds,
        "client_latency": client_latency,
        "warm_trace_ids": warm_trace_ids,
        "cold_results": cold_results,
    }


def _check_response(
    request: Dict[str, Any], status: int, raw: bytes, cold_results: Dict[int, bytes]
) -> List[str]:
    """Problems with one POST response; records a cold result for later warm checks."""
    if status != 200:
        return [f"{request['kind']} request got HTTP {status}"]
    try:
        response = json.loads(raw)
    except ValueError:
        return [f"{request['kind']} request got a body that is not JSON"]
    if response.get("status") != "done":
        return [f"{request['kind']} request status {response.get('status')!r}"]
    result = canonical(response.get("result"))
    if request["kind"] == "cold":
        if response.get("from_cache"):
            return ["cold request was answered from the store"]
        found = check_result(response["result"], SERVE_SERIES)
        if not found:
            cold_results[request["seed"]] = result
        return found
    if not response.get("from_cache"):
        return ["warm request was not answered from the store"]
    if result != cold_results.get(request["seed"]):
        return ["warm result differs from the cold result"]
    return []
