"""The artefact workload process.

``python perfbench/worker.py WORKLOAD SEED COUNT [SPANS_OUT]``, run from the
repository root with ``src`` on ``PYTHONPATH`` (``run.py`` does this).  It
sets up (imports plus one tiny warm-up artefact), prints ``ready``, runs
COUNT identical artefacts through ``repro.run_scenario`` and prints one JSON
line with their timings, checks, digest and work counts.  Before each
artefact it prints ``next`` and waits for ``go`` on standard input, so the
orchestrator can stop it and take calibration samples in between.  COUNT 0
stops after ``ready``.  With SPANS_OUT the layer wrappers of :mod:`tracer`
are installed first and the spans of the timed phase are written there.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from workloads import ARTEFACTS, artefact_scale_fields, canonical, check_result, digest, search_messages


def run_artefacts(
    run: Callable[..., Any], spec: Any, scale: Any, count: int, expected_series: int,
    before_each: Optional[Callable[[], None]] = None,
) -> Dict[str, Any]:
    """Time ``count`` calls of ``run(spec, scale=scale)``, then check them.

    ``before_each`` is called, untimed, before every call.  An op fails
    when it raises, fails :func:`workloads.check_result`, or differs from
    the first artefact (every call has the same inputs).
    """
    latencies: List[float] = []
    results: List[Any] = []
    problems: List[str] = []
    for _ in range(count):
        if before_each is not None:
            before_each()
        started = time.perf_counter()
        try:
            results.append(run(spec, scale=scale))
        except Exception as error:  # a raising op is counted, the run goes on
            results.append(None)
            problems.append(f"raised {error!r}")
        latencies.append(time.perf_counter() - started)

    failed = 0
    chunks: List[bytes] = []
    messages = 0
    for result in results:
        if result is None:
            failed += 1
            continue
        payload = result.as_dict()
        chunk = canonical(payload)
        found = check_result(payload, expected_series)
        if chunks and chunk != chunks[0]:
            found.append("output differs from the first artefact")
        failed += bool(found)
        problems.extend(found)
        chunks.append(chunk)
        messages += search_messages(payload)
    return {
        "latencies": latencies,
        "attempted": count,
        "failed": failed,
        "problems": problems[:10],
        "digest": digest(chunks),
        "counts": {"series": expected_series, "search_messages": messages},
    }


def wait_for_turn() -> None:
    """Announce the next artefact and block until the orchestrator says ``go``."""
    print("next", flush=True)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("worker: no go-ahead from the orchestrator")


def main(argv: List[str]) -> int:
    workload, seed, count = argv[0], int(argv[1]), int(argv[2])
    spans_out = argv[3] if len(argv) > 3 else None
    import repro
    from repro.experiments.runner import ExperimentScale
    from repro.scenarios import ScenarioSpec, compile_scenario

    tracer = None
    if spans_out:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    spec = ScenarioSpec.from_dict(ARTEFACTS[workload]["spec"])
    scale = ExperimentScale(**artefact_scale_fields(workload, seed))
    repro.run_scenario(spec, scale=ExperimentScale(**artefact_scale_fields(workload, seed, warmup=True)))
    expected_series = len(compile_scenario(spec, scale))
    print("ready", flush=True)
    if count == 0:
        return 0
    if tracer is not None:
        tracer.clear()
    report = run_artefacts(repro.run_scenario, spec, scale, count, expected_series, wait_for_turn)
    if tracer is not None:
        tracer.dump(spans_out)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
