"""End-to-end benchmark of the repro program: one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload artefact-generation --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload twice, untraced and then traced, and
reports the per-layer metrics plus ``trace.overhead``.  The report goes to
standard output; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

from harness import ProgramError, run_artefact_workload, run_serve_workload
from tracer import PER_LAYER_METRICS, layer_metrics
from workloads import WORKLOADS

#: End-to-end metrics: name -> unit.  ``BENCHMARK.json`` lists the same.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cold_p50_s": "s",
    "warm_p50_ms": "ms",
    "warm_p90_ms": "ms",
}
#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 7
#: Units of the metrics that :mod:`calibration` scales to reference time.
TIME_UNITS = ("s", "ms", "us")


def run_workload(root: Path, tmp: Path, workload: str, seed: int, seconds: float,
                 setups: int, traced: bool) -> Dict[str, Any]:
    spans_out = tmp / "spans.json" if traced else None
    if workload == "serve-cold-warm":
        return run_serve_workload(root, tmp, seed, seconds, setups, spans_out)
    return run_artefact_workload(root, tmp, workload, seed, seconds, setups, spans_out)


def percentile(values: List[float], fraction: float) -> float:
    """The ``fraction`` quantile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[round(fraction * 100) - 1]


def op_latencies(run: Dict[str, Any], scaled: bool) -> List[float]:
    """The run's op latencies, raw or in reference seconds (see calibration.py)."""
    if not scaled:
        return run["latencies"]
    return [latency * factor for latency, factor in zip(run["latencies"], run["factors"])]


def speed(run: Dict[str, Any]) -> float:
    """The run's overall scale factor: its scaled over its raw timed phase."""
    raw = sum(run["latencies"])
    return sum(op_latencies(run, scaled=True)) / raw if raw else 1.0


def end_to_end_metrics(run: Dict[str, Any], scaled: bool) -> Dict[str, float]:
    latencies = op_latencies(run, scaled)
    cold = [latencies[op] for op in run["cold_ops"]]
    warm = [latencies[op] for op in run["warm_ops"]]
    return {
        "setup_s": statistics.median(run["setup_times"]) * (run["setup_factor"] if scaled else 1.0),
        "wall_s": sum(latencies),
        "peak_rss_mb": run["peak_rss_mb"],
        "cold_p50_s": statistics.median(cold) if cold else 0.0,
        "warm_p50_ms": statistics.median(warm) * 1e3 if warm else 0.0,
        "warm_p90_ms": percentile(warm, 0.90) * 1e3,
    }


def self_shares(metrics: Dict[str, float], wall_s: float) -> Dict[str, float]:
    """Each layer's self time as a share of the traced run's timed phase."""
    shares: Dict[str, float] = {}
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + value / wall_s
    shares["substrate+generators"] = shares["substrate"] + shares["generators"]
    return {layer: round(share, 4) for layer, share in shares.items()}


def provenance(root: Path) -> Dict[str, Any]:
    """What produced the numbers: code version, interpreter, libraries, CPUs."""
    def version(package: str) -> Any:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    git_sha = "unknown"
    if (root / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        git_sha = found.stdout.strip() or git_sha
    source = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    numba = version("numba")
    return {
        "git_sha": git_sha,
        "src_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": numba,
        "kernel_tier": "jit" if numba else "python",
        "nproc": os.cpu_count(),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    # Every process this run starts inherits one vCPU.  The loop is closed
    # and the program's defaults are serial, so client and program never
    # compute at once and nothing is lost; a request's wake-ups then land on
    # a running vCPU instead of a halted one the hypervisor must reschedule,
    # and calibration samples time the vCPU the program runs on (while the
    # program is stopped, see harness.py).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scratch = root / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        runs = [run_workload(root, tmp, args.workload, args.seed, args.seconds,
                             SETUPS if not args.trace else 1, traced=False)]
        if args.trace:
            runs.append(run_workload(root, tmp, args.workload, args.seed, args.seconds, 1, traced=True))
    except ProgramError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    final = runs[-1]
    if args.trace:
        # Spans are not ops: their times are scaled by the run's overall factor.
        raw = layer_metrics(final["spans"] or [], final["client_latency"])
        units = {name: unit for name, (unit, _better) in PER_LAYER_METRICS.items()}
        metrics = {
            name: value * speed(final) if units[name] in TIME_UNITS else value
            for name, value in raw.items()
        }
        metrics["trace.overhead"] = (
            sum(op_latencies(final, scaled=True)) / sum(op_latencies(runs[0], scaled=True)) - 1.0
        )
    else:
        raw = end_to_end_metrics(final, scaled=False)
        units = END_TO_END_UNITS
        metrics = end_to_end_metrics(final, scaled=True)
    problems = [problem for run in runs for problem in run["problems"]]
    if len({run["digest"] for run in runs}) > 1:
        problems.append("traced and untraced runs produced different outputs")
    if len({json.dumps(run["counts"], sort_keys=True) for run in runs}) > 1:
        problems.append("traced and untraced runs did different work")
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(root),
        "digest": final["digest"],
        "counts": final["counts"],
        "samples": {
            "setups": len(final["setup_times"]),
            "cold": len(final["cold_ops"]),
            "warm": len(final["warm_ops"]),
        },
        "raw_wall_s": [sum(run["latencies"]) for run in runs],
        "speed_factor": [speed(run) for run in runs],
        "setup_speed_factor": final["setup_factor"],
        "raw_metrics": raw,
        "problems": problems,
    }
    if args.trace:
        report["self_share"] = self_shares(raw, sum(final["latencies"]))
    for key, value in report.items():
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"metric {name} = {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
