"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands
-----------
``repro list``
    List the reproducible experiments (figures, tables, ablations) — the
    built-in scenarios, as ``repro scenarios list`` does.
``repro figure fig9 --scale small --jobs 4 --cache .repro-cache --out results/``
    Run one built-in scenario — optionally across worker processes and
    against a persistent result cache — and print its series (optionally
    saving JSON/CSV).  ``--json`` emits a machine-readable payload instead.
``repro suite --scale small --jobs 8 --cache .repro-cache --out results/``
    Run every built-in scenario through one shared worker pool; cached
    experiments are skipped, so an interrupted suite resumes where it left
    off.  ``--json`` emits per-experiment results and cache-hit flags.
``repro run my_scenario.json --scale small --jobs 4 --cache .repro-cache``
    Run a user-authored declarative scenario spec (see
    :mod:`repro.scenarios`) or a built-in id exactly as ``figure`` does;
    ``--inline '<json>'`` takes the spec on the command line.
``repro scenarios list`` / ``repro scenarios show fig9``
    Introspect the built-in scenarios (every figure/table/ablation is a
    spec); ``show --scale smoke`` prints the compiled series labels.
``repro generate pa --nodes 10000 --stubs 2 --cutoff 40 --out topo.json``
    Generate a topology and print (or save) its summary statistics.
``repro search nf --model pa --nodes 5000 --stubs 2 --cutoff 10 --ttl 8``
    Generate a topology and run a search-efficiency measurement on it.
``repro cache stats --cache .repro-cache``
    Print result-store entry count, total bytes, the persisted hit/miss
    counters of the last run, and the last ``gc`` summary.
``repro cache gc --cache .repro-cache --max-bytes 500m --older-than 7d``
    Evict least-recently-written result-store entries until the cache fits
    the byte budget and/or drop entries older than the age bound.
``repro serve --port 8765 --jobs 4 --cache .repro-cache``
    Serve scenario specs over HTTP: warm requests are answered from the
    result store, identical in-flight specs are deduplicated, and progress
    streams as NDJSON (see :mod:`repro.serve`).
``repro lint src/ --json --select RPL1``
    Run the AST invariant checker (draw-order, pool contracts, ambient
    discipline; see :mod:`repro.staticcheck`) — the CI lint gate.
    ``--list-rules`` prints the rule catalogue.

Every run-style subcommand (``figure``/``suite``/``run``/``generate``/
``search``) also takes ``--trace <out.json>`` (write a schema-versioned
trace of spans/counters/histograms) and ``--metrics`` (print a telemetry
summary to stderr); with either flag the ambient telemetry collector is
enabled for the run, otherwise instrumentation is a no-op.

``figure``, ``run``, ``suite``, and ``serve`` share one run path
(:func:`repro.scenarios.run_scenario_cached`) and one result-store key (the
canonical spec hash), so a result any of them stored is a hit for the
others, and an edited spec is a miss.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro._version import __version__
from repro.analysis.powerlaw import fit_power_law
from repro.core.errors import AnalysisError, ReproError
from repro.engine.executor import executor_from_jobs
from repro.engine.progress import ProgressReporter
from repro.engine.store import ResultStore
from repro.engine.tasks import run_suite
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import ExperimentScale
from repro.generators.registry import available_generators, create_generator
from repro.scenarios import (
    ScenarioSpec,
    builtin_scenarios,
    compile_scenario,
    get_builtin_scenario,
    run_scenario_cached,
)
from repro.search.flooding import FloodingSearch
from repro.search.metrics import normalized_walk_curve, search_curve
from repro.search.normalized_flooding import NormalizedFloodingSearch
from repro.telemetry.collector import (
    TelemetryCollector,
    active_telemetry,
    telemetry_clock,
    use_telemetry,
)

__all__ = ["main", "build_parser"]


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace``/``--metrics`` flags of every run-style command."""
    parser.add_argument("--trace", type=Path, default=None, metavar="OUT.json",
                        help="enable telemetry and write the trace (span "
                             "tree, counters, histograms, per-task records) "
                             "to this JSON file")
    parser.add_argument("--trace-format", default="repro",
                        choices=["repro", "chrome"],
                        help="--trace output format: 'repro' (the "
                             "schema-versioned export) or 'chrome' (Chrome "
                             "trace-event JSON for about:tracing / Perfetto)")
    parser.add_argument("--metrics", action="store_true",
                        help="enable telemetry and print a summary of spans, "
                             "counters, and histogram percentiles to stderr "
                             "after the run")
    parser.add_argument("--log-json", action="store_true",
                        help="emit structured JSON-lines logs (trace-id "
                             "stamped) to stderr")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Scale-free overlay topologies with hard cutoffs for unstructured "
            "P2P networks (Guclu & Yuksel, ICDCS 2007) — reproduction toolkit"
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    # list
    subparsers.add_parser("list", help="list reproducible experiments")

    # figure
    figure = subparsers.add_parser("figure", help="run one figure/table experiment")
    figure.add_argument("experiment", help="experiment id, e.g. fig1, table1, fig9")
    figure.add_argument(
        "--scale", default="small", choices=["smoke", "small", "paper"],
        help="experiment scale preset (default: small)",
    )
    figure.add_argument("--seed", type=int, default=None, help="base RNG seed")
    figure.add_argument("--out", type=Path, default=None,
                        help="directory to write <experiment>.json and .csv into")
    figure.add_argument("--jobs", type=int, default=1,
                        help="worker processes for realization tasks (default: 1)")
    figure.add_argument("--cache", type=Path, default=None,
                        help="result-store directory; identical re-runs are "
                             "served from cache")
    figure.add_argument("--progress", action="store_true",
                        help="stream per-task progress to stderr")
    figure.add_argument("--json", action="store_true",
                        help="print a machine-readable JSON payload "
                             "(experiment id, cache-hit flag, full series) "
                             "instead of the text table")
    _add_telemetry_args(figure)

    # suite
    suite = subparsers.add_parser(
        "suite", help="run many experiments through one shared worker pool"
    )
    suite.add_argument(
        "--scale", default="small", choices=["smoke", "small", "paper"],
        help="experiment scale preset (default: small)",
    )
    suite.add_argument("--seed", type=int, default=None, help="base RNG seed")
    suite.add_argument("--jobs", type=int, default=1,
                       help="worker processes shared by all experiments")
    suite.add_argument("--cache", type=Path, default=None,
                       help="result-store directory; completed experiments are "
                            "skipped on re-runs, making the suite resumable")
    suite.add_argument("--out", type=Path, default=None,
                       help="directory to write per-experiment JSON/CSV into")
    suite.add_argument("--only", nargs="*", default=None,
                       help="run only these experiment ids (default: all)")
    suite.add_argument("--progress", action="store_true",
                       help="stream per-task progress to stderr")
    suite.add_argument("--json", action="store_true",
                       help="print a machine-readable JSON report (per-"
                            "experiment results, timings, cache-hit flags) "
                            "instead of the summary table")
    _add_telemetry_args(suite)

    # run (declarative scenarios)
    run_cmd = subparsers.add_parser(
        "run", help="run a declarative scenario spec (JSON file or --inline)"
    )
    run_cmd.add_argument(
        "spec", nargs="?", default=None,
        help="path to a scenario JSON file, or a built-in scenario id",
    )
    run_cmd.add_argument("--inline", default=None, metavar="JSON",
                         help="scenario spec as an inline JSON string")
    run_cmd.add_argument(
        "--scale", default="small", choices=["smoke", "small", "paper"],
        help="experiment scale preset (default: small)",
    )
    run_cmd.add_argument("--seed", type=int, default=None, help="base RNG seed")
    run_cmd.add_argument("--jobs", type=int, default=1,
                         help="worker processes for realization tasks (default: 1)")
    run_cmd.add_argument("--compare", type=Path, default=None, metavar="BASELINE",
                         help="compare the result against a stored baseline "
                              "JSON (a previous --out / save_json file); "
                              "exits non-zero when any shared series drifts "
                              "beyond --tolerance")
    run_cmd.add_argument("--tolerance", type=float, default=0.0,
                         help="maximum relative per-series difference "
                              "accepted by --compare (default: 0.0 — "
                              "byte-identical reproduction)")
    run_cmd.add_argument("--cache", type=Path, default=None,
                         help="result-store directory; re-runs of any "
                              "equivalent spelling of the spec are served "
                              "from cache (specs hash canonically)")
    run_cmd.add_argument("--out", type=Path, default=None,
                         help="directory to write <scenario-id>.json and .csv into")
    run_cmd.add_argument("--progress", action="store_true",
                         help="stream per-task progress to stderr")
    run_cmd.add_argument("--json", action="store_true",
                         help="print a machine-readable JSON payload "
                              "(scenario id, spec hash, cache-hit flag, "
                              "full series) instead of the text table")
    _add_telemetry_args(run_cmd)

    # scenarios (introspection)
    scenarios_cmd = subparsers.add_parser(
        "scenarios", help="introspect the built-in declarative scenarios"
    )
    scenarios_sub = scenarios_cmd.add_subparsers(dest="scenarios_command")
    scenarios_sub.add_parser("list", help="list built-in scenario ids and titles")
    scenarios_show = scenarios_sub.add_parser(
        "show", help="print one built-in scenario's spec as JSON"
    )
    scenarios_show.add_argument("scenario", help="scenario id, e.g. fig9")
    scenarios_show.add_argument(
        "--scale", default=None, choices=["smoke", "small", "paper"],
        help="also print the series labels the spec compiles to at this scale",
    )

    # generate
    generate = subparsers.add_parser("generate", help="generate one overlay topology")
    generate.add_argument("model", choices=available_generators())
    generate.add_argument("--nodes", type=int, default=10_000)
    generate.add_argument("--stubs", type=int, default=1, help="number of stubs m")
    generate.add_argument("--cutoff", type=int, default=None, help="hard cutoff kc")
    generate.add_argument("--exponent", type=float, default=3.0,
                          help="prescribed exponent (CM only)")
    generate.add_argument("--tau-sub", type=int, default=4,
                          help="locality horizon (DAPA only)")
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--fit", action="store_true",
                          help="also fit a power-law exponent to the result")
    generate.add_argument("--out", type=Path, default=None,
                          help="write the edge list to this path")
    _add_telemetry_args(generate)

    # search
    search = subparsers.add_parser("search", help="measure search efficiency")
    search.add_argument("algorithm", choices=["fl", "nf", "rw"])
    search.add_argument("--model", default="pa", choices=available_generators())
    search.add_argument("--nodes", type=int, default=5000)
    search.add_argument("--stubs", type=int, default=2)
    search.add_argument("--cutoff", type=int, default=None)
    search.add_argument("--exponent", type=float, default=3.0)
    search.add_argument("--tau-sub", type=int, default=4)
    search.add_argument("--ttl", type=int, default=8, help="maximum TTL")
    search.add_argument("--queries", type=int, default=100)
    search.add_argument("--seed", type=int, default=None)
    _add_telemetry_args(search)

    # cache
    cache = subparsers.add_parser(
        "cache", help="inspect a result-store directory"
    )
    cache_sub = cache.add_subparsers(dest="cache_command")
    cache_stats = cache_sub.add_parser(
        "stats", help="entry count, total bytes, and last-run hit/miss counters"
    )
    cache_stats.add_argument("--cache", type=Path, required=True,
                             help="result-store directory to inspect")
    cache_stats.add_argument("--json", action="store_true",
                             help="print the stats as JSON")
    cache_gc = cache_sub.add_parser(
        "gc", help="evict cache entries LRU-by-mtime to bound a store"
    )
    cache_gc.add_argument("--cache", type=Path, required=True,
                          help="result-store directory to collect")
    cache_gc.add_argument("--max-bytes", default=None, metavar="SIZE",
                          help="evict oldest entries until the store fits "
                               "this budget (plain bytes or k/m/g suffix, "
                               "e.g. 256m)")
    cache_gc.add_argument("--older-than", default=None, metavar="AGE",
                          help="evict entries whose result is older than "
                               "this (seconds, or s/m/h/d suffix, e.g. 7d)")
    cache_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be evicted without deleting")
    cache_gc.add_argument("--json", action="store_true",
                          help="print the gc summary as JSON")

    # lint
    lint = subparsers.add_parser(
        "lint",
        help="run the repro invariant checker (RPL draw-order / "
             "pool-contract / ambient-discipline rules)",
    )
    lint.add_argument("paths", nargs="*", type=Path, default=[Path("src")],
                      metavar="PATH",
                      help="files or directories to lint (default: src)")
    lint.add_argument("--json", action="store_true",
                      help="emit the machine-readable report on stdout")
    lint.add_argument("--select", action="append", default=None,
                      metavar="CODE",
                      help="only run rules matching this code or family "
                           "prefix (e.g. RPL101 or RPL1); repeatable")
    lint.add_argument("--ignore", action="append", default=None,
                      metavar="CODE",
                      help="skip rules matching this code or family prefix; "
                           "repeatable")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="also print suppressed findings with their "
                           "justifications")
    lint.add_argument("--list-rules", action="store_true",
                      help="print every rule code with the invariant it "
                           "checks, then exit")

    # serve
    serve = subparsers.add_parser(
        "serve", help="serve scenario specs over HTTP (see repro.serve)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 picks a free port; default: 8765)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="worker processes shared by all scenario "
                            "computations (default: 1)")
    serve.add_argument("--workers", type=int, default=4,
                       help="scenario computations admitted concurrently "
                            "(default: 4)")
    serve.add_argument(
        "--scale", default="small", choices=["smoke", "small", "paper"],
        help="scale preset requests run at (default: small)",
    )
    serve.add_argument("--seed", type=int, default=None, help="base RNG seed")
    serve.add_argument("--cache", type=Path, default=None,
                       help="result-store directory; warm requests are "
                            "answered straight from disk")
    serve.add_argument("--quiet", action="store_true",
                       help="disable the structured access log and job "
                            "lifecycle log lines on stderr")

    return parser


# --------------------------------------------------------------------------- #
# Command implementations
# --------------------------------------------------------------------------- #
def _cmd_list(_: argparse.Namespace) -> int:
    """``repro list`` and ``repro scenarios list``: built-in ids and titles."""
    specs = builtin_scenarios()
    width = max(len(scenario_id) for scenario_id in specs)
    for scenario_id, spec in specs.items():
        print(f"{scenario_id:<{width}}  {spec.title}")
    return 0


def _save_result(result, out_dir: Path, to_stderr: bool = False) -> None:
    """Write a result's JSON/CSV artifacts under ``out_dir`` and report it."""
    json_path = result.save_json(out_dir / f"{result.experiment_id}.json")
    csv_path = result.save_csv(out_dir / f"{result.experiment_id}.csv")
    print(
        f"wrote {json_path} and {csv_path}",
        file=sys.stderr if to_stderr else sys.stdout,
    )


def _telemetry_collector(args: argparse.Namespace) -> Optional[TelemetryCollector]:
    """A fresh collector when ``--trace``/``--metrics`` asked for one, else
    ``None`` (the ambient stays the zero-overhead null collector)."""
    if getattr(args, "trace", None) is not None or getattr(args, "metrics", False):
        return TelemetryCollector()
    return None


def _telemetry_report(
    args: argparse.Namespace,
    collector: Optional[TelemetryCollector],
    wall_seconds: float,
    store: Optional[ResultStore] = None,
) -> dict:
    """Write ``--trace``, print ``--metrics``, and return the ``--json`` block.

    The block is always present in run-style JSON payloads so consumers can
    rely on its shape; with telemetry disabled it carries only the wall time
    and the cache counters.
    """
    block: dict = {
        "enabled": collector is not None,
        "wall_seconds": wall_seconds,
        "cache": store.stats() if store is not None else None,
    }
    if collector is None:
        return block
    export = collector.export()
    block["trace"] = export
    if args.trace is not None:
        args.trace.parent.mkdir(parents=True, exist_ok=True)
        if getattr(args, "trace_format", "repro") == "chrome":
            from repro.telemetry.trace import to_chrome_trace

            payload = to_chrome_trace(export)
        else:
            payload = dict(export, wall_seconds=wall_seconds)
        args.trace.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    if args.metrics:
        for line in collector.summary_lines():
            print(line, file=sys.stderr)
    return block


def _run_spec(
    args: argparse.Namespace, spec: ScenarioSpec
) -> "tuple[ExperimentResult, bool, dict]":
    """Run ``spec`` with the flags ``figure`` and ``run`` share.

    Sets up the store, progress, telemetry, and executor, runs
    :func:`run_scenario_cached`, and returns ``(result, from_cache,
    telemetry_block)``.
    """
    store = ResultStore(args.cache) if args.cache is not None else None
    progress = ProgressReporter(stream=sys.stderr if args.progress else None)
    collector = _telemetry_collector(args)
    started = telemetry_clock()
    with use_telemetry(collector), executor_from_jobs(args.jobs) as executor:
        result, from_cache = run_scenario_cached(
            spec,
            scale=ExperimentScale.from_name(args.scale),
            seed=args.seed,
            executor=executor,
            store=store,
            progress=progress,
        )
    wall_seconds = telemetry_clock() - started
    if store is not None:
        store.save_stats()
    return result, from_cache, _telemetry_report(args, collector, wall_seconds, store)


def _finish_run(args: argparse.Namespace, result: ExperimentResult, from_cache: bool) -> None:
    """Note a cache hit on stderr and write ``--out`` artifacts."""
    if args.cache is not None and from_cache:
        print(f"served from cache ({args.cache})", file=sys.stderr)
    if args.out is not None:
        _save_result(result, args.out, to_stderr=args.json)


def _cmd_figure(args: argparse.Namespace) -> int:
    result, from_cache, telemetry_block = _run_spec(
        args, get_builtin_scenario(args.experiment)
    )
    if args.json:
        print(json.dumps(
            {
                "experiment_id": result.experiment_id,
                "from_cache": from_cache,
                "result": result.as_dict(),
                "telemetry": telemetry_block,
            },
            indent=2,
            sort_keys=True,
        ))
    else:
        print(result.to_table())
    _finish_run(args, result, from_cache)
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    scale = ExperimentScale.from_name(args.scale)
    store = ResultStore(args.cache) if args.cache is not None else None
    progress = ProgressReporter(stream=sys.stderr if args.progress else None)

    def save_entry(entry) -> None:
        # Persist as soon as each experiment finishes so an interrupted
        # suite keeps everything completed so far.
        if args.out is not None:
            entry.result.save_json(args.out / f"{entry.experiment_id}.json")
            entry.result.save_csv(args.out / f"{entry.experiment_id}.csv")

    collector = _telemetry_collector(args)
    started = telemetry_clock()
    with use_telemetry(collector), executor_from_jobs(args.jobs) as executor:
        report = run_suite(
            args.only,
            scale=scale,
            seed=args.seed,
            executor=executor,
            store=store,
            progress=progress,
            on_result=save_entry,
        )
    wall_seconds = telemetry_clock() - started
    if store is not None:
        store.save_stats()
    telemetry_block = _telemetry_report(args, collector, wall_seconds, store)
    if args.out is not None:
        print(f"wrote {2 * len(report.entries)} files under {args.out}", file=sys.stderr)
    if args.json:
        payload = report.as_dict()
        payload["telemetry"] = telemetry_block
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0


def _load_scenario(args: argparse.Namespace) -> ScenarioSpec:
    """Resolve the scenario for ``repro run``: inline JSON, file, or built-in."""
    if (args.spec is None) == (args.inline is None):
        raise ReproError(
            "give exactly one scenario source: a spec file/built-in id, "
            "or --inline '<json>'"
        )
    if args.inline is not None:
        return ScenarioSpec.from_json(args.inline)
    path = Path(args.spec)
    if path.exists():
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as error:
            raise ReproError(f"cannot read scenario file {args.spec!r}: {error}")
        return ScenarioSpec.from_json(text)
    specs = builtin_scenarios()
    if args.spec in specs:
        return specs[args.spec]
    raise ReproError(
        f"scenario file {args.spec!r} does not exist and is not a "
        f"built-in scenario id (see 'repro scenarios list')"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_scenario(args)
    result, from_cache, telemetry_block = _run_spec(args, spec)
    comparison = None
    if args.compare is not None:
        comparison = _compare_against_baseline(result, args.compare, args.tolerance)
    payload = {
        "scenario": spec.scenario_id,
        "spec_hash": spec.spec_hash(),
        "from_cache": from_cache,
        "result": result.as_dict(),
        "telemetry": telemetry_block,
    }
    if comparison is not None:
        payload["comparison"] = comparison
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.to_table())
        if comparison is not None:
            _print_comparison(comparison)
    _finish_run(args, result, from_cache)
    if comparison is not None and not comparison["within_tolerance"]:
        if not comparison["labels_match"]:
            summary = comparison["summary"]
            print(
                f"error: series labels diverged from baseline {args.compare} "
                f"(shared: {summary['shared_series']}, only in this run: "
                f"{summary['only_in_first']}, only in baseline: "
                f"{summary['only_in_second']})",
                file=sys.stderr,
            )
        else:
            print(
                f"error: result drifted beyond tolerance {args.tolerance} "
                f"from baseline {args.compare} "
                f"(worst: {comparison['summary']['worst_label']!r} at "
                f"{comparison['summary']['worst_max_relative_difference']:.3e})",
                file=sys.stderr,
            )
        return 3
    return 0


def _compare_against_baseline(result, baseline_path: Path, tolerance: float) -> dict:
    """Diff ``result`` against a stored baseline via :mod:`experiments.compare`."""
    from repro.experiments.compare import compare_results

    try:
        baseline = ExperimentResult.load_json(baseline_path)
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise ReproError(
            f"cannot load baseline result {str(baseline_path)!r}: {error}"
        ) from None
    report = compare_results(result, baseline)
    # The gate must fail closed: a run whose series *labels* drifted (or
    # that dropped/added series) has no shared curves to diff, and an
    # empty diff is a reproduction failure, not a pass.
    labels_match = (
        bool(report.shared)
        and not report.only_in_first
        and not report.only_in_second
    )
    return {
        "baseline": str(baseline_path),
        "tolerance": tolerance,
        "within_tolerance": labels_match and report.all_within(tolerance),
        "labels_match": labels_match,
        "summary": report.summary(),
        "series": [
            {
                "label": item.label,
                "max_relative_difference": item.max_relative_difference,
                "mean_relative_difference": item.mean_relative_difference,
                "points_compared": item.points_compared,
                "identical_grid": item.identical_grid,
                "within_tolerance": item.within(tolerance),
            }
            for item in report.shared
        ],
    }


def _print_comparison(comparison: dict) -> None:
    """Render a ``--compare`` delta as a compact text table."""
    print(f"\ncompared against {comparison['baseline']}:")
    width = max(
        [len(item["label"]) for item in comparison["series"]] or [5]
    )
    for item in comparison["series"]:
        verdict = "ok" if item["within_tolerance"] else "DRIFT"
        print(
            f"  {item['label']:<{width}}  "
            f"max {item['max_relative_difference']:.3e}  "
            f"mean {item['mean_relative_difference']:.3e}  "
            f"({item['points_compared']} pts)  {verdict}"
        )
    for label in comparison["summary"]["only_in_first"]:
        print(f"  {label:<{width}}  only in this run")
    for label in comparison["summary"]["only_in_second"]:
        print(f"  {label:<{width}}  only in baseline")


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if (args.scenarios_command or "list") == "list":
        return _cmd_list(args)
    # show
    spec = get_builtin_scenario(args.scenario)
    if args.scale is not None:
        plans = compile_scenario(spec, ExperimentScale.from_name(args.scale))
        print(json.dumps(
            {
                "scenario": spec.scenario_id,
                "scale": args.scale,
                "spec_hash": spec.spec_hash(),
                "series": [plan.label for plan in plans],
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    print(spec.to_json())
    return 0


def _build_generator(args: argparse.Namespace):
    kwargs = {"seed": args.seed}
    if args.model == "cm":
        kwargs.update(
            number_of_nodes=args.nodes,
            exponent=args.exponent,
            min_degree=args.stubs,
            hard_cutoff=args.cutoff,
        )
    elif args.model == "dapa":
        kwargs.update(
            overlay_size=args.nodes,
            stubs=args.stubs,
            hard_cutoff=args.cutoff,
            local_ttl=args.tau_sub,
        )
    else:
        kwargs.update(
            number_of_nodes=args.nodes,
            stubs=args.stubs,
            hard_cutoff=args.cutoff,
        )
    return create_generator(args.model, **kwargs)


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = _build_generator(args)
    collector = _telemetry_collector(args)
    started = telemetry_clock()
    with use_telemetry(collector):
        result = generator.generate()
    # The stdout payload is the bare summary; the trace file and stderr
    # carry the telemetry.
    _telemetry_report(args, collector, telemetry_clock() - started)
    summary = result.summary()
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.fit:
        try:
            fit = fit_power_law(
                result.graph, k_min=max(1, args.stubs), exclude_cutoff_spike=True
            )
            print(json.dumps({"power_law_fit": fit.as_dict()}, indent=2))
        except AnalysisError as error:
            print(f"power-law fit unavailable: {error}", file=sys.stderr)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("w") as handle:
            for u, v in result.graph.edges():
                handle.write(f"{u} {v}\n")
        print(f"wrote edge list to {args.out}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    generator = _build_generator(args)
    ttl_values = list(range(1, args.ttl + 1))
    collector = _telemetry_collector(args)
    started = telemetry_clock()
    with use_telemetry(collector):
        mutable = generator.generate_graph()
        with active_telemetry().span("freeze"):
            graph = mutable.freeze()
        if args.algorithm == "fl":
            curve = search_curve(
                graph, FloodingSearch(), ttl_values, queries=args.queries,
                rng=args.seed,
            )
        elif args.algorithm == "nf":
            curve = search_curve(
                graph,
                NormalizedFloodingSearch(k_min=args.stubs),
                ttl_values,
                queries=args.queries,
                rng=args.seed,
            )
        else:
            curve = normalized_walk_curve(
                graph, ttl_values, k_min=args.stubs, queries=args.queries,
                rng=args.seed,
            )
    # Stdout stays the bare curve payload; the trace file and stderr carry
    # the telemetry.
    _telemetry_report(args, collector, telemetry_clock() - started)
    print(json.dumps(curve.as_dict(), indent=2, sort_keys=True))
    return 0


def _parse_size(text: str) -> int:
    """Parse a byte count: plain digits or a k/m/g(b) suffix (e.g. ``256m``)."""
    raw = text.strip().lower()
    multiplier = 1
    for suffix, factor in (("gb", 1 << 30), ("g", 1 << 30), ("mb", 1 << 20),
                           ("m", 1 << 20), ("kb", 1 << 10), ("k", 1 << 10),
                           ("b", 1)):
        if raw.endswith(suffix):
            raw = raw[: -len(suffix)]
            multiplier = factor
            break
    try:
        value = int(float(raw) * multiplier)
    except ValueError:
        raise ReproError(f"cannot parse size {text!r} (try 1048576, 256m, 2g)")
    if value < 0:
        raise ReproError(f"size must be non-negative, got {text!r}")
    return value


def _parse_duration(text: str) -> float:
    """Parse a duration: seconds, or an s/m/h/d suffix (e.g. ``7d``)."""
    raw = text.strip().lower()
    multiplier = 1.0
    for suffix, factor in (("d", 86400.0), ("h", 3600.0), ("m", 60.0), ("s", 1.0)):
        if raw.endswith(suffix):
            raw = raw[: -len(suffix)]
            multiplier = factor
            break
    try:
        value = float(raw) * multiplier
    except ValueError:
        raise ReproError(f"cannot parse duration {text!r} (try 3600, 12h, 7d)")
    if value < 0:
        raise ReproError(f"duration must be non-negative, got {text!r}")
    return value


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    store = ResultStore(args.cache)
    disk = store.disk_stats()
    last_run = store.last_run_stats()
    last_gc = store.last_gc_stats()
    if args.json:
        print(json.dumps(
            {
                "root": str(store.root),
                "disk": disk,
                "last_run": last_run,
                "last_gc": last_gc,
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    print(f"cache root:   {store.root}")
    print(f"entries:      {disk['entries']}")
    print(f"total bytes:  {disk['total_bytes']}")
    if last_run is None:
        print("last run:     no recorded run (stores write last-run.json "
              "after figure/suite/run)")
    else:
        print(
            f"last run:     {last_run.get('hits', 0)} hits, "
            f"{last_run.get('misses', 0)} misses "
            f"({last_run.get('corrupt', 0)} corrupt), "
            f"{last_run.get('bytes_read', 0)} bytes read, "
            f"{last_run.get('bytes_written', 0)} bytes written"
        )
    if last_gc is not None:
        print(
            f"last gc:      reclaimed {last_gc.get('reclaimed_bytes', 0)} "
            f"bytes ({last_gc.get('removed_entries', 0)} entries evicted, "
            f"{last_gc.get('remaining_entries', 0)} kept)"
        )
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    if args.max_bytes is None and args.older_than is None:
        raise ReproError(
            "repro cache gc needs a policy: --max-bytes and/or --older-than"
        )
    store = ResultStore(args.cache)
    summary = store.gc(
        max_bytes=_parse_size(args.max_bytes) if args.max_bytes else None,
        older_than_seconds=(
            _parse_duration(args.older_than) if args.older_than else None
        ),
        dry_run=args.dry_run,
    )
    if args.json:
        print(json.dumps(dict(summary, root=str(store.root)),
                         indent=2, sort_keys=True))
        return 0
    verb = "would reclaim" if args.dry_run else "reclaimed"
    print(
        f"{verb} {summary['reclaimed_bytes']} bytes "
        f"({summary['removed_entries']} of {summary['scanned_entries']} "
        f"entries); {summary['remaining_entries']} entries / "
        f"{summary['remaining_bytes']} bytes kept"
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.cache_command == "stats":
        return _cmd_cache_stats(args)
    if args.cache_command == "gc":
        return _cmd_cache_gc(args)
    raise ReproError("usage: repro cache {stats|gc} --cache DIR")


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the linter is a dev/CI tool and must not slow down
    # `repro --help` or the run-style commands.
    from repro.staticcheck import lint_paths, render_json, render_rules, render_text

    if args.list_rules:
        render_rules(sys.stdout)
        return 0
    report = lint_paths(args.paths, select=args.select, ignore=args.ignore)
    if args.json:
        print(json.dumps(render_json(report), indent=2, sort_keys=True))
    else:
        render_text(report, sys.stdout, show_suppressed=args.show_suppressed)
    return report.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.engine.executor import ParallelExecutor
    from repro.serve import ScenarioService, ServeHTTP
    from repro.telemetry.logs import JsonLinesHandler, install_log_handler

    if not args.quiet:
        # The service's access log and job lifecycle records are structured
        # JSON lines; install the stderr handler unless silenced.
        install_log_handler(JsonLinesHandler(sys.stderr))
    store = ResultStore(args.cache) if args.cache else None
    executor = ParallelExecutor(jobs=args.jobs)
    service = ScenarioService(
        store=store,
        executor=executor,
        scale=args.scale,
        seed=args.seed,
        workers=args.workers,
    )
    http = ServeHTTP(
        service, host=args.host, port=args.port, access_log=not args.quiet
    )

    async def _serve() -> None:
        await http.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        print(f"serving on http://{http.host}:{http.port}", file=sys.stderr)
        try:
            await stop.wait()
        finally:
            await http.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler fallback
        pass
    finally:
        service.close()
        executor.close()
    print("serve: shut down cleanly", file=sys.stderr)
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "figure": _cmd_figure,
    "suite": _cmd_suite,
    "run": _cmd_run,
    "scenarios": _cmd_scenarios,
    "generate": _cmd_generate,
    "search": _cmd_search,
    "cache": _cmd_cache,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if getattr(args, "log_json", False):
        from repro.telemetry.logs import JsonLinesHandler, install_log_handler

        install_log_handler(JsonLinesHandler(sys.stderr))
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
