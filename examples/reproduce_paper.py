#!/usr/bin/env python3
"""Reproduce every figure and table of the paper in one run.

Runs every built-in scenario (Figs. 1-4 and 6-12, Tables I-II, the
messaging study, natural cutoffs, and the two ablations) at the chosen scale and writes one
JSON + CSV pair per experiment into an output directory, plus a combined
text report.  At ``--scale small`` (default) the whole run takes on the
order of tens of minutes; ``--scale smoke`` finishes in a couple of minutes;
``--scale paper`` uses the paper's network sizes and is an overnight job —
which is where the engine options matter:

* ``--jobs N`` fans every experiment's topology realizations out over N
  worker processes (numerically identical to a serial run, because each
  realization carries its own deterministic seed);
* ``--cache DIR`` persists every completed experiment in a
  content-addressed result store, so an interrupted reproduction resumes
  from where it stopped instead of recomputing finished figures.

Run with:  python examples/reproduce_paper.py --scale smoke --out results/ \
               --jobs 4 --cache .repro-cache
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.engine import ProgressReporter, ResultStore, executor_from_jobs, run_suite
from repro.experiments import ExperimentScale


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=["smoke", "small", "paper"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument(
        "--only", nargs="*", default=None,
        help="run only these experiment ids (default: all)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for realization tasks (default: 1 = serial)",
    )
    parser.add_argument(
        "--cache", type=Path, default=None,
        help="result-store directory; completed experiments are reused on "
             "re-runs, making a full paper reproduction resumable",
    )
    args = parser.parse_args()

    scale = ExperimentScale.from_name(args.scale)
    args.out.mkdir(parents=True, exist_ok=True)
    store = ResultStore(args.cache) if args.cache is not None else None
    progress = ProgressReporter(stream=sys.stderr)

    report_lines = []

    def save_entry(entry) -> None:
        # Persist and report each experiment as soon as it finishes, so an
        # interrupted run keeps every completed artefact on disk.
        entry.result.save_json(args.out / f"{entry.experiment_id}.json")
        entry.result.save_csv(args.out / f"{entry.experiment_id}.csv")
        table = entry.result.to_table()
        origin = "cache" if entry.from_cache else "computed"
        report_lines.append(table)
        report_lines.append(f"  [{entry.seconds:.1f}s, {origin}]\n")
        print(table)
        print(f"  [{entry.seconds:.1f}s, {origin}]\n")

    with executor_from_jobs(args.jobs) as executor:
        report = run_suite(
            args.only,
            scale=scale,
            seed=args.seed,
            executor=executor,
            store=store,
            progress=progress,
            on_result=save_entry,
        )

    report_lines.append(report.summary())
    report_path = args.out / "report.txt"
    report_path.write_text("\n".join(report_lines))
    print(report.summary())
    print(f"wrote per-experiment JSON/CSV and {report_path}")


if __name__ == "__main__":
    main()
