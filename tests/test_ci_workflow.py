"""The CI workflow stays in step with the repository it gates.

``ci.yml`` is read as text, since the dev extras carry no YAML parser.
Every test file a CI step names must exist (pytest errors out on a missing
path), the perfbench job must gate every workload ``BENCHMARK.json``
declares, by running the benchmark's own command, and the serve job must
soak its running server and bound the server's RSS growth.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _job(name: str) -> str:
    """The text of one job: from its key to the next two-space key."""
    match = re.search(
        rf"^  {re.escape(name)}:\n(.*?)(?=^  [\w-]+:\n|\Z)", WORKFLOW, re.M | re.S
    )
    assert match, f"ci.yml has no {name!r} job"
    return match.group(1)


def test_test_paths_named_in_ci_exist():
    paths = set(re.findall(r"\b(?:tests|benchmarks)/[\w/.-]+\.py\b", WORKFLOW))
    assert paths
    missing = sorted(path for path in paths if not (ROOT / path).is_file())
    assert not missing, f"ci.yml names missing test files: {missing}"


def test_perfbench_job_gates_every_benchmark_workload():
    job = _job("perfbench")
    declared = sorted(workload["name"] for workload in BENCHMARK["workloads"])
    assert sorted(re.findall(r"^\s+- workload: (\S+)$", job, re.M)) == declared
    bounds = [float(bound) for bound in re.findall(r"max_cold_p50_s: ([\d.]+)$", job, re.M)]
    assert len(bounds) == len(declared)
    assert all(bound > 0 for bound in bounds)


def test_perfbench_job_runs_the_benchmark_command_and_checks_its_report():
    job = _job("perfbench")
    assert " ".join(BENCHMARK["command"]) + ' --workload "$WORKLOAD"' in job
    for check in (
        'result["correct"] is True',
        'result["failed"] == 0',
        'result["attempted"] > 0',
        "cold_p50 <= bound",
    ):
        assert check in job, check


def test_serve_job_soaks_a_running_server_and_bounds_its_rss_growth():
    job = _job("serve")
    assert "python -m repro serve --port 8765 --jobs 2" in job
    assert "for pair in range(1, 5001):" in job
    assert "if pair in (1000, 5000):" in job
    assert 'open(f"/proc/{pid}/status")' in job and '"VmRSS:"' in job
    assert "growth_kb <= 2048" in job
    # The soak runs before the SIGTERM, against the smoke's server.
    assert job.index("growth_kb <= 2048") < job.index('kill -TERM "$SERVE_PID"')


@pytest.mark.parametrize(
    "command, name",
    [
        ("figure fig9 --scale smoke --json", "fig9"),
        ("generate hapa --nodes 300 --stubs 2 --cutoff 10 --seed 7", "hapa"),
    ],
)
def test_warning_free_step_checks_empty_stderr_per_command(command, name):
    job = _job("tests")
    step = job[job.index("CLI runs warning-free"):]
    step = step[: step.index("- name:")]
    assert (
        f"python -W error::RuntimeWarning -m repro {command} > {name}.json 2> {name}.err"
        in step
    )
    assert 'for name in ("fig9", "hapa"):' in step
    assert 'assert stderr == ""' in step
    assert '"kernels" not in telemetry' in step


def test_no_job_installs_the_fast_extra():
    installs = re.findall(r"pip install (\S+)", WORKFLOW)
    assert installs
    for target in installs:
        extras = re.findall(r"\[([^\]]*)\]", target)
        assert not any("fast" in extra.split(",") for extra in extras), target


def test_serve_smoke_checks_one_store_probe_per_request():
    job = _job("serve")
    check = 'store["misses"] == 1 and store["hits"] == 1'
    assert check in job
    # Read from the metrics scraped after the first cold+warm pair, before the soak.
    assert job.index("> metrics.json") < job.index(check) < job.index("for pair in range(1, 5001):")
