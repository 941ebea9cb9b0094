"""Kernel-tier suite: dispatch semantics and kernel↔reference equivalence.

Runs on every install: without numba the kernels execute *interpreted*
(same code the JIT compiles), so this suite pins the kernel logic itself —
draw-order parity, batch/sequential stream identity, the platform rule
that picks the tier, the tier pin the other suites rely on, and the CLI
end to end — regardless of whether the container has a compiler.
``tests/test_backend_equivalence.py`` layers the full algorithm ×
generator matrix on top.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.engine.executor import ParallelExecutor
from repro.generators.hapa import generate_hapa
from repro.generators.pa import generate_pa
from repro.kernels import dispatch
from repro.kernels import search as kernels
from repro.kernels.dispatch import (
    kernel_ready,
    kernel_self_check,
    kernel_tier,
    kernels_runtime,
)
from repro.scenarios import get_builtin_scenario, run_scenario
from repro.search.metrics import search_curve
from repro.search.normalized_flooding import NormalizedFloodingSearch
from repro.search.probabilistic_flooding import ProbabilisticFloodingSearch
from repro.search.random_walk import RandomWalkSearch
from repro.telemetry.collector import TelemetryCollector, use_telemetry
from tiers import TIERS, pin_tier

ROOT = Path(__file__).resolve().parents[1]

#: The counter families of the single kernel gate.
LAYERS = ["search", "generation"]


def _tier_counters(collector):
    """The ``kernels.<layer>.<tier>`` gate counters (fallback notes dropped)."""
    return {
        name: count
        for name, count in collector.counters.items()
        if name.startswith(("kernels.search.", "kernels.generation."))
    }


@pytest.fixture(scope="module")
def pa_pair():
    """The mutable reference graph and its order-preserving frozen snapshot.

    (``thaw()`` would *not* do as the reference: it re-adds edges in
    normalized order, which legitimately permutes the neighbor lists the
    seeded draws index into.)
    """
    graph = generate_pa(250, stubs=2, hard_cutoff=12, seed=31)
    return graph, graph.freeze()


@pytest.fixture(scope="module")
def pa_frozen(pa_pair):
    return pa_pair[1]


# --------------------------------------------------------------------------- #
# Dispatch semantics
# --------------------------------------------------------------------------- #
class TestDispatch:
    def test_self_check_passes_here(self):
        # The parity self-check must pass on every install — interpreted
        # kernels included — or the jit tier would silently lose its
        # correctness guarantee.
        assert kernel_self_check() is True
        assert dispatch.self_check_failure() == ""

    def test_resolution_policy(self, monkeypatch):
        # The platform picks the tier: jit only when numba imports and the
        # self-check passes, python otherwise.
        expected = "jit" if dispatch.numba_available() else "python"
        assert kernel_tier() == expected
        with pin_tier("jit"):
            assert kernel_tier() == "jit"
            assert kernels_runtime().startswith("jit")
        with pin_tier("python"):
            assert kernel_tier() == "python"
            assert kernels_runtime() == "python"
        # A failed self-check demotes the tier even with numba present.
        monkeypatch.setattr(dispatch, "_TIER_WARNINGS", set())
        monkeypatch.setattr(
            dispatch, "_PROBE", {"self_check": False, "self_check_failure": "probe"}
        )
        with pin_tier("jit"), pytest.warns(RuntimeWarning, match="self-check failed"):
            assert kernel_tier() == "python"

    def test_ready_only_on_the_jit_tier(self):
        for layer in LAYERS:
            with pin_tier("jit"):
                assert kernel_ready(layer) is True
            with pin_tier("python"):
                assert kernel_ready(layer) is False

    @pytest.mark.parametrize("layer", LAYERS)
    def test_decision_counted_under_its_layer(self, layer):
        collector = TelemetryCollector()
        with use_telemetry(collector):
            with pin_tier("jit"):
                kernel_ready(layer)
            with pin_tier("python"):
                kernel_ready(layer)
                kernel_ready(layer)
        assert _tier_counters(collector) == {
            f"kernels.{layer}.jit": 1,
            f"kernels.{layer}.python": 2,
        }

    def test_fallback_warning_points_at_the_caller(self, monkeypatch):
        """The tier-fallback warning names the first frame outside the
        package — here, this test — not a line inside the dispatcher."""
        monkeypatch.setattr(dispatch, "_TIER_WARNINGS", set())
        monkeypatch.setattr(dispatch, "numba_available", lambda: False)
        with pytest.warns(RuntimeWarning, match="auto resolved to the python") as record:
            generate_pa(30, stubs=2, seed=1)
        assert record[0].filename == __file__


# --------------------------------------------------------------------------- #
# Kernel ↔ reference equivalence (direct wrapper calls, no ambient mode)
# --------------------------------------------------------------------------- #
class TestKernelQueries:
    def test_edge_cases_match_reference(self):
        graph = Graph.from_edges(4, [(0, 1), (1, 2)])  # node 3 is isolated
        frozen = graph.freeze()
        cases = [
            ("nf", NormalizedFloodingSearch(k_min=2),
             lambda rng, src, ttl: kernels.nf_query(
                 frozen, src, ttl, rng, 2, False, None)),
            ("pf", ProbabilisticFloodingSearch(0.5),
             lambda rng, src, ttl: kernels.pf_query(
                 frozen, src, ttl, rng, 0.5, False, None)),
            ("rw", RandomWalkSearch(walkers=2),
             lambda rng, src, ttl: kernels.rw_query(
                 frozen, src, ttl, rng, 2, False, False, None)),
        ]
        for source, ttl in [(0, 0), (3, 5), (0, 6)]:
            for name, algorithm, run_kernel in cases:
                rng_ref, rng_kernel = RandomSource(3), RandomSource(3)
                result = algorithm.run(graph, source, ttl, rng=rng_ref)
                hits, messages, visited, found_at = run_kernel(
                    rng_kernel, source, ttl
                )
                assert hits == result.hits_per_ttl, (name, source, ttl)
                assert messages == result.messages_per_ttl, (name, source, ttl)
                assert visited == result.visited, (name, source, ttl)
                assert found_at == result.found_at, (name, source, ttl)
                assert rng_ref.random() == rng_kernel.random(), (name, source, ttl)

    def test_count_source_as_hit_and_target(self, pa_pair):
        reference_graph, pa_frozen = pa_pair
        algorithm = NormalizedFloodingSearch(k_min=3, count_source_as_hit=True)
        rng_ref, rng_kernel = RandomSource(11), RandomSource(11)
        result = algorithm.run(reference_graph, 4, 6, rng=rng_ref, target=4)
        hits, messages, visited, found_at = kernels.nf_query(
            pa_frozen, 4, 6, rng_kernel, 3, True, 4
        )
        assert result.found_at == found_at == 0  # target == source
        assert hits == result.hits_per_ttl
        assert messages == result.messages_per_ttl
        assert visited == result.visited

    def test_large_branching_uses_cpython_sample_heuristic(self, pa_pair):
        # k_min > 5 flips random.sample's setsize heuristic; the kernel
        # replica must follow it or the draw streams diverge.
        reference_graph, pa_frozen = pa_pair
        algorithm = NormalizedFloodingSearch(k_min=7)
        rng_ref, rng_kernel = RandomSource(23), RandomSource(23)
        result = algorithm.run(reference_graph, 0, 8, rng=rng_ref)
        hits, _messages, _visited, _found = kernels.nf_query(
            pa_frozen, 0, 8, rng_kernel, 7, False, None
        )
        assert hits == result.hits_per_ttl
        assert rng_ref.random() == rng_kernel.random()


class TestBatchKernels:
    """Throughput mode is draw-identical to sequential kernel queries."""

    SOURCES = [0, 5, 17, 42, 5]  # includes a repeat

    def test_nf_batch_matches_sequential(self, pa_frozen):
        rng_seq, rng_batch = RandomSource(7), RandomSource(7)
        sequential = [
            kernels.nf_query(pa_frozen, source, 6, rng_seq, 2, False, None)
            for source in self.SOURCES
        ]
        hits, messages = kernels.nf_curve_batch(
            pa_frozen, self.SOURCES, 6, rng_batch, 2, False
        )
        for row, (seq_hits, seq_messages, _v, _f) in enumerate(sequential):
            assert hits[row].tolist() == seq_hits
            assert messages[row].tolist() == seq_messages
        assert rng_seq.random() == rng_batch.random()

    def test_pf_batch_matches_sequential(self, pa_frozen):
        rng_seq, rng_batch = RandomSource(9), RandomSource(9)
        sequential = [
            kernels.pf_query(pa_frozen, source, 6, rng_seq, 0.4, False, None)
            for source in self.SOURCES
        ]
        hits, messages = kernels.pf_curve_batch(
            pa_frozen, self.SOURCES, 6, rng_batch, 0.4, False
        )
        for row, (seq_hits, seq_messages, _v, _f) in enumerate(sequential):
            assert hits[row].tolist() == seq_hits
            assert messages[row].tolist() == seq_messages
        assert rng_seq.random() == rng_batch.random()

    def test_empty_query_batch_matches_python_tier(self, pa_frozen):
        # queries=0 must fail identically on every tier: the same
        # SearchError, raised before any batch dispatch.
        from repro.core.errors import SearchError

        messages = {}
        for tier in TIERS:
            with pin_tier(tier), pytest.raises(SearchError) as raised:
                search_curve(pa_frozen, RandomWalkSearch(), [1, 2, 4], queries=0, rng=3)
            messages[tier] = str(raised.value)
        assert messages["python"] == messages["jit"]

    def test_rw_batch_honours_per_query_ttls(self, pa_frozen):
        ttls = [3, 9, 1, 6, 4]
        rng_seq, rng_batch = RandomSource(13), RandomSource(13)
        sequential = [
            kernels.rw_query(pa_frozen, source, ttl, rng_seq, 2, False, False, None)
            for source, ttl in zip(self.SOURCES, ttls)
        ]
        hits, messages = kernels.rw_curve_batch(
            pa_frozen, self.SOURCES, ttls, rng_batch, 2, False, False
        )
        for row, (seq_hits, seq_messages, _v, _f) in enumerate(sequential):
            assert hits[row, : ttls[row] + 1].tolist() == seq_hits
            assert messages[row, : ttls[row] + 1].tolist() == seq_messages
        assert rng_seq.random() == rng_batch.random()


# --------------------------------------------------------------------------- #
# The tier pin: the kernel-gate counters say which tier actually ran
# --------------------------------------------------------------------------- #
class TestTierPin:
    """``pin_tier`` switches the tier in process and in engine workers.

    Were the pin a no-op, every ``python``-vs-``jit`` equivalence test would
    compare the python loops with themselves and still pass.
    """

    @pytest.mark.parametrize("tier", TIERS)
    def test_search_curve_runs_the_pinned_tier(self, pa_frozen, tier):
        collector = TelemetryCollector()
        with pin_tier(tier), use_telemetry(collector):
            search_curve(
                pa_frozen, NormalizedFloodingSearch(k_min=2), [1, 2, 4],
                queries=6, rng=3,
            )
        assert set(_tier_counters(collector)) == {f"kernels.search.{tier}"}

    @pytest.mark.parametrize("tier", TIERS)
    def test_hapa_build_runs_the_pinned_tier(self, tier):
        collector = TelemetryCollector()
        with pin_tier(tier), use_telemetry(collector):
            generate_hapa(60, stubs=2, hard_cutoff=6, seed=4)
        assert _tier_counters(collector) == {f"kernels.generation.{tier}": 1}

    @pytest.mark.parametrize("tier", TIERS)
    def test_workers_run_the_pinned_tier(self, smoke_scale, tier, monkeypatch):
        # realizations=2 sends every series to the pool (a one-task batch
        # runs in process).  The spy's list lives in this process, so a
        # decision taken in a worker never lands in it.
        scale = replace(smoke_scale, realizations=2)
        decided_here = []
        resolve = dispatch.kernel_tier

        def spy():
            decided_here.append(os.getpid())
            return resolve()

        monkeypatch.setattr(dispatch, "kernel_tier", spy)
        collector = TelemetryCollector()
        with pin_tier(tier), use_telemetry(collector), \
                ParallelExecutor(jobs=2) as executor:
            run_scenario(get_builtin_scenario("fig1"), scale=scale, executor=executor)
        assert decided_here == []
        assert set(_tier_counters(collector)) == {f"kernels.generation.{tier}"}


# --------------------------------------------------------------------------- #
# CLI: the platform rule end to end
# --------------------------------------------------------------------------- #
class TestKernelsCLI:
    SEARCH = [
        "search", "nf", "--model", "pa", "--nodes", "200", "--stubs", "2",
        "--ttl", "4", "--queries", "8", "--seed", "5",
    ]

    def test_hidden_numba_runs_the_python_tier(self, capsys):
        """With numba hidden the CLI takes the python loops, says so once,
        and prints the curve this process prints (on a numba host: the
        compiled tier's curve)."""
        from repro.cli import main

        assert main(self.SEARCH) == 0
        in_process = json.loads(capsys.readouterr().out)
        script = (
            "import sys\n"
            "sys.modules['numba'] = None\n"
            "from repro.cli import main\n"
            f"sys.exit(main({self.SEARCH!r}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == in_process
        warning = "kernels: auto resolved to the python tier (numba is not installed"
        lines = [line for line in completed.stderr.splitlines() if warning in line]
        assert len(lines) == 1, completed.stderr

    @pytest.mark.parametrize(
        "command",
        [
            ["figure", "fig9", "--scale", "smoke"],
            ["suite", "--scale", "smoke"],
            ["run", "fig9", "--scale", "smoke"],
            ["generate", "hapa", "--nodes", "60"],
            ["search", "nf", "--nodes", "60"],
            ["serve", "--port", "0"],
        ],
        ids=lambda command: command[0],
    )
    def test_kernels_flag_is_gone(self, command, capsys):
        """No subcommand takes a user-set tier any more.  Only the parser
        runs, so a subcommand that still took the flag fails here instead
        of running (``serve`` would block)."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args([*command, "--kernels", "jit"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --kernels jit" in capsys.readouterr().err

    def test_json_telemetry_reports_the_probe_only(self, tmp_path, capsys):
        """The ``--json`` block's kernel entry is the platform probe; no
        requested mode is reported beside it."""
        from repro.cli import main

        assert main([
            "figure", "fig9", "--scale", "smoke", "--json",
            "--cache", str(tmp_path / "cache"),
        ]) == 0
        kernels_block = json.loads(capsys.readouterr().out)["telemetry"]["kernels"]
        assert kernels_block == {"probe": dispatch.probe_status()}
        assert kernels_block["probe"]["numba"] is dispatch.numba_available()
