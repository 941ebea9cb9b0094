"""Kernel-tier suite: dispatch semantics and kernel↔reference equivalence.

Runs on every install: without numba the kernels execute *interpreted*
(same code the JIT compiles), so this suite pins the kernel logic itself —
draw-order parity, batch/sequential stream identity, dispatch gating, the
engine's per-task capture, and the CLI flag — regardless of whether the
container has a compiler.  ``tests/test_backend_equivalence.py`` layers
the full algorithm × generator matrix on top.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core.errors import ConfigurationError
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.generators.pa import generate_pa
from repro.kernels import dispatch
from repro.kernels import search as kernels
from repro.kernels.dispatch import (
    active_kernels,
    kernel_ready,
    kernel_self_check,
    kernel_tier,
    kernels_runtime,
    normalize_kernels,
    resolve_kernels,
    use_kernels,
)
from repro.search.normalized_flooding import NormalizedFloodingSearch
from repro.search.probabilistic_flooding import ProbabilisticFloodingSearch
from repro.search.random_walk import RandomWalkSearch

#: The counter families of the single kernel gate.
LAYERS = ["search", "generation"]


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
    def test_use_kernels_scopes_selection(self):
        assert active_kernels() == "auto"
        with use_kernels("jit"):
            assert active_kernels() == "jit"
            with use_kernels(None):  # None leaves the ambient choice alone
                assert active_kernels() == "jit"
            with use_kernels("python"):
                assert active_kernels() == "python"
        assert active_kernels() == "auto"

    def test_normalize_rejects_unknown_mode(self):
        assert normalize_kernels(None) == "auto"
        assert normalize_kernels("JIT") == "jit"
        with pytest.raises(ConfigurationError):
            normalize_kernels("gpu")
        with pytest.raises(ConfigurationError):
            with use_kernels("cuda"):
                pass  # pragma: no cover

    def test_self_check_passes_here(self):
        # The parity self-check must pass on every install — interpreted
        # kernels included — or the jit tier would silently lose its
        # correctness guarantee.
        assert kernel_self_check() is True
        assert dispatch.self_check_failure() == ""

    def test_resolution_policy(self):
        # auto -> jit only with numba; explicit jit -> kernel path (the
        # interpreted fallback) because the self-check passes; python wins
        # unconditionally.
        expected_auto = "jit" if dispatch.numba_available() else "python"
        assert kernel_tier() == expected_auto
        assert resolve_kernels("auto") == expected_auto
        assert resolve_kernels("python") == "python"
        assert resolve_kernels("jit") == "jit"
        with use_kernels("jit"):
            assert resolve_kernels() == "jit"
            assert kernels_runtime().startswith("jit")
        with use_kernels("python"):
            assert resolve_kernels() == "python"
            assert kernels_runtime() == "python"

    def test_ready_only_on_the_jit_tier(self):
        for layer in LAYERS:
            with use_kernels("jit"):
                assert kernel_ready(layer) is True
            with use_kernels("python"):
                assert kernel_ready(layer) is False

    @pytest.mark.parametrize("layer", LAYERS)
    def test_decision_counted_under_its_layer(self, layer):
        from repro.telemetry.collector import TelemetryCollector, use_telemetry

        collector = TelemetryCollector()
        with use_telemetry(collector):
            with use_kernels("jit"):
                kernel_ready(layer)
            with use_kernels("python"):
                kernel_ready(layer)
                kernel_ready(layer)
        assert collector.counters == {
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
        from repro.search.metrics import search_curve

        messages = {}
        for mode in ("python", "jit"):
            with use_kernels(mode), pytest.raises(SearchError) as raised:
                search_curve(pa_frozen, RandomWalkSearch(), [1, 2, 4], queries=0, rng=3)
            messages[mode] = str(raised.value)
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
# Engine plumbing: the mode travels with the pickled task
# --------------------------------------------------------------------------- #
class TestEngineCapture:
    def test_search_tasks_capture_ambient_kernels(self, smoke_scale, monkeypatch):
        from repro.scenarios.measure import RealizationSpec, averaged_search_curve

        seen = []
        build_for_measurement = RealizationSpec.build_for_measurement

        def spy(spec):
            seen.append((spec.kernels, active_kernels()))
            return build_for_measurement(spec)

        monkeypatch.setattr(RealizationSpec, "build_for_measurement", spy)

        def curve():
            return averaged_search_curve(
                "pa", smoke_scale, "capture", "fl", [1, 2], stubs=1,
                hard_cutoff=None, exponent=3.0, tau_sub=4,
            )

        with use_kernels("jit"):
            curve()
        curve()
        assert seen == [("jit", "jit"), ("auto", "auto")]

    def test_realization_spec_pickles_with_kernels(self, smoke_scale):
        from repro.scenarios.measure import RealizationSpec

        spec = RealizationSpec(
            model="pa", scale=smoke_scale, seed=3, stubs=2,
            for_search=True, kernels="jit",
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.kernels == "jit"

    def test_search_series_bakes_ambient_kernels_into_tasks(self, smoke_scale):
        # The ambient mode at *task-creation* time decides what each
        # (possibly remote) realization measures with — and jit vs python
        # must not change a single number.
        from repro.scenarios.measure import search_series

        baseline = search_series(
            "pa", "nf smoke", smoke_scale, "nf", stubs=2, hard_cutoff=10
        )
        with use_kernels("jit"):
            jit_series = search_series(
                "pa", "nf smoke", smoke_scale, "nf", stubs=2, hard_cutoff=10
            )
        assert baseline.as_dict() == jit_series.as_dict()


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestKernelsCLI:
    def _search(self, capsys, *extra):
        from repro.cli import main

        assert main([
            "search", "nf", "--model", "pa", "--nodes", "200", "--stubs", "2",
            "--ttl", "4", "--queries", "8", "--seed", "5", *extra,
        ]) == 0
        return json.loads(capsys.readouterr().out)

    def test_search_kernels_jit_matches_python(self, capsys):
        reference = self._search(capsys, "--kernels", "python")
        jit = self._search(capsys, "--kernels", "jit")
        assert reference == jit

    def test_figure_accepts_kernels_flag(self, capsys):
        from repro.cli import main

        assert main([
            "figure", "fig9", "--scale", "smoke", "--kernels", "jit", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main([
            "figure", "fig9", "--scale", "smoke", "--kernels", "python", "--json",
        ]) == 0
        reference = json.loads(capsys.readouterr().out)
        assert payload["result"] == reference["result"]
