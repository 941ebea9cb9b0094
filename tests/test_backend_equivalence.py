"""Representation equivalence suite: frozen CSR vs. the adjacency reference.

Every experiment searches the frozen :class:`~repro.core.csr.CSRGraph`
snapshot of its topology; the mutable dict-of-sets
:class:`~repro.core.graph.Graph` loops are the reference.  The contract is
*exact* interchangeability: for every search algorithm, on every topology
model, a frozen graph must produce results that are identical to the
mutable graph — same hits-vs-τ curve, same message counts, same visited
sets, and (for the stochastic algorithms) the same RNG stream consumption,
so that freezing a graph can never silently shift the seeds of anything
that runs afterwards.  These tests pin that contract at every layer: single
queries, metric curves, the message-count normalization, the parallel
engine, and whole figure experiments.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from functools import partial

import pytest

from oracles import nf as nf_oracle
from oracles import pf as pf_oracle
from repro.core.csr import CSRGraph
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.engine.executor import ParallelExecutor, executor_from_jobs
from repro.scenarios import get_builtin_scenario, run_scenario
from repro.scenarios.measure import RealizationSpec
from repro.generators.cm import generate_cm
from repro.generators.dapa import generate_dapa
from repro.generators.hapa import generate_hapa
from repro.generators.pa import generate_pa
from repro.search.flooding import FloodingSearch
from repro.search.metrics import normalized_walk_curve, search_curve
from repro.search.normalized_flooding import NormalizedFloodingSearch
from repro.search.probabilistic_flooding import ProbabilisticFloodingSearch
from repro.search.random_walk import RandomWalkSearch
from tiers import TIERS, pin_tier


# --------------------------------------------------------------------------- #
# Topologies: one small realization of every registered generator family
# --------------------------------------------------------------------------- #
def _build_graphs():
    return {
        "pa": generate_pa(300, stubs=2, hard_cutoff=10, seed=101),
        "cm": generate_cm(300, exponent=2.5, min_degree=2, hard_cutoff=20, seed=77),
        "hapa": generate_hapa(200, stubs=1, hard_cutoff=8, seed=55),
        "dapa": generate_dapa(150, stubs=2, hard_cutoff=10, local_ttl=4, seed=66),
    }


@pytest.fixture(scope="module")
def graphs():
    return _build_graphs()


GENERATORS = ["pa", "cm", "hapa", "dapa"]

# Execution tiers for the frozen snapshot's stochastic queries (TIERS,
# pinned through tests/tiers.py): the Python loops, and the kernel tier of
# repro.kernels (JIT-compiled under numba, interpreted otherwise —
# identical draws either way).  Every equivalence cell below must hold for
# both, against the same adjacency reference.

# Every registered search algorithm (one representative configuration each,
# plus variants that exercise representation-sensitive code paths).
ALGORITHMS = {
    "fl": lambda: FloodingSearch(),
    "fl-source-hit": lambda: FloodingSearch(count_source_as_hit=True),
    "nf": lambda: NormalizedFloodingSearch(k_min=2),
    "nf-auto-kmin": lambda: NormalizedFloodingSearch(),  # uses graph.min_degree()
    "pf": lambda: ProbabilisticFloodingSearch(forward_probability=0.5),
    "rw": lambda: RandomWalkSearch(walkers=3),
    "rw-backtracking": lambda: RandomWalkSearch(walkers=2, allow_backtracking=True),
}


def _assert_identical(result_adj, result_csr):
    assert result_adj.hits_per_ttl == result_csr.hits_per_ttl
    assert result_adj.messages_per_ttl == result_csr.messages_per_ttl
    assert result_adj.visited == result_csr.visited
    assert result_adj.found_at == result_csr.found_at
    assert result_adj.source == result_csr.source
    assert result_adj.algorithm == result_csr.algorithm


class TestQueryEquivalence:
    """algorithm × generator: single queries must match field by field."""

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("model", GENERATORS)
    @pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
    def test_identical_results_and_rng_consumption(
        self, graphs, model, algorithm_name, tier
    ):
        graph = graphs[model]
        frozen = graph.freeze()
        algorithm = ALGORITHMS[algorithm_name]()
        nodes = graph.nodes()
        target = nodes[len(nodes) // 2]
        for seed, source in [(7, nodes[0]), (19, nodes[3]), (23, nodes[-1])]:
            rng_adj, rng_csr = RandomSource(seed), RandomSource(seed)
            result_adj = algorithm.run(graph, source, 8, rng=rng_adj, target=target)
            with pin_tier(tier):
                result_csr = algorithm.run(
                    frozen, source, 8, rng=rng_csr, target=target
                )
            _assert_identical(result_adj, result_csr)
            # Both streams must sit at the same position afterwards: the
            # next draw from each is equal, so freezing (and the kernel-tier
            # choice) can never shift the seeds of whatever runs next.
            assert rng_adj.random() == rng_csr.random()

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
    def test_ttl_zero_and_isolated_source(self, algorithm_name, tier):
        graph = Graph.from_edges(4, [(0, 1), (1, 2)])  # node 3 is isolated
        frozen = graph.freeze()
        algorithm = ALGORITHMS[algorithm_name]()
        for source, ttl in [(0, 0), (3, 5)]:
            rng_adj, rng_csr = RandomSource(3), RandomSource(3)
            result_adj = algorithm.run(graph, source, ttl, rng=rng_adj)
            with pin_tier(tier):
                result_csr = algorithm.run(frozen, source, ttl, rng=rng_csr)
            _assert_identical(result_adj, result_csr)
            assert rng_adj.random() == rng_csr.random()


class TestCurveEquivalence:
    """Metric-level curves (what the figures actually average)."""

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("model", GENERATORS)
    @pytest.mark.parametrize(
        "algorithm_name", ["fl", "nf", "pf", "rw"]
    )
    def test_search_curve_identical(self, graphs, model, algorithm_name, tier):
        graph = graphs[model]
        frozen = graph.freeze()
        ttl_values = [1, 2, 4, 6, 8]
        curve_adj = search_curve(
            graph, ALGORITHMS[algorithm_name](), ttl_values, queries=25, rng=5
        )
        with pin_tier(tier):
            curve_csr = search_curve(
                frozen, ALGORITHMS[algorithm_name](), ttl_values, queries=25, rng=5
            )
        assert curve_adj.as_dict() == curve_csr.as_dict()

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("model", GENERATORS)
    def test_normalized_walk_curve_identical(self, graphs, model, tier):
        graph = graphs[model]
        frozen = graph.freeze()
        curve_adj = normalized_walk_curve(graph, [2, 4, 6], k_min=2, queries=20, rng=9)
        with pin_tier(tier):
            curve_csr = normalized_walk_curve(
                frozen, [2, 4, 6], k_min=2, queries=20, rng=9
            )
        assert curve_adj.as_dict() == curve_csr.as_dict()

    def test_search_curve_error_parity(self, graphs):
        """Both representations raise the same SearchError for a bad source."""
        from repro.core.errors import SearchError

        graph = graphs["pa"]
        frozen = graph.freeze()
        for subject in (graph, frozen):
            with pytest.raises(SearchError):
                search_curve(
                    subject, FloodingSearch(), [1, 2], sources=[10**6], rng=1
                )

    @pytest.mark.parametrize("tier", TIERS)
    def test_search_curve_stream_position(self, graphs, tier):
        """The whole pipeline leaves both RNGs at the same position."""
        graph = graphs["pa"]
        frozen = graph.freeze()
        for factory in (FloodingSearch, NormalizedFloodingSearch):
            rng_adj, rng_csr = RandomSource(11), RandomSource(11)
            search_curve(graph, factory(), [1, 3, 5], queries=15, rng=rng_adj)
            with pin_tier(tier):
                search_curve(frozen, factory(), [1, 3, 5], queries=15, rng=rng_csr)
            assert rng_adj.random() == rng_csr.random()


class _CountingSource(RandomSource):
    """A RandomSource that tallies how many draws of each kind it serves."""

    def __init__(self, seed=None):
        super().__init__(seed)
        self.calls = Counter()

    def random(self):
        self.calls["random"] += 1
        return super().random()

    def randint(self, low, high):
        self.calls["randint"] += 1
        return super().randint(low, high)

    def sample(self, items, count):
        self.calls["sample"] += 1
        return super().sample(items, count)

    def shuffled(self, items):
        self.calls["shuffled"] += 1
        return super().shuffled(items)


class TestDrawCountRegression:
    """Pin the exact number of draws so freezing can never shift seeds.

    The counts below were measured on the reference (adjacency) graph;
    the test asserts the frozen snapshot draws *exactly* as often, and that
    the totals never drift for either representation.  If an intentional algorithm
    change alters them, update the pinned numbers in the same commit.

    NF's and PF's loops draw from the twister directly, so a counting
    source counts their oracles; RW's multi-walker loop still draws through
    ``rng.randint`` and is counted itself.  The shipped loop, on every
    tier, must then leave a plain source where the counted loop left it.
    """

    PINNED = {
        "nf": {"sample": 47},
        "pf": {"random": 784},
        "rw": {"randint": 24},
    }

    #: The loop the counting source counts, as ``loop(graph, source, ttl,
    #: rng, target)``.
    COUNTED = {
        "nf": lambda algorithm: partial(nf_oracle.run_nf, algorithm),
        "pf": lambda algorithm: partial(pf_oracle.run_pf, algorithm),
        "rw": lambda algorithm: algorithm._run_walkers,
    }

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("algorithm_name", sorted(PINNED))
    def test_exact_draw_counts(self, graphs, algorithm_name, tier):
        graph = graphs["pa"]
        frozen = graph.freeze()
        algorithm = ALGORITHMS[algorithm_name]()
        counted = self.COUNTED[algorithm_name](algorithm)
        for subject in (graph, frozen):
            rng_counted, rng = _CountingSource(7), RandomSource(7)
            counted(subject, 5, 8, rng_counted, None)
            assert dict(rng_counted.calls) == self.PINNED[algorithm_name]
            with pin_tier(tier):
                algorithm.run(subject, 5, 8, rng=rng)
            assert rng.random() == rng_counted.random()

    def test_plain_source_stream_consumption_matches_counts(self, graphs):
        """Kernel-tier queries advance a plain RandomSource exactly as far
        as the counted reference draws say they must."""
        graph = graphs["pa"]
        frozen = graph.freeze()
        for algorithm_name in sorted(self.PINNED):
            algorithm = ALGORITHMS[algorithm_name]()
            rng_ref, rng_jit = RandomSource(7), RandomSource(7)
            algorithm.run(graph, 5, 8, rng=rng_ref)
            with pin_tier("jit"):
                algorithm.run(frozen, 5, 8, rng=rng_jit)
            assert rng_ref.random() == rng_jit.random(), algorithm_name

    def test_flooding_consumes_no_draws(self, graphs):
        graph = graphs["pa"]
        frozen = graph.freeze()
        for subject in (graph, frozen):
            rng = _CountingSource(7)
            FloodingSearch().run(subject, 5, 8, rng=rng)
            assert not rng.calls


def _payload(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


class TestPipelineReference:
    """Whole experiments: the frozen pipeline against the Graph reference.

    The reference side runs the experiment serially with
    ``RealizationSpec.build_for_measurement`` patched to hand the search the
    unfrozen :class:`Graph` — the loops every other test here pins the
    snapshot against.  The default pipeline (which always freezes) must
    reproduce it byte for byte, serially and across worker processes.
    ``realizations=2`` matters: smoke's single-realization batches run
    in-process, which would skip the pickled-task path.
    """

    @pytest.mark.parametrize("experiment_id", ["fig6", "fig9"])
    def test_frozen_pipeline_matches_graph_reference(
        self, experiment_id, smoke_scale, monkeypatch
    ):
        scale = replace(smoke_scale, realizations=2)

        def run_serial(build):
            """The serial payload with ``build`` as the measurement build,
            plus the graph types it handed to the search."""
            searched = set()

            def recording(spec):
                graph = build(spec)
                searched.add(type(graph))
                return graph

            with monkeypatch.context() as patch:
                patch.setattr(RealizationSpec, "build_for_measurement", recording)
                return _payload(run_scenario(get_builtin_scenario(experiment_id), scale=scale)), searched

        reference, reference_types = run_serial(RealizationSpec.build)
        serial, serial_types = run_serial(RealizationSpec.build_for_measurement)
        assert reference_types == {Graph} and serial_types == {CSRGraph}
        assert serial == reference
        with ParallelExecutor(jobs=2) as executor:
            parallel = run_scenario(get_builtin_scenario(experiment_id), scale=scale, executor=executor)
        assert _payload(parallel) == reference


def _run_on_tier(tier, experiment_id, scale, jobs=1):
    """Run a built-in experiment with the tier pinned (workers included)."""
    with pin_tier(tier), executor_from_jobs(jobs) as executor:
        result = run_scenario(
            get_builtin_scenario(experiment_id), scale=scale, executor=executor
        )
    return [series.as_dict() for series in result.series]


class TestKernelTierExperiments:
    """Whole experiments on the ``jit`` tier — the tier's acceptance bar.

    fig9 (NF on PA/CM/HAPA) exercises the kernel dispatch through the full
    stack: scenario compiler → engine tasks → batched kernel curves — and
    must reproduce the python tier byte for byte, serial and across worker
    processes.
    """

    def test_fig9_jit_byte_identical(self, smoke_scale):
        assert _run_on_tier("python", "fig9", smoke_scale) == _run_on_tier(
            "jit", "fig9", smoke_scale
        )

    def test_fig9_jit_parallel_byte_identical(self, smoke_scale):
        """The pinned tier reaches the worker processes (forked with it)."""
        scale = replace(smoke_scale, realizations=2)
        assert _run_on_tier("python", "fig9", scale) == _run_on_tier(
            "jit", "fig9", scale, jobs=2
        )


class TestGenerationTierEquivalence:
    """Topology *generation* over kernel tiers: byte-identical graphs.

    The generator kernels (repro.kernels.generators) extend the tier
    contract upstream of the search phase: for every construction family,
    a jit build must emit the same nodes and edges in the same insertion
    order (pinned through the frozen CSR arrays), and consume exactly the
    reference's draws — so a full realization (generate + search) is
    byte-identical end to end on every tier.  The per-family draw counts
    and deeper edge cases live in tests/test_kernels_generators.py.
    """

    BUILDERS = {
        "pa": lambda rng: generate_pa(300, stubs=2, hard_cutoff=10, rng=rng),
        "cm": lambda rng: generate_cm(
            300, exponent=2.5, min_degree=2, hard_cutoff=20, rng=rng
        ),
        "hapa": lambda rng: generate_hapa(200, stubs=1, hard_cutoff=8, rng=rng),
        "dapa": lambda rng: generate_dapa(
            150, stubs=2, hard_cutoff=10, local_ttl=4, rng=rng
        ),
    }

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("model", GENERATORS)
    def test_generation_byte_identical_across_tiers(self, model, tier):
        import numpy as np

        reference_rng = RandomSource(seed=909)
        tier_rng = RandomSource(seed=909)
        with pin_tier("python"):
            reference = self.BUILDERS[model](reference_rng)
        with pin_tier(tier):
            subject = self.BUILDERS[model](tier_rng)
        assert reference.nodes() == subject.nodes()
        frozen_reference = reference.freeze()
        frozen_subject = subject.freeze()
        assert np.array_equal(frozen_reference._indptr, frozen_subject._indptr)
        assert np.array_equal(frozen_reference._indices, frozen_subject._indices)
        # Identical stream position: nothing downstream can shift seeds.
        assert reference_rng.random() == tier_rng.random()

    @pytest.mark.parametrize("tier", TIERS)
    def test_generate_then_search_end_to_end(self, tier):
        """One realization generated *and* searched on a single stream per
        tier must agree field for field."""
        results = {}
        for pinned in ("python", tier):
            rng = RandomSource(seed=4242)
            with pin_tier(pinned):
                graph = generate_pa(250, stubs=2, hard_cutoff=12, rng=rng)
                subject = graph.freeze() if pinned == "jit" else graph
                results[pinned] = NormalizedFloodingSearch(k_min=2).run(
                    subject, 0, 6, rng=rng, target=17
                )
        _assert_identical(results["python"], results[tier])

    def test_fig1_jit_generation_byte_identical(self, smoke_scale):
        """A whole degree-distribution experiment (generation-dominated)
        on the jit tier — the generator tier's acceptance bar."""
        assert _run_on_tier("python", "fig1", smoke_scale) == _run_on_tier(
            "jit", "fig1", smoke_scale
        )

    def test_fig1_jit_generation_parallel_byte_identical(self, smoke_scale):
        """The pinned tier reaches generation inside worker processes."""
        scale = replace(smoke_scale, realizations=2)
        assert _run_on_tier("python", "fig1", scale) == _run_on_tier(
            "jit", "fig1", scale, jobs=2
        )
