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

The stochastic loops draw from the Mersenne Twister directly; the loops
they replaced, kept as test oracles (``tests/oracles/``, and RW's
multi-walker loop at one walker), draw the same values through the
source's methods.  On every topology and on both representations the
shipped loop must match its oracle as well: per query, per curve, and
over a whole realization generated and searched on one stream.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from functools import partial

import pytest

from draw_log import logged_source
from oracles import cm as cm_oracle
from oracles import dapa as dapa_oracle
from oracles import hapa as hapa_oracle
from oracles import nf as nf_oracle
from oracles import pa as pa_oracle
from oracles import pf as pf_oracle
from repro.core.csr import CSRGraph
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.engine.executor import ParallelExecutor
from repro.scenarios import get_builtin_scenario, run_scenario
from repro.scenarios.measure import RealizationSpec
from repro.generators.cm import ConfigurationModelGenerator, generate_cm
from repro.generators.dapa import DAPAGenerator, generate_dapa
from repro.generators.hapa import HAPAGenerator, generate_hapa
from repro.generators.nonlinear_pa import generate_nonlinear_pa
from repro.generators.pa import PreferentialAttachmentGenerator, generate_pa
from repro.search.flooding import FloodingSearch
from repro.search.metrics import normalized_walk_curve, search_curve
from repro.search.normalized_flooding import NormalizedFloodingSearch
from repro.search.probabilistic_flooding import ProbabilisticFloodingSearch
from repro.search.random_walk import RandomWalkSearch


# --------------------------------------------------------------------------- #
# Topologies: one small realization of every registered generator family
# --------------------------------------------------------------------------- #
def _build_graphs():
    return {
        "pa": generate_pa(300, stubs=2, hard_cutoff=10, seed=101),
        "cm": generate_cm(300, exponent=2.5, min_degree=2, hard_cutoff=20, seed=77),
        "hapa": generate_hapa(200, stubs=1, hard_cutoff=8, seed=55),
        "dapa": generate_dapa(150, stubs=2, hard_cutoff=10, local_ttl=4, seed=66),
        "nlpa": generate_nonlinear_pa(
            250, stubs=2, exponent_alpha=0.8, hard_cutoff=10, seed=88
        ),
    }


@pytest.fixture(scope="module")
def graphs():
    return _build_graphs()


GENERATORS = ["pa", "cm", "hapa", "dapa", "nlpa"]

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
    # The paper's RW: one walker, which runs the inlined-draw loop.
    "rw-single": lambda: RandomWalkSearch(),
}

#: The loop each inlined-draw search replaced, drawing through the
#: source's methods, as ``oracle(algorithm)(graph, source, ttl, rng,
#: target)``.
ORACLES = {
    "nf": lambda algorithm: partial(nf_oracle.run_nf, algorithm),
    "nf-auto-kmin": lambda algorithm: partial(nf_oracle.run_nf, algorithm),
    "pf": lambda algorithm: partial(pf_oracle.run_pf, algorithm),
    "rw-single": lambda algorithm: algorithm._run_walkers,
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

    @pytest.mark.parametrize("model", GENERATORS)
    @pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
    def test_identical_results_and_rng_consumption(
        self, graphs, model, algorithm_name
    ):
        graph = graphs[model]
        frozen = graph.freeze()
        algorithm = ALGORITHMS[algorithm_name]()
        nodes = graph.nodes()
        target = nodes[len(nodes) // 2]
        for seed, source in [(7, nodes[0]), (19, nodes[3]), (23, nodes[-1])]:
            rng_adj, rng_csr = RandomSource(seed), RandomSource(seed)
            result_adj = algorithm.run(graph, source, 8, rng=rng_adj, target=target)
            result_csr = algorithm.run(frozen, source, 8, rng=rng_csr, target=target)
            _assert_identical(result_adj, result_csr)
            # Both streams must sit at the same position afterwards: the
            # next draw from each is equal, so freezing can never shift the
            # seeds of whatever runs next.
            assert rng_adj.random() == rng_csr.random()

    @pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
    def test_ttl_zero_and_isolated_source(self, algorithm_name):
        graph = Graph.from_edges(4, [(0, 1), (1, 2)])  # node 3 is isolated
        frozen = graph.freeze()
        algorithm = ALGORITHMS[algorithm_name]()
        for source, ttl in [(0, 0), (3, 5)]:
            rng_adj, rng_csr = RandomSource(3), RandomSource(3)
            result_adj = algorithm.run(graph, source, ttl, rng=rng_adj)
            result_csr = algorithm.run(frozen, source, ttl, rng=rng_csr)
            _assert_identical(result_adj, result_csr)
            assert rng_adj.random() == rng_csr.random()


class TestCurveEquivalence:
    """Metric-level curves (what the figures actually average)."""

    @pytest.mark.parametrize("model", GENERATORS)
    @pytest.mark.parametrize(
        "algorithm_name", ["fl", "nf", "pf", "rw", "rw-single"]
    )
    def test_search_curve_identical(self, graphs, model, algorithm_name):
        graph = graphs[model]
        frozen = graph.freeze()
        ttl_values = [1, 2, 4, 6, 8]
        curve_adj = search_curve(
            graph, ALGORITHMS[algorithm_name](), ttl_values, queries=25, rng=5
        )
        curve_csr = search_curve(
            frozen, ALGORITHMS[algorithm_name](), ttl_values, queries=25, rng=5
        )
        assert curve_adj.as_dict() == curve_csr.as_dict()

    @pytest.mark.parametrize("model", GENERATORS)
    def test_normalized_walk_curve_identical(self, graphs, model):
        graph = graphs[model]
        frozen = graph.freeze()
        curve_adj = normalized_walk_curve(graph, [2, 4, 6], k_min=2, queries=20, rng=9)
        curve_csr = normalized_walk_curve(frozen, [2, 4, 6], k_min=2, queries=20, rng=9)
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

    def test_search_curve_stream_position(self, graphs):
        """The whole pipeline leaves both RNGs at the same position."""
        graph = graphs["pa"]
        frozen = graph.freeze()
        for factory in (FloodingSearch, NormalizedFloodingSearch):
            rng_adj, rng_csr = RandomSource(11), RandomSource(11)
            search_curve(graph, factory(), [1, 3, 5], queries=15, rng=rng_adj)
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

    NF's and PF's loops and single-walker RW's draw from the twister
    directly, so a counting source counts their oracles; RW's multi-walker
    loop still draws through ``rng.randint`` and is counted itself.  The
    shipped loop must then leave a plain source where the counted loop
    left it.
    """

    PINNED = {
        "nf": {"sample": 47},
        "pf": {"random": 784},
        "rw": {"randint": 24},
        "rw-backtracking": {"randint": 16},
        "rw-single": {"randint": 8},
    }

    #: The loop the counting source counts, as ``loop(graph, source, ttl,
    #: rng, target)``.
    COUNTED = {
        **ORACLES,
        "rw": lambda algorithm: algorithm._run_walkers,
        "rw-backtracking": lambda algorithm: algorithm._run_walkers,
    }

    @pytest.mark.parametrize("algorithm_name", sorted(PINNED))
    def test_exact_draw_counts(self, graphs, algorithm_name):
        graph = graphs["pa"]
        frozen = graph.freeze()
        algorithm = ALGORITHMS[algorithm_name]()
        counted = self.COUNTED[algorithm_name](algorithm)
        for subject in (graph, frozen):
            rng_counted, rng = _CountingSource(7), RandomSource(7)
            counted(subject, 5, 8, rng_counted, None)
            assert dict(rng_counted.calls) == self.PINNED[algorithm_name]
            algorithm.run(subject, 5, 8, rng=rng)
            assert rng.random() == rng_counted.random()

    def test_flooding_consumes_no_draws(self, graphs):
        graph = graphs["pa"]
        frozen = graph.freeze()
        for subject in (graph, frozen):
            rng = _CountingSource(7)
            FloodingSearch().run(subject, 5, 8, rng=rng)
            assert not rng.calls


class TestOracleEquivalence:
    """The shipped loops against their oracles, on every topology.

    Per query, both loops run a batch of queries on one logged twister
    each and must make the same twister calls; per curve, the averaged
    curves of :func:`search_curve` and :func:`normalized_walk_curve` must
    be equal when every query runs on the oracle instead.
    """

    @pytest.mark.parametrize("frozen", [False, True], ids=["graph", "csr"])
    @pytest.mark.parametrize("model", GENERATORS)
    @pytest.mark.parametrize("algorithm_name", sorted(ORACLES))
    def test_query_matches_oracle(self, graphs, model, algorithm_name, frozen):
        graph = graphs[model]
        subject = graph.freeze() if frozen else graph
        algorithm = ALGORITHMS[algorithm_name]()
        oracle = ORACLES[algorithm_name](algorithm)
        nodes = graph.nodes()
        target = nodes[len(nodes) // 2]
        (rng, calls), (oracle_rng, oracle_calls) = logged_source(29), logged_source(29)
        for source in (nodes[0], nodes[3], target, nodes[-1]):
            result = algorithm.run(subject, source, 8, rng=rng, target=target)
            expected = oracle(subject, source, 8, oracle_rng, target)
            _assert_identical(expected, result)
        assert calls == oracle_calls
        assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("model", GENERATORS)
    @pytest.mark.parametrize("algorithm_name", sorted(ORACLES))
    def test_search_curve_matches_oracle(self, graphs, model, algorithm_name):
        frozen = graphs[model].freeze()
        ttl_values = [1, 2, 4, 6, 8]
        curve = search_curve(
            frozen, ALGORITHMS[algorithm_name](), ttl_values, queries=25, rng=5
        )
        routed = ALGORITHMS[algorithm_name]()
        oracle = ORACLES[algorithm_name](routed)
        routed.run = lambda graph, source, ttl, rng=None, target=None: oracle(
            graph, source, ttl, rng, target
        )
        expected = search_curve(frozen, routed, ttl_values, queries=25, rng=5)
        assert curve.as_dict() == expected.as_dict()

    @pytest.mark.parametrize("model", GENERATORS)
    def test_normalized_walk_curve_matches_oracles(self, graphs, model, monkeypatch):
        frozen = graphs[model].freeze()
        curve = normalized_walk_curve(frozen, [2, 4, 6], k_min=2, queries=20, rng=9)
        routed = Counter()
        for search_class, name in (
            (NormalizedFloodingSearch, "nf"),
            (RandomWalkSearch, "rw-single"),
        ):

            def run(self, graph, source, ttl, rng=None, target=None, _name=name):
                routed[_name] += 1
                return ORACLES[_name](self)(graph, source, ttl, rng, target)

            monkeypatch.setattr(search_class, "run", run)
        expected = normalized_walk_curve(frozen, [2, 4, 6], k_min=2, queries=20, rng=9)
        assert routed == {"nf": 20, "rw-single": 20}
        assert curve.as_dict() == expected.as_dict()


class TestGenerationReference:
    """One realization generated and searched on a single stream.

    The shipped generators draw from the twister directly, like the
    search loops; their oracles (``tests/oracles/``) draw through the
    source's methods.  A topology built and then searched from one stream
    by the shipped code (on its frozen snapshot, as the experiments do)
    must give the same queries as the oracles give on the oracle's graph,
    and leave the stream at the same position: nothing in the chain may
    shift a later draw.
    """

    #: ``model: (shipped build, oracle build)``, each called with the
    #: stream.
    BUILDS = {
        "pa": (
            lambda rng: generate_pa(300, stubs=2, hard_cutoff=10, rng=rng),
            lambda rng: pa_oracle.build_pa(
                PreferentialAttachmentGenerator(300, stubs=2, hard_cutoff=10), rng
            )[0],
        ),
        "cm": (
            lambda rng: generate_cm(
                300, exponent=2.5, min_degree=2, hard_cutoff=20, rng=rng
            ),
            lambda rng: cm_oracle.build_cm(
                ConfigurationModelGenerator(
                    300, exponent=2.5, min_degree=2, hard_cutoff=20
                ),
                rng,
            )[0],
        ),
        "hapa": (
            lambda rng: generate_hapa(200, stubs=1, hard_cutoff=8, rng=rng),
            lambda rng: hapa_oracle.build_reference(
                HAPAGenerator(200, stubs=1, hard_cutoff=8), rng
            )[0],
        ),
        "dapa": (
            lambda rng: generate_dapa(
                150, stubs=2, hard_cutoff=10, local_ttl=4, rng=rng
            ),
            lambda rng: dapa_oracle.build_dapa(
                DAPAGenerator(overlay_size=150, stubs=2, hard_cutoff=10, local_ttl=4),
                rng,
            )[0],
        ),
    }

    @pytest.mark.parametrize("model", sorted(BUILDS))
    @pytest.mark.parametrize("algorithm_name", sorted(ORACLES))
    def test_generate_then_search_matches_the_oracles(self, model, algorithm_name):
        build, oracle_build = self.BUILDS[model]
        rng, oracle_rng = RandomSource(seed=4242), RandomSource(seed=4242)
        frozen = build(rng).freeze()
        reference = oracle_build(oracle_rng)
        algorithm = ALGORITHMS[algorithm_name]()
        oracle = ORACLES[algorithm_name](algorithm)
        nodes = reference.nodes()
        target = nodes[17]
        for source in nodes[:: len(nodes) // 5]:
            result = algorithm.run(frozen, source, 6, rng=rng, target=target)
            expected = oracle(reference, source, 6, oracle_rng, target)
            _assert_identical(expected, result)
        assert rng.random() == oracle_rng.random()


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

    #: Every built-in experiment that searches its topologies.
    SEARCHING = [
        "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        "messaging", "ablation_min_degree",
    ]

    @pytest.mark.parametrize("experiment_id", SEARCHING)
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
