"""The inlined-draw search loops against their test oracles.

Every :class:`RandomSource` draws from its Mersenne Twister directly: NF
and single-walker RW queries run through ``_run_fast`` (NF replays
CPython's ``random.sample``, pool swap or set rejection; RW inlines
``_randbelow``), and PF's one loop takes its coins from the twister's
``random``.  The oracles draw through the source's methods: NF's reference
loop (``tests/oracles/nf.py``), PF's loop with ``rng.random()`` coins
(``tests/oracles/pf.py``) and RW's multi-walker loop, ``_run_walkers``, at
one walker.  Every comparison here runs a batch of queries on one graph
with the oracle and the shipped loop, each on a logged twister, and checks
the sequence of twister calls, the per-TTL curves, the visited set,
``found_at``, the next ``random()`` draw, and that no cached neighbor list
was reordered.
"""

from __future__ import annotations

import random
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from draw_log import logged_source
from oracles import nf as nf_oracle
from oracles import pf as pf_oracle
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.generators.pa import generate_pa
from repro.search.normalized_flooding import NormalizedFloodingSearch
from repro.search.probabilistic_flooding import ProbabilisticFloodingSearch
from repro.search.random_walk import RandomWalkSearch
from repro.telemetry.collector import TelemetryCollector, use_telemetry


class _SubclassSource(RandomSource):
    """Overrides nothing: a subclass runs the same loops as a plain source."""


class _CountingSource(RandomSource):
    """Counts the ``randint``/``random`` calls that reach it."""

    def __init__(self, seed=None):
        super().__init__(seed)
        self.calls = 0

    def randint(self, low, high):
        self.calls += 1
        return super().randint(low, high)

    def random(self):
        self.calls += 1
        return super().random()


def _build_graph(nodes, hub_degree, extra_edges, isolated, sparse_ids, seed):
    """A random tree plus one hub and extra chords, with optional isolated
    nodes and non-contiguous ids (built with ``random.Random(seed)``)."""
    draw = random.Random(seed)
    ids = [3 * index + 2 if sparse_ids else index for index in range(nodes + isolated)]
    graph = Graph()
    for node in ids:
        graph.add_node(node)
    for index in range(1, nodes):
        graph.add_edge(ids[index], ids[draw.randrange(index)])
    hub = ids[draw.randrange(nodes)]
    for peer in draw.sample(ids[:nodes], min(hub_degree, nodes - 1) + 1):
        if peer != hub:
            graph.add_edge(hub, peer)
    for _ in range(extra_edges):
        u, v = ids[draw.randrange(nodes)], ids[draw.randrange(nodes)]
        if u != v:
            graph.add_edge(u, v)
    return graph


@st.composite
def search_graphs(draw):
    graph = _build_graph(
        nodes=draw(st.integers(min_value=1, max_value=130)),
        # Hubs above 22 take sample's set branch for k <= 5; above 86, for
        # the larger setsize of k > 5.
        hub_degree=draw(st.sampled_from([0, 3, 12, 30, 60, 100])),
        extra_edges=draw(st.integers(min_value=0, max_value=150)),
        isolated=draw(st.integers(min_value=0, max_value=2)),
        sparse_ids=draw(st.booleans()),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
    )
    nodes = graph.nodes()
    sources = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4))
    target = draw(st.one_of(st.none(), st.sampled_from(nodes)))
    return graph, sources, target


def _oracle(algorithm):
    """The loop drawing through the source's methods, called as
    ``oracle(graph, source, ttl, rng, target)``."""
    if isinstance(algorithm, NormalizedFloodingSearch):
        return partial(nf_oracle.run_nf, algorithm)
    if isinstance(algorithm, ProbabilisticFloodingSearch):
        return partial(pf_oracle.run_pf, algorithm)
    return algorithm._run_walkers


def _assert_fast_matches_reference(algorithm, graph, sources, ttl, target, seed):
    """Run ``sources`` on ``graph`` and on its frozen snapshot, with the
    shipped loop and with its oracle."""
    oracle = _oracle(algorithm)
    rows = {node: list(graph.iter_neighbors(node)) for node in graph.nodes()}
    for subject in (graph, graph.freeze()):
        (plain, calls), (reference_rng, reference_calls) = logged_source(seed), logged_source(seed)
        for source in sources:
            fast = algorithm.run(subject, source, ttl, rng=plain, target=target)
            reference = oracle(subject, source, ttl, reference_rng, target)
            assert fast.hits_per_ttl == reference.hits_per_ttl
            assert fast.messages_per_ttl == reference.messages_per_ttl
            assert fast.visited == reference.visited
            assert fast.found_at == reference.found_at
            assert len(fast.hits_per_ttl) == ttl + 1
        assert calls == reference_calls
        assert plain.random() == reference_rng.random()
        for node, row in rows.items():
            assert subject.iter_neighbors(node) == row, "a cached row was mutated"


_PROPERTY = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestNormalizedFloodingFastLoop:
    @_PROPERTY
    @given(
        case=search_graphs(),
        k_min=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        count_source=st.booleans(),
        ttl=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_property_matches_reference(self, case, k_min, count_source, ttl, seed):
        graph, sources, target = case
        algorithm = NormalizedFloodingSearch(k_min=k_min, count_source_as_hit=count_source)
        _assert_fast_matches_reference(algorithm, graph, sources, ttl, target, seed)

    @pytest.mark.parametrize(
        "hub_degree, k_min",
        # set branch (k <= 5), pool branch under the larger setsize (k > 5),
        # set branch under the larger setsize.
        [(30, 2), (30, 5), (30, 6), (60, 8), (100, 6), (100, 8)],
    )
    def test_hub_sampling_branches(self, hub_degree, k_min):
        graph = _build_graph(120, hub_degree, 200, 0, False, seed=hub_degree + k_min)
        hub = max(graph.nodes(), key=graph.degree)
        assert graph.degree(hub) >= hub_degree
        neighbors = list(graph.iter_neighbors(hub))
        _assert_fast_matches_reference(
            NormalizedFloodingSearch(k_min=k_min), graph, [hub, neighbors[0], hub], 6, None, 5
        )

    def test_frontier_histograms_match(self):
        graph = _build_graph(90, 30, 60, 1, False, seed=4).freeze()
        search = NormalizedFloodingSearch(k_min=2)
        histograms = []
        for run in (search.run, partial(nf_oracle.run_nf, search)):
            collector = TelemetryCollector()
            rng = RandomSource(9)
            with use_telemetry(collector):
                for source in (0, 5, 89, 90):  # 90 is isolated
                    run(graph, source, 6, rng)
            histograms.append(collector.histograms["search.frontier"])
        assert histograms[0] == histograms[1]
        assert histograms[0]["count"] > 0


class TestProbabilisticFloodingFastLoop:
    @_PROPERTY
    @given(
        case=search_graphs(),
        probability=st.one_of(
            st.sampled_from([0.05, 0.5, 0.99, 1.0]),
            st.floats(min_value=0.01, max_value=1.0),
        ),
        count_source=st.booleans(),
        ttl=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_property_matches_reference(self, case, probability, count_source, ttl, seed):
        graph, sources, target = case
        algorithm = ProbabilisticFloodingSearch(probability, count_source_as_hit=count_source)
        _assert_fast_matches_reference(algorithm, graph, sources, ttl, target, seed)

    def test_certain_forwarding_draws_nothing(self):
        graph = _build_graph(60, 12, 40, 0, False, seed=2)
        rng = RandomSource(3)
        ProbabilisticFloodingSearch(1.0).run(graph, 0, 5, rng=rng)
        assert rng.random() == RandomSource(3).random()


class TestRandomWalkFastLoop:
    @_PROPERTY
    @given(
        case=search_graphs(),
        walkers=st.integers(min_value=1, max_value=3),
        backtracking=st.booleans(),
        count_source=st.booleans(),
        ttl=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_property_matches_reference(
        self, case, walkers, backtracking, count_source, ttl, seed
    ):
        graph, sources, target = case
        algorithm = RandomWalkSearch(
            walkers=walkers,
            count_source_as_hit=count_source,
            allow_backtracking=backtracking,
        )
        _assert_fast_matches_reference(algorithm, graph, sources, ttl, target, seed)

    def test_walk_gets_stuck_at_a_leaf(self):
        # A path: every non-backtracking walk ends at a leaf, 3 or 5 hops
        # from node 3 and 8 hops from either end, all inside the TTL.
        graph = Graph.from_edges(9, [(index, index + 1) for index in range(8)])
        _assert_fast_matches_reference(RandomWalkSearch(), graph, [3, 0, 8], 12, 8, 1)


class TestEdgeCases:
    """Fixed cases beside the properties: a ttl of 0, an isolated source,
    a target at the source, and the larger branching factor of NF."""

    @pytest.mark.parametrize(
        "algorithm",
        [
            NormalizedFloodingSearch(k_min=2),
            ProbabilisticFloodingSearch(0.5),
            RandomWalkSearch(walkers=2),
        ],
        ids=["nf", "pf", "rw-walkers"],
    )
    @pytest.mark.parametrize("source, ttl", [(0, 0), (3, 5), (0, 6)])
    def test_path_with_an_isolated_node(self, algorithm, source, ttl):
        graph = Graph.from_edges(4, [(0, 1), (1, 2)])  # node 3 is isolated
        _assert_fast_matches_reference(algorithm, graph, [source], ttl, None, 3)

    def test_target_at_the_source_counted_as_a_hit(self):
        graph = generate_pa(250, stubs=2, hard_cutoff=12, seed=31)
        algorithm = NormalizedFloodingSearch(k_min=3, count_source_as_hit=True)
        _assert_fast_matches_reference(algorithm, graph, [4], 6, 4, 11)
        assert algorithm.run(graph, 4, 6, rng=11, target=4).found_at == 0

    def test_large_branching_follows_the_sample_heuristic(self):
        # k_min > 5 flips random.sample's setsize heuristic; the inlined
        # sample must follow it or the draw streams diverge.
        graph = generate_pa(250, stubs=2, hard_cutoff=12, seed=31)
        _assert_fast_matches_reference(
            NormalizedFloodingSearch(k_min=7), graph, [0], 8, None, 23
        )


class TestDispatch:
    @pytest.mark.parametrize(
        "algorithm, loop",
        [
            (RandomWalkSearch(), "_run_fast"),
            (RandomWalkSearch(walkers=2), "_run_walkers"),
        ],
        ids=["rw", "rw-walkers"],
    )
    def test_walkers_alone_pick_the_loop(self, algorithm, loop, monkeypatch):
        graph = _build_graph(40, 6, 20, 0, False, seed=1).freeze()
        taken = []
        for name in ("_run_fast", "_run_walkers"):
            original = getattr(RandomWalkSearch, name)

            def spy(self, *args, _name=name, _original=original, **kwargs):
                taken.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(RandomWalkSearch, name, spy)
        algorithm.run(graph, 0, 4, rng=RandomSource(1))
        algorithm.run(graph, 0, 4, rng=_SubclassSource(1))
        assert taken == [loop, loop]

    @pytest.mark.parametrize(
        "algorithm, through_methods",
        [
            (NormalizedFloodingSearch(k_min=2), False),
            (ProbabilisticFloodingSearch(0.5), False),
            (RandomWalkSearch(), False),
            (RandomWalkSearch(walkers=2), True),
        ],
        ids=["nf", "pf", "rw", "rw-walkers"],
    )
    def test_a_subclass_runs_the_plain_loop(self, algorithm, through_methods):
        # Only RW's multi-walker body draws through the source's methods;
        # every other loop draws from the twister underneath them.  Either
        # way a counting subclass gets the plain source's results and ends
        # at its stream position.
        graph = _build_graph(40, 6, 20, 1, False, seed=1)
        for subject in (graph, graph.freeze()):
            plain, counted = RandomSource(7), _CountingSource(7)
            for source in (0, 3, 40):  # 40 is isolated
                expected = algorithm.run(subject, source, 5, rng=plain)
                result = algorithm.run(subject, source, 5, rng=counted)
                assert result.hits_per_ttl == expected.hits_per_ttl
                assert result.messages_per_ttl == expected.messages_per_ttl
                assert result.visited == expected.visited
            assert counted.getstate() == plain.getstate()
            assert bool(counted.calls) == through_methods
