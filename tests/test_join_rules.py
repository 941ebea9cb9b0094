"""What every peer join must guarantee, checked on each growth generator.

PA (both strategies), nonlinear PA and HAPA grow an overlay from an
``(m + 1)``-clique, one joining peer per step; DAPA grows it from a seed
clique of substrate nodes, each joiner linking to peers inside its
``τ_sub``-hop substrate horizon.  Whatever the attachment rule, a join
must keep the overlay a simple symmetric graph, never push a peer past the
hard cutoff, give the joiner at most ``m`` links (exactly ``m`` when the
cutoff leaves room) and keep the overlay connected.  DAPA's links must also
stay inside the joiner's horizon (paper Algorithm 4).

Growth generators add nodes in join order, so the links a peer made when it
joined are its links to earlier peers.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from oracles.bfs import bfs_distances
from repro.analysis.components import is_connected
from repro.core.config import MeshConfig
from repro.generators.dapa import DAPAGenerator
from repro.generators.hapa import HAPAGenerator
from repro.generators.nonlinear_pa import NonlinearPreferentialAttachmentGenerator
from repro.generators.pa import PreferentialAttachmentGenerator

GROWTH_MODELS = {
    "pa": lambda n, m, kc, seed: PreferentialAttachmentGenerator(
        n, stubs=m, hard_cutoff=kc, seed=seed
    ),
    "pa-attempt": lambda n, m, kc, seed: PreferentialAttachmentGenerator(
        n, stubs=m, hard_cutoff=kc, seed=seed, strategy="attempt"
    ),
    "hapa": lambda n, m, kc, seed: HAPAGenerator(n, stubs=m, hard_cutoff=kc, seed=seed),
    "nlpa": lambda n, m, kc, seed: NonlinearPreferentialAttachmentGenerator(
        n, stubs=m, hard_cutoff=kc, seed=seed, exponent_alpha=1.5
    ),
}

# (N, m, kc, seed).  A cutoff of at least 2m leaves every joiner room for
# all m links; kc < 2m cannot hold N nodes of degree m, so stubs go unfilled.
ROOMY_CASES = [(300, 1, 8, 1), (300, 2, 10, 2), (250, 3, None, 3)]
TIGHT_CASE = (30, 3, 5, 5)
ALL_CASES = ROOMY_CASES + [TIGHT_CASE]


def _case_id(case):
    n, m, kc, seed = case
    return f"n{n}-m{m}-kc{kc}-s{seed}"


@lru_cache(maxsize=None)
def _grow(model, case):
    """One build per (model, case), shared by the tests that read it."""
    n, m, kc, seed = case
    return GROWTH_MODELS[model](n, m, kc, seed).generate()


def _earlier_links(graph, node, position):
    """The links ``node`` made when it joined: those to earlier peers."""
    return [peer for peer in graph.neighbors(node) if position[peer] < position[node]]


def _assert_simple_and_symmetric(graph):
    edges = graph.edges()
    assert all(u != v for u, v in edges)
    assert len({frozenset(edge) for edge in edges}) == len(edges)
    for node in graph.nodes():
        neighbors = graph.neighbors(node)
        assert len(set(neighbors)) == len(neighbors) == graph.degree(node)
        assert all(node in graph.neighbor_set(peer) for peer in neighbors)
    assert sum(graph.degree_sequence()) == 2 * graph.number_of_edges


@pytest.mark.parametrize("model", sorted(GROWTH_MODELS))
class TestGrowthJoins:
    @pytest.mark.parametrize("case", ALL_CASES, ids=_case_id)
    def test_hard_cutoff_never_exceeded(self, model, case):
        n, _, kc, _ = case
        graph = _grow(model, case).graph
        assert graph.number_of_nodes == n
        if kc is None:
            assert graph.max_degree() <= n - 1
        else:
            # The cap binds: some peer sits exactly at it.
            assert graph.max_degree() == kc

    @pytest.mark.parametrize("case", ALL_CASES, ids=_case_id)
    def test_overlay_is_simple_and_symmetric(self, model, case):
        _assert_simple_and_symmetric(_grow(model, case).graph)

    @pytest.mark.parametrize("case", ALL_CASES, ids=_case_id)
    def test_each_joiner_links_to_m_earlier_peers_less_unfilled_stubs(self, model, case):
        _, m, _, _ = case
        result = _grow(model, case)
        graph = result.graph
        nodes = graph.nodes()
        assert nodes == list(range(len(nodes)))
        position = {node: node for node in nodes}
        seed_clique = nodes[: m + 1]
        for node in seed_clique:
            assert set(_earlier_links(graph, node, position)) == set(range(node))
        shortfall = 0
        for node in nodes[m + 1:]:
            links = len(_earlier_links(graph, node, position))
            assert 0 <= links <= m
            shortfall += m - links
        assert shortfall == result.metadata["unfilled_stubs"]
        if case in ROOMY_CASES:
            assert shortfall == 0
            assert graph.min_degree() == m

    @pytest.mark.parametrize("case", ROOMY_CASES, ids=_case_id)
    def test_overlay_is_connected(self, model, case):
        # Every joiner links to at least one earlier peer.  Under a tight
        # cutoff a joiner can find every peer full and link to nobody.
        assert is_connected(_grow(model, case).graph)


# (local_ttl, m, kc, seed, substrate); ``None`` is the default geometric
# random network of twice the overlay size.
DAPA_CASES = [
    (1, 1, None, 1, None),
    (2, 2, 8, 2, None),
    (4, 3, None, 4, None),
    (3, 2, 10, 3, MeshConfig(rows=20, columns=20)),
]
DAPA_OVERLAY_SIZE = 150


def _dapa_case_id(case):
    local_ttl, m, kc, seed, substrate = case
    kind = "grn" if substrate is None else "mesh"
    return f"ttl{local_ttl}-m{m}-kc{kc}-s{seed}-{kind}"


@lru_cache(maxsize=None)
def _grow_dapa(case):
    local_ttl, m, kc, seed, substrate = case
    return DAPAGenerator(
        overlay_size=DAPA_OVERLAY_SIZE,
        stubs=m,
        hard_cutoff=kc,
        local_ttl=local_ttl,
        substrate_config=substrate,
        seed=seed,
    ).generate()


@pytest.mark.parametrize("case", DAPA_CASES, ids=_dapa_case_id)
class TestDiscoverJoins:
    def test_hard_cutoff_never_exceeded(self, case):
        _, _, kc, _, _ = case
        result = _grow_dapa(case)
        assert result.metadata["reached_target"] is True
        assert result.graph.number_of_nodes == DAPA_OVERLAY_SIZE
        if kc is not None:
            assert result.graph.max_degree() <= kc

    def test_overlay_is_simple_and_symmetric(self, case):
        _assert_simple_and_symmetric(_grow_dapa(case).graph)

    def test_joiner_links_only_within_its_horizon(self, case):
        local_ttl = case[0]
        result = _grow_dapa(case)
        graph = result.graph
        substrate = result.metadata["substrate_graph"]
        nodes = graph.nodes()
        position = {node: index for index, node in enumerate(nodes)}
        # nodes[:2] are the seed peers, linked wherever they landed.
        for node in nodes[2:]:
            horizon = bfs_distances(substrate, node, max_depth=local_ttl)
            for peer in _earlier_links(graph, node, position):
                assert peer in horizon, (node, peer)

    def test_each_joiner_links_to_between_one_and_m_earlier_peers(self, case):
        _, m, _, _, _ = case
        graph = _grow_dapa(case).graph
        nodes = graph.nodes()
        position = {node: index for index, node in enumerate(nodes)}
        seeds = nodes[:2]
        assert graph.has_edge(*seeds)
        for node in nodes[2:]:
            assert 1 <= len(_earlier_links(graph, node, position)) <= m

    def test_overlay_is_connected(self, case):
        assert is_connected(_grow_dapa(case).graph)
