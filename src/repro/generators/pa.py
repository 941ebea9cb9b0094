"""Preferential attachment with hard cutoffs (paper §III-B, Algorithm 1).

The network grows one node at a time.  Each new node ``i`` fills ``m`` stubs
by connecting to already-present nodes with probability proportional to their
degree, *subject to the hard cutoff*: a node whose degree already equals
``kc`` never accepts another link.  Without a cutoff this is the classic
Barabási–Albert model (γ = 3 in the large-N limit, γ ≈ 2.85 at N = 10^5 per
the paper); with a cutoff the distribution keeps a power-law body, develops a
spike at ``k = kc``, and its fitted exponent decreases as ``kc`` decreases
(paper Fig. 1).

Two selection strategies are provided:

``"attempt"``
    A literal transcription of the paper's Algorithm 1: repeatedly pick a
    uniform random existing node and accept it with probability
    ``k_node / k_total`` if it is not yet a neighbor and is below the cutoff.
    Faithful but O(N) expected attempts per stub — use it for small networks
    and for validating the fast strategy.

``"roulette"`` (default)
    Degree-proportional selection via a stub list (each node appears once per
    unit of degree), rejecting saturated nodes and duplicates.  Conditioned
    on acceptance this draws from exactly the same distribution as
    ``"attempt"`` (probability ∝ degree among eligible nodes) but costs O(1)
    expected time per stub, making N = 10^5 topologies practical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import PAConfig
from repro.core.errors import ConfigurationError, GenerationError
from repro.core.graph import Graph
from repro.core.rng import RandomSource, raw_stream
from repro.generators.base import TopologyGenerator

__all__ = ["PreferentialAttachmentGenerator", "generate_pa"]

_STRATEGIES = ("roulette", "attempt")

#: Rejected draws per stub before a strategy stops drawing for it.  The
#: roulette strategy then scans the eligible nodes and draws one by degree
#: (it skips the loop entirely when its live-slot audit finds none); the
#: attempt strategy counts the stub as unfilled after this many draw pairs,
#: with no eligibility check before them.  Generous enough that it only
#: binds in tiny or saturated networks.
_MAX_REJECTIONS_PER_STUB = 100_000


class PreferentialAttachmentGenerator(TopologyGenerator):
    """Grow a scale-free network by preferential attachment with a hard cutoff.

    Parameters
    ----------
    number_of_nodes:
        Final network size ``N``.
    stubs:
        Links ``m`` each new node creates (also the minimum degree).
    hard_cutoff:
        Maximum degree ``kc`` any node may reach, or ``None`` for no cutoff.
    seed:
        Optional seed for reproducible topologies.
    strategy:
        ``"roulette"`` (fast, default) or ``"attempt"`` (paper-literal).
    strict:
        When ``True``, a build whose result violates the model's minimum
        degree (any stub left unfilled, which otherwise only shows up as a
        metadata counter) raises :class:`~repro.core.errors.GenerationError`
        instead of silently returning a degenerate topology.

    Examples
    --------
    >>> gen = PreferentialAttachmentGenerator(200, stubs=2, hard_cutoff=10, seed=1)
    >>> graph = gen.generate_graph()
    >>> graph.number_of_nodes
    200
    >>> graph.max_degree() <= 10
    True
    """

    model_name = "pa"
    uses_global_information = "yes"

    def __init__(
        self,
        number_of_nodes: int,
        stubs: int = 1,
        hard_cutoff: Optional[int] = None,
        seed: Optional[int] = None,
        strategy: str = "roulette",
        strict: bool = False,
    ) -> None:
        self.config = PAConfig(
            number_of_nodes=number_of_nodes,
            stubs=stubs,
            hard_cutoff=hard_cutoff,
            seed=seed,
        )
        if strategy not in _STRATEGIES:
            raise ConfigurationError(
                f"unknown PA strategy {strategy!r}; expected one of {_STRATEGIES}"
            )
        # The seed clique of m+1 nodes already gives every seed node degree
        # m; a cutoff of exactly m would freeze the network immediately.
        # (n == m + 1 is the degenerate-but-valid case: the complete graph
        # itself, with no growth phase for the cutoff to block.)
        if (
            hard_cutoff is not None
            and hard_cutoff <= stubs
            and number_of_nodes > stubs + 1
        ):
            raise ConfigurationError(
                "hard_cutoff must exceed stubs for a growing PA network"
            )
        self.strategy = strategy
        self.strict = strict
        self.seed = seed

    # ------------------------------------------------------------------ #
    # TopologyGenerator interface
    # ------------------------------------------------------------------ #
    def parameters(self) -> Dict[str, Any]:
        return {
            "model": self.model_name,
            "number_of_nodes": self.config.number_of_nodes,
            "stubs": self.config.stubs,
            "hard_cutoff": self.config.hard_cutoff,
            "strategy": self.strategy,
            "seed": self.seed,
        }

    def _build(self, rng: RandomSource) -> Tuple[Graph, Dict[str, Any]]:
        if self.strategy == "roulette":
            graph, metadata = self._build_roulette(rng)
        else:
            graph, metadata = self._build_attempt(rng)
        minimum = self.config.stubs
        metadata["min_degree_violations"] = sum(
            1 for degree in graph.degree_sequence() if degree < minimum
        )
        if self.strict and (
            metadata["unfilled_stubs"] or metadata["min_degree_violations"]
        ):
            raise GenerationError(
                f"PA build left {metadata['unfilled_stubs']} stub(s) unfilled "
                f"({metadata['min_degree_violations']} node(s) below the "
                f"minimum degree m={minimum}); relax the cutoff or pass "
                "strict=False to accept the degenerate topology"
            )
        return graph, metadata

    # ------------------------------------------------------------------ #
    # Fast strategy: stub-list roulette selection
    # ------------------------------------------------------------------ #
    def _build_roulette(self, rng: RandomSource) -> Tuple[Graph, Dict[str, Any]]:
        """Grow the network by degree-proportional roulette over a stub list.

        One loop over flat per-node lists: ``degrees``, ``entries`` (each
        node's slots in the stub list) and the stub list itself, which
        holds each node once per unit of degree, so a uniform slot is a
        degree-proportional node.  "Already linked" is a scan of the
        joining node's at most ``m`` chosen peers.  Every slot draw is
        CPython's ``_randbelow(size)`` rejection loop over the twister's
        ``getrandbits``, inlined: ``rng.randint(0, size - 1)`` calls exactly
        that, so the draws are those of the loop written with
        ``rng.randint`` (the test oracle ``tests/oracles/pa.py``).  The
        edges go, in attachment order, to :meth:`Graph.from_edge_array`,
        which builds only the CSR snapshot the search reads.
        """
        config = self.config
        n, m = config.number_of_nodes, config.stubs
        cutoff = config.effective_cutoff()
        # Read at call time, so patching the module constant takes effect.
        max_rejections = _MAX_REJECTIONS_PER_STUB
        getrandbits = raw_stream(rng).getrandbits

        seed_size = min(m + 1, n)
        # Graph.complete's add order, which fixes the seed's neighbor order.
        edge_u = [u for u in range(seed_size) for _ in range(u + 1, seed_size)]
        edge_v = [v for u in range(seed_size) for v in range(u + 1, seed_size)]
        stub_list: List[int] = []
        for u, v in Graph.complete(seed_size).edges():
            stub_list.append(u)
            stub_list.append(v)
        degrees = [seed_size - 1] * seed_size + [0] * (n - seed_size)
        # Saturated-entry bookkeeping: the stub list retains entries of
        # nodes that have reached the cutoff (removing them would change
        # which slot every later draw lands on), so under tight cutoffs a
        # pick can become *doomed* — every slot points at a saturated or
        # already-linked node.  ``entries[x]`` counts x's slots and
        # ``dead_entries`` the slots on saturated nodes; together they
        # detect a doomed pick up front instead of burning
        # ``_MAX_REJECTIONS_PER_STUB`` draws discovering it.
        entries = [0] * n
        for node in stub_list:
            entries[node] += 1
        dead_entries = 0
        for node in range(seed_size):
            if degrees[node] >= cutoff:
                dead_entries += entries[node]

        rejected_attempts = 0
        unfilled_stubs = 0
        for new_node in range(seed_size, n):
            chosen: List[int] = []
            for _ in range(m):
                # Live-entry audit: slots on an unsaturated node the new
                # node is not linked to yet (it has no slots itself).  Zero
                # live slots dooms the rejection loop *and* the fallback
                # scan — any node with degree > 0 below the cutoff still
                # has live slots — so give up without consuming a draw.
                size = len(stub_list)
                live = size - dead_entries
                for peer in chosen:
                    if degrees[peer] < cutoff:
                        live -= entries[peer]
                if live <= 0:
                    unfilled_stubs += 1
                    continue
                target = -1
                rejections = 0
                width = size.bit_length()
                while rejections < max_rejections:
                    slot = getrandbits(width)
                    while slot >= size:
                        slot = getrandbits(width)
                    candidate = stub_list[slot]
                    if degrees[candidate] < cutoff and candidate not in chosen:
                        target = candidate
                        break
                    rejections += 1
                rejected_attempts += rejections
                if target < 0:
                    # Extremely unlikely path: an explicit degree-weighted
                    # scan.  ``degree > 0`` keeps the draw
                    # degree-proportional (a zero-degree node has no slots
                    # either, so the loop above could never pick it).
                    eligible = [
                        node
                        for node in range(new_node)
                        if 0 < degrees[node] < cutoff and node not in chosen
                    ]
                    if not eligible:
                        unfilled_stubs += 1
                        continue
                    weights = [degrees[node] for node in eligible]
                    target = eligible[rng.weighted_index(weights)]
                degrees[target] += 1
                if degrees[target] == cutoff:
                    dead_entries += entries[target]
                chosen.append(target)
                edge_u.append(new_node)
                edge_v.append(target)
            # Update the stub list only after all of this node's stubs are
            # placed so the node does not preferentially attach to its own
            # earlier targets more than their degree warrants.
            degrees[new_node] = len(chosen)
            for peer in chosen:
                stub_list.append(peer)
                entries[peer] += 1
                if degrees[peer] >= cutoff:
                    dead_entries += 1
                stub_list.append(new_node)
                entries[new_node] += 1
                if degrees[new_node] >= cutoff:
                    dead_entries += 1

        graph = Graph.from_edge_array(
            n, np.array(edge_u, dtype=np.int64), np.array(edge_v, dtype=np.int64)
        )
        metadata = {
            "rejected_attempts": rejected_attempts,
            "unfilled_stubs": unfilled_stubs,
            "strategy": "roulette",
        }
        return graph, metadata

    # ------------------------------------------------------------------ #
    # Paper-literal strategy: uniform pick + acceptance test (Algorithm 1)
    # ------------------------------------------------------------------ #
    def _build_attempt(self, rng: RandomSource) -> Tuple[Graph, Dict[str, Any]]:
        config = self.config
        n, m = config.number_of_nodes, config.stubs
        cutoff = config.effective_cutoff()

        graph = Graph.complete(min(m + 1, n))
        rejected_attempts = 0
        unfilled_stubs = 0

        for new_node in range(graph.number_of_nodes, n):
            graph.add_node(new_node)
            for _ in range(m):
                placed = False
                attempts = 0
                while not placed and attempts < _MAX_REJECTIONS_PER_STUB:
                    attempts += 1
                    candidate = rng.randint(0, new_node - 1)
                    acceptance = rng.random()
                    total_degree = graph.total_degree
                    if total_degree == 0:
                        # Unreachable through a validated configuration (the
                        # seed clique always has edges); a silent break here
                        # would grow an edgeless graph one isolated node at
                        # a time, so fail loudly instead.
                        raise GenerationError(
                            "preferential attachment needs at least one "
                            "existing edge to define attachment "
                            "probabilities; the seed graph is edgeless"
                        )
                    if (
                        not graph.has_edge(new_node, candidate)
                        and acceptance < graph.degree(candidate) / total_degree
                        and graph.degree(candidate) < cutoff
                    ):
                        graph.add_edge(new_node, candidate)
                        placed = True
                rejected_attempts += attempts - 1
                if not placed:
                    unfilled_stubs += 1

        metadata = {
            "rejected_attempts": rejected_attempts,
            "unfilled_stubs": unfilled_stubs,
            "strategy": "attempt",
        }
        return graph, metadata


def generate_pa(
    number_of_nodes: int,
    stubs: int = 1,
    hard_cutoff: Optional[int] = None,
    seed: Optional[int] = None,
    strategy: str = "roulette",
    strict: bool = False,
    rng: Optional[RandomSource] = None,
) -> Graph:
    """Generate a preferential-attachment topology and return the graph.

    This is the one-call convenience wrapper around
    :class:`PreferentialAttachmentGenerator`.

    Examples
    --------
    >>> graph = generate_pa(100, stubs=2, hard_cutoff=20, seed=42)
    >>> graph.number_of_nodes
    100
    """
    generator = PreferentialAttachmentGenerator(
        number_of_nodes=number_of_nodes,
        stubs=stubs,
        hard_cutoff=hard_cutoff,
        seed=seed,
        strategy=strategy,
        strict=strict,
    )
    return generator.generate_graph(rng)
