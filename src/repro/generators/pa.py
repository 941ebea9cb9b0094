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
    and for validating the fast strategy.  Under the ``jit`` kernel tier the
    loop runs compiled (:func:`repro.kernels.generators.pa_attempt_build`),
    draw-identical to the Python body.

``"roulette"`` (default)
    Degree-proportional selection via a stub list (each node appears once per
    unit of degree), rejecting saturated nodes and duplicates.  Conditioned
    on acceptance this draws from exactly the same distribution as
    ``"attempt"`` (probability ∝ degree among eligible nodes) but costs O(1)
    expected time per stub, making N = 10^5 topologies practical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import PAConfig
from repro.core.errors import ConfigurationError, GenerationError
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.generators.base import TopologyGenerator
from repro.kernels.dispatch import kernel_ready

__all__ = ["PreferentialAttachmentGenerator", "generate_pa"]

_STRATEGIES = ("roulette", "attempt")

#: Attempts per stub before the generator falls back to an explicit scan of
#: eligible nodes.  Generous enough that it only triggers in pathological
#: tiny/saturated networks.
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
            if kernel_ready(rng, "generation"):
                from repro.kernels.generators import pa_roulette_build

                graph, metadata = pa_roulette_build(self.config, rng)
            else:
                graph, metadata = self._build_roulette(rng)
        else:
            if kernel_ready(rng, "generation"):
                from repro.kernels.generators import pa_attempt_build

                graph, metadata = pa_attempt_build(self.config, rng)
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
        config = self.config
        n, m = config.number_of_nodes, config.stubs
        cutoff = config.effective_cutoff()

        graph = Graph.complete(min(m + 1, n))
        # The stub list holds each node id once per unit of degree, so a
        # uniform draw from it is a degree-proportional draw over nodes.
        stub_list: List[int] = []
        for u, v in graph.edges():
            stub_list.append(u)
            stub_list.append(v)
        # Saturated-entry bookkeeping: the stub list retains entries of
        # nodes that have reached the cutoff (removing them would change
        # which slot every later draw lands on), so under tight cutoffs a
        # pick can become *doomed* — every slot points at a saturated or
        # already-linked node.  ``entries[x]`` counts x's slots and
        # ``dead_entries`` the slots on saturated nodes; together they let
        # ``_pick_roulette`` detect a doomed pick up front instead of
        # burning ``_MAX_REJECTIONS_PER_STUB`` draws discovering it.
        entries = [0] * n
        for node in stub_list:
            entries[node] += 1
        dead_entries = 0
        for node in range(graph.number_of_nodes):
            if graph.degree(node) >= cutoff:
                dead_entries += entries[node]

        rejected_attempts = 0
        unfilled_stubs = 0

        for new_node in range(graph.number_of_nodes, n):
            graph.add_node(new_node)
            chosen: List[int] = []
            for _ in range(m):
                target, rejections = self._pick_roulette(
                    graph, stub_list, new_node, cutoff, rng,
                    entries, dead_entries, chosen,
                )
                rejected_attempts += rejections
                if target is None:
                    unfilled_stubs += 1
                    continue
                graph.add_edge(new_node, target)
                if graph.degree(target) == cutoff:
                    dead_entries += entries[target]
                chosen.append(target)
            # Update the stub list only after all of this node's stubs are
            # placed so the node does not preferentially attach to itself's
            # earlier targets more than their degree warrants.
            for neighbor in chosen:
                stub_list.append(neighbor)
                entries[neighbor] += 1
                if graph.degree(neighbor) >= cutoff:
                    dead_entries += 1
                stub_list.append(new_node)
                entries[new_node] += 1
                if graph.degree(new_node) >= cutoff:
                    dead_entries += 1

        metadata = {
            "rejected_attempts": rejected_attempts,
            "unfilled_stubs": unfilled_stubs,
            "strategy": "roulette",
        }
        return graph, metadata

    @staticmethod
    def _pick_roulette(
        graph: Graph,
        stub_list: List[int],
        new_node: int,
        cutoff: int,
        rng: RandomSource,
        entries: List[int],
        dead_entries: int,
        chosen: List[int],
    ) -> Tuple[Optional[int], int]:
        """Pick an eligible target by degree-proportional roulette selection.

        Returns ``(target, rejections)``; ``target`` is ``None`` when no
        eligible node exists (every candidate is saturated or already
        linked).  ``rejections`` counts the draws burned before success —
        including the draws of a failed loop that fell back to the scan,
        which the caller now always accounts for.
        """
        neighbor_set = graph.neighbor_set(new_node)
        # Live-entry audit: slots pointing at an unsaturated node that is
        # not already a neighbor (the new node has no slots yet).  Zero
        # live slots means the rejection loop *and* the fallback scan are
        # both doomed — any node with degree > 0 below the cutoff would
        # still have live slots — so bail out without consuming a draw.
        live = len(stub_list) - dead_entries
        for node in chosen:
            if graph.degree(node) < cutoff:
                live -= entries[node]
        if live <= 0:
            return None, 0
        rejections = 0
        while rejections < _MAX_REJECTIONS_PER_STUB:
            candidate = stub_list[rng.randint(0, len(stub_list) - 1)]
            if (
                candidate != new_node
                and candidate not in neighbor_set
                and graph.degree(candidate) < cutoff
            ):
                return candidate, rejections
            rejections += 1
        # Extremely unlikely path: fall back to an explicit scan.  The
        # ``degree > 0`` filter keeps the draw degree-proportional (a
        # zero-degree node has no stub slots either, so the loop above
        # could never have selected it).
        eligible = [
            node
            for node in graph.nodes()
            if node != new_node
            and node not in neighbor_set
            and graph.degree(node) < cutoff
            and graph.degree(node) > 0
        ]
        if not eligible:
            return None, rejections
        weights = [graph.degree(node) for node in eligible]
        return eligible[rng.weighted_index(weights)], rejections

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
