"""Nonlinear preferential attachment (extension; paper §III-C pointer).

The paper motivates the configuration model by noting that "modified PA
models such as nonlinear preferential attachment [Krapivsky et al.],
dynamic edge-rewiring, and fitness models have been proposed" to obtain
power-law networks with exponents different from 3.  This module implements
the first of those alternatives as an optional extension of the library:

attachment probability ``Π(k) ∝ k^α`` with a hard cutoff, where

* ``α = 1``   recovers the linear Barabási–Albert model (γ = 3);
* ``α < 1``   (sub-linear) produces a stretched-exponential degree
  distribution — hubs are suppressed even without a cutoff;
* ``α > 1``   (super-linear) produces gel-like condensation where one node
  collects a finite fraction of all links — an extreme version of the HAPA
  star that a hard cutoff tames.

The generator registers itself under the model name ``"nlpa"`` so it is
available to the CLI and the experiment harness, and the ablation benchmark
``benchmarks/test_ablation_nonlinear_pa.py`` compares the three regimes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import PAConfig
from repro.core.errors import ConfigurationError, GenerationError
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.generators.base import TopologyGenerator

__all__ = ["NonlinearPreferentialAttachmentGenerator", "generate_nonlinear_pa"]


class NonlinearPreferentialAttachmentGenerator(TopologyGenerator):
    """Grow a network with attachment probability proportional to ``degree**alpha``.

    Parameters
    ----------
    number_of_nodes:
        Final network size ``N``.
    stubs:
        Links ``m`` each new node creates.
    exponent_alpha:
        Attachment-kernel exponent α (1.0 = linear PA).
    hard_cutoff:
        Maximum degree ``kc`` (``None`` for no cutoff).
    seed:
        Optional RNG seed.
    strict:
        When ``True``, a build whose result violates the model's minimum
        degree (any stub left unfilled, which otherwise only shows up as a
        metadata counter) raises :class:`~repro.core.errors.GenerationError`
        instead of silently returning a degenerate topology.

    Examples
    --------
    >>> gen = NonlinearPreferentialAttachmentGenerator(
    ...     200, stubs=2, exponent_alpha=0.5, hard_cutoff=15, seed=3)
    >>> graph = gen.generate_graph()
    >>> graph.number_of_nodes
    200
    >>> graph.max_degree() <= 15
    True
    """

    model_name = "nlpa"
    uses_global_information = "yes"

    def __init__(
        self,
        number_of_nodes: int,
        stubs: int = 1,
        exponent_alpha: float = 1.0,
        hard_cutoff: Optional[int] = None,
        seed: Optional[int] = None,
        strict: bool = False,
    ) -> None:
        self.config = PAConfig(
            number_of_nodes=number_of_nodes,
            stubs=stubs,
            hard_cutoff=hard_cutoff,
            seed=seed,
        )
        if exponent_alpha < 0.0:
            raise ConfigurationError("exponent_alpha must be non-negative")
        # Same carve-out as linear PA: the seed clique of m+1 nodes already
        # gives every seed node degree m, so a cutoff of exactly m would
        # freeze the network immediately — unless n == m + 1, the complete
        # graph itself, which has no growth phase for the cutoff to block.
        if (
            hard_cutoff is not None
            and hard_cutoff <= stubs
            and number_of_nodes > stubs + 1
        ):
            raise ConfigurationError(
                "hard_cutoff must exceed stubs for a growing network"
            )
        self.exponent_alpha = exponent_alpha
        self.strict = strict
        self.seed = seed

    def parameters(self) -> Dict[str, Any]:
        return {
            "model": self.model_name,
            "number_of_nodes": self.config.number_of_nodes,
            "stubs": self.config.stubs,
            "exponent_alpha": self.exponent_alpha,
            "hard_cutoff": self.config.hard_cutoff,
            "seed": self.seed,
        }

    def _build(self, rng: RandomSource) -> Tuple[Graph, Dict[str, Any]]:
        graph, metadata = self._build_reference(rng)
        minimum = self.config.stubs
        metadata["min_degree_violations"] = sum(
            1 for degree in graph.degree_sequence() if degree < minimum
        )
        if self.strict and (
            metadata["unfilled_stubs"] or metadata["min_degree_violations"]
        ):
            raise GenerationError(
                f"nlpa build left {metadata['unfilled_stubs']} stub(s) unfilled "
                f"({metadata['min_degree_violations']} node(s) below the "
                f"minimum degree m={minimum}); relax the cutoff or pass "
                "strict=False to accept the degenerate topology"
            )
        return graph, metadata

    def _build_reference(self, rng: RandomSource) -> Tuple[Graph, Dict[str, Any]]:
        config = self.config
        n, m, alpha = config.number_of_nodes, config.stubs, self.exponent_alpha
        cutoff = config.effective_cutoff()

        graph = Graph.complete(min(m + 1, n))
        unfilled_stubs = 0

        for new_node in range(graph.number_of_nodes, n):
            graph.add_node(new_node)
            # Weighted selection over all eligible existing nodes.  The kernel
            # k^alpha cannot use the stub-list trick (weights are not integer
            # degree counts), so an explicit weighted draw is used; eligible
            # lists are rebuilt per stub because degrees change.  Isolated
            # nodes stay eligible: under the alpha -> 0 uniform-attachment
            # limit their weight is k**0 == 1 like everyone else's, and for
            # alpha > 0 their zero weight simply never wins the draw —
            # excluding them (as this loop once did) silently biased the
            # uniform limit and made degree-0 nodes permanently unreachable.
            for _ in range(m):
                eligible: List[int] = []
                weights: List[float] = []
                neighbor_set = graph.neighbor_set(new_node)
                for node in range(new_node):
                    degree = graph.degree(node)
                    if node in neighbor_set or degree >= cutoff:
                        continue
                    eligible.append(node)
                    weights.append(float(degree) ** alpha)
                # An all-zero-weight eligible set (alpha > 0, every eligible
                # node isolated) cannot be drawn from; it counts as an
                # unfilled stub and consumes no draw, like the empty set.
                if not eligible or sum(weights) <= 0.0:
                    unfilled_stubs += 1
                    continue
                target = eligible[rng.weighted_index(weights)]
                graph.add_edge(new_node, target)

        metadata = {
            "exponent_alpha": alpha,
            "unfilled_stubs": unfilled_stubs,
        }
        return graph, metadata


def generate_nonlinear_pa(
    number_of_nodes: int,
    stubs: int = 1,
    exponent_alpha: float = 1.0,
    hard_cutoff: Optional[int] = None,
    seed: Optional[int] = None,
    strict: bool = False,
    rng: Optional[RandomSource] = None,
) -> Graph:
    """Generate a nonlinear-PA topology and return the graph.

    Examples
    --------
    >>> graph = generate_nonlinear_pa(100, stubs=1, exponent_alpha=1.5, seed=2)
    >>> graph.number_of_nodes
    100
    """
    generator = NonlinearPreferentialAttachmentGenerator(
        number_of_nodes=number_of_nodes,
        stubs=stubs,
        exponent_alpha=exponent_alpha,
        hard_cutoff=hard_cutoff,
        seed=seed,
        strict=strict,
    )
    return generator.generate_graph(rng)
