"""Hop-and-Attempt Preferential Attachment (HAPA, paper §IV-A, Algorithm 3).

HAPA is the paper's first local-heuristic construction.  A joining node first
attempts to attach to one uniformly chosen existing node (using the same
degree-proportional acceptance test and hard-cutoff condition as PA); it then
*hops* along existing links — repeatedly moving to a random neighbor of the
current node — attempting to attach at every step, until all ``m`` stubs are
filled.

Hopping along edges biases the walk towards high-degree nodes, so without a
hard cutoff a handful of "super hubs" with degree on the order of the system
size emerge and the topology becomes star-like (paper Fig. 3a).  A hard
cutoff destroys the star and restores a power-law-like distribution with an
exponential correction (Fig. 3b–c).

HAPA still needs *partial* global information: the acceptance test divides
by the total degree ``k_total`` of the network (Table II classifies it as
"partial").  The hop itself uses only local neighbor lists.
"""

from __future__ import annotations

import random  # repro-lint: disable=RPL103(annotation only: the loop draws from raw_stream(rng), the twister inside the RandomSource)
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import HAPAConfig
from repro.core.errors import ConfigurationError
from repro.core.graph import Graph
from repro.core.rng import RandomSource, raw_stream
from repro.generators.base import TopologyGenerator

__all__ = ["HAPAGenerator", "generate_hapa"]


class HAPAGenerator(TopologyGenerator):
    """Grow an overlay by hop-and-attempt preferential attachment.

    Parameters
    ----------
    number_of_nodes:
        Final network size ``N``.
    stubs:
        Links ``m`` each new node creates.
    hard_cutoff:
        Maximum degree ``kc`` (``None`` for no cutoff — expect a star-like
        topology).
    seed:
        Optional RNG seed.
    max_hops_per_stub:
        Safety bound on hop attempts for a single stub; when exceeded the
        generator falls back to a uniform eligible node so construction
        always terminates.  The number of such stubs is
        ``metadata["fallback_attachments"]``, also set on the ``generate``
        span and added to the ``generate.fallback_attachments`` counter.
        It is not zero in general: the acceptance test divides by the total
        degree, so walks grow longer with ``N`` and the bound binds more
        often (seed 1, ``m = 3``, ``kc = 10``: about 2% of stubs at
        ``N = 1500``, 18% at ``N = 5000``).

    Examples
    --------
    >>> graph = HAPAGenerator(200, stubs=2, hard_cutoff=10, seed=3).generate_graph()
    >>> graph.number_of_nodes
    200
    >>> graph.max_degree() <= 10
    True
    """

    model_name = "hapa"
    uses_global_information = "partial"

    def __init__(
        self,
        number_of_nodes: int,
        stubs: int = 1,
        hard_cutoff: Optional[int] = None,
        seed: Optional[int] = None,
        max_hops_per_stub: int = 10_000,
    ) -> None:
        self.config = HAPAConfig(
            number_of_nodes=number_of_nodes,
            stubs=stubs,
            hard_cutoff=hard_cutoff,
            seed=seed,
            max_hops_per_stub=max_hops_per_stub,
        )
        # Same eager seed-clique validation as PA: the m+1-node seed clique
        # saturates every seed node when kc == m, so any growth phase would
        # stall immediately (n == m + 1 stays valid: the clique is the
        # whole requested graph).
        if (
            hard_cutoff is not None
            and hard_cutoff <= stubs
            and number_of_nodes > stubs + 1
        ):
            raise ConfigurationError(
                "hard_cutoff must exceed stubs for a growing HAPA network"
            )
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
            "max_hops_per_stub": self.config.max_hops_per_stub,
            "seed": self.seed,
        }

    def _build(self, rng: RandomSource) -> Tuple[Graph, Dict[str, Any]]:
        return self._build_fast(raw_stream(rng), rng)

    def _build_fast(
        self, stream: random.Random, rng: RandomSource
    ) -> Tuple[Graph, Dict[str, Any]]:
        """Algorithm 3 with its draws inlined.

        Step 1 attempts one uniformly random existing node; step 2 walks
        each remaining stub along existing links, attempting every node it
        lands on, for at most ``max_hops_per_stub`` hops; a walk that runs
        out places its stub on a uniform pick among the eligible nodes.  An
        attempt accepts a node below the cutoff with probability
        ``degree / k_total``.

        Draws come from ``stream``, the Mersenne Twister underneath
        ``rng``, in the order the same loop written with ``rng.randint``
        and ``rng.random`` draws them (the test oracle
        ``tests/oracles/hapa.py``): each ``randint(0, n - 1)`` is CPython's
        ``_randbelow`` rejection loop over ``getrandbits`` (which draws
        even for ``n == 1``), each ``random()`` a bound call.

        Adjacency rows are local lists.  The length of the row a hop lands
        on is read once: it is both the acceptance test's degree and the
        next hop's pick bound, whose ``getrandbits`` width comes from a
        table.  ``linked[x] == new_node`` marks the joining node and the
        peers it has chosen.  The edges go, seed clique first in
        :meth:`Graph.complete`'s order and then in attachment order, to
        :meth:`Graph.from_edge_array`, so node and neighbor order are those
        of growing the graph with ``Graph.add_edge``, and the freeze that
        precedes a search returns the bulk build's snapshot.
        """
        config = self.config
        n, m = config.number_of_nodes, config.stubs
        cutoff = config.effective_cutoff()
        max_hops = config.max_hops_per_stub
        getrandbits = stream.getrandbits
        random_float = stream.random

        seed_size = min(m + 1, n)
        # Graph.complete's neighbor order: lower ids first, then higher.
        rows = [[v for v in range(seed_size) if v != u] for u in range(seed_size)]
        total_degree = seed_size * (seed_size - 1)
        # Graph.complete's add order, which fixes the seed's neighbor order.
        edge_u = [u for u in range(seed_size) for _ in range(u + 1, seed_size)]
        edge_v = [v for u in range(seed_size) for v in range(u + 1, seed_size)]
        # A node accepts only below the cutoff, so no row outgrows it.
        widths = [size.bit_length() for size in range(min(cutoff, n - 1) + 1)]
        linked = [-1] * n
        total_hops = 0
        fallback_attachments = 0
        unfilled_stubs = 0

        for new_node in range(seed_size, n):
            chosen: List[int] = []
            rows.append(chosen)
            linked[new_node] = new_node
            bits = new_node.bit_length()

            # Step 1: one attempt at a uniformly random existing node.
            current = getrandbits(bits)
            while current >= new_node:
                current = getrandbits(bits)
            row = rows[current]
            size = len(row)
            if 0 < size < cutoff and random_float() < size / total_degree:
                chosen.append(current)
                row.append(new_node)
                linked[current] = new_node
                total_degree += 2
                size += 1

            # Step 2: each remaining stub walks along existing links.
            for stub in range(len(chosen), m):
                for hop in range(max_hops):
                    if size:
                        width = widths[size]
                        pick = getrandbits(width)
                        while pick >= size:
                            pick = getrandbits(width)
                        current = row[pick]
                    else:
                        current = getrandbits(bits)
                        while current >= new_node:
                            current = getrandbits(bits)
                    row = rows[current]
                    size = len(row)
                    if (
                        linked[current] != new_node
                        and 0 < size < cutoff
                        and random_float() < size / total_degree
                    ):
                        chosen.append(current)
                        row.append(new_node)
                        linked[current] = new_node
                        total_degree += 2
                        size += 1
                        total_hops += hop + 1
                        break
                else:
                    total_hops += max_hops
                    eligible = [
                        node
                        for node in range(new_node)
                        if linked[node] != new_node and len(rows[node]) < cutoff
                    ]
                    if not eligible:
                        unfilled_stubs += m - stub
                        break
                    peer = rng.choice(eligible)
                    chosen.append(peer)
                    rows[peer].append(new_node)
                    linked[peer] = new_node
                    total_degree += 2
                    fallback_attachments += 1
                    # The peer may be the node the walk stands on.
                    size = len(row)
            edge_u += [new_node] * len(chosen)
            edge_v += chosen

        graph = Graph.from_edge_array(
            n, np.array(edge_u, dtype=np.int64), np.array(edge_v, dtype=np.int64)
        )
        metadata = {
            "total_hops": total_hops,
            "fallback_attachments": fallback_attachments,
            "unfilled_stubs": unfilled_stubs,
        }
        return graph, metadata


def generate_hapa(
    number_of_nodes: int,
    stubs: int = 1,
    hard_cutoff: Optional[int] = None,
    seed: Optional[int] = None,
    max_hops_per_stub: int = 10_000,
    rng: Optional[RandomSource] = None,
) -> Graph:
    """Generate a HAPA topology and return the graph.

    Examples
    --------
    >>> graph = generate_hapa(150, stubs=1, hard_cutoff=20, seed=9)
    >>> graph.number_of_nodes
    150
    """
    generator = HAPAGenerator(
        number_of_nodes=number_of_nodes,
        stubs=stubs,
        hard_cutoff=hard_cutoff,
        seed=seed,
        max_hops_per_stub=max_hops_per_stub,
    )
    return generator.generate_graph(rng)
