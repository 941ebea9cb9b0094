"""Configuration model with a prescribed power-law degree sequence (paper §III-C, Alg. 2).

The configuration model (CM) builds a *static* random graph whose degrees
follow a prescribed sequence — here a discrete power law with exponent γ,
minimum degree ``m``, and maximum degree equal to the hard cutoff ``kc``
(or ``N`` when no cutoff is requested).  Because the exponent is prescribed,
the cutoff does not change γ (paper Fig. 2); this is what makes CM the
"optimal" comparator for the locally-built HAPA/DAPA topologies.

Construction follows the standard stub-matching procedure: each node
receives as many stubs as its prescribed degree, the stub list is shuffled,
and consecutive stubs are paired into edges.  Self-loops and multi-edges are
then deleted, exactly as the paper does; the number of removed edges is
reported in the result metadata (the paper notes it scales as
``N^{3-γ} ln N`` when ``kc = N`` and becomes negligible for hard cutoffs
below the natural cutoff).  The deletions can leave a few nodes with degree
below ``m`` — or even zero — which the paper also observes (Fig. 2), and for
``m = 1`` the graph is typically disconnected.

A ``partner_selection="uniform"`` mode reproduces the paper's Algorithm 2
literally (each remaining stub of node ``i`` is paired with a *uniformly*
chosen node rather than a degree-weighted stub); it is provided for
comparison but stub matching is the default because it is the standard
definition of the configuration model and matches the figures.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import CMConfig
from repro.core.errors import ConfigurationError
from repro.core.graph import Graph
from repro.core.rng import RandomSource, raw_stream
from repro.generators.base import TopologyGenerator
from repro.generators.degree_sequence import power_law_degree_sequence

__all__ = ["ConfigurationModelGenerator", "generate_cm"]

_PARTNER_MODES = ("stub_matching", "uniform")


class ConfigurationModelGenerator(TopologyGenerator):
    """Build an uncorrelated random graph with a prescribed power-law degree sequence.

    Parameters
    ----------
    number_of_nodes:
        Network size ``N``.
    exponent:
        Power-law exponent γ of the prescribed degree distribution.
    min_degree:
        Minimum prescribed degree ``m``.
    hard_cutoff:
        Maximum prescribed degree ``kc`` (``None`` → ``N``).
    seed:
        Optional seed.
    degree_sequence:
        Explicit degree sequence to use instead of sampling one.  Must have
        an even sum; ``exponent``/``min_degree``/``hard_cutoff`` are then only
        recorded as provenance.
    partner_selection:
        ``"stub_matching"`` (default, standard CM) or ``"uniform"``
        (paper-literal Algorithm 2).

    Examples
    --------
    >>> gen = ConfigurationModelGenerator(300, exponent=2.5, min_degree=2,
    ...                                   hard_cutoff=20, seed=3)
    >>> result = gen.generate()
    >>> result.graph.number_of_nodes
    300
    >>> result.graph.max_degree() <= 20
    True
    """

    model_name = "cm"
    uses_global_information = "yes"

    def __init__(
        self,
        number_of_nodes: int,
        exponent: float = 3.0,
        min_degree: int = 1,
        hard_cutoff: Optional[int] = None,
        seed: Optional[int] = None,
        degree_sequence: Optional[Sequence[int]] = None,
        partner_selection: str = "stub_matching",
    ) -> None:
        self.config = CMConfig(
            number_of_nodes=number_of_nodes,
            exponent=exponent,
            min_degree=min_degree,
            hard_cutoff=hard_cutoff,
            seed=seed,
        )
        if partner_selection not in _PARTNER_MODES:
            raise ConfigurationError(
                f"unknown partner_selection {partner_selection!r}; "
                f"expected one of {_PARTNER_MODES}"
            )
        if degree_sequence is not None:
            if len(degree_sequence) != number_of_nodes:
                raise ConfigurationError(
                    "degree_sequence length must equal number_of_nodes"
                )
            if sum(degree_sequence) % 2 != 0:
                raise ConfigurationError("degree_sequence must have an even sum")
            if any(k < 0 for k in degree_sequence):
                raise ConfigurationError("degrees must be non-negative")
        self.partner_selection = partner_selection
        self.explicit_degree_sequence = (
            list(degree_sequence) if degree_sequence is not None else None
        )
        self.seed = seed

    # ------------------------------------------------------------------ #
    # TopologyGenerator interface
    # ------------------------------------------------------------------ #
    def parameters(self) -> Dict[str, Any]:
        return {
            "model": self.model_name,
            "number_of_nodes": self.config.number_of_nodes,
            "exponent": self.config.exponent,
            "min_degree": self.config.min_degree,
            "hard_cutoff": self.config.hard_cutoff,
            "partner_selection": self.partner_selection,
            "explicit_degree_sequence": self.explicit_degree_sequence is not None,
            "seed": self.seed,
        }

    def _build(self, rng: RandomSource) -> Tuple[Graph, Dict[str, Any]]:
        sequence = self._resolve_degree_sequence(rng)
        if self.partner_selection == "stub_matching":
            graph, removed_self_loops, removed_multi_edges = self._stub_matching(
                sequence, rng
            )
        else:
            graph, removed_self_loops, removed_multi_edges = self._uniform_matching(
                sequence, rng
            )
        degrees = graph.degree_sequence()
        below_minimum = sum(1 for k in degrees if k < self.config.min_degree)
        metadata = {
            "prescribed_total_degree": sum(sequence),
            "removed_self_loops": removed_self_loops,
            "removed_multi_edges": removed_multi_edges,
            "nodes_below_min_degree": below_minimum,
            "isolated_nodes": sum(1 for k in degrees if k == 0),
            "partner_selection": self.partner_selection,
        }
        return graph, metadata

    # ------------------------------------------------------------------ #
    # Degree sequence
    # ------------------------------------------------------------------ #
    def _resolve_degree_sequence(self, rng: RandomSource) -> List[int]:
        if self.explicit_degree_sequence is not None:
            return list(self.explicit_degree_sequence)
        return power_law_degree_sequence(
            number_of_nodes=self.config.number_of_nodes,
            exponent=self.config.exponent,
            min_degree=self.config.min_degree,
            max_degree=self.config.effective_cutoff(),
            rng=rng,
        )

    # ------------------------------------------------------------------ #
    # Matching procedures
    # ------------------------------------------------------------------ #
    @staticmethod
    def _stub_matching(
        sequence: Sequence[int], rng: RandomSource
    ) -> Tuple[Graph, int, int]:
        """Standard CM: shuffle the stub list and pair consecutive stubs.

        The shuffle is the one draw: CPython's ``random.shuffle``
        Fisher–Yates loop with its ``_randbelow`` inlined as the
        ``getrandbits`` rejection loop of the twister underneath ``rng``,
        so the draws are those of ``rng.shuffle`` (the test oracle
        ``tests/oracles/cm.py``).  The pairing is numpy.  Self-loops are
        dropped, and of each repeated pair only the first in stub order is
        kept, the edge an ``add_edge`` per pair would have kept.  The kept
        pairs go, in stub order, to :meth:`Graph.from_edge_array`.
        """
        n = len(sequence)
        stubs: List[int] = np.repeat(np.arange(n, dtype=np.int64), sequence).tolist()
        getrandbits = raw_stream(rng).getrandbits
        # Swap each position, last to second, with a uniform one up to it.
        for last in range(len(stubs) - 1, 0, -1):
            width = (last + 1).bit_length()
            pick = getrandbits(width)
            while pick > last:
                pick = getrandbits(width)
            stubs[last], stubs[pick] = stubs[pick], stubs[last]

        paired = np.array(stubs, dtype=np.int64)
        end = len(paired) - len(paired) % 2
        edge_u, edge_v = paired[0:end:2], paired[1:end:2]
        loops = edge_u == edge_v
        removed_self_loops = int(np.count_nonzero(loops))
        edge_u, edge_v = edge_u[~loops], edge_v[~loops]
        # A stable sort keeps equal pairs in stub order: every pair equal
        # to its sorted predecessor is a repeat.
        keys = np.minimum(edge_u, edge_v) * np.int64(n) + np.maximum(edge_u, edge_v)
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        repeat = np.zeros(len(keys), dtype=bool)
        repeat[order[1:]] = ordered[1:] == ordered[:-1]
        removed_multi_edges = int(np.count_nonzero(repeat))
        graph = Graph.from_edge_array(n, edge_u[~repeat], edge_v[~repeat])
        return graph, removed_self_loops, removed_multi_edges

    @staticmethod
    def _uniform_matching(
        sequence: Sequence[int], rng: RandomSource
    ) -> Tuple[Graph, int, int]:
        """Paper-literal Algorithm 2: pair each remaining stub with a uniform node."""
        number_of_nodes = len(sequence)
        graph = Graph(number_of_nodes)
        remaining = list(sequence)
        removed_self_loops = 0
        removed_multi_edges = 0
        for node in range(number_of_nodes):
            while remaining[node] > 0:
                partner = rng.randint(0, number_of_nodes - 1)
                remaining[node] -= 1
                remaining[partner] -= 1
                if partner == node:
                    removed_self_loops += 1
                    continue
                if not graph.add_edge(node, partner):
                    removed_multi_edges += 1
        return graph, removed_self_loops, removed_multi_edges


def generate_cm(
    number_of_nodes: int,
    exponent: float = 3.0,
    min_degree: int = 1,
    hard_cutoff: Optional[int] = None,
    seed: Optional[int] = None,
    degree_sequence: Optional[Sequence[int]] = None,
    partner_selection: str = "stub_matching",
    rng: Optional[RandomSource] = None,
) -> Graph:
    """Generate a configuration-model topology and return the graph.

    Examples
    --------
    >>> graph = generate_cm(200, exponent=2.2, min_degree=2, hard_cutoff=15, seed=7)
    >>> graph.max_degree() <= 15
    True
    """
    generator = ConfigurationModelGenerator(
        number_of_nodes=number_of_nodes,
        exponent=exponent,
        min_degree=min_degree,
        hard_cutoff=hard_cutoff,
        seed=seed,
        degree_sequence=degree_sequence,
        partner_selection=partner_selection,
    )
    return generator.generate_graph(rng)
