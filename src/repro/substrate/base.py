"""Common interface for substrate network builders."""

from __future__ import annotations

import abc
from typing import Any, Dict

from repro.core.graph import Graph
from repro.core.rng import RandomSource, ensure_source

__all__ = ["SubstrateNetwork"]


class SubstrateNetwork(abc.ABC):
    """Abstract base class for substrate (underlay) network builders.

    A substrate builder produces the fixed physical-connectivity graph that
    the DAPA overlay construction operates on.  It is intentionally simpler
    than :class:`~repro.generators.base.TopologyGenerator`:
    substrates are inputs to overlay construction, not study objects in
    themselves, so only the graph and the parameters are exposed.

    Substrates sit on a DAPA realization's hot path (a DAPA build resolves
    one before its overlay can grow), so the builders emit edge arrays
    straight to :meth:`Graph.from_edge_array`: the GRN after its numpy
    cell sweep, the mesh from its vectorized lattice.
    """

    #: Short machine-readable name; subclasses override.
    substrate_name: str = "abstract"

    @abc.abstractmethod
    def build(self, rng: RandomSource) -> Graph:
        """Construct and return the substrate graph."""

    @abc.abstractmethod
    def parameters(self) -> Dict[str, Any]:
        """Return the builder parameters as a JSON-friendly dict."""

    def generate_graph(self, rng: "RandomSource | int | None" = None) -> Graph:
        """Build the substrate using an optional random source or seed."""
        if rng is None:
            rng = getattr(self, "seed", None)
        return self.build(ensure_source(rng))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(
            f"{key}={value!r}"
            for key, value in self.parameters().items()  # repro-lint: disable=RPL102(debug repr only; no draws occur during or after this iteration)
        )
        return f"{type(self).__name__}({params})"
