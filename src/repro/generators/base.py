"""Common interface for topology generators.

All four construction mechanisms studied in the paper (PA, CM, HAPA, DAPA)
implement :class:`TopologyGenerator`.  The shared interface lets the search
harness, the experiment runner, and the CLI treat them uniformly: build the
configured generator, call :meth:`generate`, receive a
:class:`GenerationResult` bundling the overlay graph with provenance
metadata.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.graph import Graph
from repro.core.rng import RandomSource, ensure_source
from repro.telemetry.collector import active_telemetry

__all__ = ["GenerationResult", "TopologyGenerator"]

_SCALARS = (int, float, str, bool, type(None))

#: Work counters a build's metadata may hold; each one present is copied
#: onto the ``generate`` span.
_SPAN_COUNTERS = (
    "total_hops",
    "rejected_attempts",
    "discovery_messages",
    "unfilled_stubs",
    "fallback_attachments",
)


@dataclass
class GenerationResult:
    """The output of a topology generator.

    Attributes
    ----------
    graph:
        The generated overlay graph.
    model:
        Short model name (``"pa"``, ``"cm"``, ``"hapa"``, ``"dapa"``).
    parameters:
        The parameters the topology was generated with, as a plain dict
        (JSON-serialisable, suitable for experiment provenance records).
    metadata:
        Model-specific extras: e.g. the number of self-loops and multi-edges
        removed by the configuration model, the substrate graph used by DAPA,
        or the number of rejected attachment attempts.
    elapsed_seconds:
        Wall-clock construction time.
    """

    graph: Graph
    model: str
    parameters: Dict[str, Any] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def summary(self) -> Dict[str, Any]:
        """Return a JSON-friendly summary of the result (graph stats + provenance)."""
        return {
            "model": self.model,
            "parameters": dict(self.parameters),
            "stats": self.graph.stats().as_dict(),
            "metadata": {
                key: value
                for key, value in self.metadata.items()  # repro-lint: disable=RPL102(no draws here; key order mirrors the deterministic build-time insertion order and is pinned by cached-result byte-identity)
                if isinstance(value, _SCALARS)
            },
            "elapsed_seconds": self.elapsed_seconds,
        }


class TopologyGenerator(abc.ABC):
    """Abstract base class for overlay topology generators.

    Subclasses implement :meth:`_build`, which receives a ready
    :class:`~repro.core.rng.RandomSource` and returns ``(graph, metadata)``.
    The public :meth:`generate` wraps it with timing and provenance capture.
    """

    #: Short machine-readable model name; subclasses override.
    model_name: str = "abstract"

    #: Whether the construction procedure needs global topology information
    #: (Table II of the paper): ``"yes"``, ``"partial"``, or ``"no"``.
    uses_global_information: str = "yes"

    @abc.abstractmethod
    def _build(self, rng: RandomSource) -> tuple[Graph, Dict[str, Any]]:
        """Construct the topology; return the graph and model-specific metadata."""

    @abc.abstractmethod
    def parameters(self) -> Dict[str, Any]:
        """Return the generator parameters as a JSON-friendly dict."""

    def generate(self, rng: Optional[RandomSource | int] = None) -> GenerationResult:
        """Generate one realisation of the topology.

        Parameters
        ----------
        rng:
            A :class:`~repro.core.rng.RandomSource`, an integer seed, or
            ``None``.  When ``None`` the generator's configured seed (if any)
            is used; otherwise a fresh unseeded source is created.
        """
        source = self._resolve_rng(rng)
        telemetry = active_telemetry()
        attrs = self._span_attributes() if telemetry.enabled else None
        started = time.perf_counter()
        with telemetry.span("generate", attrs):
            graph, metadata = self._build(source)
            if attrs is not None:
                # The span copies its attributes on exit, so the work
                # counters land on it while it is still open.
                for name in _SPAN_COUNTERS:
                    if name in metadata:
                        attrs[name] = metadata[name]
        elapsed = time.perf_counter() - started
        if telemetry.enabled:
            telemetry.count(f"generate.{self.model_name}")
            # The builders already tally their rejection/starvation events in
            # the metadata; fold the interesting ones into the trace counters.
            for field_name, counter in (
                ("rejected_attempts", "generate.rejections"),
                ("unfilled_stubs", "generate.unfilled_stubs"),
                ("fallback_attachments", "generate.fallback_attachments"),
                ("removed_self_loops", "generate.removed_self_loops"),
                ("removed_multi_edges", "generate.removed_multi_edges"),
            ):
                value = metadata.get(field_name)
                if isinstance(value, (int, float)) and value:
                    telemetry.count(counter, value)
        return GenerationResult(
            graph=graph,
            model=self.model_name,
            parameters=self.parameters(),
            metadata=metadata,
            elapsed_seconds=elapsed,
        )

    def generate_graph(self, rng: Optional[RandomSource | int] = None) -> Graph:
        """Generate a topology and return only the graph (convenience wrapper)."""
        return self.generate(rng).graph

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _span_attributes(self) -> Dict[str, Any]:
        """The ``generate`` span's cost-explaining attributes: the model and
        its scalar parameters (the seed explains no cost)."""
        attrs: Dict[str, Any] = {"model": self.model_name}
        for key, value in self.parameters().items():  # repro-lint: disable=RPL102(no draws here; the span keeps the parameters in their declared order)
            if key != "seed" and isinstance(value, _SCALARS):
                attrs[key] = value
        return attrs

    def _resolve_rng(self, rng: Optional[RandomSource | int]) -> RandomSource:
        if rng is not None:
            return ensure_source(rng)
        configured_seed = getattr(self, "seed", None)
        return ensure_source(configured_seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(
            f"{key}={value!r}"
            for key, value in self.parameters().items()  # repro-lint: disable=RPL102(debug repr only; no draws occur during or after this iteration)
        )
        return f"{type(self).__name__}({params})"
