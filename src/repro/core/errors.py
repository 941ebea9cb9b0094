"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised deliberately by the library derive from
:class:`ReproError` so that callers can catch library failures with a single
``except`` clause while still being able to distinguish the failing
subsystem.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "EdgeNotFoundError",
    "GenerationError",
    "CutoffError",
    "ConfigurationError",
    "SearchError",
    "AnalysisError",
    "ExperimentError",
    "ScenarioError",
]


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class GraphError(ReproError):
    """A graph-structure operation failed (invalid node, edge, or state)."""


class NodeNotFoundError(GraphError, KeyError):
    """An operation referenced a node that is not present in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """An operation referenced an edge that is not present in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class GenerationError(ReproError):
    """A topology generator could not produce a valid network."""


class CutoffError(GenerationError):
    """A hard-cutoff constraint was violated or is unsatisfiable.

    Raised, for example, when a caller requests more stubs per node than the
    hard cutoff allows (``m > kc``), which can never produce a valid graph.
    """


class ConfigurationError(ReproError, ValueError):
    """A configuration object contains invalid or inconsistent parameters."""


class SearchError(ReproError):
    """A search algorithm was invoked with invalid parameters or state."""


class AnalysisError(ReproError):
    """An analysis routine received data it cannot process."""


class ExperimentError(ReproError):
    """The experiment harness failed to run or aggregate an experiment."""


class ScenarioError(ExperimentError, ValueError):
    """A scenario specification is invalid or cannot be compiled.

    Raised eagerly during :meth:`~repro.scenarios.ScenarioSpec.validate` /
    ``from_dict`` with a message naming the offending field, so spec authors
    get actionable feedback before any realization work starts.
    """
