"""Core primitives shared by every subsystem of :mod:`repro`.

This subpackage provides the foundational building blocks used by the
topology generators, search algorithms, and analysis routines:

``graph``
    A compact adjacency-list undirected graph implementation
    (:class:`~repro.core.graph.Graph`) designed for the access patterns of
    the paper's algorithms: degree queries, random neighbor selection,
    edge-existence checks, and incremental growth.

``csr``
    A frozen compressed-sparse-row snapshot
    (:class:`~repro.core.csr.CSRGraph`) of a finished graph, with
    vectorized search kernels; every experiment's read-only search phase
    runs on it.  It pickles as its ``indptr``/``indices``/``ids`` arrays,
    which is how it reaches pool workers.

``rng``
    A seedable random-source façade (:class:`~repro.core.rng.RandomSource`)
    so every stochastic component of the library is reproducible.

``config``
    Validated configuration dataclasses for generators and searches.

``errors``
    The library-wide exception hierarchy.

``types``
    Shared light-weight type aliases and small value objects.
"""

from repro.core.csr import CSRGraph, GraphLike
from repro.core.errors import (
    ConfigurationError,
    CutoffError,
    GenerationError,
    GraphError,
    ReproError,
    SearchError,
)
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.core.types import DegreeSequence, EdgeList, NodeId

__all__ = [
    "CSRGraph",
    "ConfigurationError",
    "CutoffError",
    "DegreeSequence",
    "EdgeList",
    "GenerationError",
    "Graph",
    "GraphError",
    "GraphLike",
    "NodeId",
    "RandomSource",
    "ReproError",
    "SearchError",
]
