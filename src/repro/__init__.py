"""repro — scale-free overlay topologies with hard cutoffs for unstructured P2P networks.

A production-quality reproduction of

    Guclu, H. and Yuksel, M., "Scale-Free Overlay Topologies with Hard
    Cutoffs for Unstructured Peer-to-Peer Networks", ICDCS 2007
    (arXiv:cs/0611128).

The library is organised in layers:

* :mod:`repro.core` — graph data structure, seedable randomness, validated
  configuration objects, error hierarchy;
* :mod:`repro.substrate` — underlay network models (geometric random network,
  mesh) used by DAPA;
* :mod:`repro.generators` — the four overlay-construction mechanisms the
  paper studies: PA, CM, HAPA, DAPA, all with hard-cutoff support;
* :mod:`repro.search` — flooding, normalized flooding, and random-walk search
  with hit/message accounting and the paper's NF↔RW normalization;
* :mod:`repro.analysis` — degree distributions, power-law fits, natural
  cutoffs, path lengths, components, robustness;
* :mod:`repro.experiments` — the figure/table reproduction harness behind
  ``benchmarks/`` and the ``repro`` CLI;
* :mod:`repro.engine` — the parallel execution engine: serial/process-pool
  executors for realization tasks, a content-addressed on-disk result store,
  a suite scheduler, and progress reporting.

Quickstart
----------
>>> from repro import generate_pa, FloodingSearch, search_curve
>>> graph = generate_pa(1000, stubs=2, hard_cutoff=20, seed=7)
>>> curve = search_curve(graph, FloodingSearch(), ttl_values=[1, 2, 3, 4],
...                      queries=50, rng=7)
>>> curve.mean_hits[-1] > curve.mean_hits[0]
True
"""

from repro._version import __version__
from repro.analysis import (
    PowerLawFit,
    attack_robustness,
    average_shortest_path_length,
    ccdf,
    connected_components,
    degree_distribution,
    degree_histogram,
    diameter,
    empirical_cutoff,
    failure_robustness,
    fit_power_law,
    giant_component,
    giant_component_fraction,
    is_connected,
    log_binned_distribution,
    natural_cutoff_dorogovtsev,
    natural_cutoff_pa,
    path_length_statistics,
)
from repro.core import Graph, RandomSource
from repro.core.config import (
    CMConfig,
    DAPAConfig,
    GRNConfig,
    HAPAConfig,
    MeshConfig,
    PAConfig,
)
from repro.generators import (
    ConfigurationModelGenerator,
    DAPAGenerator,
    GenerationResult,
    HAPAGenerator,
    PreferentialAttachmentGenerator,
    TopologyGenerator,
    available_generators,
    create_generator,
    generate_cm,
    generate_dapa,
    generate_hapa,
    generate_pa,
    power_law_degree_sequence,
)
from repro.search import (
    FloodingSearch,
    NormalizedFloodingSearch,
    QueryResult,
    RandomWalkSearch,
    SearchCurve,
    available_search_algorithms,
    average_search_curve,
    create_search_algorithm,
    flood,
    normalized_flood,
    normalized_walk_curve,
    random_walk,
    search_curve,
)
from repro.scenarios import ScenarioSpec, run_scenario
from repro.substrate import (
    GeometricRandomNetwork,
    MeshNetwork,
    generate_grn,
    generate_mesh,
)

__all__ = [
    "__version__",
    # core
    "Graph",
    "RandomSource",
    "PAConfig",
    "CMConfig",
    "HAPAConfig",
    "DAPAConfig",
    "GRNConfig",
    "MeshConfig",
    # generators
    "ConfigurationModelGenerator",
    "DAPAGenerator",
    "GenerationResult",
    "HAPAGenerator",
    "PreferentialAttachmentGenerator",
    "TopologyGenerator",
    "available_generators",
    "create_generator",
    "generate_cm",
    "generate_dapa",
    "generate_hapa",
    "generate_pa",
    "power_law_degree_sequence",
    # substrate
    "GeometricRandomNetwork",
    "MeshNetwork",
    "generate_grn",
    "generate_mesh",
    # search
    "FloodingSearch",
    "NormalizedFloodingSearch",
    "QueryResult",
    "RandomWalkSearch",
    "SearchCurve",
    "available_search_algorithms",
    "average_search_curve",
    "create_search_algorithm",
    "flood",
    "normalized_flood",
    "normalized_walk_curve",
    "random_walk",
    "search_curve",
    # analysis
    "PowerLawFit",
    "attack_robustness",
    "average_shortest_path_length",
    "ccdf",
    "connected_components",
    "degree_distribution",
    "degree_histogram",
    "diameter",
    "empirical_cutoff",
    "failure_robustness",
    "fit_power_law",
    "giant_component",
    "giant_component_fraction",
    "is_connected",
    "log_binned_distribution",
    "natural_cutoff_dorogovtsev",
    "natural_cutoff_pa",
    "path_length_statistics",
    # scenarios
    "ScenarioSpec",
    "run_scenario",
]
