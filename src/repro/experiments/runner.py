"""Shared infrastructure for running experiments at different scales.

The paper's simulations use 10⁴–10⁵ node networks with 10 realizations per
data point — minutes to hours of pure-Python work per figure.  Every
experiment therefore accepts an :class:`ExperimentScale` with three presets:

* ``smoke``  — a few hundred nodes, 1 realization; used by the unit tests;
* ``small``  — a few thousand nodes, 2–3 realizations; the default for
  ``pytest benchmarks/`` so the whole suite finishes in minutes while the
  paper's qualitative trends remain visible;
* ``paper``  — the sizes reported in the paper, for full reproduction runs.

The generate-→-measure-→-average loop every experiment shares lives in
:mod:`repro.scenarios.measure`; this module supplies its scale presets,
per-realization seeds, and :func:`average_curves`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.core.errors import ExperimentError
from repro.core.rng import DEFAULT_SEED

__all__ = ["ExperimentScale", "realization_seeds", "average_curves"]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling how big and how averaged an experiment run is.

    Attributes
    ----------
    name:
        Preset name ("smoke", "small", "paper", or "custom").
    nodes:
        Overlay size used by the degree-distribution experiments (Figs. 1–4).
    search_nodes:
        Overlay size used by the search experiments (Figs. 6–12); the paper
        uses 10⁴ for these regardless of the 10⁵ used for Fig. 1.
    substrate_nodes:
        Substrate size for DAPA (the paper uses 2 × 10⁴ = 2 × search_nodes).
    realizations:
        Independent topology realizations averaged per data point.
    queries:
        Query sources per topology for the search experiments.
    max_ttl:
        Largest TTL simulated for NF / RW curves (the paper plots 1..10).
    flooding_max_ttl:
        Largest TTL simulated for FL curves (the paper plots up to ~20-30).
    seed:
        Base seed; realization ``r`` uses ``seed + r``.
    """

    name: str = "small"
    nodes: int = 3000
    search_nodes: int = 1500
    substrate_nodes: int = 3000
    realizations: int = 2
    queries: int = 40
    max_ttl: int = 10
    flooding_max_ttl: int = 15
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.nodes < 10 or self.search_nodes < 10:
            raise ExperimentError("scales below 10 nodes are not meaningful")
        if self.substrate_nodes < self.search_nodes:
            raise ExperimentError("substrate_nodes must be >= search_nodes")
        if self.realizations < 1:
            raise ExperimentError("realizations must be at least 1")
        if self.queries < 1:
            raise ExperimentError("queries must be at least 1")
        if self.max_ttl < 1 or self.flooding_max_ttl < 1:
            raise ExperimentError("TTL limits must be at least 1")

    # ------------------------------------------------------------------ #
    # Presets
    # ------------------------------------------------------------------ #
    @classmethod
    def smoke(cls, seed: int = DEFAULT_SEED) -> "ExperimentScale":
        """Tiny preset used by the unit tests (seconds per experiment)."""
        return cls(
            name="smoke",
            nodes=400,
            search_nodes=300,
            substrate_nodes=600,
            realizations=1,
            queries=15,
            max_ttl=6,
            flooding_max_ttl=8,
            seed=seed,
        )

    @classmethod
    def small(cls, seed: int = DEFAULT_SEED) -> "ExperimentScale":
        """Default benchmark preset (minutes for the full suite)."""
        return cls(name="small", seed=seed)

    @classmethod
    def paper(cls, seed: int = DEFAULT_SEED) -> "ExperimentScale":
        """The paper's sizes: 10⁵-node distributions, 10⁴-node searches."""
        return cls(
            name="paper",
            nodes=100_000,
            search_nodes=10_000,
            substrate_nodes=20_000,
            realizations=10,
            queries=200,
            max_ttl=10,
            flooding_max_ttl=20,
            seed=seed,
        )

    @classmethod
    def from_name(cls, name: str, seed: int = DEFAULT_SEED) -> "ExperimentScale":
        """Return the preset with the given name ("smoke", "small", "paper")."""
        presets: Dict[str, Callable[[int], ExperimentScale]] = {
            "smoke": cls.smoke,
            "small": cls.small,
            "paper": cls.paper,
        }
        if name not in presets:
            raise ExperimentError(
                f"unknown scale preset {name!r}; available: {', '.join(sorted(presets))}"
            )
        return presets[name](seed)

    def with_seed(self, seed: int) -> "ExperimentScale":
        """Return a copy of this scale with a different base seed."""
        return replace(self, seed=seed)

    def ttl_grid(self) -> List[int]:
        """TTL values for the NF/RW curves (the paper samples even values 2..10)."""
        return list(range(2, self.max_ttl + 1, 2))

    def flooding_ttl_grid(self) -> List[int]:
        """TTL values for the FL curves."""
        return list(range(1, self.flooding_max_ttl + 1))

    def as_dict(self) -> Dict[str, object]:
        """Return a JSON-friendly representation (stored in every result)."""
        return {
            "name": self.name,
            "nodes": self.nodes,
            "search_nodes": self.search_nodes,
            "substrate_nodes": self.substrate_nodes,
            "realizations": self.realizations,
            "queries": self.queries,
            "max_ttl": self.max_ttl,
            "flooding_max_ttl": self.flooding_max_ttl,
            "seed": self.seed,
        }


def _labelled_seed(base_seed: int, label: str, index: int) -> int:
    """Derive the seed for realization ``index`` of the curve ``label``.

    The (label, index) pair is hashed as a unit, so every realization of
    every curve draws from its own 63-bit stream.  The earlier scheme added
    ``crc32(label) % 10_000`` to ``base_seed + index``, which made two labels
    whose offsets differ by less than ``realizations`` share seeds —
    silently correlating curves that the paper averages as independent.
    SHA-256 is used (rather than :func:`hash`) so seeds are stable across
    interpreter runs and worker processes.
    """
    digest = hashlib.sha256(f"{label}\x1f{index}".encode("utf-8")).digest()
    return (base_seed + int.from_bytes(digest[:8], "big")) % 2**63


def realization_seeds(scale: ExperimentScale, label: str = "") -> List[int]:
    """Return one deterministic seed per realization for this scale.

    A label (typically the curve label) is mixed in so different curves of
    the same experiment do not share topology realizations.  Unlabelled
    callers keep the simple ``seed + index`` ladder; labelled callers get
    collision-free per-(label, realization) streams via :func:`_labelled_seed`.
    """
    if not label:
        return [scale.seed + index for index in range(scale.realizations)]
    return [_labelled_seed(scale.seed, label, index) for index in range(scale.realizations)]


def average_curves(rows: Sequence[Sequence[float]]) -> List[float]:
    """Element-wise mean of equal-length numeric rows."""
    if not rows:
        raise ExperimentError("cannot average an empty collection of curves")
    lengths = {len(row) for row in rows}
    if len(lengths) != 1:
        raise ExperimentError("curves must share a length to be averaged")
    return [float(value) for value in np.mean(np.array(rows, dtype=float), axis=0)]
