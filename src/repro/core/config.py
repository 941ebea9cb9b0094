"""Validated configuration objects for the generators and substrates.

The paper's parameter space is small but easy to misuse (e.g. requesting more
stubs than the hard cutoff allows, or a cutoff below the minimum degree).
Each configuration dataclass validates itself on construction and raises
:class:`~repro.core.errors.ConfigurationError` with an actionable message,
so mistakes surface at configuration time rather than as silent infinite
loops inside an attachment routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import ConfigurationError

__all__ = [
    "NO_CUTOFF",
    "TopologyConfig",
    "PAConfig",
    "CMConfig",
    "HAPAConfig",
    "DAPAConfig",
    "GRNConfig",
    "MeshConfig",
]

#: Sentinel meaning "no hard cutoff" (the natural cutoff applies instead).
NO_CUTOFF: Optional[int] = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters shared by every growth-style topology generator.

    Attributes
    ----------
    number_of_nodes:
        Target network size ``N``.
    stubs:
        Number of stubs / initial links ``m`` each joining node tries to fill.
        This is also the minimum degree for PA and HAPA.
    hard_cutoff:
        Hard cutoff ``kc`` on node degree, or ``None`` for no hard cutoff.
    seed:
        Optional RNG seed for reproducible topologies.
    """

    number_of_nodes: int
    stubs: int = 1
    hard_cutoff: Optional[int] = NO_CUTOFF
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        _require(self.number_of_nodes >= 2, "number_of_nodes must be at least 2")
        _require(self.stubs >= 1, "stubs (m) must be at least 1")
        _require(
            self.stubs < self.number_of_nodes,
            "stubs (m) must be smaller than number_of_nodes",
        )
        if self.hard_cutoff is not None:
            _require(self.hard_cutoff >= 1, "hard_cutoff (kc) must be at least 1")
            _require(
                self.hard_cutoff >= self.stubs,
                f"hard_cutoff (kc={self.hard_cutoff}) must be >= stubs (m={self.stubs}); "
                "otherwise joining nodes can never fill their stubs",
            )

    @property
    def has_cutoff(self) -> bool:
        """``True`` when a finite hard cutoff is configured."""
        return self.hard_cutoff is not None

    def effective_cutoff(self) -> int:
        """Return the cutoff used by attachment tests (``N`` when unbounded)."""
        return self.hard_cutoff if self.hard_cutoff is not None else self.number_of_nodes


@dataclass(frozen=True)
class PAConfig(TopologyConfig):
    """Configuration for the preferential-attachment generator (paper Alg. 1)."""


@dataclass(frozen=True)
class HAPAConfig(TopologyConfig):
    """Configuration for the hop-and-attempt PA generator (paper Alg. 3).

    Attributes
    ----------
    max_hops_per_stub:
        Safety bound on the number of hop attempts made while trying to fill
        one stub.  The paper's pseudo-code loops until success; a bound keeps
        pathological small networks from hanging.  The default is generous
        enough never to bind in normal operation.
    """

    max_hops_per_stub: int = 10_000

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.max_hops_per_stub >= 1, "max_hops_per_stub must be positive")


@dataclass(frozen=True)
class CMConfig:
    """Configuration for the configuration-model generator (paper Alg. 2).

    Attributes
    ----------
    number_of_nodes:
        Network size ``N``.
    exponent:
        Target power-law exponent γ of the prescribed degree distribution.
    min_degree:
        Minimum degree ``m`` of the prescribed distribution.
    hard_cutoff:
        Maximum degree ``kc`` of the prescribed distribution (``None`` → ``N``).
    seed:
        Optional RNG seed.
    """

    number_of_nodes: int
    exponent: float = 3.0
    min_degree: int = 1
    hard_cutoff: Optional[int] = NO_CUTOFF
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        _require(self.number_of_nodes >= 2, "number_of_nodes must be at least 2")
        _require(self.exponent > 1.0, "exponent (gamma) must be greater than 1")
        _require(self.min_degree >= 1, "min_degree (m) must be at least 1")
        if self.hard_cutoff is not None:
            _require(
                self.hard_cutoff >= self.min_degree,
                "hard_cutoff must be >= min_degree",
            )
            _require(
                self.hard_cutoff <= self.number_of_nodes,
                "hard_cutoff cannot exceed the number of nodes",
            )

    @property
    def has_cutoff(self) -> bool:
        """``True`` when a finite hard cutoff is configured."""
        return self.hard_cutoff is not None

    def effective_cutoff(self) -> int:
        """Return the maximum degree used when sampling the degree sequence."""
        if self.hard_cutoff is not None:
            return self.hard_cutoff
        return self.number_of_nodes


@dataclass(frozen=True)
class GRNConfig:
    """Configuration for the geometric random network substrate (paper §IV-B).

    A GRN places ``number_of_nodes`` points uniformly in the unit square
    (``dimensions = 2``) or unit hypercube and links every pair closer than
    ``radius``.  Either ``radius`` or ``target_mean_degree`` must be given;
    when only the target mean degree is given, the radius is derived from the
    Poisson-intensity relation ``<k> = N * V_d * R^d`` (area of the
    d-dimensional ball, ignoring boundary effects).
    """

    number_of_nodes: int
    radius: Optional[float] = None
    target_mean_degree: Optional[float] = None
    dimensions: int = 2
    torus: bool = False
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        _require(self.number_of_nodes >= 2, "number_of_nodes must be at least 2")
        _require(self.dimensions in (1, 2, 3), "dimensions must be 1, 2, or 3")
        _require(
            self.radius is not None or self.target_mean_degree is not None,
            "either radius or target_mean_degree must be provided",
        )
        if self.radius is not None:
            _require(0.0 < self.radius <= math.sqrt(self.dimensions),
                     "radius must be in (0, sqrt(d)]")
        if self.target_mean_degree is not None:
            _require(self.target_mean_degree > 0, "target_mean_degree must be positive")

    def effective_radius(self) -> float:
        """Return the connection radius, deriving it from the mean degree if needed."""
        if self.radius is not None:
            return self.radius
        # <k> = (N - 1) * volume(ball of radius R) for points in a unit box,
        # ignoring boundary effects. Solve for R.
        mean_degree = float(self.target_mean_degree)
        n = self.number_of_nodes - 1
        if self.dimensions == 1:
            volume_coefficient = 2.0
        elif self.dimensions == 2:
            volume_coefficient = math.pi
        else:
            volume_coefficient = 4.0 * math.pi / 3.0
        return (mean_degree / (n * volume_coefficient)) ** (1.0 / self.dimensions)


@dataclass(frozen=True)
class MeshConfig:
    """Configuration for the 2-D regular mesh substrate (paper §IV-B).

    ``rows * columns`` nodes arranged on a grid, each connected to its four
    lattice neighbors (von Neumann neighborhood).  ``torus=True`` wraps the
    boundaries so every node has exactly four neighbors.
    """

    rows: int
    columns: int
    torus: bool = False

    def __post_init__(self) -> None:
        _require(self.rows >= 2, "rows must be at least 2")
        _require(self.columns >= 2, "columns must be at least 2")

    @property
    def number_of_nodes(self) -> int:
        """Total node count of the mesh."""
        return self.rows * self.columns


@dataclass(frozen=True)
class DAPAConfig:
    """Configuration for the discover-and-attempt PA generator (paper Alg. 4).

    Attributes
    ----------
    overlay_size:
        Target number of peers ``N_O`` in the overlay network.
    stubs:
        Number of stubs ``m`` each joining peer tries to fill.
    hard_cutoff:
        Hard cutoff ``kc`` on overlay degree (``None`` for unbounded).
    local_ttl:
        Horizon ``τ_sub``: how many substrate hops a joining peer explores to
        discover existing peers.
    initial_peers:
        Number of substrate nodes seeded into the overlay before growth
        starts (the paper uses 2).
    seed:
        Optional RNG seed.
    substrate:
        Optional substrate configuration (:class:`GRNConfig` or
        :class:`MeshConfig`).  When omitted the generator uses the paper's
        default: a 2-D GRN with N_S = 2 × overlay_size and mean degree 10.
    """

    overlay_size: int
    stubs: int = 1
    hard_cutoff: Optional[int] = NO_CUTOFF
    local_ttl: int = 2
    initial_peers: int = 2
    seed: Optional[int] = None
    substrate: Optional[object] = field(default=None)

    def __post_init__(self) -> None:
        _require(self.overlay_size >= 2, "overlay_size must be at least 2")
        _require(self.stubs >= 1, "stubs (m) must be at least 1")
        _require(self.local_ttl >= 1, "local_ttl (tau_sub) must be at least 1")
        _require(self.initial_peers >= 2, "initial_peers must be at least 2")
        _require(
            self.initial_peers <= self.overlay_size,
            "initial_peers cannot exceed overlay_size",
        )
        if self.hard_cutoff is not None:
            _require(self.hard_cutoff >= 1, "hard_cutoff must be at least 1")
            _require(
                self.hard_cutoff >= self.stubs,
                "hard_cutoff must be >= stubs (m)",
            )
            # The seed peers form a clique of degree initial_peers - 1.
            _require(
                self.initial_peers - 1 <= self.hard_cutoff,
                "initial_peers - 1 must not exceed hard_cutoff "
                "(the seed clique would break the cutoff)",
            )
        if self.substrate is not None:
            _require(
                isinstance(self.substrate, (GRNConfig, MeshConfig)),
                "substrate must be a GRNConfig or MeshConfig",
            )
            substrate_nodes = self.substrate.number_of_nodes
            _require(
                substrate_nodes >= self.overlay_size,
                "the substrate must have at least overlay_size nodes",
            )

    @property
    def has_cutoff(self) -> bool:
        """``True`` when a finite hard cutoff is configured."""
        return self.hard_cutoff is not None

    def effective_cutoff(self) -> int:
        """Return the cutoff used by attachment tests (overlay size when unbounded)."""
        return self.hard_cutoff if self.hard_cutoff is not None else self.overlay_size

    def default_substrate(self) -> GRNConfig:
        """Return the paper's default substrate: 2-D GRN, N_S = 2·N_O, <k> = 10."""
        return GRNConfig(
            number_of_nodes=2 * self.overlay_size,
            target_mean_degree=10.0,
            dimensions=2,
            seed=self.seed,
        )
