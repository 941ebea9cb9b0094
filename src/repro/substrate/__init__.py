"""Substrate (underlay) network models.

The DAPA construction (paper §IV-B) builds the P2P overlay *on top of* a
pre-existing substrate network: nodes discover candidate peers by querying
their substrate neighborhood up to ``τ_sub`` hops.  The paper uses a
two-dimensional geometric random network (GRN) with a giant component as the
substrate because "it is topologically closer to real life nodes in the
Internet than a regular or highly random network", and mentions a 2-D regular
mesh as an alternative.

This subpackage provides:

* :class:`~repro.substrate.grn.GeometricRandomNetwork` — random points in the
  unit box linked when closer than a radius ``R`` (cell-list accelerated);
* :class:`~repro.substrate.mesh.MeshNetwork` — a 2-D regular lattice
  (optionally a torus).

A joining DAPA peer discovers its ``τ_sub``-hop horizon with its own
breadth-first search on substrate rows (see
:class:`~repro.generators.dapa.DAPAGenerator`).
"""

from repro.substrate.base import SubstrateNetwork
from repro.substrate.grn import GeometricRandomNetwork, generate_grn
from repro.substrate.mesh import MeshNetwork, generate_mesh

__all__ = [
    "GeometricRandomNetwork",
    "MeshNetwork",
    "SubstrateNetwork",
    "generate_grn",
    "generate_mesh",
]
