"""Fig. 6 — flooding search efficiency on PA and HAPA topologies.

Number of hits versus TTL for m ∈ {1, 2, 3} and kc ∈ {10, 50, none}, on
topologies generated by (a) PA and (b) HAPA.

Expected qualitative agreement: for a given m the no-cutoff curve dominates
(reaches more peers at the same τ); the gap shrinks as m grows and is
negligible by m = 3; at small cutoffs PA and HAPA perform similarly, while
without a cutoff HAPA's star topology reaches the whole network in very few
hops.
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec

SCENARIO = ScenarioSpec.from_dict({
    "id": "fig6",
    "title": "Flooding search on PA and HAPA topologies (paper Fig. 6)",
    "notes": (
        "For fixed m the 'no kc' series should dominate the kc series; "
        "the dominance gap should shrink as m grows (negligible at m=3)."
    ),
    "sweep": {"axes": {
        "model": ["pa", "hapa"],
        "stubs": {"default": [1, 2, 3], "smoke": [1, 3]},
        "hard_cutoff": {"default": [10, 50, None], "smoke": [10, None]},
    }},
    "label": "{model} m={m}, {kc}",
    "measurement": {"kind": "search-curve", "algorithm": "fl"},
})
