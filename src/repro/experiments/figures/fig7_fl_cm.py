"""Fig. 7 — flooding search efficiency on configuration-model topologies.

Number of hits versus TTL for prescribed exponents γ ∈ {2.2, 2.6, 3.0},
m ∈ {1, 2, 3}, and kc ∈ {10, 40, none}.

Expected qualitative agreement: for m ≥ 2 the no-cutoff series dominates and
the cutoff penalty shrinks with m; for m = 1 the CM graph is disconnected, so
the hit count saturates well below the network size for every cutoff.
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec

SCENARIO = ScenarioSpec.from_dict({
    "id": "fig7",
    "title": "Flooding search on configuration-model topologies (paper Fig. 7)",
    "notes": (
        "m=1 series must saturate below the network size (disconnected "
        "CM); for m>=2 the 'no kc' series dominates its cutoff variants."
    ),
    "topology": {"model": "cm"},
    "sweep": {"axes": {
        "exponent": {"default": [2.2, 2.6, 3.0], "smoke": [2.2, 3.0]},
        "stubs": {"default": [1, 2, 3], "smoke": [1, 2]},
        "hard_cutoff": {"default": [10, 40, None], "smoke": [10, None]},
    }},
    "label": "gamma={gamma}, m={m}, {kc}",
    "measurement": {"kind": "search-curve", "algorithm": "fl"},
})
