"""Fig. 8 — flooding search efficiency on DAPA topologies.

Number of hits versus TTL for m ∈ {1, 2, 3}, cutoffs {10, 50, none}, and a
sweep of locality horizons τ_sub.

Expected qualitative agreement: larger τ_sub yields better flooding
efficiency (closer to PA); for weak connectedness (m = 1) imposing a hard
cutoff *improves* flooding (the connectedness/exponent interplay), while for
larger m the effect of the cutoff diminishes.
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec

SCENARIO = ScenarioSpec.from_dict({
    "id": "fig8",
    "title": "Flooding search on DAPA topologies (paper Fig. 8)",
    "notes": (
        "Larger tau_sub should reach more peers at the same TTL; for m=1 "
        "the kc=10 series should beat the no-cutoff series (connectedness "
        "interplay)."
    ),
    "topology": {"model": "dapa"},
    "sweep": {"axes": {
        "stubs": {"default": [1, 2, 3], "smoke": [1]},
        "hard_cutoff": {"default": [10, 50, None], "smoke": [10, None]},
        "tau_sub": {"default": [2, 4, 10], "smoke": [2, 4],
                    "paper": [2, 4, 6, 8, 10, 20, 50]},
    }},
    "label": "m={m}, {kc}, tau_sub={tau_sub}",
    "measurement": {"kind": "search-curve", "algorithm": "fl"},
})
