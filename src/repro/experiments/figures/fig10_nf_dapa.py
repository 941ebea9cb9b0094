"""Fig. 10 — normalized-flooding search on DAPA topologies.

Number of hits versus TTL for m ∈ {1, 2, 3}, cutoffs {none, 50, 10}, and a
sweep of locality horizons τ_sub.

Expected qualitative agreement: as the hard cutoff shrinks the NF efficiency
improves regardless of m; better connectedness (m = 3) improves the hit
count greatly; and larger τ_sub matters more when m is larger ("more global
information is more important when target connectedness is high").
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec

SCENARIO = ScenarioSpec.from_dict({
    "id": "fig10",
    "title": "Normalized flooding on DAPA topologies (paper Fig. 10)",
    "notes": (
        "Hits should improve as kc shrinks for every m; m=3 series sit "
        "far above m=1 series; the spread across tau_sub widens with m."
    ),
    "topology": {"model": "dapa"},
    "sweep": {"axes": {
        "stubs": {"default": [1, 2, 3], "smoke": [1]},
        "hard_cutoff": {"default": [10, 50, None], "smoke": [10, None]},
        "tau_sub": {"default": [2, 4, 10], "smoke": [2, 4],
                    "paper": [2, 4, 6, 8, 10, 20, 50]},
    }},
    "label": "m={m}, {kc}, tau_sub={tau_sub}",
    "measurement": {"kind": "search-curve", "algorithm": "nf"},
})
