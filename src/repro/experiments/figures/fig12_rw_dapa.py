"""Fig. 12 — random-walk search on DAPA topologies.

Number of hits versus τ (NF-message-normalized) for m ∈ {1, 2, 3}, cutoffs
{none, 50, 10}, and a sweep of locality horizons τ_sub.

Expected qualitative agreement: as in Fig. 10, smaller hard cutoffs improve
the hit count for every connectedness level, and m = 3 gives order-of-
magnitude more hits than m = 1.
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec

SCENARIO = ScenarioSpec.from_dict({
    "id": "fig12",
    "title": "Random-walk search on DAPA topologies (paper Fig. 12)",
    "notes": (
        "Hits should improve as kc shrinks for every m; m=3 series sit "
        "far above m=1 series."
    ),
    "topology": {"model": "dapa"},
    "sweep": {"axes": {
        "stubs": {"default": [1, 2, 3], "smoke": [1]},
        "hard_cutoff": {"default": [10, 50, None], "smoke": [10, None]},
        "tau_sub": {"default": [2, 4, 10], "smoke": [2, 4],
                    "paper": [2, 4, 6, 8, 10, 20, 50]},
    }},
    "label": "m={m}, {kc}, tau_sub={tau_sub}",
    "measurement": {"kind": "search-curve", "algorithm": "rw"},
})
