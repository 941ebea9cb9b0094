"""Fig. 9 — normalized-flooding search on PA, CM, and HAPA topologies.

Number of hits versus TTL for m ∈ {1, 2, 3} and a sweep of hard cutoffs, on
the three "global-information" construction models.

Expected qualitative agreement (the paper's headline result): on PA and HAPA
topologies *smaller* hard cutoffs give *more* hits at the same τ, for every
m; on CM the cutoff has no such benefit (the exponent is prescribed).
Raising m from 1 to 2–3 increases the hit count by orders of magnitude.
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec

#: Cutoff sweep per model: the paper sweeps 10..200; CM gets a shorter grid
#: because the prescribed exponent makes the cutoff indifferent there.
GLOBAL_MODEL_CUTOFFS = {"default": [10, 20, 40, 100, None], "smoke": [10, None]}
CM_CUTOFFS = {"default": [10, 40, None], "smoke": [10, None]}

#: Stub sweep shared by the NF/RW "global models" figures (9 and 11).
GLOBAL_MODEL_STUBS = {"default": [1, 2, 3], "smoke": [1, 2]}


def global_models_panels(algorithm: str) -> list:
    """The shared Fig. 9 / Fig. 11 panel structure: PA, CM, HAPA sweeps."""
    return [
        {
            "topology": {"model": model, "exponent": exponent},
            "sweep": {"axes": {"stubs": GLOBAL_MODEL_STUBS, "hard_cutoff": cutoffs}},
            "label": "{model} m={m}, {kc}",
            "measurement": {"kind": "search-curve", "algorithm": algorithm},
        }
        for model, exponent, cutoffs in (
            ("pa", 3.0, GLOBAL_MODEL_CUTOFFS),
            ("cm", 2.2, CM_CUTOFFS),
            ("hapa", 3.0, GLOBAL_MODEL_CUTOFFS),
        )
    ]


SCENARIO = ScenarioSpec.from_dict({
    "id": "fig9",
    "title": "Normalized flooding on PA, CM, HAPA topologies (paper Fig. 9)",
    "notes": (
        "On PA and HAPA the smallest-kc series should finish at or above "
        "the no-cutoff series; on CM the ordering is indifferent; m=2,3 "
        "series sit far above m=1 series."
    ),
    "panels": global_models_panels("nf"),
})
