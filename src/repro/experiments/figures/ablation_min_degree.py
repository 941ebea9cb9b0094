"""Ablation — the "minimum of 2–3 links" join guideline.

The paper's practical guideline: "as long as every peer is required to
maintain a minimum of 2-3 links to the rest of the network rather than just
one link, it is possible to diminish negative effects of hard cutoffs on
search performance."

The ``cutoff-penalty`` measurement kind quantifies that claim directly: for
m = 1, 2, 3 on PA topologies it measures the *relative flooding penalty* of
a hard cutoff — ``hits(no cutoff) / hits(kc = 10)`` at a fixed TTL — which
should shrink towards 1 as m grows.
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec

SCENARIO = ScenarioSpec.from_dict({
    "id": "ablation_min_degree",
    "title": "Cutoff penalty on flooding vs minimum degree m (paper §V-B guideline)",
    "notes": (
        "The 'cutoff penalty ratio' series should decrease towards ~1 as "
        "m grows from 1 to 3: by m=3 the hard cutoff costs flooding "
        "almost nothing."
    ),
    "topology": {"model": "pa"},
    "label": "cutoff penalty ratio (no kc / kc=10)",
    "measurement": {
        "kind": "cutoff-penalty",
        "params": {
            "stubs_values": {"default": [1, 2, 3], "smoke": [1, 2]},
            "penalty_cutoff": 10,
            "reference_ttl_cap": 6,
        },
    },
})
