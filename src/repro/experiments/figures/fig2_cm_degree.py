"""Fig. 2 — degree distributions of the configuration model.

Three panels for prescribed exponents γ = 2.2, 2.6, 3.0, each with
m ∈ {1, 2, 3} and cutoffs kc ∈ {10, 40, none}.  Because the exponent is
prescribed, the cutoff does not change the slope: it only truncates the tail.
Deleting self-loops and multi-edges leaves a small number of nodes below the
prescribed minimum degree (possibly isolated), which is also visible in the
paper's panels.
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec

SCENARIO = ScenarioSpec.from_dict({
    "id": "fig2",
    "title": "Configuration-model degree distributions (paper Fig. 2)",
    "notes": (
        "For each gamma the cutoff series should share the same slope as "
        "the no-cutoff series and simply stop at k=kc; a few nodes may "
        "fall below the prescribed minimum degree after self-loop/"
        "multi-edge removal."
    ),
    "topology": {"model": "cm"},
    "sweep": {"axes": {
        "exponent": {"default": [2.2, 2.6, 3.0], "smoke": [2.2, 3.0]},
        "stubs": {"default": [1, 2, 3], "smoke": [1, 3]},
        "hard_cutoff": {"default": [10, 40, None], "smoke": [10, None]},
    }},
    "label": "gamma={gamma}, m={m}, {kc}",
    "measurement": {"kind": "degree-distribution"},
})
