"""Ablation — hard cutoffs and the "robust yet fragile" property.

Section III motivates hard cutoffs partly by the attack fragility of hubs:
scale-free networks survive random failures but shatter when the hubs are
removed.  A hard cutoff removes the super hubs, so it should *narrow* the
gap between failure tolerance and attack tolerance.

The ``robustness-sweep`` measurement kind removes up to 30 % of the nodes of
PA topologies — uniformly at random and highest-degree-first — with and
without a hard cutoff, and records the giant-component fraction curves.
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec

SCENARIO = ScenarioSpec.from_dict({
    "id": "ablation_robustness",
    "title": "Failure vs attack tolerance with and without hard cutoffs (paper §III)",
    "notes": (
        "Without a cutoff the attack curve should collapse much faster "
        "than the failure curve; with kc=10 the two curves should be "
        "closer together (no super hubs to decapitate)."
    ),
    "topology": {"model": "pa"},
    "label": "giant component under removal",
    "measurement": {
        "kind": "robustness-sweep",
        "params": {
            "cutoffs": [None, 10],
            "steps": 6,
            "max_removed": 0.3,
            "node_cap": 1500,
            "stubs": 2,
        },
    },
})
