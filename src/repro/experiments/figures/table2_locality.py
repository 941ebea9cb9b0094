"""Table II — usage of global topology information by each construction model.

==========  ===========================
Procedure   Usage of global information
==========  ===========================
PA          yes
CM          yes
HAPA        partial
DAPA        no
==========  ===========================

The ``global-information`` measurement kind asserts the claim structurally
(the generator classes declare their information requirements) and backs it
with a small behavioural check: the amount of non-local state each join
step consumes, derived from the algorithms themselves (PA and CM need the
degrees of all N nodes, HAPA needs only the running total degree, DAPA
needs nothing outside the joining node's horizon).
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec

SCENARIO = ScenarioSpec.from_dict({
    "id": "table2",
    "title": "Global-information requirements of PA, CM, HAPA, DAPA (paper Table II)",
    "notes": (
        "Scores: 2 = needs per-node global information, 1 = needs an "
        "aggregate global quantity, 0 = purely local.  Expected: "
        "pa=2, cm=2, hapa=1, dapa=0."
    ),
    "topology": {"model": "pa"},
    "label": "global information usage",
    "measurement": {
        "kind": "global-information",
        # Only the paper's four mechanisms belong to Table II; extension
        # models registered alongside them (e.g. nonlinear PA) are not part
        # of the table.
        "params": {"expected": {"pa": "yes", "cm": "yes",
                                "hapa": "partial", "dapa": "no"}},
    },
})
