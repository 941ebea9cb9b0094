"""Fig. 11 — random-walk search on PA, CM, and HAPA topologies.

Number of hits versus τ, where the random walk is granted as many hops as an
NF query with the same τ would send messages (the paper's normalization), on
the three global-information construction models.

Expected qualitative agreement: the same ordering as Fig. 9 — on PA and HAPA
smaller cutoffs improve the hit count, on CM they do not — with the cutoff
effect somewhat more pronounced for RW than for NF.
"""

from __future__ import annotations

from repro.experiments.figures.fig9_nf_global import global_models_panels
from repro.scenarios import ScenarioSpec

SCENARIO = ScenarioSpec.from_dict({
    "id": "fig11",
    "title": "Random-walk search on PA, CM, HAPA topologies (paper Fig. 11)",
    "notes": (
        "RW hits are measured at equal NF message budget; on PA and HAPA "
        "the small-kc series should finish at or above the no-cutoff "
        "series."
    ),
    "panels": global_models_panels("rw"),
})
