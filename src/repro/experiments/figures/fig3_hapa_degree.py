"""Fig. 3 — degree distributions of the HAPA model.

Panel (a): without a cutoff the hop-and-attempt rule concentrates almost all
links on a handful of super hubs (degree of the order of the system size) —
a star-like topology rather than a power law.
Panels (b, c): a hard cutoff (kc = 50 and kc = 10) destroys the star and the
distribution becomes power-law-like with an exponential correction.

Expected qualitative agreement: the no-cutoff series contains degrees close
to N; the cutoff series do not exceed kc and decay monotonically.
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec

SCENARIO = ScenarioSpec.from_dict({
    "id": "fig3",
    "title": "HAPA degree distributions: star without cutoff, power law with (paper Fig. 3)",
    "notes": (
        "The 'no kc' series must contain at least one degree on the order "
        "of the network size (super hub); the kc series are bounded by kc."
    ),
    "topology": {"model": "hapa"},
    "sweep": {"axes": {
        "stubs": {"default": [1, 2, 3], "smoke": [1]},
        "hard_cutoff": {"default": [None, 50, 10], "smoke": [None, 10]},
    }},
    "label": "P(k) m={m}, {kc}",
    "measurement": {"kind": "degree-distribution"},
})
