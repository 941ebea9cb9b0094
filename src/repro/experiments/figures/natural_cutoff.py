"""Natural-cutoff scaling (paper §III-A, Eqs. 2, 4, 5).

The natural cutoff of a finite scale-free network — the largest degree one
expects to observe — scales as ``k_nc ~ m N^{1/(γ-1)}`` (Dorogovtsev et al.),
which for the PA model (γ = 3) becomes ``m √N``.  The
``natural-cutoff-scaling`` measurement kind grows PA networks of increasing
size without any hard cutoff, records the maximum degree, and reports it
next to the two analytical estimates so the scaling exponent can be
compared.
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec

SCENARIO = ScenarioSpec.from_dict({
    "id": "natural_cutoff",
    "title": "Natural-cutoff scaling of PA networks (paper Eqs. 2, 4, 5)",
    "notes": (
        "The measured maximum degree should grow roughly like sqrt(N) "
        "(the Dorogovtsev estimate for gamma=3) and faster than the "
        "Aiello estimate N^(1/3)."
    ),
    "topology": {"model": "pa"},
    "label": "natural cutoff scaling",
    "measurement": {
        "kind": "natural-cutoff-scaling",
        "params": {
            "sizes": {"default": [500, 2000, 8000], "smoke": [200, 800],
                      "paper": [1000, 10000, 100000]},
            "stubs_values": {"default": [1, 2], "smoke": [1]},
        },
    },
})
