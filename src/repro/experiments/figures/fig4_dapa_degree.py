"""Fig. 4 — degree distributions of the DAPA model.

Panels (a–f): P(k) for m = 1 and m = 3, cutoffs {none, 40, 10}, as the
locality horizon τ_sub grows from 2 to 50.  Small τ_sub produces an
exponential (short-sighted peers see few candidates); large τ_sub recovers a
power law.  Panel (g): fitted exponent versus the hard cutoff.

Expected qualitative agreement: for fixed cutoff, the large-τ_sub series has
a heavier tail (larger maximum degree, slower decay) than the τ_sub = 2
series; with a small cutoff the series become nearly indistinguishable; the
exponent-vs-cutoff series mirrors the PA behaviour (γ grows with kc... the
paper words it as "as the cutoff decreases the exponent increases" for DAPA,
i.e. opposite sign to PA — the data is noisy, so only the magnitude range is
checked).
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec

_STUBS = {"default": [1, 3], "smoke": [1]}

SCENARIO = ScenarioSpec.from_dict({
    "id": "fig4",
    "title": "DAPA degree distributions vs locality horizon (paper Fig. 4)",
    "notes": (
        "For a fixed cutoff the tau_sub=2 series should decay faster "
        "(exponential) than the largest-tau_sub series (power-law-like); "
        "with kc=10 the series nearly coincide."
    ),
    "topology": {"model": "dapa"},
    "panels": [
        {   # Panels (a-f): P(k) across the tau_sub sweep.
            "sweep": {"axes": {
                "stubs": _STUBS,
                "hard_cutoff": {"default": [10, 50, None], "smoke": [10, None]},
                "tau_sub": {"default": [2, 4, 10], "smoke": [2, 4],
                            "paper": [2, 4, 6, 8, 10, 20, 50]},
            }},
            "label": "P(k) m={m}, {kc}, tau_sub={tau_sub}",
            "measurement": {"kind": "degree-distribution"},
        },
        {   # Panel (g): exponent vs cutoff at a generous horizon.
            "topology": {"tau_sub": {"default": 10, "smoke": 4, "paper": 50}},
            "sweep": {"axes": {"stubs": _STUBS}},
            "label": "gamma vs kc m={m}",
            "measurement": {
                "kind": "exponent-vs-cutoff",
                "params": {"cutoffs": {
                    "default": [10, 20, 30, 40, 50], "smoke": [10, 40],
                }},
            },
        },
    ],
})
