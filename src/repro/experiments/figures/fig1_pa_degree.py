"""Fig. 1 — degree distributions of the PA model with and without hard cutoffs.

Panel (a): P(k) for m = 1, 2, 3 without a cutoff (power law, γ close to 3 for
large N; the paper measures 2.8–2.9 at N = 10⁵).
Panel (b): P(k) with hard cutoffs kc ∈ {10, 20, 40, 100}: still power-law-
like but with an accumulation spike at k = kc.
Panel (c): the fitted exponent γ versus the hard cutoff for m = 1, 2, 3 —
γ decreases as the cutoff shrinks.

Expected qualitative agreement: the no-cutoff curves are straight lines on a
log–log plot; the cutoff curves terminate at kc with an elevated final point;
the γ-vs-kc series are increasing in kc.
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec

_STUBS = {"default": [1, 2, 3], "smoke": [1, 2]}

SCENARIO = ScenarioSpec.from_dict({
    "id": "fig1",
    "title": "PA degree distributions with hard cutoffs (paper Fig. 1)",
    "notes": (
        "Panel (a): 'P(k) m=...' series should be power laws; "
        "panel (b): '... kc=...' series accumulate probability at k=kc; "
        "panel (c): 'gamma vs kc m=...' series increase with kc."
    ),
    "topology": {"model": "pa"},
    "panels": [
        {   # Panel (a): no cutoff.
            "sweep": {"axes": {"stubs": _STUBS}},
            "label": "P(k) m={m}, {kc}",
            "measurement": {"kind": "degree-distribution"},
        },
        {   # Panel (b): hard cutoffs.
            "sweep": {"axes": {
                "stubs": _STUBS,
                "hard_cutoff": {"default": [10, 40, 100], "smoke": [10, 40]},
            }},
            "label": "P(k) m={m}, {kc}",
            "measurement": {"kind": "degree-distribution"},
        },
        {   # Panel (c): fitted exponent vs cutoff.
            "topology": {"tau_sub": 10},
            "sweep": {"axes": {"stubs": _STUBS}},
            "label": "gamma vs kc m={m}",
            "measurement": {
                "kind": "exponent-vs-cutoff",
                "params": {"cutoffs": {
                    "default": [10, 20, 30, 40, 50], "smoke": [10, 30, 50],
                }},
            },
        },
    ],
})
