"""Messaging complexity of NF and RW (paper §V-B-2).

The paper describes — without plotting, "due to space constraints" — the
average number of messages incurred per search request:

* NF consistently sends fewer messages than the equal-τ RW comparison at the
  same hit level... more precisely the paper states NF "performs better than
  RW consistently" in messaging terms, with the gap shrinking at m = 1 and
  growing for m > 1;
* the messaging cost of imposing a hard cutoff is "very minimal and
  negligible".

This experiment measures messages-per-query versus τ for NF and for RW (RW
at its own τ hops, i.e. un-normalized, so the two are comparable as raw
protocols) on PA topologies with and without cutoffs, plus the hit-per-
message efficiency that substantiates the "NF better than RW" claim.
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec

SCENARIO = ScenarioSpec.from_dict({
    "id": "messaging",
    "title": "Messaging complexity of NF vs RW with and without cutoffs (paper §V-B-2)",
    "notes": (
        "Per-tau message counts of the kc series should stay within a "
        "small factor of the no-cutoff series (cutoff cost negligible); "
        "NF hits-per-message should be at least as good as RW's."
    ),
    "topology": {"model": "pa"},
    "sweep": {"axes": {
        "stubs": {"default": [1, 2, 3], "smoke": [1, 2]},
        "hard_cutoff": {"default": [10, 50, None], "smoke": [10, None]},
    }},
    # Hits per TTL for both algorithms ride along with the message counts so
    # the analysis can compute hits-per-message (the NF vs RW comparison).
    "series": [
        {
            "label": "nf messages m={m}, {kc}",
            "measurement": {"kind": "messaging", "algorithm": "nf"},
        },
        {
            "label": "nf hits m={m}, {kc}",
            "measurement": {"kind": "search-curve", "algorithm": "nf"},
        },
        {
            "label": "rw hits m={m}, {kc}",
            "measurement": {"kind": "search-curve", "algorithm": "rw"},
        },
    ],
})
