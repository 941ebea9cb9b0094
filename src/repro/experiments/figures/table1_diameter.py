"""Table I — diameter scaling classes of scale-free networks.

The paper summarises the known diameter behaviour:

===============  ==========  =========
Diameter d       Exponent γ  Stubs m
===============  ==========  =========
ln ln N          (2, 3)      ≥ 1
ln N / ln ln N   3           ≥ 2
ln N             3           1
ln N             > 3         ≥ 1
===============  ==========  =========

The ``path-length-scaling`` measurement kind grows CM topologies with
γ ∈ {2.5, 3.5} and PA topologies (γ = 3) with m ∈ {1, 2} across a range of
network sizes and reports the measured average shortest-path length next to
the predicted functional form — the reproduction checks the *ordering*
(ultra-small < small-world < tree) rather than asymptotic constants, which
a 10³–10⁴-node network cannot resolve.
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec

SCENARIO = ScenarioSpec.from_dict({
    "id": "table1",
    "title": "Diameter scaling of scale-free topologies (paper Table I)",
    "notes": (
        "At equal N the ordering should be: gamma in (2,3) (ultra-small) "
        "<= gamma=3, m>=2 < gamma=3, m=1 (tree) and gamma>3; every series "
        "should grow slower than linearly in N (logarithmically or "
        "double-logarithmically)."
    ),
    "topology": {"model": "pa"},
    "label": "avg path length vs N",
    "measurement": {
        "kind": "path-length-scaling",
        "params": {
            # (series label, model, exponent, stubs) per table row.
            "rows": [
                ["cm gamma=2.5 m=2", "cm", 2.5, 2],
                ["pa gamma=3 m=2", "pa", 3.0, 2],
                ["pa gamma=3 m=1 (tree)", "pa", 3.0, 1],
                ["cm gamma=3.5 m=2", "cm", 3.5, 2],
            ],
            "sizes": {"default": [500, 1000, 2000, 4000], "smoke": [200, 400],
                      "paper": [1000, 3000, 10000, 30000, 100000]},
        },
    },
})
