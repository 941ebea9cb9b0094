"""Workload inputs, output checks and digests.

Everything a workload feeds the program is derived here from the benchmark
seed: the scenario specs are fixed, the ``ExperimentScale`` seed and the
serve request seeds come from :func:`derive_seed`.  This module does not
import ``repro``; the artefact worker and the serve client both use it.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, List, Mapping, Optional

#: Degree-distribution artefact: HAPA over a kc sweep and DAPA over a
#: locality-horizon sweep (the two generators that dominate ``repro suite``).
GENERATION_SPEC: Dict[str, Any] = {
    "id": "bench-generation",
    "title": "HAPA and DAPA degree distributions under hard cutoffs",
    "panels": [
        {
            "topology": {"model": "hapa", "stubs": 2},
            "sweep": {"axes": {"hard_cutoff": [10, 40]}},
            "label": "hapa m={m}, {kc}",
            "measurement": {"kind": "degree-distribution"},
        },
        {
            "topology": {"model": "dapa", "stubs": 2, "hard_cutoff": 10},
            "sweep": {"axes": {"tau_sub": [2, 4]}},
            "label": "dapa m={m}, {kc}, tau_sub={tau_sub}",
            "measurement": {"kind": "degree-distribution"},
        },
    ],
}

#: Search-curve artefact: FL, NF, PF and RW on PA and CM topologies.
SEARCH_SPEC: Dict[str, Any] = {
    "id": "bench-search",
    "title": "FL, NF, PF and RW hits versus TTL on PA and CM",
    "panels": [
        {
            "topology": {"model": model, "stubs": 2, "exponent": exponent},
            "sweep": {"axes": {"hard_cutoff": [10, 40, None]}},
            "series": [
                {
                    "label": algorithm + " {model} m={m}, {kc}",
                    "measurement": {"kind": "search-curve", "algorithm": algorithm},
                }
                for algorithm in ("fl", "nf", "pf", "rw")
            ],
        }
        for model, exponent in (("pa", 3.0), ("cm", 2.2))
    ],
}

#: The serve request body: a small NF search spec on PA and CM, computed at
#: the ``smoke`` preset.  It has no sweep axes, so one series per panel.
SERVE_SPEC: Dict[str, Any] = {
    "id": "bench-serve",
    "title": "NF hits versus TTL on PA and CM",
    "panels": [
        {
            "topology": {"model": model, "stubs": 2, "hard_cutoff": 10, "exponent": exponent},
            "label": "nf {model} m={m}, {kc}",
            "measurement": {"kind": "search-curve", "algorithm": "nf"},
        }
        for model, exponent in (("pa", 3.0), ("cm", 2.2))
    ],
}
SERVE_SCALE = "smoke"
SERVE_SERIES = len(SERVE_SPEC["panels"])

#: Artefact sizes (``ExperimentScale`` fields besides name and seed), the
#: tiny warm-up size run during set-up, and the nominal seconds one artefact
#: takes on a 2-vCPU VM, which turns ``--seconds`` into a fixed artefact
#: count so every run of a workload does the same work.  The sizes keep
#: about 20 artefacts in a 20 s run; README.md gives the layer mix measured
#: at this size beside the mix at larger ones.
ARTEFACTS: Dict[str, Dict[str, Any]] = {
    "artefact-generation": {
        "spec": GENERATION_SPEC,
        "scale": {"nodes": 420, "search_nodes": 100, "substrate_nodes": 840, "queries": 1},
        "warmup": {"nodes": 60, "search_nodes": 20, "substrate_nodes": 120, "queries": 1},
        "nominal_s": 0.9,
    },
    "artefact-search": {
        "spec": SEARCH_SPEC,
        "scale": {"nodes": 100, "search_nodes": 1400, "substrate_nodes": 1400, "queries": 28},
        "warmup": {"nodes": 20, "search_nodes": 60, "substrate_nodes": 60, "queries": 4},
        "nominal_s": 1.0,
    },
}

#: Serve request pairs per nominal second, which turns ``--seconds`` into a
#: fixed request count.  The mix is the repository's own clients'
#: (``examples/serve_client.py`` and the CI serve job): a cold POST, then
#: the identical POST again, which the store answers.
SERVE_PAIRS_PER_S = 50

WORKLOADS = ("artefact-generation", "artefact-search", "serve-cold-warm")


def derive_seed(seed: int, *labels: object) -> int:
    """A 31-bit seed from the benchmark seed and labels (stable everywhere)."""
    text = "\x1f".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big") % 2**31


def artefact_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ARTEFACTS[workload]["nominal_s"]))


def artefact_scale_fields(workload: str, seed: int, warmup: bool = False) -> Dict[str, Any]:
    """``ExperimentScale`` keyword arguments for one artefact workload."""
    sizes = ARTEFACTS[workload]["warmup" if warmup else "scale"]
    return {"name": "custom", "realizations": 1, "seed": derive_seed(seed, workload), **sizes}


def serve_schedule(seed: int, seconds: float) -> List[Dict[str, Any]]:
    """The closed-loop request list: a cold POST with a fresh seed, then a warm repeat of it."""
    rng = random.Random(derive_seed(seed, "serve-cold-warm"))
    pairs = max(1, round(seconds * SERVE_PAIRS_PER_S))
    seeds: Dict[int, None] = {}
    while len(seeds) < pairs:
        seeds[rng.randrange(2**31)] = None
    return [{"kind": kind, "seed": request_seed} for request_seed in seeds for kind in ("cold", "warm")]


def canonical(payload: Any) -> bytes:
    """The canonical JSON bytes digests and equality checks are taken over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def digest(chunks: List[bytes]) -> str:
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(hashlib.sha256(chunk).digest())
    return hasher.hexdigest()


def check_result(result: Mapping[str, Any], expected_series: int) -> List[str]:
    """Problems found in one artefact result (its ``as_dict()`` form).

    * one series per compiled plan;
    * every degree is at most the series' hard cutoff;
    * every P(k) sums to 1 within 1e-9;
    * FL, NF and PF hits never decrease as the TTL grows (``search_curve``
      reports per-TTL prefixes of one run per source).
    """
    problems: List[str] = []
    series_list = result.get("series", [])
    if len(series_list) != expected_series:
        problems.append(f"{len(series_list)} series for {expected_series} compiled plans")
    for series in series_list:
        label, meta = series["label"], series.get("metadata", {})
        if "algorithm" in meta:
            if meta["algorithm"] in ("fl", "nf", "pf"):
                hits = series["y"]
                if any(later < earlier for earlier, later in zip(hits, hits[1:])):
                    problems.append(f"{label}: hits decrease with TTL")
            continue
        cutoff: Optional[int] = meta.get("hard_cutoff")
        if cutoff is not None and (max(series["x"]) > cutoff or meta.get("max_degree", 0) > cutoff):
            problems.append(f"{label}: degree above kc={cutoff}")
        if abs(sum(series["y"]) - 1.0) > 1e-9:
            problems.append(f"{label}: P(k) sums to {sum(series['y'])!r}")
    return problems


def search_messages(result: Mapping[str, Any]) -> int:
    """Messages sent by a result's search series (``mean_messages`` x queries)."""
    return sum(
        round(series["metadata"]["mean_messages"][-1] * series["metadata"]["queries"])
        for series in result.get("series", [])
        if "mean_messages" in series.get("metadata", {})
    )
