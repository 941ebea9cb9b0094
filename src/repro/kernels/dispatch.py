"""Kernel-tier selection: the platform picks the tier.

Two tiers, one result:

``jit``
    The compiled kernels of :mod:`repro.kernels.search`,
    :mod:`repro.kernels.generators` and :mod:`repro.kernels.substrate`.
    Chosen when numba imports *and* :func:`kernel_self_check` has
    verified, in-process, that the kernel stack reproduces CPython's RNG
    stream and the reference algorithms' exact results on probe graphs.
``python``
    The algorithms' own Python loops, one per algorithm — always
    available, and chosen whenever numba is missing or the self-check
    fails, with a once-per-process :class:`RuntimeWarning` saying why.

:func:`kernel_tier` applies that rule — the same
gate-on-import-else-fall-back policy as the SciPy path in
:mod:`repro.core.csr` — and :func:`kernel_ready` is the one gate the
search classes (``layer="search"``) and the topology generators and
substrate builders (``"generation"``) consult.  Every process, engine
workers included, resolves the same tier from the same platform, so
nothing about the tier travels with a task.  The probes are lazy (first
kernel-eligible query, not package import) and cached for the process, so
``repro --help`` never pays for a numba import.
"""

from __future__ import annotations

import os
import sys
import warnings
from typing import Dict, Literal

from repro.core.rng import RandomSource, raw_stream
from repro.telemetry.collector import (
    NULL_TELEMETRY,
    active_telemetry,
    telemetry_clock,
    use_telemetry,
)

__all__ = [
    "numba_available",
    "kernel_self_check",
    "kernel_tier",
    "kernel_ready",
    "kernels_runtime",
    "probe_status",
]

#: Cached probe results (per process): numba importability, self-check
#: verdict, and the self-check failure reason for diagnostics.
_PROBE: Dict[str, object] = {}


# --------------------------------------------------------------------------- #
# Capability probing
# --------------------------------------------------------------------------- #
def numba_available() -> bool:
    """True when numba imports (probed once, lazily, per process)."""
    if "numba" not in _PROBE:
        try:
            from repro.kernels._compat import NUMBA_AVAILABLE

            _PROBE["numba"] = bool(NUMBA_AVAILABLE)
        except Exception:  # pragma: no cover - broken numba install
            _PROBE["numba"] = False
    return bool(_PROBE["numba"])


def _parity_self_check() -> "tuple[bool, str]":
    """Verify the kernel stack against the python tier, end to end.

    Checks (1) MT19937 stream parity with :class:`random.Random` for a few
    seeds, and (2) that each stochastic kernel reproduces its algorithm's
    python loop — curves, visited set, ``found_at``, and final stream
    position — on a probe graph (the mutable one, so ``run`` never reaches
    the kernel gate).  Runs the *installed* kernel functions
    (compiled under numba, interpreted otherwise), so a miscompilation is
    caught here and demotes the tier to ``python``.
    """
    import random

    from repro.core.graph import Graph
    from repro.kernels import mt19937 as mt
    from repro.kernels import search as kernels
    from repro.search.normalized_flooding import NormalizedFloodingSearch
    from repro.search.probabilistic_flooding import ProbabilisticFloodingSearch
    from repro.search.random_walk import RandomWalkSearch

    for seed in (0, 20070611, 2**40 + 123):
        state = mt.mt_state_from_seed(seed)
        reference = random.Random(seed)
        for _ in range(25):
            if mt.mt_random(state) != reference.random():
                return False, f"mt_random diverged for seed {seed}"
        for bound in (1, 2, 7, 100, 2**20 + 7):
            if int(mt.mt_randbelow(state, bound)) != reference.randrange(bound):
                return False, f"mt_randbelow({bound}) diverged for seed {seed}"
        if mt.state_to_internal(state) != reference.getstate()[1]:
            return False, f"stream position diverged for seed {seed}"

    graph = Graph.from_edges(
        12,
        [
            (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 6), (2, 7),
            (3, 8), (4, 9), (5, 10), (6, 7), (8, 9), (10, 11), (1, 3), (2, 4),
        ],
    )
    frozen = graph.freeze()
    probes = (
        ("nf", lambda rng: NormalizedFloodingSearch(k_min=2).run(graph, 0, 5, rng, 7),
         lambda rng: kernels.nf_query(frozen, 0, 5, rng, 2, False, 7)),
        ("pf", lambda rng: ProbabilisticFloodingSearch(0.6).run(graph, 0, 5, rng, 7),
         lambda rng: kernels.pf_query(frozen, 0, 5, rng, 0.6, False, 7)),
        ("rw", lambda rng: RandomWalkSearch(walkers=2).run(graph, 0, 8, rng, 7),
         lambda rng: kernels.rw_query(frozen, 0, 8, rng, 2, False, False, 7)),
    )
    for name, run_python, run_kernel in probes:
        rng_ref = RandomSource(seed=97)
        rng_kernel = RandomSource(seed=97)
        result = run_python(rng_ref)
        hits, messages, visited, found_at = run_kernel(rng_kernel)
        if (
            hits != result.hits_per_ttl
            or messages != result.messages_per_ttl
            or visited != result.visited
            or found_at != result.found_at
        ):
            return False, f"{name} kernel diverged from the reference"
        if rng_ref.random() != rng_kernel.random():
            return False, f"{name} kernel left the stream at a different position"
    passed, reason = _generation_parity_check()
    if not passed:
        return passed, reason
    return _substrate_parity_check()


def _graphs_identical(reference, subject) -> bool:
    """Same nodes in order, same edges in the same neighbor order."""
    import numpy as np

    if reference.nodes() != subject.nodes():
        return False
    frozen_reference, frozen_subject = reference.freeze(), subject.freeze()
    return bool(
        np.array_equal(frozen_reference._indptr, frozen_subject._indptr)
        and np.array_equal(frozen_reference._indices, frozen_subject._indices)
    )


def _generation_parity_check() -> "tuple[bool, str]":
    """The generation probe: every generator kernel family (PA growth in
    both the roulette and paper-literal attempt strategies, nonlinear PA,
    CM stub matching, HAPA hop-and-attempt, DAPA discovery) must reproduce
    its python loop — edges, neighbor order, metadata counters, and final
    stream position — on small topologies.

    Runs the *installed* kernel functions, like the search probes; a
    miscompiled or drifted generator kernel demotes the tier to ``python``
    for the whole process.  The python side goes through the
    dispatch-free ``_build_*``/``_grow_overlay``/``_stub_matching`` bodies
    (calling the dispatching ``_build`` here would recurse into this very
    check).
    """
    from repro.core.graph import Graph
    from repro.generators.pa import PreferentialAttachmentGenerator
    from repro.kernels import generators as generator_kernels

    pa = PreferentialAttachmentGenerator(48, stubs=2, hard_cutoff=5)
    rng_ref = RandomSource(seed=53)
    rng_kernel = RandomSource(seed=53)
    graph_ref, meta_ref = pa._build_roulette(rng_ref)
    graph_kernel, meta_kernel = generator_kernels.pa_roulette_build(
        pa.config, rng_kernel
    )
    if not _graphs_identical(graph_ref, graph_kernel) or meta_ref != meta_kernel:
        return False, "pa generation kernel diverged from the reference"
    if rng_ref.random() != rng_kernel.random():
        return False, "pa generation kernel left the stream at a different position"

    from repro.generators.cm import ConfigurationModelGenerator

    sequence = [2, 3, 2, 1, 2, 2, 3, 1]
    rng_ref = RandomSource(seed=71)
    rng_kernel = RandomSource(seed=71)
    cm_ref = ConfigurationModelGenerator._stub_matching(sequence, rng_ref)
    cm_kernel = generator_kernels.cm_stub_matching_build(sequence, rng_kernel)
    if not _graphs_identical(cm_ref[0], cm_kernel[0]) or cm_ref[1:] != cm_kernel[1:]:
        return False, "cm generation kernel diverged from the reference"
    if rng_ref.random() != rng_kernel.random():
        return False, "cm generation kernel left the stream at a different position"

    from repro.generators.hapa import HAPAGenerator

    hapa = HAPAGenerator(40, stubs=2, hard_cutoff=5)
    rng_ref = RandomSource(seed=37)
    rng_kernel = RandomSource(seed=37)
    graph_ref, meta_ref = hapa._build_fast(raw_stream(rng_ref), rng_ref)
    graph_kernel, meta_kernel = generator_kernels.hapa_build(
        hapa.config, rng_kernel
    )
    if not _graphs_identical(graph_ref, graph_kernel) or meta_ref != meta_kernel:
        return False, "hapa generation kernel diverged from the reference"
    if rng_ref.random() != rng_kernel.random():
        return False, "hapa generation kernel left the stream at a different position"

    from repro.generators.dapa import DAPAGenerator

    ring = 30
    substrate = Graph.from_edges(
        ring,
        [(index, (index + 1) % ring) for index in range(ring)]
        + [(index, (index + 7) % ring) for index in range(ring)],
    )
    dapa = DAPAGenerator(
        overlay_size=15, stubs=2, hard_cutoff=4, local_ttl=2,
        substrate_graph=substrate,
    )
    rng_ref = RandomSource(seed=29)
    rng_kernel = RandomSource(seed=29)
    graph_ref, meta_ref = dapa._grow_overlay(substrate, rng_ref)
    graph_kernel, meta_kernel = generator_kernels.dapa_build(
        dapa.config, substrate, rng_kernel
    )
    meta_ref.pop("substrate_graph", None)
    meta_kernel.pop("substrate_graph", None)
    if not _graphs_identical(graph_ref, graph_kernel) or meta_ref != meta_kernel:
        return False, "dapa generation kernel diverged from the reference"
    if rng_ref.random() != rng_kernel.random():
        return False, "dapa generation kernel left the stream at a different position"

    pa_attempt = PreferentialAttachmentGenerator(
        40, stubs=2, hard_cutoff=6, strategy="attempt"
    )
    rng_ref = RandomSource(seed=59)
    rng_kernel = RandomSource(seed=59)
    graph_ref, meta_ref = pa_attempt._build_attempt(rng_ref)
    graph_kernel, meta_kernel = generator_kernels.pa_attempt_build(
        pa_attempt.config, rng_kernel
    )
    if not _graphs_identical(graph_ref, graph_kernel) or meta_ref != meta_kernel:
        return False, "pa attempt generation kernel diverged from the reference"
    if rng_ref.random() != rng_kernel.random():
        return False, (
            "pa attempt generation kernel left the stream at a different position"
        )

    from repro.generators.nonlinear_pa import NonlinearPreferentialAttachmentGenerator

    nlpa = NonlinearPreferentialAttachmentGenerator(
        40, stubs=2, exponent_alpha=0.8, hard_cutoff=6
    )
    rng_ref = RandomSource(seed=61)
    rng_kernel = RandomSource(seed=61)
    graph_ref, meta_ref = nlpa._build_reference(rng_ref)
    graph_kernel, meta_kernel = generator_kernels.nlpa_build(
        nlpa.config, nlpa.exponent_alpha, rng_kernel
    )
    if not _graphs_identical(graph_ref, graph_kernel) or meta_ref != meta_kernel:
        return False, "nlpa generation kernel diverged from the reference"
    if rng_ref.random() != rng_kernel.random():
        return False, "nlpa generation kernel left the stream at a different position"
    return True, ""


def _substrate_parity_check() -> "tuple[bool, str]":
    """The substrate probe: the GRN cell-grid sweep — in the plain unit box
    and on a small-grid torus, where the ±1 offsets wrap onto the same
    neighbor cell and the dedupe logic matters — and the ER skip loop must
    reproduce their python-tier builds (the GRN's numpy sweep, the ER
    reference loop): edges, neighbor order, positions, and final stream
    position.
    """
    from repro.kernels import substrate as substrate_kernels
    from repro.substrate.grn import GeometricRandomNetwork
    from repro.substrate.random_graph import ErdosRenyiNetwork

    grn_cases = (
        ("grn", dict(number_of_nodes=60, radius=0.2)),
        ("grn-torus", dict(number_of_nodes=25, radius=0.6, torus=True)),
    )
    for name, kwargs in grn_cases:
        builder = GeometricRandomNetwork(**kwargs)
        rng_ref = RandomSource(seed=67)
        rng_kernel = RandomSource(seed=67)
        graph_ref = builder._build_python(rng_ref)
        positions_ref = dict(builder.positions)
        graph_kernel, positions = substrate_kernels.grn_build_arrays(
            builder.config, rng_kernel
        )
        positions_kernel = {
            node: tuple(row) for node, row in enumerate(positions.tolist())
        }
        if (
            not _graphs_identical(graph_ref, graph_kernel)
            or positions_ref != positions_kernel
        ):
            return False, f"{name} substrate kernel diverged from the reference"
        if rng_ref.random() != rng_kernel.random():
            return False, (
                f"{name} substrate kernel left the stream at a different position"
            )

    er = ErdosRenyiNetwork(80, edge_probability=0.07)
    rng_ref = RandomSource(seed=73)
    rng_kernel = RandomSource(seed=73)
    graph_ref = er._build_reference(rng_ref, 0.07)
    graph_kernel = substrate_kernels.er_build(80, 0.07, rng_kernel)
    if not _graphs_identical(graph_ref, graph_kernel):
        return False, "er substrate kernel diverged from the reference"
    if rng_ref.random() != rng_kernel.random():
        return False, "er substrate kernel left the stream at a different position"
    return True, ""


def kernel_self_check() -> bool:
    """Return (and cache) the parity self-check verdict for this process.

    The first run is also where numba compiles every kernel, so its wall
    time is recorded (``_PROBE["self_check_seconds"]``, and a
    ``kernel-compile`` span when a telemetry collector is active) — that is
    the "compile tax" the trace and the runtime provenance surface.
    """
    if "self_check" not in _PROBE:
        with active_telemetry().span("kernel-compile"):
            started = telemetry_clock()
            try:
                # The probe's reference queries are infrastructure, not
                # workload: mute telemetry so they don't pollute the
                # search/generation counters and histograms.  The
                # kernel-compile span above still charges the probe's wall
                # time to the active collector.
                with use_telemetry(NULL_TELEMETRY):
                    passed, reason = _parity_self_check()
            except Exception as error:  # kernel import/compile failure
                passed, reason = False, f"{type(error).__name__}: {error}"
            _PROBE["self_check_seconds"] = telemetry_clock() - started
        _PROBE["self_check"] = passed
        _PROBE["self_check_failure"] = reason
    return bool(_PROBE["self_check"])


def self_check_failure() -> str:
    """Why the self-check failed (empty string when it passed / never ran)."""
    kernel_self_check()
    return str(_PROBE.get("self_check_failure", ""))


#: One-time-per-process guard for tier-fallback warnings, so a suite with
#: thousands of queries reports its effective tier exactly once.
_TIER_WARNINGS: "set[str]" = set()

#: Frames whose file starts with this prefix belong to the ``repro`` package.
_PACKAGE_PREFIX = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep


def _warn_tier(key: str, message: str) -> None:
    if key in _TIER_WARNINGS:
        return
    _TIER_WARNINGS.add(key)
    # Attribute the warning to the first frame outside the package (the
    # fallback fires at different depths: a generator build, a search, a
    # CLI run), walking the stack because Python < 3.12 has no
    # ``skip_file_prefixes``.
    frame, stacklevel = sys._getframe(), 1
    while frame.f_back is not None and frame.f_code.co_filename.startswith(
        _PACKAGE_PREFIX
    ):
        frame, stacklevel = frame.f_back, stacklevel + 1
    warnings.warn(message, RuntimeWarning, stacklevel=stacklevel)
    # The warning is once-per-process by design; make it observable too:
    # a structured log record (stamped with the active trace id, so a slow
    # python-tier request is attributable) and a counter family.
    from repro.telemetry.logs import get_logger

    get_logger("repro.kernels").warning(
        "kernel-fallback", reason=key, message=message
    )
    active_telemetry().count(f"kernels.fallback.{key}")


def kernel_tier() -> str:
    """The process's kernel tier: ``jit`` only when numba imports and the
    parity self-check passes, else ``python``.

    The fallback is not silent: the first resolution that lands on
    ``python`` says why (numba missing, or the parity self-check failed)
    with a one-line :class:`RuntimeWarning`.
    """
    if not numba_available():
        _warn_tier(
            "auto-no-numba",
            "kernels: auto resolved to the python tier (numba is not "
            "installed; pip install numba for compiled kernels)",
        )
        return "python"
    if not kernel_self_check():
        _warn_tier(
            "auto-self-check",
            "kernels: auto resolved to the python tier (jit self-check "
            f"failed: {self_check_failure()})",
        )
        return "python"
    return "jit"


def kernel_ready(layer: Literal["search", "generation"]) -> bool:
    """Should ``layer``'s work go to the kernel tier?

    ``layer`` is the caller's family — ``search`` (CSR stochastic queries)
    or ``generation`` (topology and substrate builds) — and names the
    ``kernels.<layer>.<tier>`` counter the decision is recorded under.
    True exactly when :func:`kernel_tier` is ``jit``, whatever the source:
    the kernels splice the state of its twister
    (:func:`~repro.core.rng.raw_stream`), past any overridden draw method.
    """
    ready = kernel_tier() == "jit"
    telemetry = active_telemetry()
    if telemetry.enabled:
        telemetry.count(f"kernels.{layer}.{'jit' if ready else 'python'}")
    return ready


def kernels_runtime() -> str:
    """Human-readable description of the process's kernel tier."""
    if kernel_tier() != "jit":
        return "python"
    from repro.kernels._compat import NUMBA_VERSION

    return f"jit (numba {NUMBA_VERSION})"


def probe_status() -> Dict[str, object]:
    """The cached probe state, *without* triggering the probe.

    Reports (JSON-friendly) whether numba import / self-check have run this
    process and what they concluded, plus the self-check wall time (the
    numba compile tax).  Telemetry reports use this so that rendering a
    ``--json`` block never pays for a kernel compilation the run itself
    did not need.
    """
    return {
        "numba": _PROBE.get("numba"),
        "self_check": _PROBE.get("self_check"),
        "self_check_failure": _PROBE.get("self_check_failure", ""),
        "self_check_seconds": _PROBE.get("self_check_seconds"),
    }
