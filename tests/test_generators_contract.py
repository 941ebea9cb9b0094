"""The generators' draw contract, and their edge cases.

For every construction family (PA in both strategies, nonlinear PA, CM
stub matching, HAPA, DAPA) and the GRN substrate, the draw-call counts of
one representative build are pinned, and the shipped build must leave the
shared RNG stream at exactly the position those draws reach, so no change
can silently shift the seeds of anything running afterwards.  Where a
test oracle exists (``tests/oracles/``), the shipped build must give its
graph *byte-identically*: same node insertion order, same edges in the
same per-node neighbor order (pinned through the frozen CSR arrays), and
the same metadata counters.

Also covered here: tight-cutoff builds against their oracles, the PA
saturated-stub bugfix sweep (doomed picks detect in O(m) instead of
burning ``_MAX_REJECTIONS_PER_STUB`` draws, fallback rejections are
accounted, ``strict`` makes min-degree violations loud), the
cross-strategy statistical guard (``attempt`` vs ``roulette``) and the
bulk ``from_edge_array`` constructors.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from oracles import cm as cm_oracle
from oracles import dapa as dapa_oracle
from oracles import grn as grn_oracle
from oracles import hapa as hapa_oracle
from oracles import mesh as mesh_oracle
from oracles import pa as pa_oracle
from repro.core.errors import ConfigurationError, GenerationError
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.generators import pa as pa_module
from repro.generators.cm import ConfigurationModelGenerator, generate_cm
from repro.generators.dapa import DAPAGenerator, generate_dapa
from repro.generators.hapa import HAPAGenerator, generate_hapa
from repro.generators.nonlinear_pa import (
    NonlinearPreferentialAttachmentGenerator,
    generate_nonlinear_pa,
)
from repro.generators.pa import PreferentialAttachmentGenerator, generate_pa
from repro.substrate.grn import GeometricRandomNetwork, generate_grn
from repro.substrate.mesh import MeshNetwork


class _CountingSource(RandomSource):
    """RandomSource subclass counting the draw-method calls that reach it
    (the inlined-draw loops bypass them)."""

    def __init__(self, seed=None):
        super().__init__(seed)
        self.calls = Counter()

    def random(self):
        self.calls["random"] += 1
        return super().random()

    def randint(self, low, high):
        self.calls["randint"] += 1
        return super().randint(low, high)

    def sample(self, items, count):
        self.calls["sample"] += 1
        return super().sample(items, count)

    def shuffle(self, items):
        self.calls["shuffle"] += 1
        return super().shuffle(items)

    def choice(self, items):
        self.calls["choice"] += 1
        return super().choice(items)

    def weighted_index(self, weights):
        self.calls["weighted_index"] += 1
        return super().weighted_index(weights)

    def spawn(self, label=""):
        self.calls["spawn"] += 1
        return super().spawn(label)


#: One representative build per family, callable with an explicit
#: RandomSource.
BUILDERS = {
    "pa": lambda rng: generate_pa(300, stubs=2, hard_cutoff=10, rng=rng),
    "pa-attempt": lambda rng: generate_pa(
        300, stubs=2, hard_cutoff=10, strategy="attempt", rng=rng
    ),
    "nlpa": lambda rng: generate_nonlinear_pa(
        300, stubs=2, exponent_alpha=0.8, hard_cutoff=10, rng=rng
    ),
    "cm": lambda rng: generate_cm(
        300, exponent=2.5, min_degree=2, hard_cutoff=20, rng=rng
    ),
    "hapa": lambda rng: generate_hapa(200, stubs=1, hard_cutoff=8, rng=rng),
    "dapa": lambda rng: generate_dapa(
        150, stubs=2, hard_cutoff=10, local_ttl=4, rng=rng
    ),
}

#: The generator of each representative build that has an oracle.
GENERATOR_BUILDERS = {
    "pa": lambda: PreferentialAttachmentGenerator(300, stubs=2, hard_cutoff=10),
    "cm": lambda: ConfigurationModelGenerator(
        300, exponent=2.5, min_degree=2, hard_cutoff=20
    ),
    "hapa": lambda: HAPAGenerator(200, stubs=1, hard_cutoff=8),
    "dapa": lambda: DAPAGenerator(
        overlay_size=150, stubs=2, hard_cutoff=10, local_ttl=4
    ),
}

#: The build a counting source counts: the oracle where the shipped loop
#: draws from the twister directly (PA's roulette, CM's shuffle, HAPA,
#: DAPA's join picks and attach step), the shipped build elsewhere.
COUNTED_BUILDERS = {
    **BUILDERS,
    "pa": lambda rng: pa_oracle.build_pa(GENERATOR_BUILDERS["pa"](), rng),
    "cm": lambda rng: cm_oracle.build_cm(GENERATOR_BUILDERS["cm"](), rng),
    "hapa": lambda rng: hapa_oracle.build_reference(GENERATOR_BUILDERS["hapa"](), rng),
    "dapa": lambda rng: dapa_oracle.build_dapa(GENERATOR_BUILDERS["dapa"](), rng),
}

#: Draw-call counts of each counted build with seed 2024.  The shipped
#: build must leave a plain stream at the identical position; if an
#: intentional algorithm change alters these, update them in the same
#: commit.
PINNED_DRAWS = {
    "pa": {"randint": 745},
    "pa-attempt": {"randint": 113886, "random": 113886},
    "nlpa": {"weighted_index": 594},
    "cm": {"shuffle": 1},
    "hapa": {"randint": 28497, "random": 18906},
    "dapa": {"spawn": 1, "sample": 1, "randint": 5297, "random": 4905},
}

SEED = 2024


def _assert_byte_identical(expected: Graph, graph: Graph) -> None:
    """Same nodes in the same order, same edges in the same neighbor order."""
    assert expected.nodes() == graph.nodes()
    frozen_expected = expected.freeze()
    frozen = graph.freeze()
    assert np.array_equal(frozen_expected._indptr, frozen._indptr)
    assert np.array_equal(frozen_expected._indices, frozen._indices)
    if frozen_expected._ids is None:
        assert frozen._ids is None
    else:
        assert np.array_equal(frozen_expected._ids, frozen._ids)


def _assert_instrumented_builds_plain(build) -> None:
    """A counting subclass and a plain source build the byte-identical
    graph and end at the same stream position: the loops draw from the
    twister underneath any overridden method."""
    plain, counted = RandomSource(seed=SEED), _CountingSource(SEED)
    expected = build(plain)
    graph = build(counted)
    _assert_byte_identical(expected, graph)
    assert counted.getstate() == plain.getstate()


def _assert_matches_oracle(build, oracle_build, seed: int = SEED) -> None:
    """The shipped build gives the oracle's graph and stream position."""
    rng, oracle_rng = RandomSource(seed=seed), RandomSource(seed=seed)
    graph = build(rng)
    expected = oracle_build(oracle_rng)
    if isinstance(expected, tuple):
        expected = expected[0]
    _assert_byte_identical(expected, graph)
    assert rng.random() == oracle_rng.random()


#: The models whose counted build is an oracle, not the shipped build.
ORACLE_MODELS = sorted(GENERATOR_BUILDERS)


class TestDrawContract:
    """Pinned draw counts, instrumented sources, and the oracles."""

    @pytest.mark.parametrize("model", ORACLE_MODELS)
    def test_graph_and_stream_position_match_the_oracle(self, model):
        _assert_matches_oracle(BUILDERS[model], COUNTED_BUILDERS[model])

    @pytest.mark.parametrize("model", ORACLE_MODELS)
    def test_metadata_matches_the_oracle(self, model):
        """The shipped generator reports the oracle's counters; DAPA's
        substrate graph, part of its metadata, is the oracle's as well."""
        result = GENERATOR_BUILDERS[model]().generate(RandomSource(seed=SEED))
        _, expected = COUNTED_BUILDERS[model](RandomSource(seed=SEED))
        metadata, expected = dict(result.metadata), dict(expected)
        if "substrate_graph" in expected:
            _assert_byte_identical(
                expected.pop("substrate_graph"), metadata.pop("substrate_graph")
            )
        assert metadata == expected

    @pytest.mark.parametrize("model", sorted(BUILDERS))
    def test_pinned_draw_counts(self, model):
        counted = _CountingSource(SEED)
        COUNTED_BUILDERS[model](counted)
        assert dict(counted.calls) == PINNED_DRAWS[model]
        rng = RandomSource(seed=SEED)
        BUILDERS[model](rng)
        assert rng.getstate() == counted.getstate()

    @pytest.mark.parametrize("model", sorted(BUILDERS))
    def test_instrumented_sources_build_the_plain_graph(self, model):
        _assert_instrumented_builds_plain(BUILDERS[model])


class TestTightCutoffEdgeCases:
    """Saturation-heavy configurations still match their oracles."""

    CASES = [
        # (n, m, kc): kc = m + 1 keeps most of the network saturated.
        (150, 1, 2),
        (80, 2, 3),
        (40, 3, 4),
        (300, 2, None),
    ]

    @pytest.mark.parametrize("n,m,kc", CASES)
    def test_pa_saturated(self, n, m, kc):
        _assert_matches_oracle(
            lambda rng: generate_pa(n, stubs=m, hard_cutoff=kc, rng=rng),
            lambda rng: pa_oracle.build_pa(
                PreferentialAttachmentGenerator(n, stubs=m, hard_cutoff=kc), rng
            ),
            seed=31,
        )

    def test_pa_complete_graph_request(self):
        # n == m + 1: the seed clique is the whole graph, no growth phase.
        graph = generate_pa(4, stubs=3, rng=RandomSource(seed=1))
        assert graph.number_of_edges == 6
        assert graph.min_degree() == 3

    def test_hapa_small_hop_budget(self):
        _assert_matches_oracle(
            lambda rng: generate_hapa(
                120, stubs=2, hard_cutoff=3, max_hops_per_stub=5, rng=rng
            ),
            lambda rng: hapa_oracle.build_reference(
                HAPAGenerator(120, stubs=2, hard_cutoff=3, max_hops_per_stub=5), rng
            ),
            seed=5,
        )

    def test_cm_minimal_sequence(self):
        sequence = [1, 1, 2, 2, 1, 1]
        graph = generate_cm(6, degree_sequence=sequence, rng=RandomSource(seed=3))
        assert graph.number_of_nodes == 6

    def test_dapa_target_equals_initial_peers(self):
        graph = generate_dapa(
            20, stubs=1, initial_peers=20, local_ttl=2, rng=RandomSource(seed=2)
        )
        assert graph.number_of_nodes == 20


class TestPASaturationBugfixes:
    """The PA roulette sweep: doomed picks, accounting, strict mode."""

    def test_doomed_pick_consumes_no_draws(self):
        # kc == m + 1: a joining node's second pick is often doomed (its
        # first peer holds the only live slots).  Every slot draw is a
        # rejection or a placed growth edge; a doomed pick that drew would
        # burn _MAX_REJECTIONS_PER_STUB rejections on its own.  The shipped
        # loop draws from the twister directly, so the oracle's randint
        # calls count the slot draws, and the shipped build must end at the
        # oracle's stream position.
        generator = PreferentialAttachmentGenerator(30, stubs=2, hard_cutoff=3)
        oracle_rng = _CountingSource(seed=12)
        pa_oracle.build_roulette(generator, oracle_rng)
        rng = RandomSource(seed=12)
        graph, metadata = generator._build_roulette(rng)
        assert rng.getstate() == oracle_rng.getstate()
        assert metadata["unfilled_stubs"] > 0
        growth_edges = graph.number_of_edges - 3
        assert oracle_rng.calls["randint"] == growth_edges + metadata["rejected_attempts"]
        assert metadata["rejected_attempts"] < pa_module._MAX_REJECTIONS_PER_STUB
        assert oracle_rng.calls["weighted_index"] == 0, "a doomed pick reached the scan"

    def test_doomed_build_is_fast_and_degenerates_loudly_in_strict_mode(self):
        # kc == m + 1 with m == 2: after the seed clique every node pair is
        # quickly saturated; the build must terminate without rejection
        # storms and strict mode must refuse the degenerate result.
        generator = PreferentialAttachmentGenerator(
            30, stubs=2, hard_cutoff=3, strict=False
        )
        result = generator.generate(RandomSource(seed=12))
        assert result.metadata["unfilled_stubs"] > 0
        assert result.metadata["min_degree_violations"] > 0
        with pytest.raises(GenerationError, match="unfilled"):
            PreferentialAttachmentGenerator(
                30, stubs=2, hard_cutoff=3, strict=True
            ).generate(RandomSource(seed=12))

    def test_strict_accepts_clean_builds(self):
        graph = generate_pa(200, stubs=2, hard_cutoff=10, seed=3, strict=True)
        assert graph.min_degree() >= 2

    def test_min_degree_violations_in_metadata(self):
        result = PreferentialAttachmentGenerator(200, stubs=2, hard_cutoff=10).generate(
            RandomSource(seed=3)
        )
        assert result.metadata["min_degree_violations"] == 0

    def test_fallback_scan_counts_zero_rejections_when_loop_disabled(self, monkeypatch):
        # With the rejection loop disabled every stub goes through the
        # degree-weighted fallback scan; the build must still satisfy the
        # model exactly and report the (zero) rejections it burned.
        monkeypatch.setattr(pa_module, "_MAX_REJECTIONS_PER_STUB", 0)
        generator = PreferentialAttachmentGenerator(60, stubs=2, hard_cutoff=10)
        graph, metadata = generator._build_roulette(RandomSource(seed=4))
        assert metadata["rejected_attempts"] == 0
        assert metadata["unfilled_stubs"] == 0
        assert graph.min_degree() >= 2
        assert graph.max_degree() <= 10


class TestSeedCliqueValidation:
    """Seed-clique edge cases fail eagerly instead of degenerating."""

    def test_pa_cutoff_equal_to_stubs_rejected_for_growing_network(self):
        with pytest.raises(ConfigurationError, match="exceed stubs"):
            PreferentialAttachmentGenerator(10, stubs=2, hard_cutoff=2)

    def test_pa_cutoff_equal_to_stubs_allowed_for_complete_graph(self):
        graph = PreferentialAttachmentGenerator(
            3, stubs=2, hard_cutoff=2
        ).generate_graph(RandomSource(seed=1))
        assert graph.number_of_edges == 3

    def test_hapa_cutoff_equal_to_stubs_allowed_for_complete_graph(self):
        graph = HAPAGenerator(3, stubs=2, hard_cutoff=2).generate_graph(
            RandomSource(seed=1)
        )
        assert graph.number_of_edges == 3

    def test_stubs_not_below_network_size(self):
        with pytest.raises(ConfigurationError):
            PreferentialAttachmentGenerator(3, stubs=3)
        with pytest.raises(ConfigurationError):
            HAPAGenerator(3, stubs=3)

    def test_attempt_strategy_empty_seed_raises(self, monkeypatch):
        # total_degree == 0 is unreachable through validated configs; force
        # it by faking an edgeless seed clique and pin the loud failure.
        generator = PreferentialAttachmentGenerator(6, stubs=1, strategy="attempt")
        monkeypatch.setattr(
            pa_module.Graph, "complete", classmethod(lambda cls, n: cls(n))
        )
        with pytest.raises(GenerationError, match="edgeless"):
            generator.generate(RandomSource(seed=1))


#: One representative build per stochastic substrate family; mesh is
#: deterministic and covered separately.  The torus case pins the
#: wrapped-neighbor-cell dedupe (cells_per_side == 1 maps every ±1 offset
#: onto the home cell).
SUBSTRATE_BUILDERS = {
    "grn": lambda rng: generate_grn(400, radius=0.1, rng=rng),
    "grn-torus": lambda rng: generate_grn(60, radius=0.6, torus=True, rng=rng),
}

#: The build a counting source counts: the GRN's oracle (the shipped
#: build draws its positions from the twister directly).
SUBSTRATE_COUNTED_BUILDERS = {
    "grn": lambda rng: grn_oracle.build_grn(GeometricRandomNetwork(400, radius=0.1), rng),
    "grn-torus": lambda rng: grn_oracle.build_grn(
        GeometricRandomNetwork(60, radius=0.6, torus=True), rng
    ),
}

SUBSTRATE_PINNED_DRAWS = {
    "grn": {"random": 800},
    "grn-torus": {"random": 120},
}


class TestSubstrateDrawContract:
    """Substrate builders: pinned draws, instrumented sources, oracles."""

    @pytest.mark.parametrize("name", sorted(SUBSTRATE_BUILDERS))
    def test_graph_and_stream_position_match_the_oracle(self, name):
        _assert_matches_oracle(
            SUBSTRATE_BUILDERS[name], SUBSTRATE_COUNTED_BUILDERS[name]
        )

    @pytest.mark.parametrize("name", sorted(SUBSTRATE_BUILDERS))
    def test_pinned_draw_counts(self, name):
        counted = _CountingSource(SEED)
        SUBSTRATE_COUNTED_BUILDERS[name](counted)
        assert dict(counted.calls) == SUBSTRATE_PINNED_DRAWS[name]
        rng = RandomSource(seed=SEED)
        SUBSTRATE_BUILDERS[name](rng)
        assert rng.getstate() == counted.getstate()

    @pytest.mark.parametrize("name", sorted(SUBSTRATE_BUILDERS))
    def test_instrumented_sources_build_the_plain_graph(self, name):
        _assert_instrumented_builds_plain(SUBSTRATE_BUILDERS[name])

    def test_mesh_vectorized_build_matches_reference(self):
        cases = [
            (5, 7, False), (5, 7, True), (2, 2, True), (2, 6, True),
            (4, 2, True), (3, 3, True),
        ]
        for rows, columns, torus in cases:
            mesh = MeshNetwork(rows, columns, torus=torus)
            reference = mesh_oracle.build_mesh(mesh)
            vectorized = mesh.build(RandomSource(seed=1))
            _assert_byte_identical(reference, vectorized)


class TestNlpaBugfixes:
    """The nlpa eligibility-bias fix and the strict/metadata hardening."""

    def test_isolated_nodes_reachable_in_uniform_limit(self):
        # alpha == 0 is uniform attachment: k**0 == 1 for everyone,
        # *including* degree-0 nodes.  The old eligibility filter silently
        # excluded them, biasing the uniform limit; with the fix, a node
        # that somehow ends up isolated can still be attached to.
        generator = NonlinearPreferentialAttachmentGenerator(
            120, stubs=1, exponent_alpha=0.0
        )
        graph, metadata = generator._build_reference(RandomSource(seed=13))
        assert metadata["unfilled_stubs"] == 0
        assert graph.min_degree() >= 1

    def test_uniform_limit_weights_are_uniform(self):
        # Direct distribution check of the fix: under alpha == 0 every
        # non-neighbor below the cutoff must be drawable, so across many
        # seeds the early nodes' attachment frequencies stay comparable
        # (the old filter would zero out freshly-degenerate nodes).
        counts = Counter()
        for seed in range(40):
            graph = generate_nonlinear_pa(
                30, stubs=1, exponent_alpha=0.0, seed=seed
            )
            for node in range(2):
                counts[node] += graph.degree(node)
        assert counts[0] > 0 and counts[1] > 0
        ratio = counts[0] / counts[1]
        assert 0.4 < ratio < 2.5, f"uniform limit biased: {dict(counts)}"

    def test_strict_raises_on_unfilled_stubs(self):
        # A tight cutoff starves later stubs; strict mode must refuse the
        # degenerate topology instead of returning it silently.
        strict = NonlinearPreferentialAttachmentGenerator(
            60, stubs=2, exponent_alpha=1.0, hard_cutoff=3, strict=True
        )
        lenient = NonlinearPreferentialAttachmentGenerator(
            60, stubs=2, exponent_alpha=1.0, hard_cutoff=3, strict=False
        )
        result = lenient.generate(RandomSource(seed=21))
        # Later arrivals can heal a node whose own stub went unfilled, so
        # min_degree_violations may come out zero; the unfilled count alone
        # is what strict mode keys on.
        assert result.metadata["unfilled_stubs"] > 0
        with pytest.raises(GenerationError, match="unfilled"):
            strict.generate(RandomSource(seed=21))

    def test_strict_accepts_clean_builds(self):
        graph = generate_nonlinear_pa(
            150, stubs=2, exponent_alpha=0.8, hard_cutoff=20, seed=5, strict=True
        )
        assert graph.min_degree() >= 2

    def test_cutoff_equal_to_stubs_rejected_for_growing_network(self):
        with pytest.raises(ConfigurationError, match="exceed stubs"):
            NonlinearPreferentialAttachmentGenerator(10, stubs=2, hard_cutoff=2)

    def test_unfilled_stubs_always_in_metadata(self):
        result = NonlinearPreferentialAttachmentGenerator(
            80, stubs=2, exponent_alpha=1.2, hard_cutoff=30
        ).generate(RandomSource(seed=8))
        assert result.metadata["unfilled_stubs"] == 0
        assert result.metadata["min_degree_violations"] == 0


class TestCrossStrategyStatisticalGuard:
    """'attempt' and 'roulette' draw from the same attachment distribution."""

    def test_mean_degree_and_distribution_agree(self):
        n, m, kc = 500, 2, 20
        pooled = {"roulette": Counter(), "attempt": Counter()}
        means = {"roulette": [], "attempt": []}
        for strategy in pooled:
            for seed in range(5):
                graph = generate_pa(
                    n, stubs=m, hard_cutoff=kc, seed=seed, strategy=strategy
                )
                assert graph.max_degree() <= kc
                pooled[strategy].update(graph.degree_sequence())
                means[strategy].append(graph.mean_degree())
        mean_roulette = sum(means["roulette"]) / len(means["roulette"])
        mean_attempt = sum(means["attempt"]) / len(means["attempt"])
        # Both strategies fill (almost) all m stubs per node: <k> ~ 2m.
        assert abs(mean_roulette - mean_attempt) < 0.1 * 2 * m
        # Total-variation distance between the pooled degree distributions.
        total = n * 5
        support = set(pooled["roulette"]) | set(pooled["attempt"])
        tv_distance = 0.5 * sum(
            abs(
                pooled["roulette"][k] / total - pooled["attempt"][k] / total
            )
            for k in support
        )
        assert tv_distance < 0.1, f"strategies diverged: TV={tv_distance:.3f}"


class TestBulkConstructors:
    """Graph.from_edge_array / CSRGraph.from_edge_arrays ingestion paths."""

    def test_from_edge_array_matches_incremental(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 1), (3, 0)]
        incremental = Graph(4)
        for u, v in edges:
            incremental.add_edge(u, v)
        bulk = Graph.from_edge_array(
            4,
            np.array([edge[0] for edge in edges]),
            np.array([edge[1] for edge in edges]),
        )
        assert bulk == incremental
        for node in range(4):
            assert bulk.iter_neighbors(node) == incremental.iter_neighbors(node)

    def test_from_edge_array_rejects_self_loops_and_duplicates(self):
        with pytest.raises(Exception, match="self-loop"):
            Graph.from_edge_array(3, np.array([0, 1]), np.array([0, 2]))
        with pytest.raises(Exception, match="duplicate"):
            Graph.from_edge_array(3, np.array([0, 1, 0]), np.array([1, 2, 1]))

    def test_cached_freeze_is_byte_identical_and_invalidated(self):
        bulk = Graph.from_edge_array(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
        frozen_cached = bulk.freeze()
        rebuilt = bulk.copy().freeze()  # copy() drops the cache
        assert np.array_equal(frozen_cached._indptr, rebuilt._indptr)
        assert np.array_equal(frozen_cached._indices, rebuilt._indices)
        bulk.add_edge(0, 3)
        frozen_after = bulk.freeze()
        assert frozen_after.has_edge(0, 3)
        assert not frozen_cached.has_edge(0, 3)

    def test_csr_from_edge_arrays(self):
        from repro.core.csr import CSRGraph

        edges = [(0, 1), (1, 2), (0, 2), (3, 1)]
        reference = Graph(4)
        for u, v in edges:
            reference.add_edge(u, v)
        direct = CSRGraph.from_edge_arrays(
            4,
            np.array([edge[0] for edge in edges]),
            np.array([edge[1] for edge in edges]),
        )
        frozen = reference.freeze()
        assert np.array_equal(direct._indptr, frozen._indptr)
        assert np.array_equal(direct._indices, frozen._indices)
