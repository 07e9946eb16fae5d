"""Tests for Algorithm 1 (knowledge acquisition) and the information network."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import CorpusConfig, CorpusGenerator, Experience, ExperienceSet, Paper
from repro.core.knowledge import KnowledgeAcquisition, acquire_knowledge
from repro.evaluation import PerformanceTable

GOLDEN_FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "knowledge_networks.json"
GOLDEN_SEEDS = (0, 1, 2)


def build_corpus(experiences, papers=None) -> ExperienceSet:
    """Helper: corpus with papers p1 (least reliable) .. pN (most reliable)."""
    paper_ids = {e[0] for e in experiences}
    if papers is None:
        papers = [
            Paper(
                paper_id=pid,
                level="D",
                paper_type="Conference",
                influence_factor=float(i),  # higher index = more reliable
                annual_citations=i,
            )
            for i, pid in enumerate(sorted(paper_ids))
        ]
    corpus = ExperienceSet(papers=papers)
    for paper_id, instance, best, others in experiences:
        corpus.add(Experience(paper_id, instance, best, tuple(others)))
    return corpus


ALGORITHMS = ["A", "B", "C", "D", "E", "F"]


def n_edges(graph) -> int:
    return sum(len(losers) for losers in graph.values())


def golden_corpus(seed: int) -> ExperienceSet:
    """A generated corpus over true scores quantised to tenths, so many
    algorithms tie and noisy papers often disagree about the winner."""
    rng = np.random.default_rng(seed)
    algorithms = [f"A{i}" for i in range(10)]
    datasets = [f"D{i}" for i in range(8)]
    scores = np.round(rng.uniform(0.6, 0.9, (len(datasets), len(algorithms))), 1)
    table = PerformanceTable(algorithms=algorithms, datasets=datasets, scores=scores)
    config = CorpusConfig(
        n_papers=6, min_algorithms_per_paper=4, max_algorithms_per_paper=8, random_state=seed
    )
    return CorpusGenerator(table, config).generate()


def dump_network(acquisition: KnowledgeAcquisition, network) -> dict:
    """Everything Algorithm 1 derives for one instance, as plain JSON values."""

    def edges(graph) -> list:
        return sorted([u, v, w] for u, losers in graph.items() for v, w in losers.items())

    pair = acquisition.select_optimal(network)
    return {
        "instance": network.instance,
        "candidates": network.candidates,
        "direct": edges(network.direct),
        "resolved": edges(network.resolved),
        "sources": sorted(network.sources()),
        "comparison": dict(sorted(network.comparison_experience.items())),
        "pair": [pair.instance, pair.algorithm, pair.evidence, list(pair.candidates)],
    }


def golden_networks() -> list[dict]:
    """The dumps the golden fixture holds: every retained instance of each seeded
    corpus under the four closure/conflict settings, plus an equal-weight conflict."""
    dumps = []
    for seed in GOLDEN_SEEDS:
        corpus = golden_corpus(seed)
        for closure, conflicts in itertools.product((True, False), repeat=2):
            acquisition = KnowledgeAcquisition(
                min_algorithms=5, use_bfs_closure=closure, resolve_conflicts=conflicts
            )
            for instance in corpus.instances():
                network = acquisition.analyze_instance(instance, corpus)
                if network is not None:
                    dump = dump_network(acquisition, network)
                    dumps.append({"seed": seed, "flags": [closure, conflicts], **dump})
    # p1 says B beats A, p2 says A beats B, and both weigh 3: the names break the tie.
    corpus = build_corpus(
        [
            ("p1", "wine", "B", ["A", "C", "D", "E", "F"]),
            ("p2", "wine", "A", ["B", "C", "D", "E", "F"]),
        ]
    )
    acquisition = KnowledgeAcquisition(min_algorithms=5)
    network = acquisition.analyze_instance("wine", corpus, paper_rank={"p1": 3, "p2": 3})
    dumps.append({"seed": None, "flags": [True, True], **dump_network(acquisition, network)})
    return dumps


class TestKnowledgeAcquisition:
    def test_skips_instances_with_few_algorithms(self):
        corpus = build_corpus([("p1", "tiny", "A", ["B"])])
        pairs = KnowledgeAcquisition(min_algorithms=5).run(corpus)
        assert pairs == []

    def test_clear_winner_is_selected(self):
        corpus = build_corpus(
            [
                ("p1", "wine", "A", ["B", "C", "D"]),
                ("p2", "wine", "A", ["E", "F"]),
            ]
        )
        pairs = KnowledgeAcquisition(min_algorithms=5).run(corpus)
        assert len(pairs) == 1
        assert pairs[0].instance == "wine"
        assert pairs[0].algorithm == "A"

    def test_transitive_relation_via_bfs(self):
        # A beats B (p1), B beats C (p2).  C also "wins" one experience so it
        # becomes a candidate, but BFS proves A is above both.
        corpus = build_corpus(
            [
                ("p1", "wine", "A", ["B", "D", "E", "F"]),
                ("p2", "wine", "B", ["C", "D", "E", "F"]),
                ("p3", "wine", "C", ["D", "E", "F"]),
            ]
        )
        acquisition = KnowledgeAcquisition(min_algorithms=5)
        network = acquisition.analyze_instance("wine", corpus)
        assert network is not None
        assert "B" in network.resolved["A"]
        pair = acquisition.select_optimal(network)
        assert pair.algorithm == "A"

    def test_conflict_resolved_by_reliability(self):
        # p1 (less reliable) says B beats A; p2 (more reliable) says A beats B.
        corpus = build_corpus(
            [
                ("p1", "wine", "B", ["A", "C", "D", "E", "F"]),
                ("p2", "wine", "A", ["B", "C", "D", "E", "F"]),
            ]
        )
        acquisition = KnowledgeAcquisition(min_algorithms=5)
        network = acquisition.analyze_instance("wine", corpus)
        assert "B" in network.resolved["A"]
        assert "A" not in network.resolved["B"]
        assert acquisition.select_optimal(network).algorithm == "A"

    def test_conflict_kept_when_resolution_disabled(self):
        corpus = build_corpus(
            [
                ("p1", "wine", "B", ["A", "C", "D", "E", "F"]),
                ("p2", "wine", "A", ["B", "C", "D", "E", "F"]),
            ]
        )
        acquisition = KnowledgeAcquisition(min_algorithms=5, resolve_conflicts=False)
        network = acquisition.analyze_instance("wine", corpus)
        # Without resolution both directed edges survive.
        assert "B" in network.resolved["A"] and "A" in network.resolved["B"]

    def test_tie_broken_by_comparison_experience(self):
        # A and B never compared against each other; A has beaten more algorithms.
        corpus = build_corpus(
            [
                ("p1", "wine", "A", ["C", "D", "E"]),
                ("p2", "wine", "A", ["F"]),
                ("p3", "wine", "B", ["C"]),
            ]
        )
        acquisition = KnowledgeAcquisition(min_algorithms=5)
        network = acquisition.analyze_instance("wine", corpus)
        sources = set(network.sources())
        assert {"A", "B"}.issubset(sources)
        assert acquisition.select_optimal(network).algorithm == "A"

    def test_multiple_instances_produce_multiple_pairs(self):
        corpus = build_corpus(
            [
                ("p1", "wine", "A", ["B", "C", "D", "E", "F"]),
                ("p2", "iris", "B", ["A", "C", "D", "E", "F"]),
            ]
        )
        pairs = acquire_knowledge(corpus, min_algorithms=5)
        assert {p.instance: p.algorithm for p in pairs} == {"wine": "A", "iris": "B"}

    def test_min_algorithms_validation(self):
        with pytest.raises(ValueError):
            KnowledgeAcquisition(min_algorithms=0)

    def test_unknown_instance_returns_none(self):
        corpus = build_corpus([("p1", "wine", "A", ["B", "C", "D", "E", "F"])])
        assert KnowledgeAcquisition().analyze_instance("nope", corpus) is None

    def test_bfs_closure_disabled_changes_graph(self):
        corpus = build_corpus(
            [
                ("p1", "wine", "A", ["B", "D", "E", "F"]),
                ("p2", "wine", "B", ["C", "D", "E", "F"]),
                ("p3", "wine", "C", ["D", "E", "F"]),
            ]
        )
        with_bfs = KnowledgeAcquisition(min_algorithms=5).analyze_instance("wine", corpus)
        without_bfs = KnowledgeAcquisition(
            min_algorithms=5, use_bfs_closure=False
        ).analyze_instance("wine", corpus)
        assert n_edges(with_bfs.resolved) >= n_edges(without_bfs.resolved)
        assert "C" in with_bfs.resolved["A"]
        assert "C" not in without_bfs.resolved["A"]


class TestGoldenNetworks:
    """The adjacency-dict graphs against :func:`golden_networks` as the earlier
    networkx-backed implementation computed it: edges with weights, sources,
    comparison counts and knowledge pairs.  That implementation's DiGraphs
    were read into the same ``winner -> {loser: weight}`` shape before
    :func:`dump_network` ran on them."""

    def test_networks_match_the_golden_fixture(self):
        expected = json.loads(GOLDEN_FIXTURE.read_text())
        actual = golden_networks()
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            assert got == want, (want["seed"], want["flags"], want["instance"])
        # The equal-weight conflict resolves to the first name.
        assert expected[-1]["resolved"] == [["A", "B", 3]]

    def test_graphs_have_a_sorted_key_per_candidate(self):
        corpus = golden_corpus(GOLDEN_SEEDS[0])
        acquisition = KnowledgeAcquisition(min_algorithms=5)
        networks = [acquisition.analyze_instance(i, corpus) for i in corpus.instances()]
        networks = [n for n in networks if n is not None]
        assert networks
        for network in networks:
            assert list(network.direct) == network.candidates
            assert list(network.resolved) == network.candidates
            assert network.sources() == sorted(network.sources())


class TestKnowledgeOnGeneratedCorpus:
    def test_pairs_are_reasonable_on_simulated_corpus(self, small_corpus, small_performance):
        pairs = acquire_knowledge(small_corpus, min_algorithms=5)
        assert len(pairs) >= 3
        # The selected algorithm should rank well on its dataset (PORatio ≥ 0.5
        # on average) — the knowledge-quality claim of Section IV-A1.
        poratios = [
            small_performance.poratio(pair.algorithm, pair.instance) for pair in pairs
        ]
        assert sum(poratios) / len(poratios) > 0.5

    def test_evidence_counts_recorded(self, small_corpus):
        pairs = acquire_knowledge(small_corpus, min_algorithms=5)
        assert all(pair.evidence >= 0 for pair in pairs)
        assert all(len(pair.candidates) >= 1 for pair in pairs)


class TestAcquisitionProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_selected_algorithm_is_always_a_candidate(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        experiences = []
        for p in range(4):
            pool = list(rng.permutation(ALGORITHMS))
            best, others = pool[0], pool[1 : 1 + int(rng.integers(3, 5))]
            experiences.append((f"p{p}", "data", best, others))
        corpus = build_corpus(experiences)
        acquisition = KnowledgeAcquisition(min_algorithms=4)
        network = acquisition.analyze_instance("data", corpus)
        if network is None:
            return
        pair = acquisition.select_optimal(network)
        assert pair.algorithm in network.candidates
        # The winner is never an algorithm that every experience ranks as inferior only.
        winners = {e[2] for e in experiences}
        assert pair.algorithm in winners
