"""Walk through Algorithm 1 on a hand-written corpus (the paper's Fig. 2 example).

Run with::

    python examples/knowledge_acquisition_demo.py

The corpus below recreates the structure of Fig. 2: five papers report partial,
partly contradictory comparisons of classifiers on the Wine dataset.  The demo
prints the intermediate information network (direct relations, BFS closure,
conflict resolution) and the resulting piece of knowledge (Wine, best
algorithm), then shows how the same machinery scales to a generated corpus.
"""

from __future__ import annotations

from repro.corpus import Experience, ExperienceSet, Paper, reliability_index
from repro.core.knowledge import KnowledgeAcquisition


def build_fig2_corpus() -> ExperienceSet:
    """Five papers with Table I metadata, reporting experiments on Wine."""
    papers = [
        Paper("lee2008", "A comparison study of classification algorithms",
              level="C", paper_type="Journal", influence_factor=1.1, annual_citations=12),
        Paper("wang2011", "Novel evolutionary algorithms for supervised classification",
              level="B", paper_type="Journal", influence_factor=2.3, annual_citations=20),
        Paper("esmaelian2016", "A novel classification method (UTADIS + PSO-GA)",
              level="B", paper_type="Journal", influence_factor=3.8, annual_citations=25),
        Paper("zhang2017", "An up-to-date comparison of state-of-the-art classification algorithms",
              level="A", paper_type="Journal", influence_factor=4.3, annual_citations=60),
        Paper("morente2017", "Improving supervised learning classification methods",
              level="A", paper_type="Journal", influence_factor=8.4, annual_citations=30),
    ]
    corpus = ExperienceSet(papers=papers)
    # Partial, fragmented comparisons on the same instance (Wine), including a
    # conflict: lee2008 claims LDA beats BayesNet, zhang2017 the opposite.
    corpus.add(Experience("lee2008", "Wine", "LDA", ("BayesNet", "J48", "IBk")))
    corpus.add(Experience("wang2011", "Wine", "RandomForest", ("J48", "LibSVM", "OneR")))
    corpus.add(Experience("esmaelian2016", "Wine", "J48", ("LibSVM", "OneR", "NaiveBayes")))
    corpus.add(Experience("zhang2017", "Wine", "BayesNet", ("LDA", "RandomForest", "LibSVM")))
    corpus.add(Experience("morente2017", "Wine", "BayesNet", ("J48", "IBk", "NaiveBayes")))
    return corpus


def main() -> None:
    corpus = build_fig2_corpus()

    ranking = reliability_index(corpus.papers)
    print("paper reliability ranking (higher = more reliable):")
    for paper_id, weight in sorted(ranking.items(), key=lambda item: item[1]):
        paper = corpus.paper(paper_id)
        print(f"  {weight}: {paper_id:14s} level={paper.level} IF={paper.influence_factor}")

    acquisition = KnowledgeAcquisition(min_algorithms=5)
    network = acquisition.analyze_instance("Wine", corpus)
    assert network is not None

    print("\noptimal-algorithm candidates (OACs):", network.candidates)
    print("\ndirect performance relations (winner -> loser, weight = reliability):")
    for winner, losers in network.direct.items():
        for loser, weight in losers.items():
            print(f"  {winner:13s} -> {loser:13s} (weight {weight})")
    print("\nresolved information network after BFS closure + conflict resolution:")
    for winner, losers in network.resolved.items():
        for loser, weight in losers.items():
            print(f"  {winner:13s} -> {loser:13s} (weight {weight})")
    print("\nin-degree-0 candidates:", network.sources())
    print("comparison experience per candidate:", network.comparison_experience)

    pair = acquisition.select_optimal(network)
    print(f"\n=> knowledge acquired: ({pair.instance}, {pair.algorithm}) "
          f"with {pair.evidence} algorithms proven inferior")


if __name__ == "__main__":
    main()
