"""Knowledge acquisition from research-paper experiences (Algorithm 1).

Given ``InfAll`` (all experiences) the algorithm derives, per task instance
``I``:

1. ``RInf_I`` — the experiences about ``I``; instances mentioned by too few
   algorithms are skipped (insufficient evidence).
2. ``OACs`` — the candidate optimal algorithms (every ``BestA`` in ``RInf_I``).
3. Direct performance relations ``Ai -> Aj`` weighted by the reliability rank
   of the most reliable paper asserting them.
4. The transitive closure of those relations via BFS, where a derived edge's
   weight is the minimum weight along its path.
5. Conflict resolution: when both ``Ai -> Aj`` and ``Aj -> Ai`` exist, only the
   higher-weight edge (more reliable evidence) survives.
6. The winner: among candidates with in-degree 0, the one with the richest
   comparison experience (most algorithms transitively proven worse).

The output is the paper's ``CRelations``: one :class:`KnowledgePair` per
retained instance.

Each graph is a plain adjacency dict, ``winner -> loser -> reliability
weight``, with a key for every candidate (in sorted order): the graphs hold
at most one node per catalogue algorithm, so no graph library is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..corpus.experience import Experience, ExperienceSet
from ..corpus.paper import reliability_index
from .concepts import KnowledgePair

__all__ = ["KnowledgeAcquisition", "InformationNetwork", "acquire_knowledge"]


@dataclass
class InformationNetwork:
    """The per-instance directed graph ``DGraph`` plus intermediate artefacts.

    Exposed mainly for inspection, testing and the knowledge-ablation bench:
    ``direct`` holds the graph before BFS closure and conflict resolution,
    ``resolved`` the final graph Algorithm 1 reasons over.  Both map
    ``winner -> {loser: weight}``, with a key for every candidate.
    """

    instance: str
    candidates: list[str]
    direct: dict[str, dict[str, int]]
    resolved: dict[str, dict[str, int]]
    comparison_experience: dict[str, int] = field(default_factory=dict)

    def sources(self) -> list[str]:
        """Candidate algorithms with in-degree 0 in the resolved graph."""
        beaten = {loser for losers in self.resolved.values() for loser in losers}
        return [node for node in self.resolved if node not in beaten]


class KnowledgeAcquisition:
    """Implementation of Algorithm 1 (``KnowledgeAcquisition``).

    Parameters
    ----------
    min_algorithms:
        Minimum number of distinct algorithms that must appear in ``RInf_I``
        for the instance to be retained (the paper uses "> 5 algorithms").
    use_bfs_closure:
        Derive transitive relations by BFS (step 10-11).  Disabling this is the
        "no closure" ablation.
    resolve_conflicts:
        Keep only the higher-weight edge of a contradictory pair (step 12).
        Disabling this is the "no conflict resolution" ablation, in which both
        edges of a conflicting pair survive.
    """

    def __init__(
        self,
        min_algorithms: int = 5,
        use_bfs_closure: bool = True,
        resolve_conflicts: bool = True,
    ) -> None:
        if min_algorithms < 1:
            raise ValueError("min_algorithms must be >= 1")
        self.min_algorithms = min_algorithms
        self.use_bfs_closure = use_bfs_closure
        self.resolve_conflicts = resolve_conflicts

    # -- graph construction ---------------------------------------------------------------
    def _direct_relations(
        self,
        related: list[Experience],
        candidates: set[str],
        paper_rank: dict[str, int],
    ) -> dict[tuple[str, str], int]:
        """Direct edges (Ai, Aj) -> weight, from the raw experiences (step 8)."""
        relations: dict[tuple[str, str], int] = {}
        for experience in related:
            winner = experience.best_algorithm
            weight = paper_rank.get(experience.paper_id, 0)
            for loser in experience.other_algorithms:
                if loser not in candidates or loser == winner:
                    continue
                key = (winner, loser)
                if key not in relations or weight > relations[key]:
                    relations[key] = weight
        return relations

    @staticmethod
    def _build_graph(
        relations: dict[tuple[str, str], int], candidates: list[str]
    ) -> dict[str, dict[str, int]]:
        graph: dict[str, dict[str, int]] = {node: {} for node in candidates}
        for (winner, loser), weight in relations.items():
            graph[winner][loser] = weight
        return graph

    @staticmethod
    def _bfs_closure(graph: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
        """Add transitive edges; a derived edge's weight is the bottleneck (min)
        weight along the strongest path found by BFS (steps 10-11)."""
        closed: dict[str, dict[str, int]] = {}
        for source in graph:
            # Best (maximal) bottleneck weight from source to each reachable node.
            best: dict[str, float] = {source: float("inf")}
            frontier = [source]
            while frontier:
                next_frontier: list[str] = []
                for node in frontier:
                    for neighbor, weight in graph[node].items():
                        bottleneck = min(best[node], weight)
                        if bottleneck > best.get(neighbor, float("-inf")):
                            best[neighbor] = bottleneck
                            next_frontier.append(neighbor)
                frontier = next_frontier
            closed[source] = {
                target: weight for target, weight in best.items() if target != source
            }
        return closed

    @staticmethod
    def _resolve_conflicts(graph: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
        """Keep only the higher-weight direction of contradictory edges (step 12)."""
        resolved: dict[str, dict[str, int]] = {node: {} for node in graph}
        for u, losers in graph.items():
            for v, forward in losers.items():
                backward = graph[v].get(u)
                # Equal reliability: the names break the tie, so the result does
                # not depend on iteration order.
                if backward is None or forward > backward or (forward == backward and u < v):
                    resolved[u][v] = forward
        return resolved

    @staticmethod
    def _reachable(graph: dict[str, dict[str, int]], start: str) -> set[str]:
        """``start`` plus every node a directed path from it reaches."""
        seen = {start}
        stack = [start]
        while stack:
            for node in graph[stack.pop()]:
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
        return seen

    # -- per-instance analysis ----------------------------------------------------------------
    def analyze_instance(
        self,
        instance: str,
        corpus: ExperienceSet,
        paper_rank: dict[str, int] | None = None,
    ) -> InformationNetwork | None:
        """Build the information network of one instance; None if evidence is too thin."""
        paper_rank = paper_rank if paper_rank is not None else reliability_index(corpus.papers)
        related = corpus.related_to(instance)
        mentioned: set[str] = set()
        for experience in related:
            mentioned.update(experience.algorithms)
        if len(mentioned) <= self.min_algorithms:
            return None
        winners = {experience.best_algorithm for experience in related}
        relations = self._direct_relations(related, winners, paper_rank)
        candidates = sorted(winners)
        direct = self._build_graph(relations, candidates)
        if self.use_bfs_closure:
            graph = self._bfs_closure(direct)
        else:
            graph = {node: dict(losers) for node, losers in direct.items()}
        resolved = self._resolve_conflicts(graph) if self.resolve_conflicts else graph

        # Comparison experience (step 14): for each candidate, how many distinct
        # algorithms are transitively proven worse via experiences whose winner
        # is reachable from the candidate.
        comparison: dict[str, int] = {}
        for candidate in candidates:
            reachable = self._reachable(resolved, candidate)
            beaten: set[str] = set()
            for experience in related:
                if experience.best_algorithm in reachable:
                    beaten.update(experience.other_algorithms)
            beaten.discard(candidate)
            comparison[candidate] = len(beaten)
        return InformationNetwork(
            instance=instance,
            candidates=candidates,
            direct=direct,
            resolved=resolved,
            comparison_experience=comparison,
        )

    def select_optimal(self, network: InformationNetwork) -> KnowledgePair:
        """Pick ``OA_I`` from an information network (steps 13-15)."""
        sources = network.sources()
        pool = sources if sources else network.candidates
        # Richest comparison experience wins; ties break deterministically by name.
        best = max(pool, key=lambda a: (network.comparison_experience.get(a, 0), a))
        return KnowledgePair(
            instance=network.instance,
            algorithm=best,
            evidence=network.comparison_experience.get(best, 0),
            candidates=tuple(network.candidates),
        )

    # -- full run ----------------------------------------------------------------------------------
    def run(self, corpus: ExperienceSet) -> list[KnowledgePair]:
        """Execute Algorithm 1 over the whole corpus and return ``CRelations``."""
        paper_rank = reliability_index(corpus.papers)
        pairs: list[KnowledgePair] = []
        for instance in corpus.instances():
            network = self.analyze_instance(instance, corpus, paper_rank)
            if network is None:
                continue
            pairs.append(self.select_optimal(network))
        return pairs


def acquire_knowledge(
    corpus: ExperienceSet, min_algorithms: int = 5
) -> list[KnowledgePair]:
    """Convenience wrapper: run Algorithm 1 with default settings."""
    return KnowledgeAcquisition(min_algorithms=min_algorithms).run(corpus)
