"""Compare the four HPO techniques of Section II on one tuning problem.

Run with::

    python examples/hpo_techniques.py

Grid Search and Random Search ignore past observations; the Genetic Algorithm
and Bayesian Optimization exploit them.  The script tunes a RandomForest on a
synthetic dataset under an identical evaluation budget and prints the best
cross-validation accuracy each technique reaches, plus the adaptive GA-vs-BO
choice Auto-Model's UDR would make for this problem.
"""

from __future__ import annotations

from repro.datasets import make_hypercube_rules
from repro.evaluation import format_table
from repro.execution import CrossValObjective
from repro.hpo import (
    BayesianOptimization,
    Budget,
    GeneticAlgorithm,
    GridSearch,
    HPOProblem,
    RandomSearch,
    choose_hpo_technique,
)
from repro.learners import default_registry


def main() -> None:
    registry = default_registry()
    spec = registry.get("RandomForest")
    dataset = make_hypercube_rules(
        "hpo-demo", n_records=200, n_numeric=8, n_classes=3, noise=0.2, random_state=0
    )
    X, y = dataset.to_matrix()
    objective = CrossValObjective(spec.build, X, y, cv=3, random_state=0)
    problem = HPOProblem(spec.space, objective, name="tune-random-forest")
    budget_evaluations = 16

    optimizers = {
        "GridSearch": GridSearch(resolution=3),
        "RandomSearch": RandomSearch(random_state=0),
        "GeneticAlgorithm": GeneticAlgorithm(population_size=10, n_generations=10, random_state=0),
        "BayesianOptimization": BayesianOptimization(n_initial=6, random_state=0),
    }

    rows = []
    for name, optimizer in optimizers.items():
        result = optimizer.optimize(problem, Budget(max_evaluations=budget_evaluations))
        rows.append(
            {
                "technique": name,
                "best_cv_accuracy": result.best_score,
                "evaluations": result.n_evaluations,
                "elapsed_s": result.elapsed,
            }
        )
    print(format_table(rows, title=f"tuning RandomForest, budget = {budget_evaluations} evaluations"))

    chosen = choose_hpo_technique(spec.space, objective)
    print(f"\nUDR's adaptive rule would pick: {chosen.name}")
    print("(cheap per-evaluation cost -> GA; expensive evaluations -> BO)")


if __name__ == "__main__":
    main()
