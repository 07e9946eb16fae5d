"""Ablation: the UDR's HPO-technique choice (force-GA vs force-BO vs adaptive).

Section II argues GA suits cheap evaluations and BO suits expensive ones, and
Algorithm 5 picks between them with a timing probe.  This bench tunes the same
selected algorithm on the same dataset with (a) GA, (b) BO and (c) the
adaptive probe rule, under one evaluation budget, and reports the best CV
accuracy each reaches.  Expected shape: the adaptive choice is competitive
with the better of the two fixed choices.
"""

from __future__ import annotations

from repro.evaluation import format_table
from repro.execution import CrossValObjective
from repro.hpo import BayesianOptimization, Budget, GeneticAlgorithm, HPOProblem
from repro.hpo.selector import HPOTechniqueSelector

BUDGET_EVALS = 20


def test_bench_ablation_hpo_choice(benchmark, bench_automodel, bench_registry, bench_test_datasets):
    dataset = bench_test_datasets[0]
    algorithm = bench_automodel.select_algorithm(dataset)
    spec = bench_registry.get(algorithm)
    data = dataset.subsample(150, random_state=0)
    X, y = data.to_matrix()
    objective = CrossValObjective(spec.build, X, y, cv=3, random_state=0)

    optimizers = {
        "GA (forced)": GeneticAlgorithm(population_size=10, n_generations=10, random_state=0),
        "BO (forced)": BayesianOptimization(n_initial=6, random_state=0),
        "adaptive (Algorithm 5)": HPOTechniqueSelector(random_state=0).select(
            spec.space, objective
        ),
    }

    def run():
        out = {}
        for label, optimizer in optimizers.items():
            problem = HPOProblem(spec.space, objective, name=f"ablation-{label}")
            out[label] = optimizer.optimize(problem, Budget(max_evaluations=BUDGET_EVALS))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        {
            "hpo technique": label,
            "selected algorithm": algorithm,
            "best cv accuracy": result.best_score,
            "evaluations": result.n_evaluations,
        }
        for label, result in results.items()
    ]
    print()
    print(format_table(rows, title=f"HPO-technique ablation on {dataset.name}"))

    best_fixed = max(results["GA (forced)"].best_score, results["BO (forced)"].best_score)
    adaptive = results["adaptive (Algorithm 5)"].best_score
    assert adaptive >= best_fixed - 0.1
