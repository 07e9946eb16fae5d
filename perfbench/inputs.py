"""Seeded inputs of the three workloads.

Every input is a function of ``(seed, seconds)``.  The seed draws the data;
the shapes, the learners and the request counts are fixed (``seconds`` scales
the counts), so every seed asks the program for the same amount of work and
the spread across seeds measures the machine, not the inputs.
"""

from __future__ import annotations

import json

import numpy as np

# The 25-learner catalogue of the benchmark harness in ``benchmarks/``:
# cheap and moderate learners across trees, forests, boosting, bayes, lazy,
# linear, rules and misc.
BUILD_CATALOGUE = [
    "J48", "SimpleCart", "REPTree", "RandomTree", "DecisionStump",
    "RandomForest", "Bagging", "AdaBoostM1", "RandomSubSpace",
    "NaiveBayes", "BayesNet", "IBk", "IB1", "KStar", "LWL",
    "Logistic", "SimpleLogistic", "LDA", "RBFNetwork",
    "OneR", "ZeroR", "JRip", "HyperPipes", "VFI",
    "ClassificationViaRegression",
]

# Table XI shapes (test-suite symbols) of the knowledge pool's siblings.  The
# categorical-rules shapes are left out: the one-hot width their seeded
# cardinalities give doubled one dataset's table cost from seed to seed.
BUILD_SIBLINGS = ["D4", "D6", "D11", "D12", "D15"]
# The knowledge-suite extra, at a fixed shape: ``knowledge_suite`` draws its
# shapes from its seed, which would change the amount of work with the seed.
# (family, numeric, categorical, classes)
BUILD_EXTRAS = [("noisy_linear", 10, 2, 3)]
BUILD_RECORDS = 200  # generated rows; the table subsamples to TABLE_RECORDS
TABLE_RECORDS = 130

# One tune query per learner family, each on a fixed Table XI shape, chosen
# so the learner's cost stays about the same from seed to seed (a forest on
# D4 moved ±25% with the seed, on D12 ±4%).
TUNE_QUERIES = [
    ("D4", "J48"),  # tree
    ("D12", "RandomForest"),  # forest
    ("D11", "AdaBoostM1"),  # boosting
    ("D5", "IBk"),  # lazy
    ("D15", "Logistic"),  # linear
    ("D6", "NaiveBayes"),  # bayes
    ("D15", "JRip"),  # rules
    ("D4", "LDA"),  # the decision model's only pick today
]
# Answers compiled with repro.export (boosting and rules have no exporter).
TUNE_EXPORTED = {"J48", "RandomForest", "IBk", "Logistic", "NaiveBayes", "LDA"}
TUNE_SUITE_RECORDS = 400  # generated rows (Table XI shapes capped here)
TUNE_RECORDS = 200  # the UDR's tuning subsample
TUNE_EVALUATIONS = 16

# The served model's catalogue and knowledge pool (fitted at set-up).
SERVE_CATALOGUE = ["J48", "NaiveBayes", "IBk", "ZeroR", "OneR", "DecisionStump", "LDA", "Logistic"]
SERVE_RATE = 20.0  # open-loop requests per second
# Request datasets are test-suite datasets, the Table XI shapes build and tune
# use, capped at this size.  One suite is the known datasets that repeat
# (every other one refined at set-up); first-seen datasets come from further
# suites, taken shape by shape in Table XI order.
SERVE_RECORDS = 300
SERVE_NUMERIC = 25
# Every 4th request carries a first-seen dataset.  No record of real traffic
# gives this share; it is an assumption, chosen so that both paths of the
# server show in every phase: a repeat is answered from the fingerprint-keyed
# feature cache after warm-up, a first-seen dataset pays for full meta-feature
# extraction.
SERVE_FIRST_SEEN_EVERY = 4


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, stream))])


def build_pool(seed: int) -> list:
    """Knowledge pool: Table XI-shaped siblings plus knowledge-suite extras."""
    from repro.datasets import test_suite
    from repro.datasets.synthetic import make_dataset

    rng = _rng(seed, "build")
    siblings = test_suite(
        max_records=BUILD_RECORDS,
        max_numeric=25,
        random_state=int(rng.integers(2**31 - 1)),
        name_prefix="K_",
    )
    by_symbol = {d.name[len("K_"):]: d for d in siblings}
    extras = [
        make_dataset(
            family,
            name=f"K{i + 1:02d}_{family}",
            n_records=BUILD_RECORDS,
            n_numeric=numeric,
            n_categorical=categorical,
            n_classes=classes,
            random_state=int(rng.integers(2**31 - 1)),
        )
        for i, (family, numeric, categorical, classes) in enumerate(BUILD_EXTRAS)
    ]
    return [by_symbol[symbol] for symbol in BUILD_SIBLINGS] + extras


def tune_queries(seed: int) -> list[tuple]:
    """``[(dataset, algorithm)]``: one test-suite-shaped dataset per family."""
    from repro.datasets import test_suite

    suite = test_suite(
        max_records=TUNE_SUITE_RECORDS,
        max_numeric=25,
        random_state=int(_rng(seed, "tune").integers(2**31 - 1)),
        name_prefix="Q_",
    )
    by_symbol = {d.name[len("Q_"):]: d for d in suite}
    return [(by_symbol[symbol], algorithm) for symbol, algorithm in TUNE_QUERIES]


def dataset_json(dataset) -> dict:
    """A Dataset in the service's JSON wire format."""
    return {
        "name": dataset.name,
        "task": dataset.task.value,
        "numeric": dataset.numeric.tolist(),
        "categorical": [[str(v) for v in row] for row in dataset.categorical],
        "target": [str(v) for v in dataset.target],
    }


def _serve_suite(rng: np.random.Generator, prefix: str) -> list:
    from repro.datasets import test_suite

    return test_suite(
        max_records=SERVE_RECORDS,
        max_numeric=SERVE_NUMERIC,
        random_state=int(rng.integers(2**31 - 1)),
        name_prefix=prefix,
    )


def serve_knowledge(seed: int) -> list:
    from repro.datasets import knowledge_suite

    return knowledge_suite(
        n_datasets=8,
        min_records=120,
        max_records=120,
        random_state=int(_rng(seed, "serve-model").integers(2**31 - 1)),
    )


def _recommend_body(dataset, model: str) -> bytes:
    return json.dumps({"dataset": dataset_json(dataset), "model": model}).encode()


def serve_plan(seed: int, n_open: int, n_closed: int, model: str):
    """Pre-encoded ``/recommend`` bodies and refine jobs:
    ``(known_bodies, refine_jobs, open_bodies, closed_bodies)``; the known
    bodies carry each repeat dataset once, and the phases cycle through all
    of them."""
    rng = _rng(seed, "serve")
    known = _serve_suite(rng, "S_")
    known_bodies = [_recommend_body(d, model) for d in known]
    refine = [
        {"kind": "refine", "model": model, "dataset": dataset_json(d), "max_evaluations": 4}
        for d in known[::2]
    ]
    n_first_seen = (n_open + n_closed) // SERVE_FIRST_SEEN_EVERY
    first_seen = []
    while len(first_seen) < n_first_seen:
        first_seen += _serve_suite(rng, f"F{len(first_seen) // len(known):02d}_")
    first_seen_bodies = (_recommend_body(d, model) for d in first_seen)
    n_repeats = 0

    def bodies(n: int) -> list[bytes]:
        nonlocal n_repeats
        out = []
        for i in range(n):
            if (i + 1) % SERVE_FIRST_SEEN_EVERY == 0:
                out.append(next(first_seen_bodies))
            else:
                out.append(known_bodies[n_repeats % len(known_bodies)])
                n_repeats += 1
        return out

    return known_bodies, refine, bodies(n_open), bodies(n_closed)
