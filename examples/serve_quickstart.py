"""Serving quickstart: train, promote into a registry, query over HTTP, refine.

Run with::

    python examples/serve_quickstart.py

The script (1) fits a small Auto-Model, (2) publishes it into a versioned
model registry, (3) boots the HTTP/JSON serving front end on an ephemeral
port, (4) asks for a recommendation over the wire, and (5) submits an async
refine job — once it completes, the same request is answered with the tuned
configuration instead of the catalogue default.  Budgets are tiny so the
whole script finishes in seconds.
"""

from __future__ import annotations

import json
import tempfile
import time
import urllib.request

from repro import AutoModel, DecisionMakingModelDesigner
from repro.datasets import knowledge_suite, make_gaussian_clusters
from repro.learners import default_registry
from repro.service import ModelRegistry, RecommendationService, serve_in_thread


def dataset_to_json(dataset) -> dict:
    """A Dataset in the service's JSON wire format."""
    return {
        "name": dataset.name,
        "task": dataset.task.value,
        "numeric": dataset.numeric.tolist(),
        "categorical": [[str(v) for v in row] for row in dataset.categorical],
        "target": [str(v) for v in dataset.target],
    }


def main() -> None:
    # 1. Train a small Auto-Model (tiny budgets; see examples/quickstart.py
    #    for the full offline pipeline walk-through).
    knowledge_datasets = knowledge_suite(n_datasets=6, max_records=120, random_state=7)
    auto_model = AutoModel.fit_from_datasets(
        knowledge_datasets,
        registry=default_registry().subset(
            ["J48", "NaiveBayes", "IBk", "ZeroR", "OneR", "DecisionStump"]
        ),
        dmd=DecisionMakingModelDesigner(
            skip_feature_selection=True,
            architecture_population=4,
            architecture_generations=1,
            architecture_max_evaluations=4,
            cv=2,
            random_state=0,
        ),
        cv=2,
        max_records=80,
    )

    # 2. Publish it into a versioned registry (the first publish is promoted
    #    automatically; later versions go live only via an explicit promote).
    registry_dir = tempfile.mkdtemp(prefix="repro-registry-")
    registry = ModelRegistry(registry_dir)
    version = registry.publish(auto_model, "quickstart")
    print(f"published model 'quickstart' {version} -> {registry_dir}")

    # 3. Boot the serving subsystem: batched dispatcher + async job queue
    #    behind a stdlib HTTP server on an ephemeral port.
    service = RecommendationService(registry)
    server, _ = serve_in_thread(service)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    print(f"serving on {base}")

    def get(path: str) -> dict:
        with urllib.request.urlopen(base + path, timeout=30) as resp:
            return json.loads(resp.read())

    def post(path: str, body: dict) -> dict:
        request = urllib.request.Request(
            base + path,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=120) as resp:
            return json.loads(resp.read())

    print("health:", get("/healthz")["status"])

    # 4. A recommendation over the wire: the decision model picks the
    #    algorithm in one (micro-batched) forward pass.
    user_dataset = make_gaussian_clusters(
        "user-task", n_records=150, n_numeric=6, n_categorical=2, n_classes=3,
        class_separation=1.5, random_state=123,
    )
    query = {"dataset": dataset_to_json(user_dataset), "model": "quickstart"}
    first = post("/recommend", query)
    print(
        f"recommendation: {first['algorithm']} ({first['config_source']} config, "
        f"model {first['model']}@{first['version']})"
    )

    # 5. Refine asynchronously: a background UDR tuning run persists into the
    #    served version's result store; serving is never blocked.
    job = post("/jobs", {"kind": "refine", **query, "max_evaluations": 6})
    print(f"refine job {job['job_id']} submitted ({job['status']})")
    while True:
        record = get(f"/jobs/{job['job_id']}")
        if record["status"] in ("done", "failed"):
            break
        time.sleep(0.1)
    print(f"refine job finished: {record['status']}")

    refined = post("/recommend", query)
    print(
        f"refined recommendation: {refined['algorithm']} "
        f"({refined['config_source']} config, cv score "
        f"{record['result']['cv_score'] if record['status'] == 'done' else 'n/a'})"
    )

    server.shutdown()
    server.server_close()
    service.close()
    print("serving quickstart complete")


if __name__ == "__main__":
    main()
