"""Golden joint space: Auto-Weka's CASH space over a pipeline catalogue, pinned.

:func:`repro.baselines.joint_space` namespaces each catalogue member's space
under its algorithm name and gates it on the root ``__algorithm__`` choice;
:func:`repro.baselines.split_joint_config` undoes the namespacing.  The
pipeline catalogue gives every parameter with its own activation condition an
``AndCondition`` (root gate and the step's gate), and the extra member ``Z``
nests an ``AndCondition`` inside that.  ``tests/fixtures/joint_space_golden.json``
holds what the earlier hand-written namespacing produced: the parameter
names, every condition's ``repr``, 50 seeded samples and 50 seeded mutations
with their unit vectors (as ``float.hex``) and their split configurations.
Never regenerate the fixture from the code under test.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.baselines import joint_space, split_joint_config
from repro.hpo.space import AndCondition, BoolParam, Condition, ConfigSpace
from repro.learners import default_registry
from repro.learners.pipeline import pipeline_registry
from repro.learners.registry import AlgorithmRegistry, AlgorithmSpec
from repro.learners.rules import ZeroR

GOLDEN_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "joint_space_golden.json"

CATALOGUE = ["J48", "IBk", "Logistic", "RandomForest", "NaiveBayes", "ZeroR"]


def golden_registry() -> AlgorithmRegistry:
    compound = ConfigSpace([BoolParam("a"), BoolParam("b"), BoolParam("c")])
    compound.add_condition(
        "c", AndCondition((Condition("a", (True,)), Condition("b", (True,))))
    )
    pipelines = pipeline_registry(default_registry().subset(CATALOGUE))
    nested = AlgorithmSpec("Z", "rules", lambda **kw: ZeroR(), compound)
    return AlgorithmRegistry([*pipelines, nested])


def unit_vector(space: ConfigSpace, config: dict) -> list[str]:
    return [float(u).hex() for u in space.to_vector(config)]


def joint_space_record() -> dict:
    space = joint_space(golden_registry())
    rng = np.random.default_rng(7)
    samples = [space.sample(rng) for _ in range(50)]
    mutations = [space.mutate(config, rng, mutation_rate=0.5) for config in samples]
    return {
        "names": space.names,
        "conditions": {name: repr(space.condition(name)) for name in space.names},
        "samples": [repr(config) for config in samples],
        "sample_vectors": [unit_vector(space, config) for config in samples],
        "mutations": [repr(config) for config in mutations],
        "mutation_vectors": [unit_vector(space, config) for config in mutations],
        "splits": [repr(split_joint_config(config)) for config in samples + mutations],
    }


def test_joint_space_matches_the_golden_fixture():
    expected = json.loads(GOLDEN_FIXTURE.read_text())
    actual = joint_space_record()
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert actual[key] == expected[key], key
