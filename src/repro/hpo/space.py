"""Hyperparameter configuration spaces.

A :class:`ConfigSpace` is an ordered collection of named hyperparameters
(:class:`IntParam`, :class:`FloatParam`, :class:`CategoricalParam`,
:class:`BoolParam`), optionally with activation conditions (a parameter is
only active when a parent parameter holds one of the given values — e.g.
``momentum`` is only meaningful when ``solver == 'sgd'`` in Table II).

Configurations are plain ``dict``s.  The space supports uniform sampling,
grid enumeration, neighbourhood mutation (for the GA) and encoding to a unit
hypercube (for the Gaussian-process surrogate used by BO).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "Hyperparameter",
    "IntParam",
    "FloatParam",
    "CategoricalParam",
    "BoolParam",
    "Condition",
    "AndCondition",
    "ConfigSpace",
]


@dataclass(frozen=True)
class Condition:
    """Parameter is active only when ``parent`` takes a value in ``values``."""

    parent: str
    values: tuple

    def satisfied(self, config: dict[str, Any]) -> bool:
        return config.get(self.parent) in self.values


@dataclass(frozen=True)
class AndCondition:
    """Active only when *every* sub-condition is satisfied.

    Joint CASH spaces need this: Auto-WEKA's ``joint_space`` gates each
    parameter on the root algorithm choice, but a pipeline parameter may
    also carry its own activation condition (``min_frequency`` only when
    ``group_rare``) — both must hold.
    """

    conditions: tuple

    def satisfied(self, config: dict[str, Any]) -> bool:
        return all(condition.satisfied(config) for condition in self.conditions)


def _prefix_condition(condition, prefix: str, sep: str):
    """Rewrite a condition's parent name(s) into a namespace."""
    if isinstance(condition, AndCondition):
        return AndCondition(
            tuple(_prefix_condition(c, prefix, sep) for c in condition.conditions)
        )
    return Condition(f"{prefix}{sep}{condition.parent}", condition.values)


def _strip_condition(condition, marker: str):
    """Strip a namespace from a condition; ``None`` when it reaches outside it."""
    if isinstance(condition, AndCondition):
        kept = tuple(
            stripped
            for stripped in (_strip_condition(c, marker) for c in condition.conditions)
            if stripped is not None
        )
        if not kept:
            return None
        return kept[0] if len(kept) == 1 else AndCondition(kept)
    if condition.parent.startswith(marker):
        return Condition(condition.parent[len(marker):], condition.values)
    return None


def _clip(value: Any, low: Any, high: Any) -> Any:
    """``np.clip`` for one Python scalar, without numpy's per-call cost.

    The same value as ``np.clip(value, low, high)`` whenever ``low <= high``,
    NaN included (it passes through, as with ``np.clip``); callers convert it
    with ``float``/``int`` as they converted numpy's scalar.
    """
    return min(max(value, low), high)


class Hyperparameter:
    """Base class for a single named hyperparameter."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("hyperparameter name must be non-empty")
        self.name = name

    def sample(self, rng: np.random.Generator) -> Any:
        raise NotImplementedError

    def mutate(self, value: Any, rng: np.random.Generator, scale: float = 0.2) -> Any:
        raise NotImplementedError

    def grid(self, resolution: int) -> list[Any]:
        raise NotImplementedError

    def to_unit(self, value: Any) -> float:
        raise NotImplementedError

    def from_unit(self, u: float) -> Any:
        raise NotImplementedError

    def validate(self, value: Any) -> bool:
        raise NotImplementedError

    def default(self) -> Any:
        raise NotImplementedError


class FloatParam(Hyperparameter):
    """Continuous hyperparameter over ``[low, high]``, optionally log-scaled."""

    def __init__(self, name: str, low: float, high: float, log: bool = False) -> None:
        super().__init__(name)
        if not low < high:
            raise ValueError(f"{name}: low must be < high (got {low}, {high})")
        if log and low <= 0:
            raise ValueError(f"{name}: log-scaled range requires low > 0")
        self.low = float(low)
        self.high = float(high)
        self.log = log

    def sample(self, rng: np.random.Generator) -> float:
        return self.from_unit(float(rng.random()))

    def mutate(self, value: float, rng: np.random.Generator, scale: float = 0.2) -> float:
        u = self.to_unit(value) + float(rng.normal(0.0, scale))
        return self.from_unit(float(_clip(u, 0.0, 1.0)))

    def grid(self, resolution: int) -> list[float]:
        return [self.from_unit(u) for u in np.linspace(0.0, 1.0, max(2, resolution))]

    def to_unit(self, value: float) -> float:
        # Clamp on both sides: the unit encoding must be a monotone bijection
        # between [low, high] and [0, 1] even at the floating-point edges
        # (e.g. exp(log(high)) can land one ulp above high).
        value = float(_clip(value, self.low, self.high))
        if self.log:
            u = (np.log(value) - np.log(self.low)) / (np.log(self.high) - np.log(self.low))
        else:
            u = (value - self.low) / (self.high - self.low)
        return float(_clip(u, 0.0, 1.0))

    def from_unit(self, u: float) -> float:
        u = float(_clip(u, 0.0, 1.0))
        if self.log:
            value = np.exp(np.log(self.low) + u * (np.log(self.high) - np.log(self.low)))
        else:
            value = self.low + u * (self.high - self.low)
        # Clipping is monotone, so the encoding stays order-preserving while
        # never escaping the declared domain through rounding.
        return float(_clip(value, self.low, self.high))

    def validate(self, value: Any) -> bool:
        return isinstance(value, (int, float)) and self.low <= float(value) <= self.high

    def default(self) -> float:
        return self.from_unit(0.5)


class IntParam(Hyperparameter):
    """Integer hyperparameter over ``[low, high]`` inclusive, optionally log-scaled."""

    def __init__(self, name: str, low: int, high: int, log: bool = False) -> None:
        super().__init__(name)
        if not low < high:
            raise ValueError(f"{name}: low must be < high (got {low}, {high})")
        if log and low <= 0:
            raise ValueError(f"{name}: log-scaled range requires low > 0")
        self.low = int(low)
        self.high = int(high)
        self.log = log

    def _continuous(self) -> FloatParam:
        return FloatParam(self.name, self.low, self.high + 0.4999, log=self.log)

    def sample(self, rng: np.random.Generator) -> int:
        return int(_clip(round(self._continuous().sample(rng)), self.low, self.high))

    def mutate(self, value: int, rng: np.random.Generator, scale: float = 0.2) -> int:
        mutated = self._continuous().mutate(float(value), rng, scale)
        return int(_clip(round(mutated), self.low, self.high))

    def grid(self, resolution: int) -> list[int]:
        count = min(max(2, resolution), self.high - self.low + 1)
        return sorted({int(round(v)) for v in np.linspace(self.low, self.high, count)})

    def to_unit(self, value: int) -> float:
        return FloatParam(self.name, self.low, self.high, log=self.log).to_unit(
            float(_clip(value, self.low, self.high))
        )

    def from_unit(self, u: float) -> int:
        value = FloatParam(self.name, self.low, self.high, log=self.log).from_unit(u)
        return int(_clip(round(value), self.low, self.high))

    def validate(self, value: Any) -> bool:
        return (
            isinstance(value, (int, np.integer))
            and self.low <= int(value) <= self.high
        )

    def default(self) -> int:
        return self.from_unit(0.5)


class CategoricalParam(Hyperparameter):
    """Categorical hyperparameter over an explicit list of choices."""

    def __init__(self, name: str, choices: Iterable[Any]) -> None:
        super().__init__(name)
        self.choices = list(choices)
        if len(self.choices) < 1:
            raise ValueError(f"{name}: at least one choice required")

    def sample(self, rng: np.random.Generator) -> Any:
        return self.choices[int(rng.integers(0, len(self.choices)))]

    def mutate(self, value: Any, rng: np.random.Generator, scale: float = 0.2) -> Any:
        if len(self.choices) == 1:
            return self.choices[0]
        others = [c for c in self.choices if c != value]
        return others[int(rng.integers(0, len(others)))]

    def grid(self, resolution: int) -> list[Any]:
        return list(self.choices)

    def to_unit(self, value: Any) -> float:
        index = self.choices.index(value)
        if len(self.choices) == 1:
            return 0.0
        return index / (len(self.choices) - 1)

    def from_unit(self, u: float) -> Any:
        index = int(round(float(_clip(u, 0.0, 1.0)) * (len(self.choices) - 1)))
        return self.choices[index]

    def validate(self, value: Any) -> bool:
        return value in self.choices

    def default(self) -> Any:
        return self.choices[0]


class BoolParam(CategoricalParam):
    """Boolean hyperparameter (used for feature-subset selection, Algorithm 2)."""

    def __init__(self, name: str) -> None:
        super().__init__(name, [True, False])


class ConfigSpace:
    """An ordered set of hyperparameters with optional activation conditions."""

    def __init__(self, params: Iterable[Hyperparameter] | None = None) -> None:
        self._params: dict[str, Hyperparameter] = {}
        self._conditions: dict[str, Condition] = {}
        for param in params or []:
            self.add(param)

    # -- construction -------------------------------------------------------------
    def add(self, param: Hyperparameter, condition: Condition | None = None) -> "ConfigSpace":
        if param.name in self._params:
            raise ValueError(f"duplicate hyperparameter {param.name!r}")
        self._params[param.name] = param
        if condition is not None:
            self._conditions[param.name] = condition
        return self

    def add_condition(self, name: str, condition: Condition) -> "ConfigSpace":
        if name not in self._params:
            raise KeyError(f"unknown hyperparameter {name!r}")
        self._conditions[name] = condition
        return self

    def condition(self, name: str) -> Condition | None:
        """The activation condition attached to ``name`` (``None`` if always active)."""
        return self._conditions.get(name)

    # -- namespacing / composition -------------------------------------------------
    def prefixed(self, prefix: str, sep: str = ":") -> "ConfigSpace":
        """A deep copy with every parameter (and condition parent) namespaced.

        ``prefixed("imputer")`` renames ``strategy`` to ``imputer:strategy``
        and rewrites conditions so ``imputer:strategy`` stays active only when
        ``imputer:enabled`` is — the namespace travels with the hierarchy.
        An empty prefix returns an unrenamed deep copy.
        """
        out = ConfigSpace()
        for name, param in self._params.items():
            clone = copy.deepcopy(param)
            clone.name = f"{prefix}{sep}{name}" if prefix else name
            condition = self._conditions.get(name)
            if condition is not None and prefix:
                condition = _prefix_condition(condition, prefix, sep)
            out.add(clone, condition=condition)
        return out

    @classmethod
    def join(
        cls,
        parts: Mapping[str, "ConfigSpace"] | Iterable[tuple[str, "ConfigSpace"]],
        sep: str = ":",
    ) -> "ConfigSpace":
        """Join sub-spaces under namespace prefixes into one searchable space.

        ``parts`` maps prefix → sub-space (a dict or ``(prefix, space)``
        pairs; insertion order is preserved).  Every sub-space parameter is
        renamed ``<prefix><sep><name>`` and its activation conditions are
        rewritten to the prefixed parent, so e.g. ``imputer:strategy`` is
        active only when ``imputer:enabled`` holds.  This is how a pipeline's
        preprocessing steps and its estimator contribute one joint CASH
        space (:mod:`repro.learners.pipeline`).  Name collisions across
        prefixes raise, exactly like :meth:`add`.
        """
        items = parts.items() if isinstance(parts, Mapping) else parts
        joined = cls()
        for prefix, space in items:
            sub = space.prefixed(prefix, sep=sep)
            for param in sub:
                joined.add(param, condition=sub.condition(param.name))
        return joined

    def subspace(self, prefix: str, sep: str = ":") -> "ConfigSpace":
        """The inverse of :meth:`join` for one namespace: strip ``prefix``.

        Returns a deep copy holding only the parameters named
        ``<prefix><sep>...``, with the prefix removed.  Conditions whose
        parent lives in the same namespace are kept (re-stripped); conditions
        reaching outside it cannot be represented and are dropped.
        """
        marker = f"{prefix}{sep}"
        out = ConfigSpace()
        for name, param in self._params.items():
            if not name.startswith(marker):
                continue
            clone = copy.deepcopy(param)
            clone.name = name[len(marker):]
            condition = self._conditions.get(name)
            if condition is not None:
                condition = _strip_condition(condition, marker)
            out.add(clone, condition=condition)
        return out

    @staticmethod
    def split_config(config: dict[str, Any], sep: str = ":") -> dict[str, dict[str, Any]]:
        """Group a joined configuration by namespace prefix.

        Keys without a separator land under the ``""`` group.  Only the
        first separator splits, so nested namespaces stay intact in the
        remainder: ``{"imputer:strategy": "mean"}`` →
        ``{"imputer": {"strategy": "mean"}}``.
        """
        groups: dict[str, dict[str, Any]] = {}
        for key, value in config.items():
            prefix, found, rest = key.partition(sep)
            if not found:
                prefix, rest = "", key
            groups.setdefault(prefix, {})[rest] = value
        return groups

    # -- introspection ------------------------------------------------------------
    @property
    def names(self) -> list[str]:
        return list(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Hyperparameter:
        return self._params[name]

    def __iter__(self) -> Iterator[Hyperparameter]:
        return iter(self._params.values())

    def is_active(self, name: str, config: dict[str, Any]) -> bool:
        condition = self._conditions.get(name)
        return condition is None or condition.satisfied(config)

    def active_names(self, config: dict[str, Any]) -> list[str]:
        return [name for name in self._params if self.is_active(name, config)]

    # -- configuration operations ---------------------------------------------------
    def sample(self, rng: np.random.Generator | int | None = None) -> dict[str, Any]:
        """Draw a uniform random configuration (inactive params keep defaults)."""
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        config = {name: param.sample(rng) for name, param in self._params.items()}
        return self._apply_conditions(config)

    def default_configuration(self) -> dict[str, Any]:
        return self._apply_conditions(
            {name: param.default() for name, param in self._params.items()}
        )

    def _apply_conditions(self, config: dict[str, Any]) -> dict[str, Any]:
        for name in self._params:
            if not self.is_active(name, config):
                config[name] = self._params[name].default()
        return config

    def mutate(
        self,
        config: dict[str, Any],
        rng: np.random.Generator,
        mutation_rate: float = 0.25,
        scale: float = 0.2,
    ) -> dict[str, Any]:
        """Return a mutated copy of ``config`` (GA mutation operator)."""
        mutated = dict(config)
        for name, param in self._params.items():
            if rng.random() < mutation_rate:
                mutated[name] = param.mutate(mutated[name], rng, scale)
        return self._apply_conditions(mutated)

    def crossover(
        self, parent_a: dict[str, Any], parent_b: dict[str, Any], rng: np.random.Generator
    ) -> dict[str, Any]:
        """Uniform crossover of two configurations (GA crossover operator)."""
        child = {
            name: (parent_a[name] if rng.random() < 0.5 else parent_b[name])
            for name in self._params
        }
        return self._apply_conditions(child)

    def validate(self, config: dict[str, Any]) -> bool:
        """Check that every hyperparameter is present and within its domain."""
        for name, param in self._params.items():
            if name not in config or not param.validate(config[name]):
                return False
        return True

    # -- numeric encoding (for the GP surrogate) -------------------------------------
    def to_vector(self, config: dict[str, Any]) -> np.ndarray:
        return np.array(
            [param.to_unit(config[name]) for name, param in self._params.items()],
            dtype=np.float64,
        )

    def from_vector(self, vector: np.ndarray) -> dict[str, Any]:
        config = {
            name: param.from_unit(float(u))
            for (name, param), u in zip(self._params.items(), vector)
        }
        return self._apply_conditions(config)

    # -- grid enumeration -------------------------------------------------------------
    def grid(self, resolution: int = 3, max_configs: int = 10000) -> list[dict[str, Any]]:
        """Cartesian-product grid (used by :class:`~repro.hpo.grid_search.GridSearch`)."""
        axes = [param.grid(resolution) for param in self._params.values()]
        names = self.names
        configs: list[dict[str, Any]] = [{}]
        for name, axis in zip(names, axes):
            next_configs = []
            for partial in configs:
                for value in axis:
                    extended = dict(partial)
                    extended[name] = value
                    next_configs.append(extended)
                    if len(next_configs) * len(configs) > max_configs * 10:
                        break
            configs = next_configs
            if len(configs) > max_configs:
                configs = configs[:max_configs]
        return [self._apply_conditions(c) for c in configs]

    def __repr__(self) -> str:
        return f"ConfigSpace({', '.join(self.names)})"
