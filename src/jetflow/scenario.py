"""Scenario files: JSON descriptions of a verification or solver run.

A scenario fixes the jet-space dimensions, a temporal and a spatial metric,
the randomized chart-change catalog and jet sample, and per-command
sections.  The JETFLOW_SEED environment variable overrides the scenario
seed so a run can be reproduced or re-randomized without editing the file.

Loading checks a scenario against `SCENARIO_SCHEMA` in two steps.  First
`_conforms` walks the schema: it knows only the keywords the schema uses
and answers True only where jsonschema would find no error.  Only when it
answers False is jsonschema imported and run, to word the error with the
JSON path of the offending element, or to accept what the walk could not
decide (an integer written as 2.0, NaN).  So a valid scenario never loads
jsonschema and its ~70 modules, and the loader accepts and words exactly
what jsonschema alone would.  Past the schema, 2.0 as an integer is the
int 2, and a number that is not a finite float is a scenario error.

A suite draws its changes and jets from `random.Random(f"{seed}/{suite}/changes")`
and `.../jets`, through `random()` alone: Python fixes that sequence for a
seed across versions (numpy's Generators promise no such thing), and no run
loads `numpy.random`.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass, field

from .geometry import Metric, metric_from_name
from .numdiff import ChangeMap, change_catalog
from .jetspace import JetPoint, random_jet

__all__ = ["ScenarioError", "Scenario", "SCENARIO_SCHEMA", "load_scenario",
           "DEFAULT_SEED", "SUITE_NAMES"]

DEFAULT_SEED = 2026
SUITE_NAMES = ("dtensors", "sprays", "connection", "adapted", "prolong")

_CHANGE_KINDS = ["affine", "shear", "monotone", "mixed"]

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["dimensions", "metrics"],
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "dimensions": {
            "type": "object",
            "required": ["p", "n"],
            "additionalProperties": False,
            "properties": {
                "p": {"type": "integer", "minimum": 1, "maximum": 6},
                "n": {"type": "integer", "minimum": 1, "maximum": 6},
            },
        },
        "metrics": {
            "type": "object",
            "required": ["temporal", "spatial"],
            "additionalProperties": False,
            "properties": {
                "temporal": {"type": "string"},
                "spatial": {"type": "string"},
            },
        },
        "changes": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kinds": {
                    "type": "array",
                    "items": {"enum": _CHANGE_KINDS},
                    "minItems": 1,
                },
                "count": {"type": "integer", "minimum": 1, "maximum": 100},
            },
        },
        "jets": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "count": {"type": "integer", "minimum": 1, "maximum": 10000},
                "v_scale": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "verify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "suites": {
                    "type": "array",
                    "items": {"enum": list(SUITE_NAMES) + ["all"]},
                    "minItems": 1,
                },
                "dtensor_candidates": {
                    "type": "array",
                    "items": {"type": "string"},
                    "minItems": 1,
                },
                "tolerance": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "geodesic": {
            "type": "object",
            "required": ["x0", "v0", "t_span", "steps"],
            "additionalProperties": False,
            "properties": {
                "x0": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "v0": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "t_span": {"type": "array", "items": {"type": "number"},
                           "minItems": 2, "maxItems": 2},
                "steps": {"type": "integer", "minimum": 1, "maximum": 10000000},
            },
        },
        "harmonic": {
            "type": "object",
            "required": ["boundary"],
            "additionalProperties": False,
            "properties": {
                "boundary": {"type": "array", "items": {"type": "string"}, "minItems": 1},
                "grid": {"type": "integer", "minimum": 3, "maximum": 513},
                "tolerance": {"type": "number", "exclusiveMinimum": 0},
                "max_iters": {"type": "integer", "minimum": 1},
                "damping": {"type": "number", "exclusiveMinimum": 0},
                "domain": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"},
                              "minItems": 2, "maxItems": 2},
                    "minItems": 2, "maxItems": 2,
                },
            },
        },
        "prolong": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "fields": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["name", "temporal", "spatial"],
                        "additionalProperties": False,
                        "properties": {
                            "name": {"type": "string"},
                            "temporal": {"type": "array", "items": {"type": "string"}},
                            "spatial": {"type": "array", "items": {"type": "string"}},
                        },
                    },
                },
                "eps": {"type": "number", "exclusiveMinimum": 0},
                "substeps": {"type": "integer", "minimum": 1, "maximum": 1000},
            },
        },
    },
}


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    raw: dict
    seed: int
    p: int
    n: int
    temporal_metric: Metric
    spatial_metric: Metric
    change_kinds: list[str] = field(default_factory=lambda: ["affine", "shear", "mixed"])
    change_count: int = 3
    jet_count: int = 20
    v_scale: float = 2.0

    def suite_rng(self, suite: str) -> random.Random:
        """Independent deterministic stream per suite, `random.Random(f"{seed}/{suite}")`,
        e.g. "2026/dtensors/changes": adding or reordering suites does not
        perturb the draws of the others."""
        return random.Random(f"{self.seed}/{suite}")

    def catalog_kinds(self) -> list[str]:
        """The change kinds drawn at (p, n): `monotone` only when p = n = 1."""
        return [k for k in self.change_kinds if k != "monotone" or self.p == self.n == 1]

    def changes_for(self, suite: str) -> list[ChangeMap]:
        return change_catalog(self.suite_rng(suite + "/changes"), self.p, self.n,
                              self.catalog_kinds(), self.change_count)

    def jets_for(self, suite: str, count: int | None = None) -> list[JetPoint]:
        rng = self.suite_rng(suite + "/jets")
        return [random_jet(rng, self.p, self.n,
                           box_t=self.temporal_metric.box,
                           box_x=self.spatial_metric.box,
                           v_scale=self.v_scale)
                for _ in range(count if count is not None else self.jet_count)]

    def section(self, name: str) -> dict:
        if name not in self.raw:
            raise ScenarioError(f"scenario has no '{name}' section")
        return self.raw[name]


def _is_number(x) -> bool:
    # a bool is an int to Python but not a number to JSON Schema; NaN compares
    # unlike any number, so the walk leaves it to jsonschema
    return isinstance(x, (int, float)) and not isinstance(x, bool) and x == x


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    # jsonschema also takes a float such as 2.0; the walk leaves that to it
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "number": _is_number,
}

# keyword -> check(instance, keyword value, whole schema); each check asks
# for the instance type its keyword applies to, where jsonschema ignores the
# keyword on other types, so it can only answer False too often
_KEYWORDS = {
    "$schema": lambda x, v, s: True,
    "type": lambda x, v, s: v in _TYPES and _TYPES[v](x),
    "enum": lambda x, v, s: isinstance(x, str) and x in v,
    "required": lambda x, v, s: isinstance(x, dict) and all(k in x for k in v),
    "properties": lambda x, v, s: isinstance(x, dict) and all(
        _conforms(x[k], sub) for k, sub in v.items() if k in x),
    "additionalProperties": lambda x, v, s: isinstance(x, dict) and all(
        _conforms(x[k], v) for k in x if k not in s.get("properties", {})),
    "items": lambda x, v, s: isinstance(x, list) and all(_conforms(e, v) for e in x),
    "minItems": lambda x, v, s: isinstance(x, list) and len(x) >= v,
    "maxItems": lambda x, v, s: isinstance(x, list) and len(x) <= v,
    "minimum": lambda x, v, s: _is_number(x) and x >= v,
    "maximum": lambda x, v, s: _is_number(x) and x <= v,
    "exclusiveMinimum": lambda x, v, s: _is_number(x) and x > v,
}


def _conforms(instance, schema) -> bool:
    """True only where jsonschema's Draft 2020-12 validator finds no error in
    `instance` against `schema`; False where it may find one, or where this
    walk cannot tell: a keyword outside `_KEYWORDS`, a float where an integer
    is asked, NaN.  A JSON document and `SCENARIO_SCHEMA` make it raise
    nothing: the walk goes no deeper than the schema."""
    if isinstance(schema, bool):
        return schema
    return all(key in _KEYWORDS and _KEYWORDS[key](instance, value, schema)
               for key, value in schema.items())


def _json_path(error) -> str:
    return "/" + "/".join(str(part) for part in error.absolute_path)


def _settle_numbers(x, schema: dict, path: str = "") -> None:
    """In a scenario `x` that meets `schema`, make each integer written as
    a float (2.0) an int, in place, and raise ScenarioError at the first
    number that is not a finite float: the schema takes inf, NaN and an
    integer beyond the float range wherever it sets a number no maximum."""
    if schema.get("type") == "number" and not abs(x) <= sys.float_info.max:
        raise ScenarioError(f"scenario error at '{path}': {x!r} is not a finite float")
    if isinstance(x, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in x:
                if sub.get("type") == "integer":
                    x[key] = int(x[key])
                _settle_numbers(x[key], sub, f"{path}/{key}")
    elif isinstance(x, list):
        for k, item in enumerate(x):
            _settle_numbers(item, schema.get("items", {}), f"{path}/{k}")


def load_scenario(path: str) -> Scenario:
    """Read, schema-validate, and resolve a scenario file.

    Validation has two steps: `_conforms` accepts a scenario that meets
    `SCENARIO_SCHEMA` without importing jsonschema; only a scenario it
    rejects goes to jsonschema, whose first error, in path order, becomes
    the ScenarioError (and which may accept what the walk could not
    decide).  Then `_settle_numbers` reads 2.0 as an integer 2 and makes a
    number that is not a finite float a ScenarioError too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc

    if not _conforms(raw, SCENARIO_SCHEMA):
        from jsonschema import Draft202012Validator

        validator = Draft202012Validator(SCENARIO_SCHEMA)
        errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
        if errors:
            first = errors[0]
            raise ScenarioError(f"scenario error at '{_json_path(first)}': {first.message}")
    _settle_numbers(raw, SCENARIO_SCHEMA)

    p = raw["dimensions"]["p"]
    n = raw["dimensions"]["n"]
    env_seed = os.environ.get("JETFLOW_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ScenarioError(f"JETFLOW_SEED must be an integer, got {env_seed!r}") from exc
        if seed < 0:
            raise ScenarioError("JETFLOW_SEED must be non-negative")
    else:
        seed = raw.get("seed", DEFAULT_SEED)

    try:
        h = metric_from_name(raw["metrics"]["temporal"], kind="temporal")
        phi = metric_from_name(raw["metrics"]["spatial"], kind="spatial")
    except ValueError as exc:
        raise ScenarioError(f"scenario error at '/metrics': {exc}") from exc
    if h.dim != p:
        raise ScenarioError(f"temporal metric '{h.name}' has dimension {h.dim}, scenario says p={p}")
    if phi.dim != n:
        raise ScenarioError(f"spatial metric '{phi.name}' has dimension {phi.dim}, scenario says n={n}")

    sc = Scenario(raw=raw, seed=seed, p=p, n=n, temporal_metric=h, spatial_metric=phi)
    changes = raw.get("changes", {})
    if "kinds" in changes:
        sc.change_kinds = list(changes["kinds"])
        if not sc.catalog_kinds():
            raise ScenarioError(f"scenario error at '/changes/kinds': no kind of {sc.change_kinds} "
                                f"applies at p={p}, n={n} (monotone needs p = n = 1)")
    if "count" in changes:
        sc.change_count = changes["count"]
    jets = raw.get("jets", {})
    if "count" in jets:
        sc.jet_count = jets["count"]
    if "v_scale" in jets:
        sc.v_scale = jets["v_scale"]
    return sc
