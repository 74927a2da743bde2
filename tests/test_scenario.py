"""Scenario loading: schema validation, seeding, derived catalogs."""

import copy
import json
import math
import os
import random

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from jetflow import scenario
from jetflow.scenario import (
    DEFAULT_SEED,
    SCENARIO_SCHEMA,
    SUITE_NAMES,
    Scenario,
    ScenarioError,
    _conforms,
    load_scenario,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


BASE = {
    "seed": 7,
    "dimensions": {"p": 2, "n": 2},
    "metrics": {"temporal": "conformal2d:0.3*t1 - 0.2*t2", "spatial": "sphere:2"},
    "changes": {"kinds": ["affine", "shear"], "count": 2},
    "jets": {"count": 5, "v_scale": 1.5},
}


def _write(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_resolves_metrics_and_settings(tmp_path):
    sc = load_scenario(_write(tmp_path, BASE))
    assert (sc.p, sc.n, sc.seed) == (2, 2, 7)
    assert sc.temporal_metric.kind == "temporal"
    assert sc.spatial_metric.name == "sphere:2"
    assert sc.change_kinds == ["affine", "shear"]
    assert sc.change_count == 2 and sc.jet_count == 5 and sc.v_scale == 1.5


def test_defaults_apply_when_sections_missing(tmp_path):
    payload = {"dimensions": {"p": 1, "n": 2},
               "metrics": {"temporal": "exp1d", "spatial": "sphere:2"}}
    sc = load_scenario(_write(tmp_path, payload))
    assert sc.seed == DEFAULT_SEED
    assert sc.change_kinds == ["affine", "shear", "mixed"]
    assert sc.change_count == 3 and sc.jet_count == 20


@pytest.mark.parametrize("mutate,path_fragment", [
    (lambda d: d.pop("metrics"), "'metrics' is a required"),
    (lambda d: d["dimensions"].update(p=0), "/dimensions/p"),
    (lambda d: d["dimensions"].update(p=9), "/dimensions/p"),
    (lambda d: d["changes"].update(kinds=["warp"]), "/changes/kinds/0"),
    (lambda d: d.update(geodesic={"x0": [1.0]}), "/geodesic"),
    (lambda d: d.update(extra=1), "extra"),
])
def test_schema_violations_carry_json_paths(tmp_path, mutate, path_fragment):
    payload = json.loads(json.dumps(BASE))
    mutate(payload)
    with pytest.raises(ScenarioError, match="scenario error at"):
        try:
            load_scenario(_write(tmp_path, payload))
        except ScenarioError as exc:
            assert path_fragment in str(exc), str(exc)
            raise


def test_metric_dimension_mismatch(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["dimensions"] = {"p": 1, "n": 2}
    with pytest.raises(ScenarioError, match="dimension"):
        load_scenario(_write(tmp_path, payload))


def test_unknown_metric_reports_metrics_path(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["metrics"]["spatial"] = "torus:2"
    with pytest.raises(ScenarioError, match="/metrics"):
        load_scenario(_write(tmp_path, payload))


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(str(bad))


def test_env_seed_override(tmp_path, monkeypatch):
    path = _write(tmp_path, BASE)
    monkeypatch.setenv("JETFLOW_SEED", "123")
    assert load_scenario(path).seed == 123
    monkeypatch.setenv("JETFLOW_SEED", "12.5")
    with pytest.raises(ScenarioError, match="integer"):
        load_scenario(path)
    monkeypatch.setenv("JETFLOW_SEED", "-1")
    with pytest.raises(ScenarioError, match="non-negative"):
        load_scenario(path)
    monkeypatch.delenv("JETFLOW_SEED")
    assert load_scenario(path).seed == 7


def test_suite_streams_are_deterministic_and_independent(tmp_path):
    sc = load_scenario(_write(tmp_path, BASE))
    a1 = sc.jets_for("dtensors")
    a2 = sc.jets_for("dtensors")
    assert all(np.array_equal(u.v, w.v) for u, w in zip(a1, a2))
    b = sc.jets_for("sprays")
    assert not np.array_equal(a1[0].v, b[0].v)
    # changing the jet stream must not perturb the change catalog
    c1 = [c.name for c in sc.changes_for("dtensors")]
    sc.jets_for("dtensors")
    c2 = [c.name for c in sc.changes_for("dtensors")]
    assert c1 == c2


def test_suite_stream_is_the_stdlib_generator_on_seed_and_suite(tmp_path):
    """suite_rng(s) is random.Random(f"{seed}/{s}"), which Python keeps
    fixed across versions; these are its first draws for the default seed."""
    payload = {key: value for key, value in BASE.items() if key != "seed"}
    rng = load_scenario(_write(tmp_path, payload)).suite_rng("dtensors/changes")
    assert [rng.random() for _ in range(3)] == [
        0.3063198434554373, 0.363611745913075, 0.12126633734388836]


def test_changes_for_drops_monotone_in_higher_dimensions(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["changes"] = {"kinds": ["affine", "monotone"], "count": 2}
    sc = load_scenario(_write(tmp_path, payload))
    names = [c.name for c in sc.changes_for("dtensors")]
    assert all(name.startswith("affine") for name in names)

    payload11 = {"dimensions": {"p": 1, "n": 1},
                 "metrics": {"temporal": "exp1d", "spatial": "euclidean:1"},
                 "changes": {"kinds": ["monotone"], "count": 2}}
    sc11 = load_scenario(_write(tmp_path, payload11, "s11.json"))
    names11 = [c.name for c in sc11.changes_for("dtensors")]
    assert names11 == ["monotone-0", "monotone-1"]


def test_kinds_that_all_drop_are_a_scenario_error(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["changes"] = {"kinds": ["monotone", "monotone"]}
    with pytest.raises(ScenarioError, match="scenario error at '/changes/kinds'.*p=2, n=2"):
        load_scenario(_write(tmp_path, payload))


def test_jets_respect_metric_boxes(tmp_path):
    sc = load_scenario(_write(tmp_path, BASE))
    for u in sc.jets_for("dtensors", count=40):
        assert 0.2 < u.x[0] < np.pi - 0.2
        assert np.max(np.abs(u.v)) <= 1.5


def test_section_lookup(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["verify"] = {"suites": ["all"], "tolerance": 1e-8}
    sc = load_scenario(_write(tmp_path, payload))
    assert sc.section("verify")["suites"] == ["all"]
    with pytest.raises(ScenarioError, match="no 'geodesic' section"):
        sc.section("geodesic")


def test_suite_names_frozen():
    assert SUITE_NAMES == ("dtensors", "sprays", "connection", "adapted", "prolong")


# ---------------------------------------------------------------------------
# the schema walk against jsonschema, its oracle

def _demo(name):
    with open(os.path.join(ROOT, "demos", f"{name}_scenario.json"), encoding="utf-8") as fh:
        return json.load(fh)


# scenarios of the CI smoke step
SMOKE = [
    {"dimensions": {"p": 1, "n": 2},
     "metrics": {"temporal": "exp1d", "spatial": "sphere:2"},
     "prolong": {"fields": [
         {"name": "swirl", "temporal": ["0.3 + 0.1*t1*x1"],
          "spatial": ["0.2*cos(x2) + 0.1*t1", "0.4 - 0.1*x1*x2"]},
         {"name": "drift", "temporal": ["1 + 0.2*t1^2"],
          "spatial": ["0.1*t1", "0.3*sin(x1)"]}]}},
    {"dimensions": {"p": 2, "n": 2},
     "metrics": {"temporal": "euclidean:2", "spatial": "sphere:2"},
     "changes": {"kinds": ["monotone"]}},
    {"dimensions": {"p": 2, "n": 2},
     "metrics": {"temporal": "conformal2d:0.3*t1 - 0.2*t2",
                 "spatial": "conformal2d:0.2*(x1^2 + x2^2)"},
     "harmonic": {"boundary": ["exp(t1)*cos(t2)", "exp(t1)*sin(t2)"], "grid": 33}},
    {"dimensions": {"p": 1, "n": 2},
     "metrics": {"temporal": "exp1d", "spatial": "hyperbolic:2"},
     "geodesic": {"x0": [0.3, 1.0], "v0": [0.5, 0.4], "t_span": [-0.5, 1.0], "steps": 400}},
]

# the benchmark's three workload shapes
BENCHMARK_SHAPED = [
    {"seed": 11, "dimensions": {"p": 2, "n": 2},
     "metrics": {"temporal": "conformal2d:0.3*t1 - 0.2*t2", "spatial": "sphere:2"},
     "changes": {"kinds": ["affine", "shear", "mixed"], "count": 1},
     "jets": {"count": 2, "v_scale": 1.5},
     "verify": {"suites": ["all"], "tolerance": 1e-8}},
    {"seed": 1, "dimensions": {"p": 1, "n": 2},
     "metrics": {"temporal": "euclidean:1", "spatial": "sphere:2"},
     "geodesic": {"x0": [1.5707963267948966, -2.1], "v0": [-0.43, 0.91],
                  "t_span": [0.0, 3.0], "steps": 1000}},
    {"seed": 2026, "dimensions": {"p": 2, "n": 2},
     "metrics": {"temporal": "conformal2d:0.3*t1 - 0.2*t2", "spatial": "euclidean:2"},
     "harmonic": {"boundary": ["0.61*(t1^2 - t2^2) + -0.83*t1*t2",
                               "-0.5*(t1^2 - t2^2) + 0.97*t1*t2"],
                  "grid": 17, "domain": [[-1.0, 1.0], [-1.0, 1.0]],
                  "tolerance": 1e-9, "max_iters": 20000}},
]

# every property of the schema, so that each bound is mutated at least once
EVERY_PROPERTY = {
    "seed": 3, "dimensions": {"p": 1, "n": 1},
    "metrics": {"temporal": "exp1d", "spatial": "euclidean:1"},
    "changes": {"kinds": ["monotone", "affine"], "count": 2},
    "jets": {"count": 4, "v_scale": 0.5},
    "verify": {"suites": ["prolong"], "dtensor_candidates": ["liouville-c"],
               "tolerance": 1e-6},
    "geodesic": {"x0": [0.1], "v0": [0.2], "t_span": [0, 1], "steps": 10},
    "harmonic": {"boundary": ["t1"], "grid": 5, "tolerance": 1e-6, "max_iters": 10,
                 "damping": 0.5, "domain": [[0, 1], [0, 1]]},
    "prolong": {"fields": [{"name": "f", "temporal": ["1"], "spatial": ["x1"]}],
                "eps": 0.01, "substeps": 4},
}

ODD_VALUES = (None, True, 0, 2.0, -0.0, 1e308, "", [], {}, math.nan, math.inf)
DROP = object()


def _bases():
    return ([_demo(name) for name in ("verify", "geodesic", "harmonic")]
            + SMOKE + BENCHMARK_SHAPED + [EVERY_PROPERTY])


def _nodes(instance, schema, path=()):
    """(path, value, subschema) of every element of `instance`, the root included."""
    yield path, instance, schema
    if isinstance(instance, dict):
        properties = schema.get("properties", {})
        for key, value in instance.items():
            yield from _nodes(value, properties.get(key, {}), path + (key,))
    elif isinstance(instance, list):
        for i, value in enumerate(instance):
            yield from _nodes(value, schema.get("items", {}), path + (i,))


def _edits(base):
    """Single edits (path, value) of `base`: each key dropped, an unknown key
    added, each element set to each odd value, and each bounded number or
    array length set to its bound and one either side of it."""
    for path, value, schema in _nodes(base, SCENARIO_SCHEMA):
        if isinstance(value, dict):
            yield from ((path + (key,), DROP) for key in value)
            yield path + ("unknown",), 1
        if path:
            yield from ((path, odd) for odd in ODD_VALUES)
        for key in ("minimum", "maximum", "exclusiveMinimum"):
            if key in schema:
                yield from ((path, schema[key] + d) for d in (-1, 0, 1))
        for key in ("minItems", "maxItems"):
            if key in schema and isinstance(value, list) and value:
                yield from ((path, [value[i % len(value)] for i in range(length)])
                            for length in (schema[key] - 1, schema[key], schema[key] + 1)
                            if length >= 0)


def _edited(base, edits):
    """A copy of `base` with `edits` applied in turn; an edit whose parent is
    gone or no longer a container is skipped."""
    out = copy.deepcopy(base)
    for path, value in edits:
        parent = out
        try:
            for part in path[:-1]:
                parent = parent[part]
            if value is DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            continue
    return out


def _corpus():
    """Each base, each single edit of it, and 40 seeded pairs of edits per base."""
    rng = random.Random(24)
    for base in _bases():
        edits = list(_edits(base))
        yield base
        yield from (_edited(base, [edit]) for edit in edits)
        yield from (_edited(base, rng.sample(edits, 2)) for _ in range(40))


def _first_error(instance):
    """The ScenarioError message jsonschema alone words for `instance`, or None."""
    errors = sorted(Draft202012Validator(SCENARIO_SCHEMA).iter_errors(instance),
                    key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    path = "/" + "/".join(str(part) for part in errors[0].absolute_path)
    return f"scenario error at '{path}': {errors[0].message}"


def test_the_walk_accepts_every_base_scenario():
    # a valid scenario never needs jsonschema
    assert all(_conforms(base, SCENARIO_SCHEMA) for base in _bases())


def test_the_walk_never_accepts_what_jsonschema_rejects():
    accepted = rejected = conservative = 0
    for instance in _corpus():
        error = _first_error(instance)
        ok = _conforms(instance, SCENARIO_SCHEMA)
        assert not (ok and error), (instance, error)
        accepted += ok
        rejected += error is not None
        conservative += not ok and error is None
    # the corpus holds both kinds, and the walk leaves some valid ones to jsonschema
    assert accepted > 100 and rejected > 1000 and conservative > 0


def _outcome(path):
    try:
        load_scenario(path)
    except ScenarioError as exc:
        return str(exc)
    return None


def test_load_ends_as_with_jsonschema_alone(tmp_path, monkeypatch):
    monkeypatch.delenv("JETFLOW_SEED", raising=False)
    rng = random.Random(2026)
    corpus = list(_corpus())
    path = str(tmp_path / "scenario.json")
    for instance in rng.sample(corpus, 400):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(instance, fh)
        walked = _outcome(path)
        with monkeypatch.context() as m:
            m.setattr(scenario, "_conforms", lambda instance, schema: False)
            assert _outcome(path) == walked, instance
        error = _first_error(instance)
        if error is not None:
            assert walked == error


def test_the_walk_rejects_a_keyword_it_does_not_know():
    demo = _demo("verify")
    schema = copy.deepcopy(SCENARIO_SCHEMA)
    schema["properties"]["metrics"]["properties"]["temporal"]["pattern"] = "^conformal"
    assert _conforms(demo, SCENARIO_SCHEMA)
    assert not _conforms(demo, schema)
    assert not Draft202012Validator(schema).is_valid(dict(demo, metrics={
        "temporal": "exp1d", "spatial": "sphere:2"}))
