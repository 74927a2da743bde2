"""Scenario loading: schema validation, seeding, derived catalogs."""

import json
import os

import numpy as np
import pytest

from jetflow.scenario import (
    DEFAULT_SEED,
    SUITE_NAMES,
    Scenario,
    ScenarioError,
    load_scenario,
)


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
