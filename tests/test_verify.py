"""Verification suites: check records, pass/fail wiring, negative controls."""

import json
from pathlib import Path

import pytest

from jetflow.geometry import metric_from_name
from jetflow.scenario import Scenario, ScenarioError, load_scenario
from jetflow.verify import (
    DEFAULT_CANDIDATES,
    DTENSOR_CANDIDATES,
    default_prolong_fields,
    run_suite,
    run_verify,
)


ROOT = Path(__file__).resolve().parents[1]


def _scenario(p=2, n=2, raw=None, jets=5, changes=2):
    if p == 1:
        h = metric_from_name("exp1d")
    else:
        h = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    phi = metric_from_name("sphere:2") if n == 2 else metric_from_name(f"euclidean:{n}")
    return Scenario(raw=raw or {}, seed=11, p=p, n=n,
                    temporal_metric=h, spatial_metric=phi,
                    change_kinds=["affine", "shear"], change_count=changes,
                    jet_count=jets)


def _names(suite):
    return [c["name"] for c in suite["checks"]]


def test_check_record_shape():
    suite = run_suite("dtensors", _scenario(), candidates=["liouville-c"])
    assert suite["suite"] == "dtensors" and suite["pass"] is True
    (check,) = suite["checks"]
    assert set(check) == {"name", "pairs", "max_rel_err", "pass"}
    assert check["pairs"] == 4 * 5          # 2 kinds x 2 changes x 5 jets
    assert isinstance(check["max_rel_err"], float)


def test_default_candidates_exclude_the_negative_control():
    assert "spray-coefficients" in DTENSOR_CANDIDATES
    assert "spray-coefficients" not in DEFAULT_CANDIDATES
    assert len(DEFAULT_CANDIDATES) == 5


def test_dtensors_suite_passes_with_default_candidates():
    suite = run_suite("dtensors", _scenario())
    assert suite["pass"]
    assert _names(suite) == list(DEFAULT_CANDIDATES)


def test_negative_control_fails_the_suite():
    suite = run_suite("dtensors", _scenario(),
                      candidates=["liouville-c", "spray-coefficients"])
    by_name = {c["name"]: c for c in suite["checks"]}
    assert by_name["liouville-c"]["pass"]
    assert not by_name["spray-coefficients"]["pass"]
    assert by_name["spray-coefficients"]["max_rel_err"] > 1e-6
    assert not suite["pass"]


def test_unknown_candidate_raises():
    with pytest.raises(ScenarioError, match="unknown d-tensor candidate"):
        run_suite("dtensors", _scenario(), candidates=["bogus"])


def test_unknown_suite_raises():
    with pytest.raises(ScenarioError, match="unknown suite"):
        run_suite("frames", _scenario())


def test_sprays_suite_and_p1_roundtrip_check():
    suite = run_suite("sprays", _scenario())
    assert suite["pass"]
    assert "hspray-roundtrip" not in _names(suite)

    suite1 = run_suite("sprays", _scenario(p=1))
    assert suite1["pass"]
    assert "hspray-roundtrip" in _names(suite1)
    assert _names(suite1)[:3] == ["temporal-law", "spatial-law",
                                  "affine-combination-law"]


def test_connection_suite_passes():
    suite = run_suite("connection", _scenario())
    assert suite["pass"]
    assert _names(suite) == ["connection-law", "temporal-is-twice-spray",
                             "spray-roundtrip"]


def test_adapted_suite_passes():
    suite = run_suite("adapted", _scenario(jets=4))
    assert suite["pass"]
    assert _names(suite) == ["frame-block-diagonal", "coframe-block-diagonal",
                             "frame-coframe-duality"]


def test_prolong_suite_passes():
    suite = run_suite("prolong", _scenario(jets=3))
    assert suite["pass"], suite
    names = _names(suite)
    assert sum(1 for x in names if x.startswith(("flow-ratio", "flow-exact"))) == 3
    assert "vertical-gap-dtensor" in names
    assert "prolongation-chart-equivariance" in names


def test_prolong_suite_pushes_each_field_once_per_change(monkeypatch):
    from jetflow import prolong
    built = []

    class Counting(prolong.BaseVectorField):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.name)

    # pushforward builds its result through the module-level name
    monkeypatch.setattr(prolong, "BaseVectorField", Counting)
    suite = run_suite("prolong", _scenario(jets=2))
    assert suite["pass"]
    # the vertical-gap law and the equivariance check share fields[0]'s pushes
    assert len(built) == 4 and len(set(built)) == 4
    assert all(name.startswith("flow-a@") for name in built)


def test_prolong_suite_honors_custom_fields():
    raw = {"prolong": {"fields": [
        {"name": "steady", "temporal": ["0.2"], "spatial": ["0.4", "-0.1"]}],
        "eps": 0.05}}
    sc = _scenario(p=1, n=2, raw=raw, jets=3)
    suite = run_suite("prolong", sc)
    assert suite["pass"]
    assert "flow-exact[steady]" in _names(suite)   # constant field: transport exact


def test_default_prolong_fields_cover_requested_dimensions():
    fields = default_prolong_fields(3, 2)
    assert [f.name for f in fields] == ["flow-a", "flow-b", "flow-c"]
    for f in fields:
        assert (f.p, f.n) == (3, 2)
        assert len(f.temporal) == 3 and len(f.spatial) == 2


def test_run_verify_report_structure():
    raw = {"verify": {"suites": ["dtensors", "adapted"], "tolerance": 1e-8}}
    report = run_verify(_scenario(raw=raw, jets=4))
    assert report["command"] == "verify"
    assert report["all_pass"] is True
    assert [s["suite"] for s in report["suites"]] == ["dtensors", "adapted"]
    assert report["dimensions"] == {"p": 2, "n": 2}
    assert report["tolerance"] == 1e-8
    # deterministic, JSON-serializable
    assert json.dumps(report, sort_keys=True) == json.dumps(
        run_verify(_scenario(raw=raw, jets=4)), sort_keys=True)


def test_run_verify_expands_all():
    report = run_verify(_scenario(raw={"verify": {"suites": ["all"]}}, jets=3))
    assert [s["suite"] for s in report["suites"]] == [
        "dtensors", "sprays", "connection", "adapted", "prolong"]
    assert report["all_pass"]



def test_demo_report_matches_golden_report():
    """The demo scenario's verify report against the one stored in
    tests/data: everything but `max_rel_err` exactly, each error within
    1e-12 + 1e-9 |ref| (another numpy or libm may round the last bit apart)."""
    want = json.loads((ROOT / "tests" / "data" / "verify_demo_report.json").read_text())
    got = run_verify(load_scenario(str(ROOT / "demos" / "verify_scenario.json")))
    got = json.loads(json.dumps(got))          # the report as the CLI writes it

    def errors(report):
        return [c.pop("max_rel_err") for s in report["suites"] for c in s["checks"]]

    got_errors, want_errors = errors(got), errors(want)
    assert got == want and got["all_pass"] is True
    for g, w in zip(got_errors, want_errors):
        assert abs(g - w) <= 1e-12 + 1e-9 * abs(w)
