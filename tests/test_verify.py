"""Verification suites: check records, pass/fail wiring, negative controls."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from jetflow import verify
from jetflow.scenario import ScenarioError, load_scenario
from jetflow.verify import (
    DEFAULT_CANDIDATES,
    DTENSOR_CANDIDATES,
    default_prolong_fields,
    run_suite,
    run_verify,
)

from helpers import golden_writer, scenario_of


ROOT = Path(__file__).resolve().parents[1]
DEMO = ROOT / "demos" / "verify_scenario.json"
GOLDEN = ROOT / "tests" / "data" / "verify_demo_report.json"
GOLDEN_WRITER = ROOT / "tests" / "data" / "verify_demo_report.writer.json"


def _scenario(p=2, n=2, raw=None, jets=5, changes=2):
    """A loaded scenario with two change kinds; `raw` adds sections."""
    return scenario_of({
        "seed": 11, "dimensions": {"p": p, "n": n},
        "metrics": {"temporal": "exp1d" if p == 1 else "conformal2d:0.3*t1 - 0.2*t2",
                    "spatial": "sphere:2" if n == 2 else f"euclidean:{n}"},
        "changes": {"kinds": ["affine", "shear"], "count": changes},
        "jets": {"count": jets}, **(raw or {})})


def _candidates(*names):
    return {"verify": {"dtensor_candidates": list(names)}}


def _names(suite):
    return [c["name"] for c in suite["checks"]]


def test_check_record_shape():
    suite = run_suite("dtensors", _scenario(raw=_candidates("liouville-c")))
    assert suite["suite"] == "dtensors" and suite["pass"] is True
    (check,) = suite["checks"]
    assert set(check) == {"name", "pairs", "max_rel_err", "pass", "witness"}
    assert check["pairs"] == 4 * 5          # 2 kinds x 2 changes x 5 jets
    assert isinstance(check["max_rel_err"], float)
    assert set(check["witness"]) == {"change", "jet"}
    assert isinstance(check["witness"]["change"], str)
    assert 0 <= check["witness"]["jet"] < 5


def _witness_shape_ok(check):
    """Flow checks have no witness; a chart law names a change and a jet, a
    pointwise identity only a jet."""
    w = check["witness"]
    if check["name"].startswith("flow-"):
        return w is None
    return (isinstance(w, dict) and set(w) == {"change", "jet"}
            and (w["change"] is None or isinstance(w["change"], str))
            and isinstance(w["jet"], int) and w["jet"] >= 0)


def test_every_check_carries_a_witness():
    report = run_verify(_scenario(raw={"verify": {"suites": ["all"]}}, jets=3))
    checks = {c["name"]: c for s in report["suites"] for c in s["checks"]}
    assert all(_witness_shape_ok(c) for c in checks.values()), checks
    for name in ("decomposition-reconstruction", "temporal-is-twice-spray",
                 "spray-roundtrip", "frame-coframe-duality"):
        assert checks[name]["witness"]["change"] is None, name
    for name in ("frame-block-diagonal", "coframe-block-diagonal",
                 "prolongation-chart-equivariance", "connection-law"):
        assert checks[name]["witness"]["change"] is not None, name


@pytest.mark.parametrize("nan_at", [0, 1, 3])
def test_identity_check_fails_on_a_nan_error_at_any_jet(nan_at):
    """The pointwise identity loop takes `law_check`'s rule: a NaN after
    finite errors, even larger ones, fails, and the first NaN jet is the
    witness."""
    errors = [0.0, 0.25, 3.0, 0.0, 0.0]
    errors[nan_at:] = [float("nan")] * (len(errors) - nan_at)
    check = verify._identity_check("nan-identity", lambda k: np.array([errors[k], 0.0]),
                                   lambda k: np.zeros(2), range(len(errors)), 1e-8)
    assert check["pass"] is False and np.isnan(check["max_rel_err"])
    assert check["pairs"] == len(errors)
    assert check["witness"] == {"change": None, "jet": nan_at}


def test_default_candidates_exclude_the_negative_control():
    assert "spray-coefficients" in DTENSOR_CANDIDATES
    assert "spray-coefficients" not in DEFAULT_CANDIDATES
    assert len(DEFAULT_CANDIDATES) == 5


def test_dtensors_suite_passes_with_default_candidates():
    suite = run_suite("dtensors", _scenario())
    assert suite["pass"]
    assert _names(suite) == list(DEFAULT_CANDIDATES)


def test_negative_control_fails_the_suite():
    suite = run_suite("dtensors", _scenario(raw=_candidates("liouville-c", "spray-coefficients")))
    by_name = {c["name"]: c for c in suite["checks"]}
    assert by_name["liouville-c"]["pass"]
    assert not by_name["spray-coefficients"]["pass"]
    assert by_name["spray-coefficients"]["max_rel_err"] > 1e-6
    assert not suite["pass"]


def test_unknown_candidate_raises():
    with pytest.raises(ScenarioError, match="unknown d-tensor candidate"):
        run_suite("dtensors", _scenario(raw=_candidates("bogus")))


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
    # the chart laws run per (change, jet) pair; the duality, per jet
    assert [c["pairs"] for c in suite["checks"]] == [4 * 4, 4 * 4, 4]


def test_adapted_laws_fail_for_a_connection_never_rebuilt(monkeypatch):
    """Negative control: the source chart's connection used as the target
    chart's breaks both block-diagonal laws; the duality, which lives in one
    chart, still holds."""
    make = verify.canonical_connection

    def never_rebuilt(h, phi):
        frozen = dataclasses.replace(make(h, phi), rebuild=lambda change: frozen)
        return frozen

    monkeypatch.setattr(verify, "canonical_connection", never_rebuilt)
    suite = run_suite("adapted", load_scenario(str(DEMO)))
    by_name = {c["name"]: c for c in suite["checks"]}
    for name in ("frame-block-diagonal", "coframe-block-diagonal"):
        assert not by_name[name]["pass"] and by_name[name]["max_rel_err"] > 1.0, by_name[name]
    assert by_name["frame-coframe-duality"]["pass"]


def test_prolong_suite_passes():
    suite = run_suite("prolong", _scenario(jets=3))
    assert suite["pass"], suite
    names = _names(suite)
    assert sum(1 for x in names if x.startswith(("flow-ratio", "flow-exact"))) == 3
    assert "vertical-gap-dtensor" in names
    assert "prolongation-chart-equivariance" in names


def test_equivariance_fails_when_the_native_side_skips_pushforward(monkeypatch):
    """Negative control: prolonging the source chart's field in the target
    chart, without pushing it forward, breaks the equivariance law."""
    monkeypatch.setattr(verify, "pushforward", lambda X, change: X)
    suite = run_suite("prolong", load_scenario(str(DEMO)))
    (check,) = [c for c in suite["checks"] if c["name"] == "prolongation-chart-equivariance"]
    assert not check["pass"] and check["max_rel_err"] > 1.0, check
    assert not suite["pass"]


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
    """The demo scenario's verify report against the one stored in tests/data.
    Where the stored writer matches this one, the whole report must be equal,
    every digit of `max_rel_err` included.  Elsewhere another numpy or libm
    may round the last bit apart: each error is held within
    1e-12 + 1e-9 |ref|, and since the argmax of errors near 1e-16 can move,
    only the shape of each witness is checked."""
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(run_verify(load_scenario(str(DEMO)))))   # as the CLI writes it
    assert got["all_pass"] is True
    if json.loads(GOLDEN_WRITER.read_text()) == golden_writer():
        assert got == want
        return

    def errors_and_witnesses(report):
        checks = [c for s in report["suites"] for c in s["checks"]]
        assert all(_witness_shape_ok(c) for c in checks)
        return [(c.pop("max_rel_err"), c.pop("witness")) for c in checks]

    got_errors, want_errors = errors_and_witnesses(got), errors_and_witnesses(want)
    assert got == want
    for (g, _), (w, _) in zip(got_errors, want_errors):
        assert abs(g - w) <= 1e-12 + 1e-9 * abs(w)


if __name__ == "__main__":
    # Regenerate the golden report and its writer:
    #   PYTHONPATH=src python tests/test_verify.py
    from jetflow.cli import main
    main(["verify", str(DEMO), "--output", str(GOLDEN)])
    GOLDEN_WRITER.write_text(json.dumps(golden_writer(), sort_keys=True, indent=2) + "\n")
