"""End-to-end CLI: exit codes, deterministic reports, CSV output."""

import collections
import csv
import gc
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

from helpers import collector_paused

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("JETFLOW_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "jetflow", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


VERIFY_SMALL = {
    "seed": 99,
    "dimensions": {"p": 2, "n": 2},
    "metrics": {"temporal": "conformal2d:0.3*t1 - 0.2*t2", "spatial": "sphere:2"},
    "changes": {"kinds": ["affine", "shear"], "count": 2},
    "jets": {"count": 5},
    "verify": {"suites": ["dtensors", "adapted"]},
}


def test_verify_passes_and_is_byte_identical(tmp_path):
    path = write_scenario(tmp_path, VERIFY_SMALL)
    r1 = run_cli("verify", path)
    r2 = run_cli("verify", path)
    assert r1.returncode == 0, r1.stderr
    assert r1.stdout == r2.stdout
    report = json.loads(r1.stdout)
    assert report["all_pass"] is True
    assert report["seed"] == 99
    assert [s["suite"] for s in report["suites"]] == ["dtensors", "adapted"]


def test_verify_env_seed_override(tmp_path):
    path = write_scenario(tmp_path, VERIFY_SMALL)
    r = run_cli("verify", path, env_extra={"JETFLOW_SEED": "777"})
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["seed"] == 777
    assert r.stdout != run_cli("verify", path).stdout


def test_verify_negative_control_exits_one(tmp_path):
    payload = json.loads(json.dumps(VERIFY_SMALL))
    payload["verify"] = {"suites": ["dtensors"],
                         "dtensor_candidates": ["liouville-c", "spray-coefficients"]}
    r = run_cli("verify", write_scenario(tmp_path, payload))
    assert r.returncode == 1
    report = json.loads(r.stdout)
    assert report["all_pass"] is False


def test_verify_output_file(tmp_path):
    path = write_scenario(tmp_path, VERIFY_SMALL)
    out = tmp_path / "report.json"
    r = run_cli("verify", path, "--output", str(out))
    assert r.returncode == 0
    assert r.stdout == ""
    on_disk = out.read_text()
    assert on_disk.endswith("\n")
    assert json.loads(on_disk)["all_pass"] is True
    assert on_disk == run_cli("verify", path).stdout


def test_verify_four_temporal_dimensions(tmp_path):
    # the lagrangian-metric candidate inverts the 4 x 4 temporal metric
    payload = {"seed": 7, "dimensions": {"p": 4, "n": 1},
               "metrics": {"temporal": "euclidean:4", "spatial": "euclidean:1"},
               "changes": {"kinds": ["affine", "shear", "mixed"], "count": 1},
               "jets": {"count": 2},
               "verify": {"suites": ["dtensors"]}}
    r = run_cli("verify", write_scenario(tmp_path, payload))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["all_pass"] is True


def test_scenario_schema_error_exits_two(tmp_path):
    payload = {"dimensions": {"p": 2, "n": 2},
               "metrics": {"temporal": "euclidean:2"}}
    r = run_cli("verify", write_scenario(tmp_path, payload))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "error: scenario error at '/metrics'" in r.stderr
    assert "'spatial' is a required property" in r.stderr


def test_verify_with_no_applicable_change_kind_exits_two(tmp_path):
    """monotone is drawn only at p = n = 1: a monotone-only list at p = n = 2
    would check every chart law on no pair, so it is a scenario error."""
    payload = {"dimensions": {"p": 2, "n": 2},
               "metrics": {"temporal": "euclidean:2", "spatial": "sphere:2"},
               "changes": {"kinds": ["monotone"]}}
    out = tmp_path / "report.json"
    r = run_cli("verify", write_scenario(tmp_path, payload), "--output", str(out))
    assert r.returncode == 2
    assert r.stdout == "" and not out.exists()
    assert "error: scenario error at '/changes/kinds'" in r.stderr


def test_missing_file_exits_two(tmp_path):
    r = run_cli("verify", str(tmp_path / "nope.json"))
    assert r.returncode == 2 and "cannot read scenario" in r.stderr


def test_geodesic_runs_and_writes_csv(tmp_path):
    payload = {
        "dimensions": {"p": 1, "n": 2},
        "metrics": {"temporal": "euclidean:1", "spatial": "sphere:2"},
        "geodesic": {"x0": [1.5707963267948966, 0.0], "v0": [0.0, 1.0],
                     "t_span": [0.0, 1.0], "steps": 400},
    }
    path = write_scenario(tmp_path, payload)
    csv_path = tmp_path / "orbit.csv"
    r = run_cli("geodesic", path, "--csv", str(csv_path))
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["command"] == "geodesic"
    # equatorial circle: theta stays at pi/2, phi advances by 1 radian
    assert abs(report["final"]["x"][0] - 1.5707963267948966) < 1e-9
    assert abs(report["final"]["x"][1] - 1.0) < 1e-9
    assert report["energy"]["max_drift"] < 1e-12

    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "x2", "v1", "v2"]
    assert len(rows) == 1 + 401
    assert float(rows[1][0]) == 0.0 and abs(float(rows[-1][0]) - 1.0) < 1e-12


def test_geodesic_requires_p1(tmp_path):
    payload = {
        "dimensions": {"p": 2, "n": 2},
        "metrics": {"temporal": "euclidean:2", "spatial": "sphere:2"},
        "geodesic": {"x0": [1.5, 0.0], "v0": [0.0, 1.0],
                     "t_span": [0.0, 1.0], "steps": 10},
    }
    r = run_cli("geodesic", write_scenario(tmp_path, payload))
    assert r.returncode == 2 and "p=1" in r.stderr


def test_geodesic_requires_matching_lengths(tmp_path):
    payload = {
        "dimensions": {"p": 1, "n": 2},
        "metrics": {"temporal": "euclidean:1", "spatial": "sphere:2"},
        "geodesic": {"x0": [1.5], "v0": [0.0, 1.0],
                     "t_span": [0.0, 1.0], "steps": 10},
    }
    r = run_cli("geodesic", write_scenario(tmp_path, payload))
    assert r.returncode == 2 and "length n=2" in r.stderr


BIG = "1" + "0" * 400          # an integer beyond the float range
# (field, text) -> the error
GEODESIC_BAD = {
    ("x0", "[Infinity, 0]"): "scenario error at '/geodesic/x0/0': inf is not a finite float",
    ("v0", "[0, NaN]"): "scenario error at '/geodesic/v0/1': nan is not a finite float",
    ("t_span", "[0, 1e999]"): "scenario error at '/geodesic/t_span/1': inf is not a finite float",
    ("t_span", "[-1e308, 1e308]"): "the length of t_span must be finite",   # it overflows
    ("x0", f"[{BIG}, 0]"): f"scenario error at '/geodesic/x0/0': {BIG} is not a finite float",
}


@pytest.mark.parametrize("field,text", list(GEODESIC_BAD))
def test_geodesic_non_finite_input_exits_two(tmp_path, field, text):
    # JSON readers take Infinity, NaN, 1e999 and an integer beyond the float
    # range as numbers; a bad input is a scenario error, not a numerical
    # failure of the solver
    geodesic = {"x0": "[0.5, 0]", "v0": "[0, 1]", "t_span": "[0, 1]", field: text}
    path = tmp_path / "scenario.json"
    path.write_text('{"dimensions": {"p": 1, "n": 2}, "metrics": '
                    '{"temporal": "euclidean:1", "spatial": "sphere:2"}, '
                    '"geodesic": {"x0": %(x0)s, "v0": %(v0)s, "t_span": %(t_span)s, '
                    '"steps": 10}}' % geodesic)
    r = run_cli("geodesic", str(path))
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert r.stderr == f"error: {GEODESIC_BAD[field, text]}\n"


SIDES = "each side of the domain must have a finite, nonzero length"
HARMONIC_BAD = {
    ("domain", "[[1, 1], [-1, 1]]"): SIDES,                        # a side of zero length
    ("domain", "[[0, Infinity], [-1, 1]]"):
        "scenario error at '/harmonic/domain/0/1': inf is not a finite float",
    ("domain", "[[-1, 1], [NaN, 1]]"):
        "scenario error at '/harmonic/domain/1/0': nan is not a finite float",
    ("domain", "[[-1e308, 1e308], [-1, 1]]"): SIDES,               # the length overflows
    ("damping", "Infinity"): "scenario error at '/harmonic/damping': inf is not a finite float",
    ("tolerance", "NaN"): "scenario error at '/harmonic/tolerance': nan is not a finite float",
    ("domain", f"[[-1, 1], [-1, {BIG}]]"):
        f"scenario error at '/harmonic/domain/1/1': {BIG} is not a finite float",
    ("damping", BIG): f"scenario error at '/harmonic/damping': {BIG} is not a finite float",
    ("tolerance", BIG): f"scenario error at '/harmonic/tolerance': {BIG} is not a finite float",
}


@pytest.mark.parametrize("field,text", list(HARMONIC_BAD))
def test_harmonic_non_finite_input_exits_two(tmp_path, field, text):
    # like the geodesic's inputs: a bad input is a scenario error, and no
    # report is written
    path = tmp_path / "scenario.json"
    path.write_text('{"dimensions": {"p": 2, "n": 1}, "metrics": '
                    '{"temporal": "conformal2d:0.3*t1 - 0.2*t2", "spatial": "euclidean:1"}, '
                    '"harmonic": {"boundary": ["t1^2 - t2^2"], "grid": 9, "%s": %s}}'
                    % (field, text))
    out = tmp_path / "report.json"
    r = run_cli("harmonic", str(path), "--output", str(out))
    assert r.returncode == 2, r.stderr
    assert r.stdout == "" and not out.exists()
    assert r.stderr == f"error: {HARMONIC_BAD[field, text]}\n"


@pytest.mark.parametrize("text", ["Infinity", "NaN", "1e999", BIG])
@pytest.mark.parametrize("section,key", [
    ("verify", "tolerance"),                # inf passed, and NaN failed, every check
    ("jets", "v_scale"),
    ("prolong", "eps"),
])
def test_non_finite_tolerance_scale_or_step_exits_two(tmp_path, section, key, text):
    # the schema bounds these numbers below only, and JSON readers take
    # Infinity, NaN, 1e999 (inf) and an integer beyond the float range as
    # numbers: a scenario error, no report
    payload = {"dimensions": {"p": 1, "n": 1},
               "metrics": {"temporal": "exp1d", "spatial": "euclidean:1"},
               "jets": {"count": 2}, "verify": {}, "prolong": {}}
    payload[section][key] = "@"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload).replace('"@"', text))
    out = tmp_path / "report.json"
    r = run_cli("prolong", str(path), "--output", str(out))
    assert r.returncode == 2, r.stderr
    assert r.stdout == "" and not out.exists()
    value = json.loads(text)
    assert r.stderr == (f"error: scenario error at '/{section}/{key}': "
                        f"{value!r} is not a finite float\n")


# per integer site of the schema: a scenario with an int there, and the
# command whose report reads it
_PROLONG_SMALL = {"seed": 3, "dimensions": {"p": 1, "n": 1},
                  "metrics": {"temporal": "exp1d", "spatial": "euclidean:1"},
                  "changes": {"count": 1}, "jets": {"count": 2}, "prolong": {"substeps": 4}}
_GEODESIC_SMALL = {"dimensions": {"p": 1, "n": 2},
                   "metrics": {"temporal": "euclidean:1", "spatial": "sphere:2"},
                   "geodesic": {"x0": [1.5, 0.0], "v0": [0.0, 1.0], "t_span": [0.0, 1.0],
                                "steps": 20}}
_HARMONIC_SMALL = {"dimensions": {"p": 2, "n": 1},
                   "metrics": {"temporal": "conformal2d:0.3*t1 - 0.2*t2",
                               "spatial": "euclidean:1"},
                   "harmonic": {"boundary": ["t1^2 - t2^2"], "grid": 9, "max_iters": 50}}
INTEGER_SITES = {
    ("seed",): ("prolong", _PROLONG_SMALL),
    ("dimensions", "p"): ("prolong", _PROLONG_SMALL),
    ("dimensions", "n"): ("prolong", _PROLONG_SMALL),
    ("changes", "count"): ("prolong", _PROLONG_SMALL),
    ("jets", "count"): ("prolong", _PROLONG_SMALL),
    ("geodesic", "steps"): ("geodesic", _GEODESIC_SMALL),
    ("harmonic", "grid"): ("harmonic", _HARMONIC_SMALL),
    ("harmonic", "max_iters"): ("harmonic", _HARMONIC_SMALL),
    ("prolong", "substeps"): ("prolong", _PROLONG_SMALL),
}


def _integer_sites(schema, path=()):
    for key, sub in schema.get("properties", {}).items():
        if sub.get("type") == "integer":
            yield path + (key,)
        yield from _integer_sites(sub, path + (key,))


def test_every_integer_site_of_the_schema_is_tested():
    from jetflow.scenario import SCENARIO_SCHEMA
    assert list(_integer_sites(SCENARIO_SCHEMA)) == list(INTEGER_SITES)


@pytest.mark.parametrize("site", list(INTEGER_SITES), ids="/".join)
def test_an_integer_written_as_a_float_gives_the_same_report(tmp_path, monkeypatch, site):
    # JSON Schema's `integer` takes 2.0; the loader reads it as the int 2
    from jetflow.cli import main
    monkeypatch.delenv("JETFLOW_SEED", raising=False)
    command, base = INTEGER_SITES[site]
    runs = []
    for k, convert in enumerate((int, float)):
        payload = json.loads(json.dumps(base))
        *parents, key = site
        section = payload
        for part in parents:
            section = section[part]
        section[key] = convert(section[key])
        out = tmp_path / f"report-{k}.json"
        status = main([command, write_scenario(tmp_path, payload, f"scenario-{k}.json"),
                       "--output", str(out)])
        runs.append((status, out.read_bytes()))
    assert runs[0] == runs[1] and runs[0][0] in (0, 1)


def test_harmonic_converges_and_writes_csv(tmp_path):
    payload = {
        "dimensions": {"p": 2, "n": 1},
        "metrics": {"temporal": "conformal2d:0.3*t1 - 0.2*t2",
                    "spatial": "euclidean:1"},
        "harmonic": {"boundary": ["t1^2 - t2^2"], "grid": 17,
                     "tolerance": 1e-9, "domain": [[-1.0, 1.0], [-1.0, 1.0]]},
    }
    path = write_scenario(tmp_path, payload)
    out_csv = tmp_path / "grid.csv"
    r = run_cli("harmonic", path, "--csv", str(out_csv))
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["status"] == "converged"
    assert report["max_residual"] <= 1e-9
    assert len(report["residual_history"]) == report["iterations"] <= 25
    assert report["residual_history"][-1] == report["max_residual"]
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t1", "t2", "x1"]
    assert len(rows) == 1 + 17 * 17
    # corner rows carry the boundary values
    assert abs(float(rows[1][2]) - 0.0) < 1e-12          # t=(-1,-1): 1 - 1
    # solution matches the quadratic in the interior too (stencil-exact)
    mid = rows[1 + 8 * 17 + 8]                            # t = (0, 0)
    assert abs(float(mid[2])) < 1e-7


def test_harmonic_exact_start_reports_the_measured_residual(tmp_path):
    """A zero boundary makes the zero start exact: no V-cycle runs, and the
    report gives the measured max|R|, not the divergence guard's floor."""
    payload = {
        "dimensions": {"p": 2, "n": 1},
        "metrics": {"temporal": "euclidean:2", "spatial": "euclidean:1"},
        "harmonic": {"boundary": ["0"], "grid": 9},
    }
    r = run_cli("harmonic", write_scenario(tmp_path, payload))
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["status"] == "converged" and report["iterations"] == 0
    assert report["max_residual"] == 0.0 and report["residual_history"] == []


def test_single_level_residual_history_is_decimated(tmp_path):
    """An even grid runs one Jacobi sweep per iteration; the report keeps
    every k-th residual and the last, at most 64 entries."""
    payload = {
        "dimensions": {"p": 2, "n": 1},
        "metrics": {"temporal": "conformal2d:0.3*t1 - 0.2*t2",
                    "spatial": "euclidean:1"},
        "harmonic": {"boundary": ["exp(t1)*cos(t2)"], "grid": 12,
                     "domain": [[-1.0, 1.0], [-1.0, 1.0]]},
    }
    r = run_cli("harmonic", write_scenario(tmp_path, payload))
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    iterations, history = report["iterations"], report["residual_history"]
    assert report["status"] == "converged" and iterations > 64
    k = -(-iterations // 64)
    assert len(history) == -(-iterations // k) <= 64
    assert history[-1] == report["max_residual"]
    assert all(b < a for a, b in zip(history, history[1:]))


def test_history_decimation():
    from jetflow.cli import _decimated
    assert _decimated([]) == []
    assert _decimated(range(1, 65)) == list(range(1, 65))
    assert _decimated(range(1, 66)) == list(range(2, 65, 2)) + [65]
    assert _decimated(range(1, 129)) == list(range(2, 129, 2))
    assert _decimated(range(1, 20001))[-2:] == [19719.0, 20000.0]
    assert all(len(_decimated(range(n))) <= 64 for n in range(1, 2000, 7))


def test_harmonic_requires_p2(tmp_path):
    payload = {
        "dimensions": {"p": 1, "n": 1},
        "metrics": {"temporal": "euclidean:1", "spatial": "euclidean:1"},
        "harmonic": {"boundary": ["t1^2"]},
    }
    r = run_cli("harmonic", write_scenario(tmp_path, payload))
    assert r.returncode == 2 and "p=2" in r.stderr


def test_harmonic_boundary_length_check(tmp_path):
    payload = {
        "dimensions": {"p": 2, "n": 2},
        "metrics": {"temporal": "euclidean:2", "spatial": "euclidean:2"},
        "harmonic": {"boundary": ["t1"], "grid": 9},
    }
    r = run_cli("harmonic", write_scenario(tmp_path, payload))
    assert r.returncode == 2 and "n=2" in r.stderr


def test_prolong_subcommand(tmp_path):
    payload = {
        "seed": 5,
        "dimensions": {"p": 1, "n": 1},
        "metrics": {"temporal": "exp1d", "spatial": "euclidean:1"},
        "changes": {"kinds": ["affine", "shear"], "count": 2},
        "jets": {"count": 4},
    }
    r = run_cli("prolong", write_scenario(tmp_path, payload))
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["command"] == "prolong" and report["all_pass"] is True
    names = [c["name"] for c in report["suites"][0]["checks"]]
    assert "prolongation-chart-equivariance" in names


def test_missing_section_exits_two(tmp_path):
    payload = {"dimensions": {"p": 1, "n": 2},
               "metrics": {"temporal": "euclidean:1", "spatial": "sphere:2"}}
    r = run_cli("geodesic", write_scenario(tmp_path, payload))
    assert r.returncode == 2 and "no 'geodesic' section" in r.stderr


HARMONIC_SPHERE = {
    "dimensions": {"p": 2, "n": 2},
    "metrics": {"temporal": "euclidean:2", "spatial": "sphere:2"},
    "harmonic": {"boundary": ["1.2+0.2*t1", "0.5*t2"], "grid": 9},
}


def test_numerical_failure_exits_one_with_error_report(tmp_path):
    # the zero initial guess sits on the sphere chart's pole, where det g = 0
    path = write_scenario(tmp_path, HARMONIC_SPHERE)
    r = run_cli("harmonic", path)
    assert r.returncode == 1, r.stderr
    report = json.loads(r.stdout)
    assert set(report) == {"command", "status", "error"}
    assert report["command"] == "harmonic" and report["status"] == "error"
    assert "metric 'sphere:2' is degenerate" in report["error"]
    assert "degenerate" in r.stderr
    out = tmp_path / "report.json"
    r = run_cli("harmonic", path, "--output", str(out))
    assert r.returncode == 1 and r.stdout == ""
    assert json.loads(out.read_text()) == report


def test_domain_error_during_a_solve_exits_one(tmp_path):
    # the zero initial guess puts x2 = 0 into the hyperbolic metric's 1/x2^2
    payload = json.loads(json.dumps(HARMONIC_SPHERE))
    payload["metrics"]["spatial"] = "hyperbolic:2"
    payload["harmonic"]["boundary"] = ["0.3*t1", "1+0.1*t2"]
    r = run_cli("harmonic", write_scenario(tmp_path, payload))
    assert r.returncode == 1, r.stderr
    assert json.loads(r.stdout) == {"command": "harmonic", "status": "error",
                                    "error": "domain error: division by zero"}


def test_overflow_during_a_solve_exits_one(tmp_path):
    # the geodesic runs off to large x1, where exp(2*x1^2) overflows a float
    payload = {"dimensions": {"p": 1, "n": 2},
               "metrics": {"temporal": "euclidean:1", "spatial": "conformal2d:x1^2"},
               "geodesic": {"x0": [1, 0], "v0": [3, 0.5], "t_span": [0, 20], "steps": 40}}
    r = run_cli("geodesic", write_scenario(tmp_path, payload))
    assert r.returncode == 1, r.stderr
    assert json.loads(r.stdout) == {"command": "geodesic", "status": "error",
                                    "error": "math range error"}
    assert "Traceback" not in r.stderr and "error: math range error" in r.stderr


def test_trig_of_an_overflowed_value_exits_one(tmp_path):
    """sin of a product that overflows to inf: math's ValueError is the
    ExprError of a domain error while evaluating, a numerical failure (exit
    1 with an error report) in the prolong field and in the temporal metric
    alike, not a scenario error."""
    error = "domain error: sin, cos or tan of an infinite value"
    field = {"name": "big", "temporal": ["1"], "spatial": ["sin(x1*1e300*1e300)"]}
    prolong = {"dimensions": {"p": 1, "n": 1},
               "metrics": {"temporal": "euclidean:1", "spatial": "euclidean:1"},
               "prolong": {"fields": [field]}}
    with open(os.path.join(ROOT, "demos", "verify_scenario.json")) as fh:
        verify = json.load(fh)
    verify["metrics"]["temporal"] = "conformal2d:sin(t1*1e300*1e300)"
    for command, payload in (("prolong", prolong), ("verify", verify)):
        r = run_cli(command, write_scenario(tmp_path, payload))
        assert r.returncode == 1, r.stderr
        assert json.loads(r.stdout) == {"command": command, "status": "error", "error": error}
        assert "Traceback" not in r.stderr and f"error: {error}" in r.stderr


def test_domain_error_of_the_flow_transport_alone_exits_one(tmp_path):
    """sqrt(exp(-1000 - x1^2)) is sqrt(0.0) = 0 at every jet, but its
    x1-derivative divides by 2 sqrt(0.0): the transport's variational
    equations raise the domain error, a numerical failure (exit 1)."""
    error = "domain error: division by zero"
    payload = {"dimensions": {"p": 1, "n": 1},
               "metrics": {"temporal": "euclidean:1", "spatial": "euclidean:1"},
               "prolong": {"fields": [{"name": "flat", "temporal": ["1"],
                                       "spatial": ["sqrt(exp(-1000 - x1^2))"]}]}}
    r = run_cli("prolong", write_scenario(tmp_path, payload))
    assert r.returncode == 1, r.stderr
    assert json.loads(r.stdout) == {"command": "prolong", "status": "error", "error": error}
    assert "Traceback" not in r.stderr and f"error: {error}" in r.stderr


HARMONIC_DIVERGES = {
    "dimensions": {"p": 2, "n": 2},
    "metrics": {"temporal": "conformal2d:0.3*t1 - 0.2*t2",
                "spatial": "conformal2d:0.2*(x1^2 + x2^2)"},
    "harmonic": {"boundary": ["exp(t1)*cos(t2)", "exp(t1)*sin(t2)"], "grid": 35},
}


def _strict_json(text: str):
    """Parse as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_diverging_solve_reports_without_warnings(tmp_path):
    # on the default domain the 35 x 35 grid overflows in its first V-cycle;
    # with RuntimeWarning an error the solve must still end in its report,
    # and the non-finite residual is written as null
    path = write_scenario(tmp_path, HARMONIC_DIVERGES)
    env = dict(os.environ)
    env.pop("JETFLOW_SEED", None)
    r = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "jetflow",
                        "harmonic", path], capture_output=True, text=True, env=env)
    assert r.returncode == 1, r.stderr
    assert "RuntimeWarning" not in r.stderr and "Traceback" not in r.stderr
    report = _strict_json(r.stdout)
    assert report["status"] == "diverged"
    assert report["max_residual"] is None and None in report["residual_history"]


def test_verify_and_prolong_leave_numpy_random_unloaded(tmp_path):
    # the suites draw from the stdlib generator, so neither command loads
    # numpy.random, which costs several MB and ms per run; a valid scenario
    # passes the schema walk, so no command loads jsonschema either
    runs = [("verify", "verify"), ("prolong", "verify"), ("geodesic", "geodesic"),
            ("harmonic", "harmonic")]
    code = "\n".join(
        ["import sys", "from jetflow.cli import main"]
        + [f"assert main([{cmd!r}, 'demos/{demo}_scenario.json', "
           f"'--output', {str(tmp_path / cmd)!r}]) == 0" for cmd, demo in runs]
        + ["assert 'numpy.random' not in sys.modules, 'numpy.random was imported'",
           "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'"])
    env = dict(os.environ)
    env.pop("JETFLOW_SEED", None)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                       cwd=ROOT)
    assert r.returncode == 0, r.stderr
    for cmd in ("verify", "prolong"):
        assert _strict_json((tmp_path / cmd).read_text())["all_pass"] is True
    # jsonschema words the error of a scenario the walk rejects, as before
    with open(os.path.join(ROOT, "demos", "verify_scenario.json"), encoding="utf-8") as fh:
        demo = json.load(fh)
    demo["dimensions"]["p"] = 9
    r = run_cli("verify", write_scenario(tmp_path, demo))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == ("error: scenario error at '/dimensions/p': "
                        "9 is greater than the maximum of 6\n")


def test_non_finite_geodesic_state_exits_one(tmp_path):
    # x overflows to inf in the first step; the second step's stage input
    # is non-finite, a numerical failure rather than a bad scenario
    payload = {"dimensions": {"p": 1, "n": 2},
               "metrics": {"temporal": "euclidean:1", "spatial": "euclidean:2"},
               "geodesic": {"x0": [0, 0], "v0": [1e308, 0], "t_span": [0, 20], "steps": 40}}
    r = run_cli("geodesic", write_scenario(tmp_path, payload))
    assert r.returncode == 1, r.stderr
    error = "non-finite geodesic state in RK4 step 2 of 40, at t = 0.5"
    assert json.loads(r.stdout) == {"command": "geodesic", "status": "error", "error": error}
    assert r.stderr == f"error: {error}\n"


def test_degenerate_metric_during_a_geodesic_exits_one(tmp_path):
    payload = {"dimensions": {"p": 1, "n": 2},
               "metrics": {"temporal": "euclidean:1", "spatial": "hyperbolic:2"},
               "geodesic": {"x0": [0.3, 1], "v0": [0, 40], "t_span": [0, 20], "steps": 40}}
    r = run_cli("geodesic", write_scenario(tmp_path, payload))
    assert r.returncode == 1, r.stderr
    report = json.loads(r.stdout)
    assert report["status"] == "error"
    assert "metric 'hyperbolic:2' is degenerate" in report["error"]


@pytest.mark.parametrize("boundary,fragment", [
    ("1.2+*t1", "expected operand at offset 4"),
    ("1.2+0.2*x1", "foreign variables ['x1']"),
])
def test_bad_boundary_expression_exits_two(tmp_path, boundary, fragment):
    payload = json.loads(json.dumps(HARMONIC_SPHERE))
    payload["harmonic"]["boundary"][0] = boundary
    r = run_cli("harmonic", write_scenario(tmp_path, payload))
    assert r.returncode == 2
    assert r.stdout == ""
    assert fragment in r.stderr


def test_bad_prolong_field_expression_exits_two(tmp_path):
    payload = {"dimensions": {"p": 1, "n": 1},
               "metrics": {"temporal": "exp1d", "spatial": "euclidean:1"},
               "jets": {"count": 2},
               "prolong": {"fields": [{"name": "bad", "temporal": ["t1^"],
                                       "spatial": ["x1"]}]}}
    r = run_cli("prolong", write_scenario(tmp_path, payload))
    assert r.returncode == 2
    assert r.stdout == "" and "at offset" in r.stderr


def test_console_script_version():
    exe = shutil.which("jetflow")
    if exe is None:
        pytest.skip("console script not on PATH")
    r = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout.strip().startswith("jetflow ")


# ---------------------------------------------------------------------------
# the cyclic collector: `main` pauses it and restores it on every way out


GEODESIC_SMALL = {"dimensions": {"p": 1, "n": 2},
                  "metrics": {"temporal": "euclidean:1", "spatial": "sphere:2"},
                  "geodesic": {"x0": [1.2, 0.0], "v0": [0.0, 1.0], "t_span": [0, 0.1],
                               "steps": 5}}


def _exit_cases(tmp_path):
    """(argv, the exit status, or the SystemExit code argparse raises)."""
    report = str(tmp_path / "report.json")
    return {
        "pass": (["geodesic", write_scenario(tmp_path, GEODESIC_SMALL), "--output", report], 0),
        "numerical": (["harmonic", write_scenario(tmp_path, HARMONIC_SPHERE, "sphere.json"),
                       "--output", report], 1),
        "scenario": (["verify", str(tmp_path / "nope.json")], 2),
        "help": (["verify", "--help"], SystemExit(0)),
        "bad-arguments": (["verify"], SystemExit(2)),
    }


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case", ["pass", "numerical", "scenario", "help", "bad-arguments"])
def test_main_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, case, enabled):
    """The collector is off while `main` runs, and afterwards as the caller
    had it, whatever the way out: a report, the numerical-failure report,
    a scenario error, or argparse's SystemExit."""
    from jetflow import cli

    argv, want = _exit_cases(tmp_path)[case]
    seen = []
    real_parser = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda: seen.append(gc.isenabled()) or real_parser())
    (gc.enable if enabled else gc.disable)()
    try:
        if isinstance(want, SystemExit):
            with pytest.raises(SystemExit) as stop:
                cli.main(argv)
            assert stop.value.code == want.code
        else:
            assert cli.main(argv) == want
        assert gc.isenabled() is enabled and seen == [False]
    finally:
        gc.enable()
    if case == "numerical":
        assert json.loads((tmp_path / "report.json").read_text())["status"] == "error"


def _jetflow_garbage(objects) -> collections.Counter:
    """How many objects of each jetflow type, expression nodes included,
    and of each jetflow function (generated code included) `objects` hold."""
    from jetflow.exprlang import Expr

    def ours(o) -> str | None:
        if isinstance(o, Expr) or type(o).__module__.startswith("jetflow"):
            return type(o).__qualname__
        if isinstance(o, types.FunctionType) and (
                (o.__module__ or "").startswith("jetflow")
                or o.__code__.co_filename.startswith("<compiled")):
            return f"function {o.__qualname__}"
        return None

    return collections.Counter(name for name in map(ours, objects) if name is not None)


@pytest.mark.parametrize("command", ["verify", "prolong", "geodesic", "harmonic"])
def test_a_command_leaves_no_cyclic_garbage(tmp_path, command):
    """The object graphs a command builds are acyclic: run in-process on
    the demo scenario with the collector off, a command leaves nothing of
    jetflow's for it to find (argparse and json may leave cycles)."""
    from jetflow.cli import main

    scenario = os.path.join(ROOT, "demos", f"{'verify' if command == 'prolong' else command}"
                                           "_scenario.json")
    gc.collect()
    with collector_paused():
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main([command, scenario, "--output", str(tmp_path / "report.json"),
                         *(["--csv", str(tmp_path / "out.csv")]
                           if command in ("geodesic", "harmonic") else [])]) == 0
            gc.collect()
            found = _jetflow_garbage(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    assert not found, found.most_common(10)
