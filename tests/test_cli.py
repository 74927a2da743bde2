"""End-to-end CLI: exit codes, deterministic reports, CSV output."""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest


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


@pytest.mark.parametrize("field,text", [
    ("x0", "[Infinity, 0]"),
    ("v0", "[0, NaN]"),
    ("t_span", "[0, 1e999]"),
    ("t_span", "[-1e308, 1e308]"),             # the span's length overflows
])
def test_geodesic_non_finite_input_exits_two(tmp_path, field, text):
    # JSON readers take Infinity, NaN and 1e999 as numbers; a bad input is a
    # scenario error, not a numerical failure of the solver
    geodesic = {"x0": "[0.5, 0]", "v0": "[0, 1]", "t_span": "[0, 1]", field: text}
    path = tmp_path / "scenario.json"
    path.write_text('{"dimensions": {"p": 1, "n": 2}, "metrics": '
                    '{"temporal": "euclidean:1", "spatial": "sphere:2"}, '
                    '"geodesic": {"x0": %(x0)s, "v0": %(v0)s, "t_span": %(t_span)s, '
                    '"steps": 10}}' % geodesic)
    r = run_cli("geodesic", str(path))
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert r.stderr == "error: x0, v0, t_span and the span's length must be finite\n"


@pytest.mark.parametrize("field,text", [
    ("domain", "[[1, 1], [-1, 1]]"),                       # a side of zero length
    ("domain", "[[0, Infinity], [-1, 1]]"),
    ("domain", "[[-1, 1], [NaN, 1]]"),
    ("domain", "[[-1e308, 1e308], [-1, 1]]"),              # the side's length overflows
    ("damping", "Infinity"),
    ("tolerance", "NaN"),
])
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
    assert r.stderr == ("error: tolerance, damping, the domain sides and their lengths must be "
                        "finite, and no side may have zero length\n")


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
