"""Tests of the benchmark itself: oracles, seeding, tracing and the result
contract.  Run from the checkout root with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Every metric name the benchmark's specification asks for.
SPEC_NAMES = """
wall_s setup_s peak_rss_mb fail_ratio
exprlang.diff.calls exprlang.diff.self_s exprlang.subst.calls exprlang.subst.self_s
exprlang.evaluate.calls exprlang.evaluate.self_s exprlang.nodes_built exprlang.nodes_distinct
numdiff.change_catalog.self_s numdiff.jacobian_blocks.calls numdiff.jacobian_blocks.self_s
jetspace.transform_jet.calls jetspace.transform_jet.self_s
jetspace.mixed_jet_derivatives.calls jetspace.mixed_jet_derivatives.self_s
jetspace.natural_frame_change.calls jetspace.natural_frame_change.self_s
jetspace.jet_pullback.calls jetspace.jet_pullback.self_s
geometry.pullback_metric.calls geometry.pullback_metric.self_s
dtensor.is_dtensor.calls dtensor.is_dtensor.pairs dtensor.is_dtensor.self_s
dtensor.lagrangian-metric.s_per_pair sprays.law_error.calls sprays.law_error.self_s
connection.adapted_frame.calls connection.adapted_frame.self_s
prolong.prolongation_flow_error.calls prolong.prolongation_flow_error.self_s
prolong.total_derivative.calls prolong.total_derivative.self_s
verify.run_suite.dtensors.s verify.run_suite.sprays.s verify.run_suite.connection.s
verify.run_suite.adapted.s verify.run_suite.prolong.s
geometry.christoffel_batch.calls geometry.christoffel_batch.rows geometry.christoffel_batch.self_s
geometry.inverse_batch.calls geometry.inverse_batch.self_s
sprays.coefficients.calls sprays.coefficients.self_s
sprays.coefficients_batch.calls sprays.coefficients_batch.rows sprays.coefficients_batch.self_s
maps.rk4_steps maps.s_per_rk4_step maps.harmonic_iterations maps.s_per_iteration
trace.overhead_ratio
""".split()


_scenario = workloads.scenario


def small(workload: str) -> dict:
    """A cheap variant of a workload's scenario, same shape of work (verify
    is already small)."""
    sc = _scenario(workload, 7)
    if workload == "geodesic-sphere":
        sc["geodesic"]["steps"] = 100          # the full run's step size
        sc["geodesic"]["t_span"] = [0.0, 0.3]
    elif workload == "harmonic-conformal":
        sc["harmonic"]["grid"] = 7
    return sc


def traced_values(workload: str, tmp_path: Path) -> tuple[dict, dict]:
    """Layer values and the worker record of one traced run of small(workload)."""
    work = tmp_path / workload
    work.mkdir(parents=True)
    path = work / "scenario.json"
    path.write_text(workloads.scenario_file_text(small(workload)))
    argv = [workloads.COMMANDS[workload], str(path), "--output", str(work / "report.json")]
    if workload == "harmonic-conformal":
        argv += ["--csv", str(work / "grid.csv")]
    out = run.run_worker({"mode": "traced", "argv": argv, "spans": str(work / "spans")}, work)
    assert out.get("exit_code") == 0, out
    summary = tracer.summarize(str(work / "spans"))
    return tracer.layer_values(summary), dict(out, summary=summary)


# ---------------------------------------------------------------------------
# seeding


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_scenario(workload):
    assert workloads.scenario(workload, 11) == workloads.scenario(workload, 11)
    text = workloads.scenario_file_text(workloads.scenario(workload, 11))
    assert json.loads(text)["seed"] == 11 and "_coefficients" not in text


def test_draws_stay_in_their_bounds():
    for seed in range(50):
        g = workloads.scenario("geodesic-sphere", seed)["geodesic"]
        speed = float(np.hypot(*g["v0"]))
        incl = np.degrees(np.arctan2(abs(g["v0"][0]), g["v0"][1]))
        assert g["x0"][0] == np.pi / 2 and 0.8 <= speed <= 1.2 and 15 <= incl <= 45
        coeffs = workloads.scenario("harmonic-conformal", seed)["_coefficients"]
        assert all(0.5 <= abs(c) <= 1.0 for c in coeffs)
    assert (workloads.scenario("harmonic-conformal", 1)["_coefficients"]
            != workloads.scenario("harmonic-conformal", 2)["_coefficients"])


# ---------------------------------------------------------------------------
# oracles


def test_great_circle_keeps_speed_and_reaches_start_longitude():
    x0, v0 = [np.pi / 2, 0.3], [-0.4, 0.9]
    xs, vs = workloads.great_circle(x0, v0, np.linspace(0, 2 * np.pi / np.hypot(*v0), 400))
    assert np.allclose(xs[0], x0) and np.allclose(vs[0], v0)
    speed2 = vs[:, 0] ** 2 + np.sin(xs[:, 0]) ** 2 * vs[:, 1] ** 2
    assert np.allclose(speed2, 0.4 ** 2 + 0.9 ** 2)
    assert np.isclose(xs[-1, 1], 0.3 + 2 * np.pi)      # one full turn, unwrapped


def _geodesic_report(sc):
    g = sc["geodesic"]
    xs, vs = workloads.great_circle(g["x0"], g["v0"], [0.0, g["t_span"][1]])
    return {"final": {"t": g["t_span"][1], "x": list(xs[-1]), "v": list(vs[-1])}}


def test_geodesic_oracle_rejects_shifted_endpoint():
    sc = workloads.scenario("geodesic-sphere", 3)
    report = _geodesic_report(sc)
    assert workloads.check_geodesic(sc, report) == (0, "")
    for key in ("x", "v"):
        bad = json.loads(json.dumps(report))
        bad["final"][key][1] += 1e-6
        assert workloads.check_geodesic(sc, bad)[0] == 1


def test_harmonic_oracle_rejects_perturbed_grid():
    sc = workloads.scenario("harmonic-conformal", 3)
    t = np.linspace(-1, 1, workloads.HARMONIC_GRID)
    t1, t2 = [a.ravel() for a in np.meshgrid(t, t, indexing="ij")]
    vals = workloads.harmonic_exact(sc["_coefficients"], t1, t2)

    def csv_text(v):
        rows = ["t1,t2,x1,x2"] + [",".join(repr(float(x)) for x in r) for r in zip(t1, t2, v[:, 0], v[:, 1])]
        return "\n".join(rows) + "\n"

    report = {"status": "converged"}
    assert workloads.check_harmonic(sc, report, csv_text(vals)) == (0, "")
    vals[100, 1] += 1e-6
    assert workloads.check_harmonic(sc, report, csv_text(vals))[0] == 1
    assert workloads.check_harmonic(sc, {"status": "max-iterations"}, "")[0] == 1


def _verify_report(sc):
    return {"seed": sc["seed"], "suites": [
        {"suite": s, "checks": [{"name": n, "pass": v} for n, v in checks.items()]}
        for s, checks in workloads.EXPECTED_VERDICTS.items()]}


def test_verify_oracle_rejects_flipped_verdict():
    sc = workloads.scenario("verify-sphere", 5)
    report = _verify_report(sc)
    assert workloads.check_verify(sc, report) == (0, "")
    report["suites"][2]["checks"][1]["pass"] = False
    failed, reason = workloads.check_verify(sc, report)
    assert failed == 1 and "connection/temporal-is-twice-spray" in reason
    del report["suites"][4]
    assert workloads.check_verify(sc, report)[0] == 1 + 5


def test_changed_report_byte_fails_the_repetition(tmp_path):
    r = run.Run("verify-sphere", 5, tmp_path)
    text = json.dumps(_verify_report(r.scenario), sort_keys=True)
    ok = {"exit_code": 0, "tracer_loaded": False, "wrapped": 0}
    (tmp_path / "report.json").write_text(text)
    assert r._score(ok, traced=False) == (0, "")
    (tmp_path / "report.json").write_text(text.replace('"seed": 5', '"seed": 6'))
    assert r._score(ok, traced=False)[0] == workloads.VERIFY_CHECKS
    (tmp_path / "report.json").write_text(text)
    assert r._score(dict(ok, wrapped=3), traced=False)[0] == workloads.VERIFY_CHECKS
    assert r._score({"error": "boom"}, traced=False)[0] == workloads.VERIFY_CHECKS


# ---------------------------------------------------------------------------
# tracing


def test_untraced_worker_installs_no_wrapper(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(workloads.scenario_file_text(small("geodesic-sphere")))
    argv = ["geodesic", str(path), "--output", str(tmp_path / "r.json")]
    plain = run.run_worker({"mode": "untraced", "argv": argv}, tmp_path)
    assert plain["exit_code"] == 0 and plain["wrapped"] == 0 and not plain["tracer_loaded"]
    assert plain["ref_s"] > 0
    traced = run.run_worker({"mode": "traced", "argv": argv,
                             "spans": str(tmp_path / "spans")}, tmp_path)
    assert traced["exit_code"] == 0 and traced["wrapped"] > 0 and traced["tracer_loaded"]


def test_install_rebinds_every_module_and_uninstall_restores():
    import jetflow
    import jetflow.dtensor
    import jetflow.numdiff
    original = jetflow.numdiff.jacobian_blocks
    t = tracer.Tracer()
    t.install()
    try:
        assert not t.missing
        for mod in (jetflow, jetflow.numdiff, jetflow.dtensor, sys.modules["jetflow.jetspace"]):
            assert getattr(mod.jacobian_blocks, tracer.WRAPPED_MARK)
    finally:
        t.uninstall()
    assert jetflow.dtensor.jacobian_blocks is original and jetflow.jacobian_blocks is original
    assert "eval" in vars(sys.modules["jetflow.exprlang"].Add)
    assert not hasattr(sys.modules["jetflow.exprlang"].Add.eval, tracer.WRAPPED_MARK)


def test_missing_name_is_reported_not_raised(monkeypatch):
    import jetflow.sprays
    monkeypatch.delattr(jetflow.sprays, "_law_error")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["sprays._law_error"]


def test_tree_counts_count_shared_subtrees():
    from jetflow.exprlang import add, mul, parse
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    leaf = parse("sin(x1)")                      # Call + Var: 2 nodes
    pair = add(leaf, leaf)
    assert t.tree_counts(mul(pair, pair)) == (1 + 2 * (1 + 2 + 2), 1 + 1 + 2)


def test_self_times_subtract_direct_children_only():
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    assert list(tracer.self_times(parent, start, end)) == [6.0, 2.0, 1.0, 1.0]


@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    """Two traced runs of each small workload."""
    base = tmp_path_factory.mktemp("traced")
    return {wl: [traced_values(wl, base / str(k)) for k in range(2)]
            for wl in workloads.WORKLOADS}


def test_two_traced_runs_repeat_exact_counts(traced_pair):
    for wl, ((first, _), (second, _)) in traced_pair.items():
        assert {k: first[k] for k in tracer.EXACT_COUNTS} == \
               {k: second[k] for k in tracer.EXACT_COUNTS}, wl


def test_traced_counts_see_each_workloads_work(traced_pair):
    verify, geo, harm = (traced_pair[wl][0][0] for wl in workloads.WORKLOADS)
    assert verify["dtensor.is_dtensor.pairs"] == 6 * 3 * 2      # 6 checks, 3 changes, 2 jets
    assert verify["exprlang.nodes_built"] > verify["exprlang.nodes_distinct"] > 0
    assert verify["maps.rk4_steps"] == 0 and verify["jetspace.transform_jet.calls"] > 0
    assert geo["maps.rk4_steps"] == 100
    assert geo["sprays.coefficients.calls"] == 2 * 4 * 100      # two sprays, four stages
    assert geo["geometry.christoffel_batch.rows"] == geo["geometry.christoffel_batch.calls"]
    assert geo["numdiff.jacobian_blocks.calls"] == 0
    assert harm["maps.harmonic_iterations"] > 0
    assert harm["sprays.coefficients_batch.rows"] == 25 * harm["sprays.coefficients_batch.calls"]
    assert harm["sprays.coefficients.calls"] == 0


def test_self_times_add_up_to_the_traced_wall(traced_pair):
    for wl, runs in traced_pair.items():
        values, out = runs[0]
        s = out["summary"]
        assert s["self_sum_s"] == pytest.approx(s["root_s"], rel=1e-9), wl
        listed = sum(values[f"{p}.self_s"] for p in tracer.TIMED_SPANS)
        assert listed + values["trace.bookkeeping_s"] + values["trace.unattributed_s"] \
            == pytest.approx(values["trace.wall_s"], rel=1e-9), wl
        assert s["root_s"] <= out["wall_s"]


def test_every_specified_metric_is_emitted(traced_pair):
    values = traced_pair["verify-sphere"][0][0]
    emitted = set(values) | set(tracer.FROM_RUNS)
    assert emitted == set(tracer.LAYER_METRICS)
    assert set(SPEC_NAMES) <= emitted | set(run.END_TO_END)


# ---------------------------------------------------------------------------
# the result contract


def test_end_to_end_result_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "scenario", lambda wl, seed: dict(small(wl), seed=seed))
    assert run.main(["--workload", "geodesic-sphere", "--seed", "7", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fast_quantile_is_the_tenth_percentile():
    assert run.fast_quantile([float(v) for v in range(101)]) == 10.0
    assert run.fast_quantile([3.0]) == 3.0
    assert run.tail_percentile(list(range(39))) is None
    assert run.tail_percentile([float(v) for v in range(101)]) == (90, 90.0)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-sphere",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "correct" not in proc.stdout


def test_benchmark_json_lists_what_the_benchmark_emits():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    name = r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert re.fullmatch(name, m["name"]), m["name"]
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]
