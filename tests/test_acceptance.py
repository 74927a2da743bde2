"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Every criterion is self-contained, seeded, and asserts at its stated
tolerance.
"""

import json
import os
import subprocess
import sys

import numpy as np

from jetflow import numdiff as nd
from jetflow.connection import (adapted_coframe, adapted_frame,
                                adapted_frame_blocks, canonical_connection,
                                connection_from_sprays, sprays_from_connection)
from jetflow.dtensor import (is_dtensor, lagrangian_metric_field,
                             liouville_c_field, liouville_l_field,
                             normalization_j_field)
from jetflow.exprlang import parse
from jetflow.geometry import Metric, energy_density, metric_from_name
from jetflow.jetspace import (natural_coframe_change, natural_frame_change,
                              transform_jet)
from jetflow.maps import (SmoothMap, harmonic_residual, poisson_residual,
                          solve_affine_ode, solve_harmonic_grid, spray_source)
from jetflow.prolong import prolongation_flow_error, vertical_gap_field
from jetflow.sprays import (canonical_pair, canonical_spatial,
                            canonical_temporal, decompose_spray,
                            spray_coefficient_field, spray_difference_field,
                            spray_law_error)
from jetflow.verify import default_prolong_fields

from helpers import catalog, jets_in


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_tensoriality():
    """C, L, J, and the energy-density Hessian each pass the d-tensor law
    over >= 100 (change, jet) pairs at 1e-8."""
    rng = np.random.default_rng(2026)
    h = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    phi = metric_from_name("sphere:2")
    changes = catalog(rng, 2, 2, kinds=("affine", "shear", "mixed"), count=3)
    jets = jets_in(rng, 2, 2, h=h, phi=phi, count=12)
    fields = [
        liouville_c_field(2, 2),
        liouville_l_field(h, 2),
        normalization_j_field(h, 2),
        lagrangian_metric_field(energy_density(h, phi), 2, 2),
    ]
    worst = 0.0
    ok = True
    for f in fields:
        v = is_dtensor(f, changes, jets, tol=1e-8)
        assert v.pairs >= 100
        worst = max(worst, v.max_rel_err)
        ok = ok and v.passed
    _report(1, "tensoriality", ok,
            f"4 fields x {len(changes) * len(jets)} pairs, max_rel_err={worst:.3e}")
    assert ok and worst < 1e-8


def test_criterion_02_spray_laws_and_negative_control():
    """Canonical sprays satisfy the inhomogeneous laws at 1e-8 over >= 100
    pairs each; raw spray coefficients fail the d-tensor law with a witness."""
    rng = np.random.default_rng(2027)
    # temporal: exp1d at p=1
    h1 = metric_from_name("exp1d")
    phi_s = metric_from_name("sphere:2")
    changes1 = catalog(rng, 1, 2, kinds=("affine", "monotone", "shear"), count=3)
    jets1 = jets_in(rng, 1, 2, h=h1, phi=phi_s, count=12)
    v_t = spray_law_error(canonical_temporal(h1, 2), changes1, jets1, tol=1e-8)
    assert v_t.pairs >= 100

    # spatial: sphere:2 and hyperbolic:2 at p=2, shear changes (both factors
    # stay inside the metric boxes)
    h2 = metric_from_name("euclidean:2", kind="temporal")
    changes2 = catalog(rng, 2, 2, kinds=("shear",), count=9)
    results = [v_t]
    for name in ("sphere:2", "hyperbolic:2"):
        phi = metric_from_name(name)
        jets2 = jets_in(rng, 2, 2, h=h2, phi=phi, count=12)
        results.append(spray_law_error(canonical_spatial(phi, 2),
                                       changes2, jets2, tol=1e-8))
        assert results[-1].pairs >= 100

    neg_t = is_dtensor(spray_coefficient_field(canonical_temporal(h1, 2)),
                       changes1, jets1, tol=1e-8)
    jets_neg = jets_in(rng, 2, 2, h=h2, phi=phi_s, count=12)
    neg_s = is_dtensor(spray_coefficient_field(canonical_spatial(phi_s, 2)),
                       changes2, jets_neg, tol=1e-8)

    ok = (all(r.passed for r in results)
          and not neg_t.passed and neg_t.witness is not None
          and not neg_s.passed and neg_s.witness is not None)
    worst = max(r.max_rel_err for r in results)
    _report(2, "spray transformation laws", ok,
            f"3 sprays law max_rel_err={worst:.3e}; negative controls fail "
            f"with witnesses {neg_t.witness} / {neg_s.witness}")
    assert ok and worst < 1e-8


def test_criterion_03_spray_difference_decomposition():
    """Difference of two 1-d canonical temporal sprays is a d-tensor at 1e-8;
    spray = canonical + remainder reconstructs to 1e-12."""
    rng = np.random.default_rng(2028)
    h1 = metric_from_name("exp1d")
    h2 = Metric("quad1d", "temporal", [[parse("1 + 0.4*t1^2")]],
                box=[(-1.5, 1.5)])
    phi = metric_from_name("sphere:2")
    changes = catalog(rng, 1, 2, kinds=("affine", "monotone", "shear"), count=3)
    jets = jets_in(rng, 1, 2, h=h1, phi=phi, count=12)

    s1 = canonical_temporal(h1, 2)
    diff = spray_difference_field(s1, canonical_temporal(h2, 2))
    v = is_dtensor(diff, changes, jets, tol=1e-8)
    assert v.pairs >= 100

    base, remainder = decompose_spray(s1, h2)
    recon = max(float(np.max(np.abs(s1.coefficients(u) - base.coefficients(u)
                                    - remainder(u).reshape(2, 1, 1))))
                for u in jets)
    ok = v.passed and recon <= 1e-12
    _report(3, "spray difference decomposition", ok,
            f"difference d-tensor max_rel_err={v.max_rel_err:.3e} over "
            f"{v.pairs} pairs; reconstruction residual={recon:.3e}")
    assert ok


def test_criterion_04_connection_round_trips():
    """M = 2H exactly; spray -> connection -> spray returns the original
    spatial spray to 1e-10 at 20 seeded jets."""
    rng = np.random.default_rng(2029)
    h = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    phi = metric_from_name("sphere:2")
    pair = canonical_pair(h, phi)
    conn = connection_from_sprays(pair, h)
    back = sprays_from_connection(conn)
    jets = jets_in(rng, 2, 2, h=h, phi=phi, count=20)
    err_m = max(float(np.max(np.abs(conn.M.at(u)
                                    - 2.0 * pair.temporal.coefficients(u))))
                for u in jets)
    err_t = max(float(np.max(np.abs(back.temporal.coefficients(u)
                                    - pair.temporal.coefficients(u))))
                for u in jets)
    err_s = max(float(np.max(np.abs(back.spatial.coefficients(u)
                                    - pair.spatial.coefficients(u))))
                for u in jets)
    ok = err_m <= 1e-12 and err_t <= 1e-12 and err_s <= 1e-10
    _report(4, "connection round trips", ok,
            f"M-vs-2H={err_m:.3e}, temporal={err_t:.3e}, spatial={err_s:.3e} "
            f"at 20 jets")
    assert ok


def test_criterion_05_adapted_basis_laws():
    """Adapted frame and coframe of the canonical connection conjugate the
    natural changes to the block-diagonal forms at 1e-8 over the catalog."""
    rng = np.random.default_rng(2030)
    h = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    phi = metric_from_name("sphere:2")
    conn = canonical_connection(h, phi)
    changes = catalog(rng, 2, 2, kinds=("affine", "shear", "mixed"), count=3)
    jets = jets_in(rng, 2, 2, h=h, phi=phi, count=12)
    worst_f = worst_c = 0.0
    pairs = 0
    for change in changes:
        native = conn.in_chart(change)
        for u in jets:
            u_new = transform_jet(change, u)
            blocks = adapted_frame_blocks(change, u)
            F = adapted_frame(conn, u)
            F_new = adapted_frame(native, u_new)
            worst_f = max(worst_f, float(np.max(np.abs(
                F @ natural_frame_change(change, u) @ np.linalg.inv(F_new)
                - blocks))))
            K = adapted_coframe(conn, u)
            K_new = adapted_coframe(native, u_new)
            worst_c = max(worst_c, float(np.max(np.abs(
                K @ natural_coframe_change(change, u) @ np.linalg.inv(K_new)
                - np.linalg.inv(blocks).T))))
            pairs += 1
    ok = worst_f <= 1e-8 and worst_c <= 1e-8
    _report(5, "adapted basis laws", ok,
            f"frame={worst_f:.3e}, coframe={worst_c:.3e} over {pairs} pairs")
    assert ok and pairs >= 100


def test_criterion_06_poisson_identity():
    """harmonic_residual == metric_laplacian + 2 * spray_source on 50 seeded
    (map, point) tuples, to 1e-12."""
    rng = np.random.default_rng(2031)
    h = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    phi = metric_from_name("sphere:2")
    pair = canonical_pair(h, phi)
    src = spray_source(pair, h)
    maps = [
        SmoothMap(2, ["1.0 + 0.3*t1 - 0.1*t2", "0.5 + 0.2*t1*t2"]),
        SmoothMap(2, ["1.2 + 0.25*t1^2", "0.4 - 0.3*t2"]),
        SmoothMap(2, ["1.5 + 0.1*sin(t1)", "0.2*t1 + 0.3*t2^2"]),
        SmoothMap(2, ["0.9 + 0.2*t2 - 0.1*t1^2", "1.0 + 0.15*t1"]),
        SmoothMap(2, ["1.1 + 0.05*exp(t1)", "0.6 + 0.2*cos(t2)"]),
    ]
    worst = 0.0
    tuples = 0
    for f in maps:
        for _ in range(10):
            t = rng.uniform(-1.2, 1.2, size=2)
            worst = max(worst, float(np.max(np.abs(
                poisson_residual(f, src, h, t)
                - harmonic_residual(f, pair, h, t)))))
            tuples += 1
    ok = worst <= 1e-12 and tuples == 50
    _report(6, "Poisson identity", ok, f"max abs diff={worst:.3e} on 50 tuples")
    assert ok


def test_criterion_07_geodesic_solver():
    """Unit-sphere equatorial geodesic: period 2 pi to 1e-6 at step 1e-3,
    energy drift < 1e-6; RK4 step-halving error ratio in [12, 20]."""
    h = metric_from_name("euclidean:1", kind="temporal")
    phi = metric_from_name("sphere:2")
    pair = canonical_pair(h, phi)

    sol = solve_affine_ode(pair, [np.pi / 2, 0.0], [0.0, 1.0], (0.0, 7.0), 7000)
    az = sol.xs[:, 1]
    k = int(np.searchsorted(az, 2.0 * np.pi))
    frac = (2.0 * np.pi - az[k - 1]) / (az[k] - az[k - 1])
    period = sol.ts[k - 1] + frac * (sol.ts[k] - sol.ts[k - 1])
    period_err = abs(period - 2.0 * np.pi)

    g = phi.components_batch(sol.xs)
    energies = np.einsum("kij,ki,kj->k", g, sol.vs, sol.vs)
    drift = float(np.max(np.abs(energies[:k + 1] - energies[0])))

    # step-halving against the closed-form tilted great circle
    a, b = 0.6, 1.0
    omega = np.hypot(a, b)
    T = 1.0

    def closed_form(t):
        s, c = np.sin(omega * t), np.cos(omega * t)
        x = c
        y = b * s / omega
        z = -a * s / omega
        return np.array([np.arccos(z), np.arctan2(y, x)])

    ref = closed_form(T)
    errs = []
    for steps in (50, 100):
        end = solve_affine_ode(pair, [np.pi / 2, 0.0], [a, b], (0.0, T), steps).xs[-1]
        errs.append(float(np.max(np.abs(end - ref))))
    ratio = errs[0] / errs[1]

    ok = period_err < 1e-6 and drift < 1e-6 and 12.0 <= ratio <= 20.0
    _report(7, "geodesic solver", ok,
            f"period_err={period_err:.3e}, energy_drift={drift:.3e}, "
            f"halving_ratio={ratio:.2f}")
    assert ok


def test_criterion_08_harmonic_grid_solver():
    """Flat Dirichlet problem on [0,1]^2 (m=33): interior error < 1e-3,
    residual < 1e-8; conformal rescaling keeps the converged map (1e-8)
    and scales the residual field by exp(-2 lambda) (10 points, rel 1e-4)."""
    domain = [(0.0, 1.0), (0.0, 1.0)]
    boundary = SmoothMap(2, ["t1^2 - t2^2"])
    flat_h = metric_from_name("euclidean:2", kind="temporal")
    flat_phi = metric_from_name("euclidean:1")
    flat_pair = canonical_pair(flat_h, flat_phi)
    sol = solve_harmonic_grid(flat_pair, flat_h, boundary, m=33, tol=1e-9,
                              domain=domain)
    G1, G2 = np.meshgrid(sol.t1, sol.t2, indexing="ij")
    exact = G1 ** 2 - G2 ** 2
    interior_err = float(np.max(np.abs(sol.values[1:-1, 1:-1, 0]
                                       - exact[1:-1, 1:-1])))

    lam = "0.3*t1 - 0.2*t2"
    conf_h = metric_from_name(f"conformal2d:{lam}")
    conf_pair = canonical_pair(conf_h, flat_phi)
    sol_c = solve_harmonic_grid(conf_pair, conf_h, boundary, m=33, tol=1e-9,
                                domain=domain)
    map_change = float(np.max(np.abs(sol_c.values - sol.values)))

    # residual field of a non-solution probe scales by exp(-2 lambda)
    probe = SmoothMap(2, ["t1^2 + t2^2"])
    rng = np.random.default_rng(2032)
    rel = 0.0
    for _ in range(10):
        t = rng.uniform(0.1, 0.9, size=2)
        r_flat = harmonic_residual(probe, flat_pair, flat_h, t)
        r_conf = harmonic_residual(probe, conf_pair, conf_h, t)
        scale = np.exp(-2.0 * (0.3 * t[0] - 0.2 * t[1]))
        rel = max(rel, float(np.max(np.abs(r_conf - scale * r_flat))
                             / np.max(np.abs(r_flat))))

    ok = (sol.converged and interior_err < 1e-3 and sol.max_residual < 1e-8
          and sol_c.converged and map_change <= 1e-8 and rel <= 1e-4)
    _report(8, "harmonic grid solver", ok,
            f"interior_err={interior_err:.3e}, residual={sol.max_residual:.3e}, "
            f"conformal map change={map_change:.3e}, residual scaling rel={rel:.3e}")
    assert ok


def test_criterion_09_prolongation():
    """Flow-transport differences converge to the prolongation at second
    order (halving ratio in [3.5, 4.5]) for 3 fields x 10 jets; the vertical
    gap against the canonical connection is a d-tensor at 1e-8."""
    rng = np.random.default_rng(2033)
    h = metric_from_name("exp1d")
    phi = metric_from_name("sphere:2")
    jets = jets_in(rng, 1, 2, h=h, phi=phi, count=10)
    fields = default_prolong_fields(1, 2)
    ratios = []
    for X in fields:
        coarse = prolongation_flow_error(X, jets, eps=0.02)
        fine = prolongation_flow_error(X, jets, eps=0.01)
        ratios.append(coarse / fine)
    ratio_ok = all(3.5 <= r <= 4.5 for r in ratios)

    conn = canonical_connection(h, phi)
    gap = vertical_gap_field(fields[0], conn)
    changes = catalog(rng, 1, 2, kinds=("affine", "monotone", "shear"), count=3)
    v = is_dtensor(gap, changes, jets, tol=1e-8)

    ok = ratio_ok and v.passed
    _report(9, "prolongation", ok,
            f"halving ratios={[f'{r:.2f}' for r in ratios]}, "
            f"vertical gap max_rel_err={v.max_rel_err:.3e} over {v.pairs} pairs")
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    """Equal-seed verify runs are byte-identical; the negative-control
    scenario exits nonzero."""
    scenario = {
        "seed": 99,
        "dimensions": {"p": 2, "n": 2},
        "metrics": {"temporal": "conformal2d:0.3*t1 - 0.2*t2",
                    "spatial": "sphere:2"},
        "changes": {"kinds": ["affine", "shear"], "count": 2},
        "jets": {"count": 5},
        "verify": {"suites": ["all"]},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    env = dict(os.environ)
    env.pop("JETFLOW_SEED", None)

    def run(*args):
        return subprocess.run([sys.executable, "-m", "jetflow", *args],
                              capture_output=True, text=True, env=env)

    r1 = run("verify", str(path))
    r2 = run("verify", str(path))
    identical = r1.stdout == r2.stdout and r1.returncode == r2.returncode == 0

    negative = json.loads(json.dumps(scenario))
    negative["verify"] = {"suites": ["dtensors"],
                          "dtensor_candidates": ["liouville-c",
                                                 "spray-coefficients"]}
    neg_path = tmp_path / "negative.json"
    neg_path.write_text(json.dumps(negative))
    r3 = run("verify", str(neg_path))
    neg_ok = r3.returncode == 1 and not json.loads(r3.stdout)["all_pass"]

    ok = identical and neg_ok
    _report(10, "CLI determinism", ok,
            f"byte-identical={identical} ({len(r1.stdout)} bytes), "
            f"negative control exit={r3.returncode}")
    assert ok
