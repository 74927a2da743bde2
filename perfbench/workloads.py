"""Seeded scenarios for the three benchmark workloads and the oracles that
check the program's outputs.

Seed -> scenario mapping (``random.Random(f"{workload}/{seed}")`` draws the
numbers below, in this order; nothing else depends on the seed):

verify-sphere
    The demo verify scenario (p = n = 2, ``conformal2d:0.3*t1 - 0.2*t2`` x
    ``sphere:2``, all five suites) cut to affine/shear/mixed x 1 change and
    2 jets, with ``"seed": seed``.  The program's own generator draws the change
    catalog and the jets from that seed; the benchmark draws nothing.
geodesic-sphere
    p = 1, ``euclidean:1`` x ``sphere:2``, t in [0, 3], 1000 RK4 steps.
    Start on the equator at longitude lon0 ~ U(-pi, pi).  Speed
    s ~ U(0.8, 1.2) and inclination i ~ U(15, 45) degrees with a random
    sign, so v0 = (-/+ s sin i, s cos i) and the great circle stays between
    polar angles 45 and 135 degrees, well away from the poles.
harmonic-conformal
    p = n = 2, ``conformal2d:0.3*t1 - 0.2*t2`` x ``euclidean:2``, a 17 x 17
    grid on [-1, 1]^2, tolerance 1e-9.  Component k of the boundary map is
    a_k (t1^2 - t2^2) + b_k t1 t2 with |a_k|, |b_k| ~ U(0.5, 1.0) and random
    signs, drawn in the order a_1, b_1, a_2, b_2.  The linear and constant
    terms of the harmonic polynomial family are fixed at 0 (see README).
"""

from __future__ import annotations

import csv
import json
import math
import random

import numpy as np

WORKLOADS = ("verify-sphere", "geodesic-sphere", "harmonic-conformal")

COMMANDS = {
    "verify-sphere": "verify",
    "geodesic-sphere": "geodesic",
    "harmonic-conformal": "harmonic",
}

CONFORMAL = "conformal2d:0.3*t1 - 0.2*t2"
GEODESIC_STEPS = 1000
GEODESIC_T_END = 3.0
HARMONIC_GRID = 17

# Oracle tolerances.  The measured errors at this commit are about 6e-13
# (geodesic endpoint) and 3e-11 (harmonic grid); a 1e-6 perturbation of an
# output must be rejected.
GEODESIC_TOL = 1e-9
HARMONIC_TOL = 1e-8

# Expected verdict of every check the verify-sphere report carries, by suite.
EXPECTED_VERDICTS = {
    "dtensors": {"liouville-c": True, "liouville-l": True, "normalization-j": True,
                 "lagrangian-metric": True, "spray-difference": True},
    "sprays": {"temporal-law": True, "spatial-law": True,
               "affine-combination-law": True, "decomposition-reconstruction": True},
    "connection": {"connection-law": True, "temporal-is-twice-spray": True,
                   "spray-roundtrip": True},
    "adapted": {"frame-block-diagonal": True, "coframe-block-diagonal": True,
                "frame-coframe-duality": True},
    "prolong": {"flow-ratio[flow-a]": True, "flow-ratio[flow-b]": True,
                "flow-ratio[flow-c]": True, "vertical-gap-dtensor": True,
                "prolongation-chart-equivariance": True},
}
VERIFY_CHECKS = sum(len(v) for v in EXPECTED_VERDICTS.values())


def scenario(workload: str, seed: int) -> dict:
    """The scenario file contents for one workload and seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-sphere":
        return {
            "seed": seed,
            "dimensions": {"p": 2, "n": 2},
            "metrics": {"temporal": CONFORMAL, "spatial": "sphere:2"},
            "changes": {"kinds": ["affine", "shear", "mixed"], "count": 1},
            "jets": {"count": 2, "v_scale": 1.5},
            "verify": {"suites": ["all"], "tolerance": 1e-8},
        }
    if workload == "geodesic-sphere":
        lon0 = rng.uniform(-math.pi, math.pi)
        speed = rng.uniform(0.8, 1.2)
        incl = math.radians(rng.uniform(15.0, 45.0)) * rng.choice((-1.0, 1.0))
        return {
            "seed": seed,
            "dimensions": {"p": 1, "n": 2},
            "metrics": {"temporal": "euclidean:1", "spatial": "sphere:2"},
            "geodesic": {
                "x0": [math.pi / 2, lon0],
                "v0": [-speed * math.sin(incl), speed * math.cos(incl)],
                "t_span": [0.0, GEODESIC_T_END],
                "steps": GEODESIC_STEPS,
            },
        }
    if workload == "harmonic-conformal":
        coeffs = [rng.uniform(0.5, 1.0) * rng.choice((-1.0, 1.0)) for _ in range(4)]
        boundary = [f"{coeffs[2 * k]!r}*(t1^2 - t2^2) + {coeffs[2 * k + 1]!r}*t1*t2"
                    for k in range(2)]
        return {
            "seed": seed,
            "dimensions": {"p": 2, "n": 2},
            "metrics": {"temporal": CONFORMAL, "spatial": "euclidean:2"},
            "harmonic": {
                "boundary": boundary,
                "grid": HARMONIC_GRID,
                "domain": [[-1.0, 1.0], [-1.0, 1.0]],
                "tolerance": 1e-9,
                "max_iters": 20000,
            },
            "_coefficients": coeffs,
        }
    raise ValueError(f"unknown workload {workload!r}")


def scenario_file_text(sc: dict) -> str:
    """What the program reads: the scenario without benchmark-only keys."""
    return json.dumps({k: v for k, v in sc.items() if not k.startswith("_")},
                      indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# oracles.  Each returns the number of failed operations for one repetition
# and a short reason for the first failure ("" when none).


def great_circle(x0, v0, ts):
    """Analytic geodesic of the unit sphere in polar/azimuthal coordinates
    (x1 = polar angle, x2 = longitude): embed the start point and velocity in
    R^3, rotate along the great circle, map back and unwrap the longitude."""
    th, ph = x0
    dth, dph = v0
    p = np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])
    e_th = np.array([math.cos(th) * math.cos(ph), math.cos(th) * math.sin(ph), -math.sin(th)])
    e_ph = np.array([-math.sin(ph), math.cos(ph), 0.0])
    w = dth * e_th + dph * math.sin(th) * e_ph          # embedded velocity
    speed = float(np.linalg.norm(w))
    w_hat = w / speed
    ts = np.asarray(ts, dtype=float)
    ang = speed * ts[:, None]
    pos = p * np.cos(ang) + w_hat * np.sin(ang)
    vel = speed * (-p * np.sin(ang) + w_hat * np.cos(ang))
    x, y, z = pos.T
    xd, yd, zd = vel.T
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    lon = np.unwrap(np.arctan2(y, x))
    lon += ph - lon[0]
    dtheta = -zd / np.sqrt(1.0 - z ** 2)
    dlon = (x * yd - y * xd) / (x ** 2 + y ** 2)
    return np.stack([theta, lon], axis=1), np.stack([dtheta, dlon], axis=1)


def check_geodesic(sc: dict, report: dict) -> tuple[int, str]:
    g = sc["geodesic"]
    # sample densely enough that consecutive longitudes differ by < pi
    ts = np.linspace(g["t_span"][0], g["t_span"][1], 257)
    xs, vs = great_circle(g["x0"], g["v0"], ts)
    final = report.get("final", {})
    got_x = np.asarray(final.get("x", []), dtype=float)
    got_v = np.asarray(final.get("v", []), dtype=float)
    if got_x.shape != (2,) or got_v.shape != (2,) or final.get("t") != g["t_span"][1]:
        return 1, "geodesic report has no final state at t_end"
    err = max(float(np.max(np.abs(got_x - xs[-1]))), float(np.max(np.abs(got_v - vs[-1]))))
    if not err <= GEODESIC_TOL:
        return 1, f"geodesic endpoint off the great circle by {err:.3e}"
    return 0, ""


def harmonic_exact(coeffs, t1, t2):
    """The boundary polynomials, which are harmonic, on the given points."""
    q = t1 ** 2 - t2 ** 2
    m = t1 * t2
    return np.stack([coeffs[2 * k] * q + coeffs[2 * k + 1] * m for k in range(2)], axis=1)


def check_harmonic(sc: dict, report: dict, csv_text: str) -> tuple[int, str]:
    if report.get("status") != "converged":
        return 1, f"harmonic status {report.get('status')!r}"
    rows = list(csv.reader(csv_text.splitlines()))
    if not rows or rows[0] != ["t1", "t2", "x1", "x2"]:
        return 1, "harmonic CSV header is not t1,t2,x1,x2"
    data = np.array([[float(v) for v in r] for r in rows[1:]], dtype=float)
    m = sc["harmonic"]["grid"]
    if data.shape != (m * m, 4):
        return 1, f"harmonic CSV has shape {data.shape}, expected {(m * m, 4)}"
    exact = harmonic_exact(sc["_coefficients"], data[:, 0], data[:, 1])
    err = float(np.max(np.abs(data[:, 2:] - exact)))
    if not err <= HARMONIC_TOL:
        return 1, f"harmonic grid off the exact harmonic map by {err:.3e}"
    return 0, ""


def check_verify(sc: dict, report: dict) -> tuple[int, str]:
    """Counts checks whose verdict differs from the expected one; a check the
    report lacks, or carries unexpectedly, counts as failed too."""
    failed, reason = 0, ""
    seen = {}
    for suite in report.get("suites", []):
        for chk in suite.get("checks", []):
            seen[(suite.get("suite"), chk.get("name"))] = chk.get("pass")
    for suite, checks in EXPECTED_VERDICTS.items():
        for name, want in checks.items():
            got = seen.pop((suite, name), None)
            if got is not want:
                failed += 1
                reason = reason or f"check {suite}/{name}: pass={got}, expected {want}"
    if seen:
        failed += len(seen)
        reason = reason or f"unexpected checks {sorted(map(str, seen))}"
    if report.get("seed") != sc["seed"]:
        reason = reason or f"report seed {report.get('seed')} != {sc['seed']}"
        failed = max(failed, 1)
    return failed, reason


def operations(workload: str) -> int:
    """Operations per repetition: one per verify check, one per solve."""
    return VERIFY_CHECKS if workload == "verify-sphere" else 1


def check_output(workload: str, sc: dict, report_text: str, csv_text: str | None):
    """Oracle for one repetition's outputs -> (failed operations, reason)."""
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return operations(workload), f"report is not JSON: {exc}"
    if workload == "verify-sphere":
        return check_verify(sc, report)
    if workload == "geodesic-sphere":
        return check_geodesic(sc, report)
    return check_harmonic(sc, report, csv_text or "")
