"""Verification suites: randomized numerical checks of every transformation
law in the package, driven by a scenario.

Each suite produces check records {name, pairs, max_rel_err, pass}; a suite
passes when all its checks pass.  Deliberate negative controls (for example
the candidate 'spray-coefficients', whose transformation has an
inhomogeneous term) report pass=false, which callers use to confirm the
harness can fail.
"""

from __future__ import annotations

import numpy as np

from .dtensor import (DTensorField, Verdict, is_dtensor, lagrangian_metric_field,
                      liouville_c_field, liouville_l_field, normalization_j_field)
from .geometry import energy_density, metric_from_name
from .jetspace import natural_coframe_change, natural_frame_change, transform_jet
from .connection import (adapted_coframe, adapted_frame, adapted_frame_blocks,
                         canonical_connection, connection_from_sprays,
                         connection_law_error, sprays_from_connection)
from .prolong import (BaseVectorField, olver_prolong, prolongation_flow_error,
                      pushforward, vertical_gap_field)
from .scenario import Scenario, ScenarioError, SUITE_NAMES
from .sprays import (canonical_pair, canonical_spatial, canonical_temporal,
                     combine_sprays, decompose_spray, h_trace,
                     spray_coefficient_field, spray_difference_field,
                     spray_from_hspray, spray_law_error)

__all__ = ["run_suite", "run_verify", "DTENSOR_CANDIDATES",
           "DEFAULT_CANDIDATES", "default_prolong_fields"]

DTENSOR_CANDIDATES = ("liouville-c", "liouville-l", "normalization-j",
                      "lagrangian-metric", "spray-difference", "spray-coefficients")
DEFAULT_CANDIDATES = DTENSOR_CANDIDATES[:5]


def _check(name: str, pairs: int, err: float, ok: bool) -> dict:
    return {"name": name, "pairs": int(pairs), "max_rel_err": float(err),
            "pass": bool(ok)}


def _verdict_check(name: str, v: Verdict) -> dict:
    return _check(name, v.pairs, v.max_rel_err, v.passed)


def _candidate_field(name: str, sc: Scenario) -> DTensorField:
    p, n = sc.p, sc.n
    h, phi = sc.temporal_metric, sc.spatial_metric
    if name == "liouville-c":
        return liouville_c_field(p, n)
    if name == "liouville-l":
        return liouville_l_field(h, n)
    if name == "normalization-j":
        return normalization_j_field(h, n)
    if name == "lagrangian-metric":
        return lagrangian_metric_field(energy_density(h, phi), p, n)
    if name == "spray-difference":
        flat = metric_from_name(f"euclidean:{p}", kind="temporal")
        return spray_difference_field(canonical_temporal(h, n),
                                      canonical_temporal(flat, n))
    if name == "spray-coefficients":
        return spray_coefficient_field(canonical_spatial(phi, p))
    raise ScenarioError(f"unknown d-tensor candidate '{name}'; known: "
                        f"{', '.join(DTENSOR_CANDIDATES)}")


def _suite_dtensors(sc: Scenario, tol: float, candidates) -> list[dict]:
    changes = sc.changes_for("dtensors")
    jets = sc.jets_for("dtensors")
    out = []
    for cand in candidates:
        f = _candidate_field(cand, sc)
        out.append(_verdict_check(cand, is_dtensor(f, changes, jets, tol=tol)))
    return out


def _suite_sprays(sc: Scenario, tol: float) -> list[dict]:
    p, n = sc.p, sc.n
    h, phi = sc.temporal_metric, sc.spatial_metric
    changes = sc.changes_for("sprays")
    jets = sc.jets_for("sprays")
    flat = metric_from_name(f"euclidean:{p}", kind="temporal")
    out = [
        _verdict_check("temporal-law",
                       spray_law_error(canonical_temporal(h, n), changes, jets, tol)),
        _verdict_check("spatial-law",
                       spray_law_error(canonical_spatial(phi, p), changes, jets, tol)),
        _verdict_check("affine-combination-law",
                       spray_law_error(
                           combine_sprays([canonical_temporal(h, n),
                                           canonical_temporal(flat, n)], [0.7, 0.3]),
                           changes, jets, tol)),
    ]
    # decomposition: spray = canonical part + d-tensor remainder, exactly
    s = canonical_spatial(phi, p)
    base, remainder = decompose_spray(s, metric_from_name(f"euclidean:{n}"))
    err = max(float(np.max(np.abs(base.coefficients(u)
                                  + remainder(u).reshape(n, p, p)
                                  - s.coefficients(u))))
              for u in jets)
    out.append(_check("decomposition-reconstruction", len(jets), err, err <= 1e-12))
    if p == 1:
        tr = h_trace(s, h)
        back = spray_from_hspray(tr, h)
        err = max(float(np.max(np.abs(back.coefficients(u) - s.coefficients(u))))
                  for u in jets)
        out.append(_check("hspray-roundtrip", len(jets), err, err <= 1e-12))
    return out


def _suite_connection(sc: Scenario, tol: float) -> list[dict]:
    h, phi = sc.temporal_metric, sc.spatial_metric
    changes = sc.changes_for("connection")
    jets = sc.jets_for("connection")
    conn = canonical_connection(h, phi)
    out = [_verdict_check("connection-law", connection_law_error(conn, changes, jets, tol))]

    pair = canonical_pair(h, phi)
    derived = connection_from_sprays(pair, h)
    err_m = max(float(np.max(np.abs(derived.temporal(u) - 2.0 * pair.temporal.coefficients(u))))
                for u in jets)
    out.append(_check("temporal-is-twice-spray", len(jets), err_m, err_m <= 1e-12))

    back = sprays_from_connection(derived)
    err = 0.0
    for u in jets:
        err = max(err, float(np.max(np.abs(back.temporal.coefficients(u)
                                           - pair.temporal.coefficients(u)))))
        err = max(err, float(np.max(np.abs(back.spatial.coefficients(u)
                                           - pair.spatial.coefficients(u)))))
    out.append(_check("spray-roundtrip", len(jets), err, err <= 1e-10))
    return out


def _suite_adapted(sc: Scenario, tol: float) -> list[dict]:
    h, phi = sc.temporal_metric, sc.spatial_metric
    changes = sc.changes_for("adapted")
    jets = sc.jets_for("adapted")
    conn = canonical_connection(h, phi)
    worst_f = worst_c = worst_d = 0.0
    pairs = 0
    for change in changes:
        native = conn.in_chart(change)
        for u in jets:
            u_new = transform_jet(change, u)
            F = adapted_frame(conn, u)
            F_new = adapted_frame(native, u_new)
            D = F @ natural_frame_change(change, u) @ np.linalg.inv(F_new)
            blocks = adapted_frame_blocks(change, u)
            worst_f = max(worst_f, float(np.max(np.abs(D - blocks))))
            Cf = adapted_coframe(conn, u)
            Cf_new = adapted_coframe(native, u_new)
            Dc = Cf @ natural_coframe_change(change, u) @ np.linalg.inv(Cf_new)
            worst_c = max(worst_c, float(np.max(np.abs(Dc - np.linalg.inv(blocks).T))))
            worst_d = max(worst_d, float(np.max(np.abs(
                Cf - np.linalg.inv(F).T))))
            pairs += 1
    return [
        _check("frame-block-diagonal", pairs, worst_f, worst_f <= tol),
        _check("coframe-block-diagonal", pairs, worst_c, worst_c <= tol),
        _check("frame-coframe-duality", pairs, worst_d, worst_d <= 1e-12),
    ]


def default_prolong_fields(p: int, n: int) -> list[BaseVectorField]:
    """Three built-in nonlinear fields on any (p, n); nonlinearity keeps the
    flow-transport comparison away from the finite-difference floor."""
    def t_comps(shift):
        return [f"0.25*t{a + 1}^2 + 0.1*x{(a + shift) % n + 1}" for a in range(p)]

    def x_comps(shift):
        return [f"sin(x{i + 1}) + 0.2*t{(i + shift) % p + 1}*x{(i + 1) % n + 1}"
                for i in range(n)]

    return [
        BaseVectorField(p, n, t_comps(0), x_comps(0), name="flow-a"),
        BaseVectorField(p, n, t_comps(1), x_comps(1), name="flow-b"),
        BaseVectorField(p, n,
                        [f"sin(t{a + 1})" for a in range(p)],
                        [f"0.3*x{i + 1}^2 + 0.1*t{i % p + 1}" for i in range(n)],
                        name="flow-c"),
    ]


def _suite_prolong(sc: Scenario, tol: float) -> list[dict]:
    h, phi = sc.temporal_metric, sc.spatial_metric
    changes = sc.changes_for("prolong")
    jets = sc.jets_for("prolong", count=min(sc.jet_count, 10))
    section = sc.raw.get("prolong", {})
    eps = section.get("eps", 0.02)
    substeps = section.get("substeps", 16)
    if "fields" in section:
        fields = [BaseVectorField(sc.p, sc.n, f["temporal"], f["spatial"], name=f["name"])
                  for f in section["fields"]]
    else:
        fields = default_prolong_fields(sc.p, sc.n)

    out = []
    for X in fields:
        coarse = prolongation_flow_error(X, jets, eps, substeps)
        fine = prolongation_flow_error(X, jets, eps / 2.0, substeps)
        if coarse < 1e-8:          # transport is exact for this field
            out.append(_check(f"flow-exact[{X.name}]", len(jets), coarse, True))
            continue
        ratio = coarse / fine
        out.append(_check(f"flow-ratio[{X.name}]", len(jets), abs(ratio - 4.0),
                          3.5 <= ratio <= 4.5))

    conn = canonical_connection(h, phi)
    gap = vertical_gap_field(fields[0], conn)
    out.append(_verdict_check("vertical-gap-dtensor",
                              is_dtensor(gap, changes, jets, tol=tol)))

    worst = 0.0
    pairs = 0
    X = fields[0]
    pr_old = olver_prolong(X)
    for change in changes:
        pr_new = olver_prolong(pushforward(X, change))
        for u in jets:
            S = natural_frame_change(change, u)
            diff = pr_new.packed(transform_jet(change, u)) - S.T @ pr_old.packed(u)
            worst = max(worst, float(np.max(np.abs(diff))))
            pairs += 1
    out.append(_check("prolongation-chart-equivariance", pairs, worst, worst <= tol))
    return out


_SUITES = {
    "dtensors": _suite_dtensors,
    "sprays": _suite_sprays,
    "connection": _suite_connection,
    "adapted": _suite_adapted,
    "prolong": _suite_prolong,
}


def run_suite(name: str, sc: Scenario, tol: float = 1e-8,
              candidates=None) -> dict:
    """Run one suite; returns {suite, checks, pass}."""
    if name not in _SUITES:
        raise ScenarioError(f"unknown suite '{name}'; known: {', '.join(SUITE_NAMES)}")
    if name == "dtensors":
        checks = _SUITES[name](sc, tol, candidates or DEFAULT_CANDIDATES)
    else:
        checks = _SUITES[name](sc, tol)
    return {"suite": name, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def run_verify(sc: Scenario) -> dict:
    """Run the suites requested by the scenario's verify section (default:
    all of them)."""
    section = sc.raw.get("verify", {})
    tol = section.get("tolerance", 1e-8)
    wanted = section.get("suites", ["all"])
    if "all" in wanted:
        wanted = list(SUITE_NAMES)
    candidates = section.get("dtensor_candidates")
    suites = [run_suite(name, sc, tol=tol, candidates=candidates)
              for name in wanted]
    return {
        "command": "verify",
        "seed": sc.seed,
        "dimensions": {"p": sc.p, "n": sc.n},
        "metrics": {"temporal": sc.temporal_metric.name,
                    "spatial": sc.spatial_metric.name},
        "tolerance": tol,
        "suites": suites,
        "all_pass": all(s["pass"] for s in suites),
    }
