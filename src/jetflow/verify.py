"""Verification suites: randomized numerical checks of every transformation
law in the package, driven by a scenario.

Each suite produces check records {name, pairs, max_rel_err, pass, witness};
a suite passes when all its checks pass.  Every check runs one of two loops:
a chart law goes through `dtensor.law_check` over (change, jet) pairs and
reports the worst relative error, and a pointwise identity goes through
`_identity_check` over jets and reports the worst absolute error.  The
witness names the first pair, {"change": name or null, "jet": index}, where
the worst error occurs; the flow-transport checks have none.  Deliberate
negative controls (for example the candidate 'spray-coefficients', whose
transformation has an inhomogeneous term) report pass=false, which callers
use to confirm the harness can fail.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .dtensor import (DTensorField, Verdict, _worse, is_dtensor, lagrangian_metric_field,
                      law_check, liouville_c_field, liouville_l_field,
                      normalization_j_field)
from .geometry import energy_density, metric_from_name
from .jetspace import natural_coframe_change, natural_frame_change
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


def _check(name: str, pairs: int, err: float, ok: bool, witness: dict | None) -> dict:
    return {"name": name, "pairs": int(pairs), "max_rel_err": float(err),
            "pass": bool(ok), "witness": witness}


def _verdict_check(name: str, v: Verdict) -> dict:
    witness = None if v.witness is None else {"change": v.witness[0], "jet": v.witness[1]}
    return _check(name, v.pairs, v.max_rel_err, v.passed, witness)


def _identity_check(name: str, lhs, rhs, jets, tol: float) -> dict:
    """Pointwise identity lhs(u) = rhs(u) at every jet: the largest
    |lhs - rhs| entry and the first jet where it occurs, with the rule of
    `law_check` (a NaN at any jet is the largest error and fails)."""
    worst, witness = 0.0, None
    for k, u in enumerate(jets):
        err = float(np.max(np.abs(lhs(u) - rhs(u))))
        if _worse(err, worst, witness):
            worst, witness = err, {"change": None, "jet": k}
    return _check(name, len(jets), worst, worst <= tol, witness)


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
    out.append(_identity_check(
        "decomposition-reconstruction",
        lambda u: base.coefficients(u) + remainder(u).reshape(n, p, p),
        s.coefficients, jets, 1e-12))
    if p == 1:
        back = spray_from_hspray(h_trace(s, h), h)
        out.append(_identity_check("hspray-roundtrip", back.coefficients,
                                   s.coefficients, jets, 1e-12))
    return out


def _suite_connection(sc: Scenario, tol: float) -> list[dict]:
    h, phi = sc.temporal_metric, sc.spatial_metric
    changes = sc.changes_for("connection")
    jets = sc.jets_for("connection")
    conn = canonical_connection(h, phi)
    out = [_verdict_check("connection-law", connection_law_error(conn, changes, jets, tol))]

    pair = canonical_pair(h, phi)
    derived = connection_from_sprays(pair, h)
    out.append(_identity_check("temporal-is-twice-spray", derived.M.at,
                               lambda u: 2.0 * pair.temporal.coefficients(u), jets, 1e-12))

    def raveled(sprays):
        return lambda u: np.concatenate([sprays.temporal.coefficients(u).ravel(),
                                         sprays.spatial.coefficients(u).ravel()])

    out.append(_identity_check("spray-roundtrip", raveled(sprays_from_connection(derived)),
                               raveled(pair), jets, 1e-10))
    return out


def _suite_adapted(sc: Scenario, tol: float) -> list[dict]:
    h, phi = sc.temporal_metric, sc.spatial_metric
    changes = sc.changes_for("adapted")
    jets = sc.jets_for("adapted")
    conn = canonical_connection(h, phi)
    # F S = D F~ and C S* = D^-T C~, with D = adapted_frame_blocks, S and S*
    # the natural frame and coframe changes, F~ and C~ the target chart's own
    frame_law = law_check(
        lambda c, u: (np.linalg.inv(adapted_frame_blocks(c, u)) @ adapted_frame(conn, u)
                      @ natural_frame_change(c, u)),
        lambda c: partial(adapted_frame, conn.in_chart(c)), changes, jets, tol)
    coframe_law = law_check(
        lambda c, u: (adapted_frame_blocks(c, u).T @ adapted_coframe(conn, u)
                      @ natural_coframe_change(c, u)),
        lambda c: partial(adapted_coframe, conn.in_chart(c)), changes, jets, tol)
    return [
        _verdict_check("frame-block-diagonal", frame_law),
        _verdict_check("coframe-block-diagonal", coframe_law),
        _identity_check("frame-coframe-duality", partial(adapted_coframe, conn),
                        lambda u: np.linalg.inv(adapted_frame(conn, u)).T, jets, 1e-12),
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
            out.append(_check(f"flow-exact[{X.name}]", len(jets), coarse, True, None))
            continue
        ratio = coarse / fine
        out.append(_check(f"flow-ratio[{X.name}]", len(jets), abs(ratio - 4.0),
                          3.5 <= ratio <= 4.5, None))

    conn = canonical_connection(h, phi)
    gap = vertical_gap_field(fields[0], conn)
    out.append(_verdict_check("vertical-gap-dtensor",
                              is_dtensor(gap, changes, jets, tol=tol)))

    pr = olver_prolong(fields[0])
    out.append(_verdict_check("prolongation-chart-equivariance", law_check(
        lambda c, u: natural_frame_change(c, u).T @ pr.packed(u),
        lambda c: olver_prolong(pushforward(fields[0], c)).packed, changes, jets, tol)))
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
