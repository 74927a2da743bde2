"""Maps, PDE residuals, and the two solvers."""

import csv
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from jetflow.connection import canonical_connection, sprays_from_connection
from jetflow.exprlang import parse
from jetflow.geometry import GeometryError, Metric, metric_from_name, pullback_metric
from jetflow.jetspace import JetPoint
from jetflow.maps import (
    MapError,
    SmoothMap,
    affine_residual,
    harmonic_residual,
    metric_laplacian,
    poisson_residual,
    solve_affine_ode,
    solve_harmonic_grid,
    spray_source,
)
from jetflow import exprlang, maps
from jetflow.numdiff import random_change
from jetflow.sprays import (
    JetTable,
    SprayPair,
    canonical_pair,
    canonical_spatial,
    canonical_temporal,
    combine_sprays,
    h_trace,
    spray_from_hspray,
    zero_spray,
)

from helpers import (golden_writer, grid_level, jacobi_harmonic_reference, reference_affine_ode,
                     reference_grid_residual, reference_harmonic_residual, standard_metrics)

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
# per demo command: its stored report and CSV, and the writer that made them
GOLDEN = {
    "harmonic": {"report": DATA / "harmonic_demo_report.json",
                 "csv": DATA / "harmonic_demo_grid.csv",
                 "writer": DATA / "harmonic_demo_report.writer.json"},
    "geodesic": {"report": DATA / "geodesic_demo_report.json",
                 "csv": DATA / "geodesic_demo_orbit.csv",
                 "writer": DATA / "geodesic_demo_report.writer.json"},
}


def _flat_pair(p, n):
    h = metric_from_name(f"euclidean:{p}", kind="temporal")
    phi = metric_from_name(f"euclidean:{n}")
    return canonical_pair(h, phi), h, phi


# --- SmoothMap -------------------------------------------------------------------


def test_smooth_map_values_and_derivatives():
    f = SmoothMap(2, ["t1^2*t2", "sin(t1)"])
    t = np.array([0.5, -1.0])
    assert np.max(np.abs(f(t) - np.array([-0.25, np.sin(0.5)]))) < 1e-15
    u = f.jet_lift(t)
    want_v = np.array([[2 * 0.5 * (-1.0), 0.25], [np.cos(0.5), 0.0]])
    assert np.max(np.abs(u.v - want_v)) < 1e-15
    d2 = f.second_derivatives(t)
    assert abs(d2[0, 0, 0] - 2 * (-1.0)) < 1e-15
    assert abs(d2[0, 0, 1] - 2 * 0.5) < 1e-15
    assert abs(d2[1, 0, 0] - (-np.sin(0.5))) < 1e-15


def test_smooth_map_rejects_foreign_variables():
    with pytest.raises(MapError, match="foreign variables"):
        SmoothMap(1, ["t1 + x1"])
    with pytest.raises(MapError):
        SmoothMap(1, ["t2"])


def test_smooth_map_accepts_parsed_expressions():
    from jetflow.exprlang import parse
    f = SmoothMap(1, [parse("t1^3")])
    assert abs(f(np.array([2.0]))[0] - 8.0) < 1e-15


# --- residual identities -----------------------------------------------------------


def test_poisson_residual_equals_harmonic_residual():
    h, phi = standard_metrics(2, 2)
    pair = canonical_pair(h, phi)
    f = SmoothMap(2, ["0.8*t1 + 0.3*t2^2 + 1.0", "0.5 - 0.4*t1*t2"])
    src = spray_source(pair, h)
    rng = np.random.default_rng(81)
    for _ in range(10):
        t = rng.uniform(-1.2, 1.2, size=2)
        a = poisson_residual(f, src, h, t)
        b = harmonic_residual(f, pair, h, t)
        assert np.max(np.abs(a - b)) < 1e-12


def test_harmonic_residual_is_trace_of_affine_residual():
    h, phi = standard_metrics(2, 2)
    pair = canonical_pair(h, phi)
    f = SmoothMap(2, ["0.7*t1 + 0.2*t2 + 1.2", "0.3*t1^2 - 0.1*t2"])
    t = np.array([0.4, -0.6])
    hinv = h.inverse_batch(t)[0]
    # canonical (G + H) is symmetric in its lower pair, so the symmetrized
    # affine form traces to the harmonic one
    got = np.einsum("ab,iab->i", hinv, affine_residual(f, pair, t))
    assert np.max(np.abs(got - harmonic_residual(f, pair, h, t))) < 1e-12


# maps into the boxes of sphere:2 (0.2 < x1 < 2.94) and hyperbolic:2
# (x2 > 0.1) for t in [-0.8, 0.8]^p
MAPS_BY_P = {
    1: ["1.2 + 0.3*sin(t1)", "1.0 + 0.2*t1^2"],
    2: ["1.2 + 0.2*t1 - 0.1*t2^2", "1.0 + 0.15*t1*t2"],
    3: ["1.2 + 0.2*t1*t3 - 0.1*t2^2", "1.0 + 0.15*t1*t2 + 0.1*sin(t3)"],
}


@pytest.mark.parametrize("target", ["sphere:2", "hyperbolic:2"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_harmonic_residual_matches_the_einsum_reference(p, target):
    """The solver's symbolic table, summed over a, b < p, against the
    einsum of the sprays' coefficients (exp1d, conformal2d and euclidean:3
    temporal metrics)."""
    h = standard_metrics(p, 2)[0]
    pair = canonical_pair(h, metric_from_name(target))
    f = SmoothMap(p, MAPS_BY_P[p])
    rng = np.random.default_rng(83 + p)
    for _ in range(5):
        t = rng.uniform(-0.8, 0.8, size=p)
        want = reference_harmonic_residual(f, pair, h, t)
        assert np.max(np.abs(harmonic_residual(f, pair, h, t) - want)) <= 1e-13


def test_harmonic_residual_needs_h_of_the_maps_dimension():
    h1, phi = metric_from_name("exp1d"), metric_from_name("sphere:2")
    h2 = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    with pytest.raises(MapError, match="temporal metric of dimension p = 1"):
        harmonic_residual(SmoothMap(1, MAPS_BY_P[1]), canonical_pair(h1, phi), h2, np.zeros(1))
    with pytest.raises(MapError, match="temporal metric of dimension p = 2"):
        harmonic_residual(SmoothMap(2, MAPS_BY_P[2]), canonical_pair(h2, phi), h1, np.zeros(2))


def test_harmonic_residual_needs_a_pair_on_the_maps_jet_space():
    """A pair of the wrong (p, n) would feed its table the map's jet; a pair
    whose two sprays live on different jet spaces has no one (p, n)."""
    h1, phi = metric_from_name("exp1d"), metric_from_name("sphere:2")
    h2 = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    with pytest.raises(MapError, match=r"pair at \(p, n\) = \(1, 2\) does not match "
                                       r"the map at \(p, n\) = \(2, 2\)"):
        harmonic_residual(SmoothMap(2, MAPS_BY_P[2]), canonical_pair(h1, phi), h2, np.zeros(2))
    with pytest.raises(MapError, match=r"pair at \(p, n\) = \(2, 2\) does not match "
                                       r"the map at \(p, n\) = \(2, 1\)"):
        harmonic_residual(SmoothMap(2, ["t1*t2"]), canonical_pair(h2, phi), h2, np.zeros(2))
    mixed = SprayPair(canonical_temporal(h1, 2), canonical_spatial(phi, 2))
    with pytest.raises(MapError, match=r"mixes jet spaces: temporal spray at \(p, n\) = "
                                       r"\(1, 2\), spatial spray at \(2, 2\)"):
        harmonic_residual(SmoothMap(2, MAPS_BY_P[2]), mixed, h2, np.zeros(2))


def test_affine_solver_and_residual_need_a_pair_on_one_jet_space():
    """`solve_affine_ode` and `affine_residual` check the pair as
    `harmonic_residual` does: a pair whose sprays differ in n (3 against 2
    either way) or a pair at another p than the map's is a MapError, not a
    TypeError or an unbound variable from the pair's tables."""
    exp1d, sphere = metric_from_name("exp1d"), metric_from_name("sphere:2")
    h2 = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    e3 = metric_from_name("euclidean:3")
    n2_n3 = SprayPair(canonical_temporal(exp1d, 2), canonical_spatial(e3, 1))
    n3_n2 = SprayPair(canonical_temporal(exp1d, 3), canonical_spatial(sphere, 1))
    for pair, shapes in ((n2_n3, r"\(1, 2\), spatial spray at \(1, 3\)"),
                         (n3_n2, r"\(1, 3\), spatial spray at \(1, 2\)")):
        match = r"mixes jet spaces: temporal spray at \(p, n\) = " + shapes
        with pytest.raises(MapError, match=match):
            solve_affine_ode(pair, [1.0, 0.5], [0.3, 0.2], (0.0, 1.0), 10)
        with pytest.raises(MapError, match=match):
            affine_residual(SmoothMap(1, MAPS_BY_P[1]), pair, np.zeros(1))
    with pytest.raises(MapError, match=r"pair at \(p, n\) = \(2, 2\) does not match "
                                       r"the map at \(p, n\) = \(1, 2\)"):
        affine_residual(SmoothMap(1, MAPS_BY_P[1]), canonical_pair(h2, sphere), np.zeros(1))


def test_straight_lines_solve_the_flat_equations():
    pair, h, _ = _flat_pair(2, 2)
    f = SmoothMap(2, ["1.0 + 0.5*t1 - 0.2*t2", "2.0*t2"])
    t = np.array([0.3, 0.7])
    assert np.max(np.abs(affine_residual(f, pair, t))) < 1e-14
    assert np.max(np.abs(harmonic_residual(f, pair, h, t))) < 1e-14


def test_metric_laplacian_conformal_rescaling():
    """In 2d the conformal Christoffel trace cancels: Delta_{e^{2L}d} =
    e^{-2L} Delta_flat."""
    lam = "0.3*t1 - 0.2*t2"
    h = metric_from_name(f"conformal2d:{lam}")
    f = SmoothMap(2, ["t1^2 + t2^2", "sin(t1) + t1*t2"])
    rng = np.random.default_rng(82)
    for _ in range(6):
        t = rng.uniform(-1.2, 1.2, size=2)
        flat = f.second_derivatives(t)
        flat_lap = flat[:, 0, 0] + flat[:, 1, 1]
        scale = np.exp(-2.0 * (0.3 * t[0] - 0.2 * t[1]))
        got = metric_laplacian(f, h, t)
        assert np.max(np.abs(got - scale * flat_lap)) < 1e-12


def test_flat_spray_source_vanishes():
    pair, h, _ = _flat_pair(2, 2)
    src = spray_source(pair, h)
    f = SmoothMap(2, ["t1*t2", "t1^2"])
    t = np.array([0.2, -0.4])
    assert np.max(np.abs(src(f.jet_lift(t)))) == 0.0


def test_harmonic_residual_rejects_spatial_metric():
    pair, _, phi = _flat_pair(2, 2)
    f = SmoothMap(2, ["t1", "t2"])
    with pytest.raises(MapError):
        harmonic_residual(f, pair, phi, np.zeros(2))


# --- ODE solver -----------------------------------------------------------------------


def test_ode_flat_motion_is_exact():
    pair, _, _ = _flat_pair(1, 2)
    sol = solve_affine_ode(pair, [1.0, -2.0], [0.5, 0.25], (0.0, 4.0), 40)
    want = np.array([1.0, -2.0]) + 4.0 * np.array([0.5, 0.25])
    assert np.max(np.abs(sol.xs[-1] - want)) < 1e-12
    assert np.max(np.abs(sol.vs[-1] - np.array([0.5, 0.25]))) < 1e-12
    assert sol.ts[0] == 0.0 and sol.ts[-1] == 4.0
    assert sol.xs.shape == (41, 2)


def test_sphere_geodesic_conserves_energy():
    h = metric_from_name("euclidean:1", kind="temporal")
    phi = metric_from_name("sphere:2")
    pair = canonical_pair(h, phi)
    sol = solve_affine_ode(pair, [np.pi / 2, 0.0], [0.6, 1.0], (0.0, 1.0), 400)
    e0 = sol.vs[0] @ phi.components_batch(sol.xs[0])[0] @ sol.vs[0]
    e1 = sol.vs[-1] @ phi.components_batch(sol.xs[-1])[0] @ sol.vs[-1]
    assert abs(e1 - e0) < 1e-9 * e0


def test_ode_error_shrinks_at_fourth_order():
    h = metric_from_name("euclidean:1", kind="temporal")
    phi = metric_from_name("sphere:2")
    pair = canonical_pair(h, phi)
    args = ([np.pi / 2, 0.0], [0.6, 1.0], (0.0, 1.0))
    ref = solve_affine_ode(pair, *args, 800).xs[-1]
    e1 = np.max(np.abs(solve_affine_ode(pair, *args, 50).xs[-1] - ref))
    e2 = np.max(np.abs(solve_affine_ode(pair, *args, 100).xs[-1] - ref))
    assert 12.0 < e1 / e2 < 20.0


def test_ode_solver_validates_inputs():
    pair, _, _ = _flat_pair(2, 2)
    with pytest.raises(MapError, match="one temporal dimension"):
        solve_affine_ode(pair, [0.0, 0.0], [1.0, 0.0], (0.0, 1.0), 10)
    pair1, _, _ = _flat_pair(1, 2)
    with pytest.raises(MapError, match="steps"):
        solve_affine_ode(pair1, [0.0, 0.0], [1.0, 0.0], (0.0, 1.0), 0)
    with pytest.raises(MapError, match="n = 2 entries"):
        solve_affine_ode(pair1, [0.0, 0.0, 0.0], [1.0, 0.0], (0.0, 1.0), 10)


def _assert_matches_reference(pair, x0, v0, t_span, steps):
    sol = solve_affine_ode(pair, x0, v0, t_span, steps)
    ts, xs, vs = reference_affine_ode(pair, x0, v0, t_span, steps)
    assert np.array_equal(sol.ts, ts)
    assert np.array_equal(sol.xs, xs)
    assert np.array_equal(sol.vs, vs)


def _spatial_metric(name):
    """A catalog metric as the spatial factor; ``name@mixed`` is the metric
    pulled back through a seeded mixed p = 1 chart change."""
    base, _, change = name.partition("@")
    phi = metric_from_name(base, kind="spatial")
    if change:
        phi = pullback_metric(phi, random_change(np.random.default_rng(61), 1, phi.dim, change))
    return phi


@pytest.mark.parametrize("spatial,x0,v0", [
    ("sphere:2", [np.pi / 2, 0.0], [0.6, 1.0]),
    ("hyperbolic:2", [0.3, 1.0], [0.5, 0.4]),
    ("euclidean:2", [1.0, -2.0], [0.5, 0.25]),
    ("exp1d", [0.3], [0.8]),                                        # n = 1
    ("euclidean:3@mixed", [0.2, -0.1, 0.3], [0.5, 0.2, -0.4]),       # n = 3
])
def test_float_rk4_matches_numpy_reference_bit_for_bit(spatial, x0, v0):
    h = metric_from_name("euclidean:1", kind="temporal")
    _assert_matches_reference(canonical_pair(h, _spatial_metric(spatial)),
                              x0, v0, (0.0, 3.0), 300)


def test_float_rk4_matches_reference_with_curved_time():
    h = metric_from_name("exp1d")
    pair = canonical_pair(h, metric_from_name("sphere:2"))
    u = JetPoint([0.2], [1.2, 0.3], [[0.6], [1.0]])
    assert np.max(np.abs(pair.temporal.coefficients(u))) > 0.1      # H != 0
    _assert_matches_reference(pair, [1.2, 0.3], [0.6, 1.0], (-0.5, 1.0), 200)


def test_float_rk4_writes_derived_sprays_in_and_matches_reference(monkeypatch):
    """Derived sprays are tables too: the RK4 calls them as one compiled
    float table, not through `coefficients`, and matches the numpy
    reference bit for bit."""
    h = metric_from_name("exp1d")
    sphere, hyper = (canonical_spatial(metric_from_name(name), 1)
                     for name in ("sphere:2", "hyperbolic:2"))
    mixed = combine_sprays([sphere, hyper], [0.3, 0.7])
    from_trace = spray_from_hspray(h_trace(sphere, h), h)
    canonical = canonical_pair(h, metric_from_name("sphere:2"))
    induced = sprays_from_connection(canonical_connection(h, metric_from_name("sphere:2")))
    rhs = []
    real_rk4 = maps.compile_rk4
    monkeypatch.setattr(maps, "compile_rk4",
                        lambda *a, **k: rhs.append(a[1]) or real_rk4(*a, **k))
    for pair in (SprayPair(canonical.temporal, mixed), SprayPair(canonical.temporal, from_trace),
                 induced, SprayPair(zero_spray("temporal", 1, 2), induced.spatial)):
        _assert_matches_reference(pair, [1.2, 0.5], [0.4, 0.8], (0.0, 1.0), 80)
    assert len(rhs) == 4
    assert all(f.__code__.co_filename == "<compiled table>" for f in rhs)


def _mixed_pair():
    h = metric_from_name("euclidean:1", kind="temporal")
    return canonical_pair(h, _spatial_metric("euclidean:3@mixed"))


def test_mixed_n3_loop_is_at_most_800_generated_lines(monkeypatch):
    """The n = 3 pulled-back loop is one float table and one RK4 loop that
    calls it: the table is not written out once per stage."""
    built = []
    real_define = exprlang._define
    monkeypatch.setattr(exprlang, "_define", lambda src, ns, filename, name:
                        built.append((filename, len(src))) or real_define(src, ns, filename, name))
    solve_affine_ode(_mixed_pair(), [0.2, -0.1, 0.3], [0.5, 0.2, -0.4], (0.0, 3.0), 10)
    assert [filename for filename, _ in built] == ["<compiled table>", "<compiled rk4>"]
    assert sum(lines for _, lines in built) <= 800


def test_literal_det_check_runs_once_per_build():
    """A flat temporal metric's det g is the literal 1.0, at least DET_TOL:
    it is not tested, when the loop is built or at any stage, and a literal
    det below DET_TOL raises when the loop is built.  A curved spatial
    metric's det is tested at every stage, and a second solve reuses the
    loop: a check that records instead of raising is never called on the
    unit sphere and is called at every stage on a sphere of radius 1e-4,
    where det g = 1e-16 sin(x1)^2 is below DET_TOL everywhere."""
    from jetflow.geometry import Metric
    radius_1e4 = Metric("sphere:2/1e4", "spatial",
                        [[exprlang.Num(1e-8), exprlang.num(0.0)],
                         [exprlang.num(0.0), exprlang.parse("1e-8*sin(x1)^2")]])
    for phi, stages in ((metric_from_name("sphere:2"), 0), (radius_1e4, 2 * 4 * 25)):
        h = metric_from_name("euclidean:1", kind="temporal")
        seen = {"h": [], "phi": []}
        for key, metric in (("h", h), ("phi", phi)):
            metric.check_det = seen[key].append
        pair = canonical_pair(h, phi)
        for _ in range(2):
            solve_affine_ode(pair, [np.pi / 2, 0.0], [0.6, 1.0], (0.0, 1.0), 25)
        assert seen["h"] == []
        assert len(seen["phi"]) == stages and all(abs(d) < exprlang.DET_TOL for d in seen["phi"])
    h = Metric("flat-1e-13", "temporal", [[exprlang.Num(1e-13)]])
    with pytest.raises(GeometryError, match="'flat-1e-13' is degenerate"):
        maps._geodesic_loop(canonical_pair(h, metric_from_name("sphere:2")), 2)


def test_sphere_geodesic_right_hand_side_has_no_implied_zero_tests(monkeypatch):
    """sphere:2's g^11 is the literal 1, not sin(x1)^2 / sin(x1)^2, and the
    generated right-hand side of its geodesic loop tests det g inline once
    (the flat temporal metric's literal det has no test), then divides by
    it with no `== 0` test, and computes no vK / vK."""
    phi = metric_from_name("sphere:2")
    assert phi.inverse_components()[0][0] == exprlang.Num(1.0)
    built = []
    real_define = exprlang._define
    monkeypatch.setattr(exprlang, "_define", lambda src, ns, filename, name:
                        built.append((filename, "\n".join(src)))
                        or real_define(src, ns, filename, name))
    pair = canonical_pair(metric_from_name("euclidean:1", kind="temporal"), phi)
    solve_affine_ode(pair, [np.pi / 2, 0.0], [0.6, 1.0], (0.0, 1.0), 10)
    (rhs,) = [src for filename, src in built if filename == "<compiled table>"]
    assert "== 0" not in rhs and " / " in rhs
    assert re.search(r"\b(v\d+) / \1\b", rhs) is None
    assert rhs.count("if abs(") == 1 and "< DET_TOL: check0(" in rhs


def test_ode_runs_a_replaced_coefficients():
    """A `dataclasses.replace` copy with a wrapped `coefficients` keeps its
    tables, but the solver runs the wrapper, once per spray and stage."""
    h = metric_from_name("euclidean:1", kind="temporal")
    pair = canonical_pair(h, metric_from_name("sphere:2"))
    calls = []

    def wrapped(spray):
        def coefficients(u):
            calls.append(u)
            return spray.coefficients(u)
        return replace(spray, coefficients=coefficients)

    copy = SprayPair(wrapped(pair.temporal), wrapped(pair.spatial))
    assert copy.spatial.tables is pair.spatial.tables
    args = ([np.pi / 2, 0.0], [0.6, 1.0], (0.0, 1.0), 50)
    a, b = solve_affine_ode(pair, *args), solve_affine_ode(copy, *args)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.vs, b.vs)
    assert len(calls) == 2 * 4 * 50


# (h, phi, x0, v0, t_span, steps, the degenerate metric): the hyperbolic
# geodesic climbs to large x2, where det g = x2^-4 < 1e-12; exp1d's
# det h = exp(2 t1) is below DET_TOL on t1 in [-20, -19], and from the pole
# of sphere:2, where det g = 0 as well, the spatial guard, tested first,
# names sphere:2
DEGENERATE_GEODESICS = [
    ("euclidean:1", "hyperbolic:2", [0.3, 1.0], [0.0, 40.0], (0.0, 20.0), 40, "hyperbolic:2"),
    ("exp1d", "sphere:2", [1.0, 0.0], [0.3, 0.2], (-20.0, -19.0), 10, "exp1d"),
    ("exp1d", "sphere:2", [0.0, 0.0], [0.3, 0.2], (-20.0, -19.0), 10, "sphere:2"),
]


@pytest.mark.parametrize("h,phi,x0,v0,t_span,steps,name", DEGENERATE_GEODESICS)
def test_ode_degenerate_metric_raises_geometry_error(h, phi, x0, v0, t_span, steps, name):
    pair = canonical_pair(metric_from_name(h, kind="temporal"), metric_from_name(phi))
    with pytest.raises(GeometryError, match=f"^metric '{name}' is degenerate"):
        solve_affine_ode(pair, x0, v0, t_span, steps)


def test_ode_non_finite_stage_input_raises_map_error():
    pair, _, _ = _flat_pair(1, 2)
    with pytest.raises(MapError, match=r"non-finite geodesic state in RK4 step 2 "
                                       r"of 40, at t = 0\.5$"):
        solve_affine_ode(pair, [0.0, 0.0], [1e308, 0.0], (0.0, 20.0), 40)


def test_ode_non_finite_final_state_raises_map_error():
    # every stage input is finite; only the last update overflows
    pair, _, _ = _flat_pair(1, 2)
    with pytest.raises(MapError, match=r"RK4 step 1 of 1, at t = 1\.0$"):
        solve_affine_ode(pair, [0.0, 0.0], [1e308, 0.0], (0.0, 1.0), 1)


# --- grid solver -----------------------------------------------------------------------


def test_grid_solver_reproduces_flat_harmonic_polynomial():
    """The 5-point stencil is exact on quadratics, so the discrete solution
    is the grid restriction of t1^2 - t2^2 + t1 t2."""
    pair, h, _ = _flat_pair(2, 1)
    f = SmoothMap(2, ["t1^2 - t2^2 + t1*t2"])
    sol = solve_harmonic_grid(pair, h, f, m=17, tol=1e-11,
                              domain=[(-1.0, 1.0), (-1.0, 1.0)])
    assert sol.converged
    G1, G2 = np.meshgrid(sol.t1, sol.t2, indexing="ij")
    want = G1 ** 2 - G2 ** 2 + G1 * G2
    assert np.max(np.abs(sol.values[:, :, 0] - want)) < 1e-8
    assert sol.max_residual < 1e-11


def test_grid_solver_finds_the_residual_stencils_once(monkeypatch):
    """The solve reads which stencils its residual table needs in one
    `free_vars` pass and hands the set to each of its levels, four on 17 x 17."""
    passes, real = [], maps.free_vars
    monkeypatch.setattr(maps, "free_vars", lambda *exprs: passes.append(1) or real(*exprs))
    pair, h, _ = _flat_pair(2, 1)
    sol = solve_harmonic_grid(pair, h, SmoothMap(2, ["t1^2 - t2^2"]), m=17, tol=1e-9,
                              domain=[(-1.0, 1.0), (-1.0, 1.0)])
    assert sol.converged and len(maps._grid_sizes(17)) == 4 and len(passes) == 1


def test_grid_solver_zero_boundary_exits_immediately():
    pair, h, _ = _flat_pair(2, 1)
    sol = solve_harmonic_grid(pair, h, SmoothMap(2, ["0"]), m=9, tol=1e-9,
                              domain=[(-1.0, 1.0), (-1.0, 1.0)])
    assert sol.converged and sol.iterations == 0
    assert sol.max_residual == 0.0
    assert np.max(np.abs(sol.values)) == 0.0


def test_grid_solver_reports_divergence():
    pair, h, _ = _flat_pair(2, 1)
    f = SmoothMap(2, ["t1^2 - t2^2"])
    sol = solve_harmonic_grid(pair, h, f, m=9, tol=1e-12, damping=2.5,
                              max_iters=500, domain=[(-1.0, 1.0), (-1.0, 1.0)])
    assert sol.status == "diverged"
    assert not sol.converged


def test_grid_solver_reports_max_iterations():
    pair, h, _ = _flat_pair(2, 1)
    f = SmoothMap(2, ["t1^2 - t2^2"])
    sol = solve_harmonic_grid(pair, h, f, m=17, tol=1e-13, max_iters=5,
                              domain=[(-1.0, 1.0), (-1.0, 1.0)])
    assert sol.status == "max-iterations" and sol.iterations == 5


def test_grid_solver_validates_inputs():
    pair1, _, _ = _flat_pair(1, 1)
    pair2, h2, phi2 = _flat_pair(2, 1)
    f = SmoothMap(2, ["0"])
    with pytest.raises(MapError, match="two temporal dimensions"):
        solve_harmonic_grid(pair1, h2, f)
    with pytest.raises(MapError, match="temporal metric"):
        solve_harmonic_grid(pair2, phi2, f)
    with pytest.raises(MapError, match="at least 3"):
        solve_harmonic_grid(pair2, h2, f, m=2)
    with pytest.raises(MapError, match=r"does not match the boundary map at \(p, n\) = \(2, 2\)"):
        solve_harmonic_grid(pair2, h2, SmoothMap(2, ["0", "t1"]))
    mixed = SprayPair(canonical_temporal(h2, 2), canonical_spatial(phi2, 2))
    with pytest.raises(MapError, match="mixes jet spaces"):
        solve_harmonic_grid(mixed, h2, f)
    # one value per point would broadcast over both components of a 2-d target
    pair22, h22, _ = _flat_pair(2, 2)
    with pytest.raises(MapError, match=r"boundary values need shape \(2,\), not \(1,\)"):
        solve_harmonic_grid(pair22, h22, lambda t: np.array([t[0]]), m=5)


def test_grid_solver_with_callable_boundary():
    pair, h, _ = _flat_pair(2, 1)
    sol = solve_harmonic_grid(pair, h, lambda t: np.array([t[0] - t[1]]),
                              m=9, tol=1e-10, domain=[(-1.0, 1.0), (-1.0, 1.0)])
    assert sol.converged
    G1, G2 = np.meshgrid(sol.t1, sol.t2, indexing="ij")
    assert np.max(np.abs(sol.values[:, :, 0] - (G1 - G2))) < 1e-8


SQUARE = [(-1.0, 1.0), (-1.0, 1.0)]


def _conformal_pair():
    h = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    return canonical_pair(h, metric_from_name("euclidean:1")), h


@pytest.mark.parametrize("temporal", ["euclidean:2", "conformal2d:0.3*t1 - 0.2*t2"])
@pytest.mark.parametrize("expr", ["t1^2 - t2^2 + t1*t2", "exp(t1)*cos(t2)"])
def test_multigrid_agrees_with_jacobi_reference(temporal, expr):
    h = metric_from_name(temporal, kind="temporal")
    pair = canonical_pair(h, metric_from_name("euclidean:1"))
    f = SmoothMap(2, [expr])
    sol = solve_harmonic_grid(pair, h, f, m=17, tol=1e-9, domain=SQUARE)
    status, sweeps, _, _, _, values, _ = jacobi_harmonic_reference(
        pair, h, f, m=17, tol=1e-9, domain=SQUARE)
    assert sol.converged and status == "converged"
    assert sol.iterations <= 25 < sweeps
    assert np.max(np.abs(sol.values - values)) < 1e-8


def test_multigrid_cycle_count_is_flat_in_the_grid_size():
    pair, h = _conformal_pair()
    f = SmoothMap(2, ["exp(t1)*cos(t2)"])
    counts = []
    for m in (17, 33, 65):
        sol = solve_harmonic_grid(pair, h, f, m=m, tol=1e-9, domain=SQUARE)
        assert sol.converged and sol.max_residual <= 1e-9
        counts.append(sol.iterations)
    assert max(counts) - min(counts) <= 2, counts


@pytest.mark.parametrize("m", [7, 10, 12, 15])
def test_single_level_grids_run_jacobi(m):
    """A grid below MULTIGRID_MIN or of even size is a single level: each
    V-cycle is one Jacobi sweep, bit for bit."""
    assert maps._grid_sizes(m) == [m]
    pair, h = _conformal_pair()
    f = SmoothMap(2, ["exp(t1)*cos(t2)"])
    sol = solve_harmonic_grid(pair, h, f, m=m, tol=1e-9, domain=SQUARE)
    status, sweeps, worst, _, _, values, history = jacobi_harmonic_reference(
        pair, h, f, m=m, tol=1e-9, domain=SQUARE)
    assert (sol.status, sol.iterations, sol.max_residual) == (status, sweeps, worst)
    assert np.array_equal(sol.values, values)
    assert list(sol.history) == history


def test_grid_solver_runs_connection_sprays_frozen(monkeypatch):
    """Sprays induced by a connection are tables like the canonical pair's:
    a solve builds one residual table from their entries, each level
    freezes it once on its nodes, and the solve agrees with the canonical
    pair's to 1e-10."""
    h = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    phi = metric_from_name("conformal2d:0.2*x1 - 0.1*x1*x2", kind="spatial")
    induced = sprays_from_connection(canonical_connection(h, phi))
    built, frozen = [], []
    real_table, real_freeze = maps._residual_table, exprlang.Table.freeze
    monkeypatch.setattr(maps, "_residual_table",
                        lambda *a: built.append(real_table(*a)) or built[-1])
    monkeypatch.setattr(exprlang.Table, "freeze",
                        lambda self, *a: frozen.append(self) or real_freeze(self, *a))
    f = SmoothMap(2, ["0.4*t1 + 0.3*t2^2", "0.5*t1*t2 - 0.2*t2"])
    for m in (9, 17):
        built.clear()
        frozen.clear()
        a = solve_harmonic_grid(induced, h, f, m=m, tol=1e-10, domain=SQUARE)
        assert len(built) == 1 and frozen == [built[0].kernel] * len(maps._grid_sizes(m))
        assert built[0].entries == real_table(induced, h).entries
        b = solve_harmonic_grid(canonical_pair(h, phi), h, f, m=m, tol=1e-10, domain=SQUARE)
        assert a.status == b.status == "converged"
        assert np.max(np.abs(a.values - b.values)) <= 1e-10


def test_grid_sizes():
    assert maps._grid_sizes(17) == [17, 9, 5, 3]
    assert maps._grid_sizes(21) == [21, 11, 6]
    assert maps._grid_sizes(35) == [35, 18]
    assert maps._grid_sizes(65) == [65, 33, 17, 9, 5, 3]
    assert [maps._coarsest_sweeps(m) for m in (3, 4, 6, 18)] == [2, 3, 8, 96]


def test_partially_coarsened_grid_agrees_with_jacobi():
    """m = 21 halves to 11 and then to 6, which cannot be halved again."""
    pair, h = _conformal_pair()
    f = SmoothMap(2, ["exp(t1)*cos(t2)"])
    sol = solve_harmonic_grid(pair, h, f, m=21, tol=1e-9, domain=SQUARE)
    status, sweeps, _, _, _, values, _ = jacobi_harmonic_reference(
        pair, h, f, m=21, tol=1e-9, domain=SQUARE)
    assert sol.converged and status == "converged"
    assert sol.iterations <= 25 < sweeps
    assert np.max(np.abs(sol.values - values)) < 1e-8


@pytest.mark.parametrize("m", [19, 35])
def test_large_coarsest_grid_keeps_the_cycle_count_flat(m):
    """A grid that halves once keeps a coarsest grid of about m/2 points per
    side, which gets enough sweeps that the V-cycle count stays flat."""
    pair, h = _conformal_pair()
    sol = solve_harmonic_grid(pair, h, SmoothMap(2, ["exp(t1)*cos(t2)"]), m=m,
                              tol=1e-9, domain=SQUARE)
    assert sol.converged and sol.iterations <= 25


def test_grid_solver_residual_history():
    pair, h = _conformal_pair()
    sol = solve_harmonic_grid(pair, h, SmoothMap(2, ["exp(t1)*cos(t2)"]), m=17,
                              tol=1e-9, domain=SQUARE)
    assert sol.converged and len(sol.history) == sol.iterations
    assert sol.history[-1] == sol.max_residual <= 1e-9
    assert all(b < a for a, b in zip(sol.history, sol.history[1:]))
    for cap in (1, 3):
        capped = solve_harmonic_grid(pair, h, SmoothMap(2, ["exp(t1)*cos(t2)"]), m=17,
                                     tol=1e-9, max_iters=cap, domain=SQUARE)
        assert capped.status == "max-iterations"
        assert capped.history == sol.history[:cap]
        assert capped.max_residual == capped.history[-1]


def test_grid_transfers():
    """Bilinear prolongation reproduces a bilinear field from its coarse
    nodes.  Full weighting reproduces a linear field at the coarse nodes
    and removes the modes that alternate along either axis, which
    injection would keep."""
    s = np.linspace(-1.0, 1.0, 9)
    G1, G2 = np.meshgrid(s, s, indexing="ij")
    fine = np.stack([1 + 2 * G1 - G2 + 3 * G1 * G2, G1 - 0.5 * G2], axis=2)
    assert np.allclose(maps._prolong(fine[::2, ::2]), fine, rtol=0, atol=1e-15)
    interior = fine[1:-1, 1:-1, 1].reshape(-1, 1)
    restricted = maps._restrict(interior, 9).reshape(3, 3)
    assert np.allclose(restricted, fine[2:-2:2, 2:-2:2, 1], rtol=0, atol=1e-15)
    for alternating in ((-1.0) ** np.indices((7, 7))):
        assert np.array_equal(maps._restrict(alternating.reshape(-1, 1), 9),
                              np.zeros((9, 1)))


@pytest.mark.parametrize("rhs", ["zero", "array"])
@pytest.mark.parametrize("target", ["euclidean:1", "euclidean:2", "euclidean:3", "sphere:2",
                                    "conformal2d:0.2*(x1^2 + x2^2)"])
@pytest.mark.parametrize("m", [3, 5, 9, 17])
def test_level_residual_matches_reference_bit_for_bit(m, target, rhs):
    """A level's residual, on its frozen tables and buffers, is the
    reference residual of tests/helpers.py minus rhs, bit for bit, at
    random grid values; a second call on other values reuses the buffers
    and still agrees."""
    h = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    pair = canonical_pair(h, metric_from_name(target, kind="spatial"))
    t1, t2 = np.linspace(-0.9, 1.0, m), np.linspace(-0.5, 0.7, m)
    level = grid_level(maps._residual_table(pair, h), h, t1, t2)
    rng = np.random.default_rng(m)
    for _ in range(2):
        vals = rng.uniform(0.4, 1.4, (m, m, pair.temporal.n))
        b = 0.0 if rhs == "zero" else rng.normal(0.0, 1.0, ((m - 2) ** 2, pair.temporal.n))
        want = reference_grid_residual(pair, level.T, level.hinv, t1[1] - t1[0],
                                       t2[1] - t2[0], vals) - b
        got = level.residual(vals, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# a temporal metric with h_12 = h_21 != 0, positive definite on [-1, 1]^2
SHEARED = Metric("sheared", "temporal",
                 [[parse("exp(0.4*t1)"), parse("0.3*sin(t1 + t2)")],
                  [parse("0.3*sin(t1 + t2)"), parse("1 + 0.2*t2^2")]])


@pytest.mark.parametrize("target", ["euclidean:2", "sphere:2", "hyperbolic:2",
                                    "conformal2d:0.2*(x1^2 + x2^2)"])
@pytest.mark.parametrize("m", [3, 5, 9, 17])
def test_level_residual_with_off_diagonal_metric_matches_reference(m, target):
    """With h^12 != 0 a level computes the mixed second difference and the
    residual sums four terms per component, in the table's order; einsum's
    order is unspecified, so the reference is matched to 1e-14 relative,
    not bit for bit."""
    pair = canonical_pair(SHEARED, metric_from_name(target, kind="spatial"))
    t1, t2 = np.linspace(-0.9, 1.0, m), np.linspace(-0.5, 0.7, m)
    level = grid_level(maps._residual_table(pair, SHEARED), SHEARED, t1, t2)
    assert {"1", "2", "11", "12", "22"} <= level.stencils
    rng = np.random.default_rng(m)
    for _ in range(2):
        vals = rng.uniform(0.4, 1.4, (m, m, pair.temporal.n))
        want = reference_grid_residual(pair, level.T, level.hinv, t1[1] - t1[0],
                                       t2[1] - t2[0], vals)
        got = level.residual(vals, 0.0)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_v_cycle_computes_no_residual_it_discards(monkeypatch):
    """On the seed-2026 benchmark problem (17 x 17, levels 17, 9, 5, 3) the
    finest level evaluates its residual once up front and four times per
    V-cycle, each coarse level four times and the coarsest twice; the last
    sweep on a coarse level only relaxes, as no one reads its residual."""
    h = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    pair = canonical_pair(h, metric_from_name("euclidean:2"))
    f = SmoothMap(2, ["-0.7638214601533735*(t1^2 - t2^2) + -0.8786981412954407*t1*t2",
                      "0.857904385207962*(t1^2 - t2^2) + -0.8522862045962581*t1*t2"])
    events = []
    for name in ("residual", "relax"):
        real = getattr(maps._Level, name)
        monkeypatch.setattr(maps._Level, name,
                            lambda self, *a, _real=real, _name=name:
                            events.append((self.m, _name)) or _real(self, *a))
    sol = solve_harmonic_grid(pair, h, f, m=17, tol=1e-9, domain=SQUARE)
    assert sol.converged and sol.iterations == 17
    count = {(m, name): events.count((m, name)) for m in (17, 9, 5, 3)
             for name in ("residual", "relax")}
    assert [count[m, "residual"] for m in (17, 9, 5, 3)] == [69, 68, 68, 34]
    assert [count[m, "relax"] for m in (17, 9, 5, 3)] == [51, 51, 51, 34]
    # leaving a level for a finer one: the coarse level's last call relaxed
    for (m, name), (m_next, _) in zip(events, events[1:]):
        if m_next > m:
            assert name == "relax", (m, m_next)


def _run_demo(command: str, out_dir: Path) -> dict:
    from jetflow.cli import main
    paths = {"report": out_dir / "report.json", "csv": out_dir / "out.csv"}
    scenario = ROOT / "demos" / f"{command}_scenario.json"
    assert main([command, str(scenario), "--output", str(paths["report"]),
                 "--csv", str(paths["csv"])]) == 0
    return paths


def _floats_apart(got, want) -> list:
    """Pairs of floats at the same place in two JSON values or CSV rows;
    everything else must be equal."""
    if isinstance(want, float):
        assert isinstance(got, float)
        return [(got, want)]
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want)
        return [pair for k in want for pair in _floats_apart(got[k], want[k])]
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        return [pair for g, w in zip(got, want) for pair in _floats_apart(g, w)]
    assert got == want
    return []


def _assert_demo_matches_golden(command: str, out_dir: Path) -> None:
    """The demo scenario's report and CSV for `command` against the ones
    stored in tests/data.  Where the stored writer matches this one, both
    files must be equal byte for byte; elsewhere another numpy or libm may
    round the last bit apart, and each number is held within
    1e-12 + 1e-9 |ref|."""
    got, golden = _run_demo(command, out_dir), GOLDEN[command]
    if json.loads(golden["writer"].read_text()) == golden_writer():
        for which in ("report", "csv"):
            assert got[which].read_bytes() == golden[which].read_bytes(), which
        return
    pairs = _floats_apart(json.loads(got["report"].read_text()),
                          json.loads(golden["report"].read_text()))
    rows = [list(csv.reader(open(path))) for path in (got["csv"], golden["csv"])]
    assert rows[0][0] == rows[1][0] and len(rows[0]) == len(rows[1])
    pairs += _floats_apart([[float(x) for x in r] for r in rows[0][1:]],
                           [[float(x) for x in r] for r in rows[1][1:]])
    for g, w in pairs:
        assert abs(g - w) <= 1e-12 + 1e-9 * abs(w)


def test_demo_harmonic_outputs_match_golden_outputs(tmp_path):
    _assert_demo_matches_golden("harmonic", tmp_path)


def test_demo_geodesic_outputs_match_golden_outputs(tmp_path):
    """The stored orbit locks the bits of the RK4 trajectory."""
    _assert_demo_matches_golden("geodesic", tmp_path)


if __name__ == "__main__":
    # Regenerate the golden demo outputs and their writers:
    #   PYTHONPATH=src python tests/test_maps.py
    import shutil
    import tempfile
    for command, golden in GOLDEN.items():
        with tempfile.TemporaryDirectory() as tmp:
            for which, path in _run_demo(command, Path(tmp)).items():
                shutil.copyfile(path, golden[which])
        golden["writer"].write_text(json.dumps(golden_writer(), sort_keys=True, indent=2) + "\n")
