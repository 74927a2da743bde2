"""Maps, PDE residuals, and the two solvers."""

from dataclasses import replace

import numpy as np
import pytest

from jetflow.connection import canonical_connection, sprays_from_connection
from jetflow.geometry import GeometryError, metric_from_name
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
from jetflow import maps
from jetflow.sprays import (
    SprayPair,
    canonical_pair,
    canonical_spatial,
    combine_sprays,
    h_trace,
    spray_from_hspray,
)

from helpers import jacobi_harmonic_reference, reference_affine_ode, standard_metrics


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
    hinv = h.inverse_at(t)
    # canonical (G + H) is symmetric in its lower pair, so the symmetrized
    # affine form traces to the harmonic one
    got = np.einsum("ab,iab->i", hinv, affine_residual(f, pair, t))
    assert np.max(np.abs(got - harmonic_residual(f, pair, h, t))) < 1e-12


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
    e0 = sol.vs[0] @ phi.components_at(sol.xs[0]) @ sol.vs[0]
    e1 = sol.vs[-1] @ phi.components_at(sol.xs[-1]) @ sol.vs[-1]
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


@pytest.mark.parametrize("spatial,x0,v0", [
    ("sphere:2", [np.pi / 2, 0.0], [0.6, 1.0]),
    ("hyperbolic:2", [0.3, 1.0], [0.5, 0.4]),
    ("euclidean:2", [1.0, -2.0], [0.5, 0.25]),
])
def test_float_rk4_matches_numpy_reference_bit_for_bit(spatial, x0, v0):
    h = metric_from_name("euclidean:1", kind="temporal")
    _assert_matches_reference(canonical_pair(h, metric_from_name(spatial)),
                              x0, v0, (0.0, 3.0), 300)


def test_float_rk4_matches_reference_with_curved_time():
    h = metric_from_name("exp1d")
    pair = canonical_pair(h, metric_from_name("sphere:2"))
    u = JetPoint([0.2], [1.2, 0.3], [[0.6], [1.0]])
    assert np.max(np.abs(pair.temporal.coefficients(u))) > 0.1      # H != 0
    _assert_matches_reference(pair, [1.2, 0.3], [0.6, 1.0], (-0.5, 1.0), 200)


def test_float_rk4_matches_reference_for_sprays_without_tables():
    h = metric_from_name("exp1d")
    sphere, hyper = (canonical_spatial(metric_from_name(name), 1)
                     for name in ("sphere:2", "hyperbolic:2"))
    mixed = combine_sprays([sphere, hyper], [0.3, 0.7])
    from_trace = spray_from_hspray(h_trace(sphere, h), h)
    temporal = canonical_pair(h, metric_from_name("sphere:2")).temporal
    for spatial in (mixed, from_trace):
        assert spatial.tables is None
        _assert_matches_reference(SprayPair(temporal, spatial),
                                  [1.2, 0.5], [0.4, 0.8], (0.0, 1.0), 80)


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


def test_ode_degenerate_metric_raises_geometry_error():
    # the hyperbolic geodesic climbs to large x2, where det g = x2^-4 < 1e-12
    h = metric_from_name("euclidean:1", kind="temporal")
    pair = canonical_pair(h, metric_from_name("hyperbolic:2"))
    with pytest.raises(GeometryError, match="metric 'hyperbolic:2' is degenerate"):
        solve_affine_ode(pair, [0.3, 1.0], [0.0, 40.0], (0.0, 20.0), 40)


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


def test_grid_solver_zero_boundary_exits_immediately():
    pair, h, _ = _flat_pair(2, 1)
    sol = solve_harmonic_grid(pair, h, SmoothMap(2, ["0"]), m=9, tol=1e-9,
                              domain=[(-1.0, 1.0), (-1.0, 1.0)])
    assert sol.converged and sol.iterations == 0
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


def test_grid_solver_pointwise_fallback_matches_batched_sprays():
    """Sprays induced by a connection have no batch path, so the solver
    evaluates them point by point; the canonical pair runs its compiled
    batch tables.  Both describe the same sprays and give the same solve."""
    h = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    phi = metric_from_name("conformal2d:0.2*x1 - 0.1*x1*x2", kind="spatial")
    pointwise = sprays_from_connection(canonical_connection(h, phi))
    assert pointwise.temporal.coefficients_batch is None
    assert pointwise.spatial.coefficients_batch is None
    f = SmoothMap(2, ["0.4*t1 + 0.3*t2^2", "0.5*t1*t2 - 0.2*t2"])
    a = solve_harmonic_grid(pointwise, h, f, m=7, tol=1e-10, domain=SQUARE)
    b = solve_harmonic_grid(canonical_pair(h, phi), h, f, m=7, tol=1e-10, domain=SQUARE)
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
