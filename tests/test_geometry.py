"""Metrics: catalog values, Christoffel symbols, pullback, energy density."""

import numpy as np
import pytest

from jetflow import geometry
from jetflow import numdiff as nd
from jetflow.exprlang import compile_table, num, parse
from jetflow.geometry import (
    GeometryError,
    Metric,
    energy_density,
    metric_from_name,
    pullback_metric,
)

from helpers import metric_and_points


# --- frozen Christoffel values (hand-derived from the closed-form metrics) ---


def test_sphere_christoffel_values():
    g = metric_from_name("sphere:2")
    G = g.christoffel_batch(np.array([np.pi / 4, 0.3]))[0]
    # Gamma^1_22 = -sin(th)cos(th) = -1/2,  Gamma^2_12 = cot(th) = 1 at th=pi/4
    assert abs(G[0, 1, 1] - (-0.5)) < 1e-12
    assert abs(G[1, 0, 1] - 1.0) < 1e-12
    assert abs(G[1, 1, 0] - 1.0) < 1e-12
    assert abs(G[0, 0, 0]) < 1e-12 and abs(G[0, 0, 1]) < 1e-12


def test_exp1d_christoffel_value():
    h = metric_from_name("exp1d")
    G = h.christoffel_batch(np.array([0.7]))[0]
    # h11 = exp(2 t): Gamma^1_11 = h'/(2h) = 1 for every t
    assert abs(G[0, 0, 0] - 1.0) < 1e-12


def test_hyperbolic_christoffel_values():
    g = metric_from_name("hyperbolic:2")
    x2 = 0.8
    G = g.christoffel_batch(np.array([0.4, x2]))[0]
    assert abs(G[0, 0, 1] - (-1.0 / x2)) < 1e-12
    assert abs(G[0, 1, 0] - (-1.0 / x2)) < 1e-12
    assert abs(G[1, 0, 0] - (1.0 / x2)) < 1e-12
    assert abs(G[1, 1, 1] - (-1.0 / x2)) < 1e-12
    assert abs(G[1, 0, 1]) < 1e-12


def test_euclidean_christoffel_vanishes():
    g = metric_from_name("euclidean:3")
    G = g.christoffel_batch(np.array([0.1, -0.4, 2.0]))[0]
    assert np.max(np.abs(G)) == 0.0


# --- finite-difference oracle for a metric with no hand-derived table --------


def test_conformal_christoffel_against_finite_differences():
    h = metric_from_name("conformal2d:0.3*t1 - 0.2*t2 + 0.1*t1*t2")
    t = np.array([0.4, -0.3])
    d = 2
    eps = 1e-6
    dg = np.empty((d, d, d))
    for c in range(d):
        dt = np.zeros(d); dt[c] = eps
        dg[c] = (h.components_batch(t + dt)[0] - h.components_batch(t - dt)[0]) / (2 * eps)
    ginv = h.inverse_batch(t)[0]
    G_fd = np.empty((d, d, d))
    for a in range(d):
        for b in range(d):
            for c in range(d):
                G_fd[a, b, c] = 0.5 * sum(
                    ginv[a, e] * (dg[b][e, c] + dg[c][b, e] - dg[e][b, c])
                    for e in range(d))
    G = h.christoffel_batch(t)[0]
    assert np.max(np.abs(G - G_fd)) < 1e-8


def test_christoffel_symmetry_in_lower_indices():
    g = metric_from_name("hyperbolic:2")
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(-1, 1, 5), rng.uniform(0.5, 2.0, 5)])
    G = g.christoffel_batch(pts)
    assert np.max(np.abs(G - G.transpose(0, 1, 3, 2))) < 1e-14


# --- evaluation consistency ---------------------------------------------------


def test_components_batch_matches_pointwise():
    g = metric_from_name("sphere:2")
    rng = np.random.default_rng(4)
    pts = np.column_stack([rng.uniform(0.5, 2.5, 7), rng.uniform(-2, 2, 7)])
    batch = g.components_batch(pts)
    for k, pt in enumerate(pts):
        assert np.max(np.abs(batch[k] - g.components_batch(pt)[0])) < 1e-15


def test_christoffel_batch_matches_pointwise():
    g = metric_from_name("sphere:2")
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(0.5, 2.5, 6), rng.uniform(-2, 2, 6)])
    batch = g.christoffel_batch(pts)
    for k, pt in enumerate(pts):
        assert np.max(np.abs(batch[k] - g.christoffel_batch(pt)[0])) < 1e-15


@pytest.mark.parametrize("name,kind,point", [
    ("exp1d", "temporal", [0.4]),
    ("hyperbolic:2", "spatial", [0.3, 1.2]),
])
def test_symbolic_inverse_matches_numeric(name, kind, point):
    g = metric_from_name(name, kind)
    inv_sym = g.inverse_components()
    env = dict(zip(g.variables, point))
    inv_val = np.array([[e.eval(env) for e in row] for row in inv_sym])
    assert np.max(np.abs(inv_val - g.inverse_batch(np.array(point))[0])) < 1e-12


def test_symbolic_inverse_dim3():
    comp = [[parse("2"), parse("x1"), parse("0")],
            [parse("x1"), parse("3"), parse("x2")],
            [parse("0"), parse("x2"), parse("4")]]
    g = Metric("dense3", "spatial", comp)
    pt = np.array([0.5, -0.7, 0.2])
    inv_sym = g.inverse_components()
    env = dict(zip(g.variables, pt))
    inv_val = np.array([[e.eval(env) for e in row] for row in inv_sym])
    assert np.max(np.abs(inv_val - g.inverse_batch(pt)[0])) < 1e-12


def test_degenerate_metric_raises():
    g = Metric("deg", "spatial", [[parse("x1"), num(0.0)], [num(0.0), parse("1")]])
    for x1 in (0.0, 1e-14):
        for method in (g.inverse_batch, g.christoffel_batch):
            for points in (np.array([x1, 1.0]), np.array([[1.0, 1.0], [x1, 1.0]])):
                with pytest.raises(GeometryError):
                    method(points)


@pytest.mark.parametrize("d", [4, 5, 6])
@pytest.mark.parametrize("kind", ["diagonal", "shear", "mixed"])
def test_symbolic_inverse_beyond_dim3(d, kind):
    rng = np.random.default_rng(10 + d)
    if kind == "diagonal":
        g = Metric("diag", "spatial", [[parse(f"2 + sin(x{a + 1})") if a == b else num(0.0)
                                        for b in range(d)] for a in range(d)])
    else:
        g = pullback_metric(metric_from_name(f"euclidean:{d}"), nd.random_change(rng, 1, d, kind))
    inv = compile_table([e for row in g.inverse_components() for e in row], g.variables)
    for _ in range(3):
        pt = rng.uniform(-1.0, 1.0, d)
        want = np.linalg.inv(g.components_batch(pt)[0])
        assert np.max(np.abs(np.reshape(inv(*pt.tolist()), (d, d)) - want)) < 1e-12
        assert np.max(np.abs(g.inverse_batch(pt)[0] - want)) < 1e-12


# --- compiled tables against the tree interpreter -------------------------------

CATALOG = [("euclidean:1", "spatial"), ("euclidean:2", "temporal"), ("euclidean:3", "spatial"),
           ("sphere:2", "spatial"), ("hyperbolic:2", "spatial"), ("exp1d", "temporal"),
           ("conformal2d:0.3*t1 - 0.2*t2 + 0.1*t1*t2", "temporal")]


@pytest.mark.parametrize("change_kind", [None, "affine", "shear", "mixed"])
@pytest.mark.parametrize("name,kind", CATALOG)
def test_compiled_tables_match_interpreter(name, kind, change_kind):
    rng = np.random.default_rng(sum(map(ord, name + kind + str(change_kind))))
    g, pts = metric_and_points(name, kind, change_kind, rng)
    for table in ("g", "inverse", "christoffel"):
        exprs = g._exprs(table)
        want = np.array([[e.eval(dict(zip(g.variables, pt))) for e in exprs] for pt in pts])
        floats = np.array([g._kernel(table)(*pt.tolist()) for pt in pts])
        columns = g._tabulate(table, pts)
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(floats - want) / scale) <= 1e-13, table
        assert np.max(np.abs(columns - want) / scale) <= 1e-13, table


@pytest.mark.parametrize("change_kind", [None, "mixed"])
@pytest.mark.parametrize("name,kind", CATALOG)
def test_christoffel_matches_numeric_formula(name, kind, change_kind):
    # Gamma from interpreted first derivatives and a numeric inverse
    rng = np.random.default_rng(sum(map(ord, name + kind)))
    g, pts = metric_and_points(name, kind, change_kind, rng)
    for pt in pts:
        env = dict(zip(g.variables, pt))
        dg = np.array([[[e.eval(env) for e in row] for row in plane] for plane in g._dg])
        ginv = np.linalg.inv(g.components_batch(pt)[0])
        lowered = dg.transpose(1, 0, 2) + dg.transpose(2, 1, 0) - dg
        want = 0.5 * np.einsum("ad,dbc->abc", ginv, lowered)
        assert np.max(np.abs(g.christoffel_batch(pt)[0] - want)) < 1e-12
        assert np.max(np.abs(g.inverse_batch(pt)[0] - ginv)) < 1e-12


def test_each_table_is_compiled_once(monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(args[0])
        return compile_table(*args, **kwargs)

    monkeypatch.setattr(geometry, "compile_table", counting)
    g = metric_from_name("sphere:2")
    pts = np.array([[1.0, 0.2], [1.2, -0.3]])
    for _ in range(3):
        g.christoffel_batch(pts[0])
        g.christoffel_batch(pts)
    assert len(built) == 1
    for _ in range(3):
        g.inverse_batch(pts[0])
        g.inverse_batch(pts)
        g.components_batch(pts[0])
        g.components_batch(pts)
    assert len(built) == 3
    assert len(metric_from_name("sphere:2")._kernels) == 0


# --- pullback ------------------------------------------------------------------


def test_pullback_preserves_lengths():
    g = metric_from_name("sphere:2")
    rng = np.random.default_rng(6)
    c = nd.random_change(rng, 1, 2, "shear")
    gt = pullback_metric(g, c)
    for _ in range(6):
        x = np.array([rng.uniform(0.6, 2.4), rng.uniform(-1.5, 1.5)])
        w = rng.normal(size=2)
        blocks = nd.jacobian_blocks(c, np.zeros(1), x)
        B, x_new = blocks.B, blocks.x_new
        length = w @ g.components_batch(x)[0] @ w
        length_new = (B @ w) @ gt.components_batch(x_new)[0] @ (B @ w)
        assert abs(length - length_new) < 1e-10 * max(1.0, abs(length))


def test_pullback_is_shared_per_metric_and_change():
    rng = np.random.default_rng(5)
    g, h = metric_from_name("sphere:2"), metric_from_name("hyperbolic:2")
    c, d = nd.random_change(rng, 1, 2, "mixed"), nd.random_change(rng, 1, 2, "mixed")
    assert pullback_metric(g, c) is pullback_metric(g, c)
    others = {id(pullback_metric(g, d)), id(pullback_metric(h, c)),
              id(pullback_metric(metric_from_name("sphere:2"), c))}
    assert id(pullback_metric(g, c)) not in others and len(others) == 3


def test_pullback_temporal_kind_and_dimension_checks():
    h = metric_from_name("exp1d")
    rng = np.random.default_rng(7)
    c = nd.random_change(rng, 2, 2, "affine")
    with pytest.raises(GeometryError):
        pullback_metric(h, c)


def test_pullback_of_flat_metric_under_affine_is_constant():
    g = metric_from_name("euclidean:2")
    rng = np.random.default_rng(8)
    c = nd.random_change(rng, 2, 2, "affine")
    gt = pullback_metric(g, c)
    a = gt.components_batch(np.array([0.0, 0.0]))[0]
    b = gt.components_batch(np.array([1.0, -1.0]))[0]
    assert np.max(np.abs(a - b)) < 1e-12


# --- catalog and validation -----------------------------------------------------


def test_metric_catalog_kinds_and_boxes():
    assert metric_from_name("euclidean:3").kind == "spatial"
    assert metric_from_name("exp1d").kind == "temporal"
    assert metric_from_name("sphere:2", "temporal").variables == ["t1", "t2"]
    h = metric_from_name("conformal2d:0.1*t1")
    assert h.kind == "temporal" and h.box is not None


def test_unknown_metric_raises():
    with pytest.raises(GeometryError):
        metric_from_name("torus:2")
    with pytest.raises(GeometryError):
        metric_from_name("sphere:3")
    with pytest.raises(GeometryError):
        metric_from_name("hyperbolic:1")


def test_foreign_variable_rejected():
    with pytest.raises(GeometryError):
        Metric("bad", "temporal", [[parse("x1")]])
    with pytest.raises(GeometryError):
        metric_from_name("conformal2d:x1")


def test_bad_kind_and_shape_rejected():
    with pytest.raises(GeometryError):
        Metric("bad", "sideways", [[num(1.0)]])
    with pytest.raises(GeometryError):
        Metric("bad", "spatial", [[num(1.0), num(0.0)]])


# --- energy density --------------------------------------------------------------


def test_energy_density_value():
    h = metric_from_name("euclidean:2", "temporal")
    phi = metric_from_name("sphere:2")
    E = energy_density(h, phi)
    th = np.pi / 3
    v = np.array([[0.4, -1.1], [0.7, 0.2]])
    env = {"t1": 0.0, "t2": 0.0, "x1": th, "x2": 0.5,
           "x1_1": v[0, 0], "x1_2": v[0, 1], "x2_1": v[1, 0], "x2_2": v[1, 1]}
    phi_val = phi.components_batch(np.array([th, 0.5]))[0]
    expected = sum(v[:, a] @ phi_val @ v[:, a] for a in range(2))
    assert abs(E.eval(env) - expected) < 1e-12


def test_energy_density_kind_check():
    h = metric_from_name("euclidean:2", "temporal")
    with pytest.raises(GeometryError):
        energy_density(h, h)
