"""Sprays: canonical coefficients, transformation laws, traces, decompositions."""

from dataclasses import replace

import numpy as np
import pytest

from jetflow import numdiff as nd, sprays
from jetflow.dtensor import is_dtensor
from jetflow.exprlang import Num, compile_table, num, parse
from jetflow.geometry import GeometryError, Metric, metric_from_name
from jetflow.jetspace import JetPoint, random_jet, transform_jet
from jetflow.sprays import (
    Spray,
    SprayError,
    SprayPair,
    canonical_pair,
    canonical_spatial,
    canonical_temporal,
    combine_sprays,
    decompose_spray,
    h_trace,
    spray_coefficient_field,
    spray_difference_field,
    spray_from_hspray,
    spray_law_error,
    transform_spray,
    zero_spray,
)

from helpers import (catalog, fd_spray_gradient, jets_in, metric_and_points, standard_metrics,
                     walk_batch, walk_gradient)


# --- frozen coefficient values ---------------------------------------------------


def test_canonical_temporal_exp1d_values():
    """h11 = exp(2 t): Gamma^1_11 = 1, so the coefficients are -v^j/2."""
    h = metric_from_name("exp1d")
    s = canonical_temporal(h, 2)
    u = JetPoint(np.array([0.3]), np.array([0.5, -0.4]), np.array([[1.4], [-2.2]]))
    arr = s.coefficients(u)
    assert arr.shape == (2, 1, 1)
    assert np.max(np.abs(arr[:, 0, 0] - (-u.v[:, 0] / 2))) < 1e-12


def test_canonical_spatial_sphere_value():
    """At th = pi/4, v = [(1,), (2,)]: G^(1) = (1/2) Gamma^1_22 v^2 v^2 = -1."""
    phi = metric_from_name("sphere:2")
    s = canonical_spatial(phi, 1)
    u = JetPoint(np.array([0.0]), np.array([np.pi / 4, 0.0]),
                 np.array([[1.0], [2.0]]))
    arr = s.coefficients(u)
    assert abs(arr[0, 0, 0] - (-1.0)) < 1e-12
    # G^(2) = (1/2)(Gamma^2_12 + Gamma^2_21) v^1 v^2 = cot(pi/4) * 1 * 2 = 2
    assert abs(arr[1, 0, 0] - 2.0) < 1e-12


def test_zero_sprays_vanish():
    u = random_jet(np.random.default_rng(41), 2, 2)
    assert np.max(np.abs(zero_spray("temporal", 2, 2).coefficients(u))) == 0.0
    assert np.max(np.abs(zero_spray("spatial", 2, 2).coefficients(u))) == 0.0


# --- transformation laws -----------------------------------------------------------


def test_temporal_law_holds_for_canonical_spray():
    rng = np.random.default_rng(42)
    h, phi = standard_metrics(2, 2)
    s = canonical_temporal(h, 2)
    v = spray_law_error(s, catalog(rng, 2, 2, count=2),
                        jets_in(rng, 2, 2, h=h, phi=phi, count=6))
    assert v.passed and v.max_rel_err < 1e-8
    assert v.pairs == 6 * 6


def test_spatial_law_holds_for_canonical_spray():
    rng = np.random.default_rng(43)
    h, phi = standard_metrics(2, 2)
    s = canonical_spatial(phi, 2)
    v = spray_law_error(s, catalog(rng, 2, 2, kinds=("affine", "shear"), count=3),
                        jets_in(rng, 2, 2, h=h, phi=phi, count=6))
    assert v.passed and v.max_rel_err < 1e-8


def test_law_fails_for_metric_mismatch():
    """Transforming one metric's spray but recomputing with another's must fail."""
    rng = np.random.default_rng(44)
    h = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    s_true = canonical_temporal(h, 2)
    flat = metric_from_name("euclidean:2", "temporal")
    broken = canonical_temporal(flat, 2)
    # graft the flat spray's native form onto the curved spray
    from dataclasses import replace
    s_bad = replace(s_true, rebuild=broken.rebuild)
    v = spray_law_error(s_bad, catalog(rng, 2, 2, kinds=("mixed",), count=2),
                        jets_in(rng, 2, 2, h=h, count=5))
    assert not v.passed and v.max_rel_err > 1e-4
    assert v.witness is not None


def test_transform_reduces_to_tensor_part_for_affine_change():
    """Affine changes have vanishing Hessians, so the inhomogeneous term drops."""
    rng = np.random.default_rng(45)
    import jetflow.numdiff as nd
    c = nd.random_change(rng, 2, 2, "affine")
    h, phi = standard_metrics(2, 2)
    st = canonical_temporal(h, 2)
    u = jets_in(rng, 2, 2, h=h, phi=phi, count=1)[0]
    jb = nd.jacobian_blocks(c, u.t, u.x)
    tensor = np.einsum("jba,ag,kj,bm->kmg", st.coefficients(u),
                       jb.A_inv, jb.B, jb.A_inv)
    assert np.max(np.abs(transform_spray(st, c, u) - tensor)) < 1e-12
    ss = canonical_spatial(phi, 2)
    tensor = np.einsum("jba,ag,kj,bm->kmg", ss.coefficients(u),
                       jb.A_inv, jb.B, jb.A_inv)
    assert np.max(np.abs(transform_spray(ss, c, u) - tensor)) < 1e-12


# --- jet gradients ---------------------------------------------------------------


def test_exact_jet_gradients_match_finite_differences():
    rng = np.random.default_rng(46)
    h, phi = standard_metrics(2, 2)
    u = jets_in(rng, 2, 2, h=h, phi=phi, count=1)[0]
    for s in (canonical_temporal(h, 2), canonical_spatial(phi, 2)):
        G = walk_gradient(s.tables, u)
        G_fd = fd_spray_gradient(s, u)
        assert np.max(np.abs(G - G_fd)) < 1e-7, s.name


def test_batch_coefficients_match_pointwise():
    rng = np.random.default_rng(47)
    h, phi = standard_metrics(2, 2)
    jets = jets_in(rng, 2, 2, h=h, phi=phi, count=5)
    T = np.stack([u.t for u in jets])
    X = np.stack([u.x for u in jets])
    V = np.stack([u.v for u in jets])
    for s in (canonical_temporal(h, 2), canonical_spatial(phi, 2)):
        batch = walk_batch(s.tables, T, X, V)
        for k, u in enumerate(jets):
            assert np.max(np.abs(batch[k] - s.coefficients(u))) < 1e-14


# --- h-trace and the p = 1 correspondence -------------------------------------------


def test_h_trace_and_round_trip_p1():
    h = metric_from_name("exp1d")
    phi = metric_from_name("sphere:2")
    s = canonical_spatial(phi, 1)
    hs = h_trace(s, h)
    u = JetPoint(np.array([0.2]), np.array([np.pi / 3, 0.4]),
                 np.array([[0.7], [(-1.1)]]))
    hinv = h.inverse_batch(u.t)[0]
    want = hinv[0, 0] * s.coefficients(u)[:, 0, 0]
    assert np.max(np.abs(hs.tables.at(u) - want)) < 1e-13
    back = spray_from_hspray(hs, h)
    assert np.max(np.abs(back.coefficients(u) - s.coefficients(u))) < 1e-13
    assert np.max(np.abs(walk_gradient(back.tables, u) - walk_gradient(s.tables, u))) < 1e-13


def test_hspray_correspondence_requires_one_temporal_dim():
    h2 = metric_from_name("conformal2d:0.1*t1")
    phi = metric_from_name("sphere:2")
    hs = h_trace(canonical_spatial(phi, 2), h2)
    with pytest.raises(SprayError, match="one temporal dimension"):
        spray_from_hspray(hs, h2)


def test_h_trace_rejects_spatial_metric():
    phi = metric_from_name("sphere:2")
    with pytest.raises(SprayError):
        h_trace(canonical_spatial(phi, 1), phi)


# --- affine structure ----------------------------------------------------------------


def test_affine_combination_is_again_a_spray():
    rng = np.random.default_rng(48)
    h, phi = standard_metrics(2, 2)
    flat = metric_from_name("euclidean:2", "temporal")
    s = combine_sprays([canonical_temporal(h, 2), canonical_temporal(flat, 2)],
                       [0.7, 0.3])
    v = spray_law_error(s, catalog(rng, 2, 2, count=2),
                        jets_in(rng, 2, 2, h=h, phi=phi, count=5))
    assert v.passed, v.max_rel_err


def test_combination_weights_must_sum_to_one():
    h, _ = standard_metrics(2, 2)
    s = canonical_temporal(h, 2)
    with pytest.raises(SprayError, match="sum to 1"):
        combine_sprays([s, s], [0.6, 0.3])
    with pytest.raises(SprayError):
        combine_sprays([], [])


def test_spray_without_rebuild_has_no_chart_native_form():
    import jetflow.numdiff as nd
    s = zero_spray("temporal", 2, 2)
    with pytest.raises(SprayError, match="no chart-native form"):
        s.in_chart(nd.identity_change(2, 2))


@pytest.mark.parametrize("derive", [
    lambda s, z: combine_sprays([s, z], [0.5, 0.5]),
    lambda s, z: spray_difference_field(s, z),
    lambda s, z: spray_difference_field(z, s),
    lambda s, z: spray_coefficient_field(z),
], ids=["combination", "difference", "difference-reversed", "coefficients"])
def test_derived_object_of_a_spray_without_native_form_raises_its_error(derive):
    """A derived object's native form is its constructor on its parts'
    native forms, so a zero spray's missing one raises from `in_chart`; a
    d-tensor field does not fall back to its source-chart formula."""
    h, _ = standard_metrics(2, 2)
    derived = derive(canonical_temporal(h, 2), zero_spray("temporal", 2, 2))
    with pytest.raises(SprayError, match="spray 'zero-temporal' has no chart-native form"):
        derived.in_chart(nd.identity_change(2, 2))


# --- sprays vs d-tensors ----------------------------------------------------------------


def test_spray_difference_is_a_dtensor():
    rng = np.random.default_rng(49)
    h, phi = standard_metrics(2, 2)
    flat = metric_from_name("euclidean:2", "temporal")
    diff = spray_difference_field(canonical_temporal(h, 2),
                                  canonical_temporal(flat, 2))
    v = is_dtensor(diff, catalog(rng, 2, 2, count=2),
                   jets_in(rng, 2, 2, h=h, phi=phi, count=6))
    assert v.passed, v.max_rel_err


def test_spray_coefficients_alone_are_not_a_dtensor():
    rng = np.random.default_rng(50)
    h, phi = standard_metrics(2, 2)
    f = spray_coefficient_field(canonical_temporal(h, 2))
    v = is_dtensor(f, catalog(rng, 2, 2, kinds=("mixed",), count=3),
                   jets_in(rng, 2, 2, h=h, phi=phi, count=6))
    assert not v.passed and v.max_rel_err > 1e-6


def test_decompose_recovers_base_plus_remainder():
    rng = np.random.default_rng(51)
    h, phi = standard_metrics(2, 2)
    flat_t = metric_from_name("euclidean:2", "temporal")
    s = canonical_temporal(h, 2)
    base, rem = decompose_spray(s, flat_t)
    u = jets_in(rng, 2, 2, h=h, phi=phi, count=1)[0]
    rebuilt = base.coefficients(u) + rem(u).reshape(2, 2, 2)
    assert np.max(np.abs(rebuilt - s.coefficients(u))) < 1e-12

    flat_x = metric_from_name("euclidean:2")
    ss = canonical_spatial(phi, 2)
    base2, rem2 = decompose_spray(ss, flat_x)
    rebuilt2 = base2.coefficients(u) + rem2(u).reshape(2, 2, 2)
    assert np.max(np.abs(rebuilt2 - ss.coefficients(u))) < 1e-12


def test_difference_requires_matching_jet_space():
    h, phi = standard_metrics(2, 2)
    with pytest.raises(SprayError, match="different jet spaces"):
        spray_difference_field(canonical_temporal(h, 2), canonical_temporal(h, 3))


# --- one spray type: the kind must match wherever sprays meet -----------------------


def test_spray_kind_must_be_temporal_or_spatial():
    with pytest.raises(SprayError, match="kind"):
        Spray("vertical", zero_spray("temporal", 2, 2).tables)


def test_difference_rejects_mixed_kinds():
    """A temporal minus a spatial spray is no d-tensor (on the demo
    scenario's mixed changes it fails the law with max_rel_err 0.11), so
    building it is an error."""
    h, phi = standard_metrics(2, 2)
    with pytest.raises(SprayError, match="different kinds"):
        spray_difference_field(canonical_temporal(h, 2), canonical_spatial(phi, 2))


def test_combine_rejects_mixed_kinds():
    h, phi = standard_metrics(2, 2)
    with pytest.raises(SprayError, match="different kinds"):
        combine_sprays([canonical_temporal(h, 2), canonical_spatial(phi, 2)], [0.5, 0.5])


def test_spray_pair_is_temporal_then_spatial():
    h, phi = standard_metrics(2, 2)
    temporal, spatial = canonical_temporal(h, 2), canonical_spatial(phi, 2)
    assert SprayPair(temporal, spatial).spatial is spatial
    for wrong in ((spatial, temporal), (temporal, temporal), (spatial, spatial)):
        with pytest.raises(SprayError, match="temporal spray then a spatial spray"):
            SprayPair(*wrong)


def test_decompose_rejects_metric_of_other_kind():
    h, phi = standard_metrics(2, 2)
    with pytest.raises(SprayError, match="spatial spray decomposes over a spatial metric"):
        decompose_spray(canonical_spatial(phi, 2), h)
    with pytest.raises(SprayError, match="temporal spray decomposes over a temporal metric"):
        decompose_spray(canonical_temporal(h, 2), phi)


# --- compiled spray tables against the Christoffel x einsum formula --------------


def reference_coefficients(kind, metric, T, X, V):
    """Spray coefficients (q, n, p, p) from the metric's Christoffel symbols,
    contracted by einsum: the formula the compiled tables replace."""
    if kind == "temporal":
        gamma = metric.christoffel_batch(T)                   # [q, g, a, b]
        return -0.5 * np.einsum("qgab,qjg->qjba", gamma, V)
    gamma = metric.christoffel_batch(X)                       # [q, j, k, l]
    return 0.5 * np.einsum("qjkl,qka,qlb->qjba", gamma, V, V)


def reference_gradient(kind, metric, u):
    """d arr[j, b, a] / d x^k_g from the Christoffel symbols, (n, p, p, n, p)."""
    if kind == "temporal":
        gamma = metric.christoffel_batch(u.t)[0]
        return -0.5 * np.einsum("gab,jk->jbakg", gamma, np.eye(u.n))
    gamma = metric.christoffel_batch(u.x)[0]
    eye_p = np.eye(u.p)
    return 0.5 * (np.einsum("jml,lb,ga->jbamg", gamma, u.v, eye_p)
                  + np.einsum("jkm,ka,gb->jbamg", gamma, u.v, eye_p))


SPRAY_CATALOG = [("euclidean:2", "temporal"), ("exp1d", "temporal"),
                 ("conformal2d:0.3*t1 - 0.2*t2 + 0.1*t1*t2", "temporal"),
                 ("euclidean:3", "spatial"), ("sphere:2", "spatial"),
                 ("hyperbolic:2", "spatial"), ("conformal2d:0.2*x1 - 0.1*x1*x2", "spatial")]


def _spray_and_jets(name, kind, change_kind, rng, count=5):
    """The canonical spray of a catalog metric (or of its pullback) with the
    other factor of dimension 2, and `count` jets over chart points."""
    g, pts = metric_and_points(name, kind, change_kind, rng, count)
    if kind == "temporal":
        p, n = g.dim, 2
        T, X = pts, rng.uniform(-1.0, 1.0, (count, n))
        spray = canonical_temporal(g, n)
    else:
        p, n = 2, g.dim
        T, X = rng.uniform(-1.0, 1.0, (count, p)), pts
        spray = canonical_spatial(g, p)
    V = rng.normal(0.0, 1.5, (count, n, p))
    return g, spray, T, X, V


@pytest.mark.parametrize("change_kind", [None, "affine", "shear", "mixed"])
@pytest.mark.parametrize("name,kind", SPRAY_CATALOG)
def test_compiled_sprays_match_christoffel_formula(name, kind, change_kind):
    rng = np.random.default_rng(sum(map(ord, name + kind + str(change_kind))))
    g, s, T, X, V = _spray_and_jets(name, kind, change_kind, rng)
    want = reference_coefficients(kind, g, T, X, V)
    scale = np.maximum(1.0, np.abs(want))
    columns = walk_batch(s.tables, T, X, V)
    assert columns.shape == want.shape
    assert np.max(np.abs(columns - want) / scale) <= 1e-13
    for k in range(len(T)):
        u = JetPoint(T[k], X[k], V[k])
        floats = s.coefficients(u)
        assert np.max(np.abs(floats - want[k]) / scale[k]) <= 1e-13
        # one formula: batch row k is the pointwise value at row k
        assert np.max(np.abs(columns[k] - floats) / scale[k]) <= 1e-14
        grad = reference_gradient(kind, g, u)
        assert np.max(np.abs(walk_gradient(s.tables, u) - grad)
                      / np.maximum(1.0, np.abs(grad))) <= 1e-13


def test_flat_sprays_fold_to_constant_zero(monkeypatch):
    tables = []

    def recording(exprs, names, guards=()):
        tables.append((exprs, guards))
        return compile_table(exprs, names, guards)

    monkeypatch.setattr(sprays, "compile_table", recording)
    flat_t = canonical_temporal(metric_from_name("euclidean:2", "temporal"), 3)
    flat_s = canonical_spatial(metric_from_name("euclidean:3"), 2)
    T, X, V = np.zeros((4, 2)), np.ones((4, 3)), np.ones((4, 3, 2))
    assert np.array_equal(flat_t.tables.batch_at(T)(X, V), np.zeros((4, 3, 2, 2)))
    assert np.array_equal(flat_s.tables.batch_at(T)(X, V), np.zeros((4, 3, 2, 2)))
    assert len(tables) == 2
    for exprs, guards in tables:
        assert [det for det, _ in guards] == [num(1.0)]     # det g
        assert len(exprs) == 3 * 2 * 2 and all(e == Num(0.0) for e in exprs)


def test_degenerate_metric_raises_from_both_spray_paths():
    # det g = x1 (or t1): exactly zero, then below the tolerance
    for kind, make in (("spatial", lambda g: canonical_spatial(g, 2)),
                       ("temporal", lambda g: canonical_temporal(g, 2))):
        v = "x1" if kind == "spatial" else "t1"
        g = Metric("deg", kind, [[parse(v), num(0.0)], [num(0.0), parse("1")]])
        s = make(g)
        for bad in (0.0, 1e-14):
            pt = np.array([bad, 1.0])
            other = np.array([0.5, 0.5])
            t, x = (other, pt) if kind == "spatial" else (pt, other)
            with pytest.raises(GeometryError, match="degenerate"):
                s.coefficients(JetPoint(t, x, np.ones((2, 2))))
            with pytest.raises(GeometryError, match="degenerate"):
                walk_gradient(s.tables, JetPoint(t, x, np.ones((2, 2))))
            T = np.stack([other, t])
            X = np.stack([other + 1.0, x])
            with pytest.raises(GeometryError, match="degenerate"):
                s.tables.batch_at(T)(X, np.ones((2, 2, 2)))


def test_each_spray_compiles_its_table_once(monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(args[0])
        return compile_table(*args, **kwargs)

    monkeypatch.setattr(sprays, "compile_table", counting)
    rng = np.random.default_rng(48)
    h, phi = standard_metrics(2, 2)
    jets = jets_in(rng, 2, 2, h=h, phi=phi, count=3)
    T, X, V = (np.stack([getattr(u, f) for u in jets]) for f in "txv")
    for s in (canonical_temporal(h, 2), canonical_spatial(phi, 2)):
        before = len(built)
        # a copy made by dataclasses.replace shares the compiled tables
        copy = replace(s, name="copy")
        for _ in range(3):
            for u in jets:
                s.coefficients(u)
                copy.coefficients(u)
            s.tables.batch_at(T)(X, V)
            copy.tables.batch_at(T)(X, V)
        assert len(built) == before + 1
        for _ in range(2):
            s.tables.gradient_entries                    # symbolic: no table
        assert len(built) == before + 1
    assert not h._kernels and not phi._kernels         # no Christoffel tabulation


def test_canonical_sprays_share_tables_per_metric_and_dimension():
    h, phi = metric_from_name("exp1d"), metric_from_name("sphere:2")
    assert canonical_temporal(h, 2).tables is canonical_temporal(h, 2).tables
    assert canonical_temporal(h, 2).tables is not canonical_temporal(h, 3).tables
    assert canonical_spatial(phi, 1).tables is canonical_spatial(phi, 1).tables
    assert canonical_spatial(phi, 1).tables is not canonical_spatial(phi, 2).tables
    other = metric_from_name("sphere:2")
    assert canonical_spatial(other, 1).tables is not canonical_spatial(phi, 1).tables
    u = JetPoint(np.array([0.2]), np.array([1.0, 0.3]), np.array([[0.5], [-0.4]]))
    assert np.array_equal(canonical_spatial(phi, 1).coefficients(u),
                          canonical_spatial(other, 1).coefficients(u))
    # a rebuilt spray uses the shared pullback, so its tables are shared too
    c = nd.random_change(np.random.default_rng(6), 1, 2, "shear")
    s = canonical_spatial(phi, 1)
    assert s.in_chart(c).tables is s.in_chart(c).tables


# --- derived sprays: weights, dimensions, degenerate metrics ------------------------


def test_combination_needs_one_weight_per_spray():
    """zip would drop the extra weight or spray: 0.5*a is no spray, and
    [a, b] with [1.0] would silently be a."""
    h, _ = standard_metrics(2, 2)
    a = canonical_temporal(h, 2)
    b = canonical_temporal(metric_from_name("euclidean:2", "temporal"), 2)
    with pytest.raises(SprayError, match="1 sprays need 1 weights, not 2"):
        combine_sprays([a], [0.5, 0.5])
    with pytest.raises(SprayError, match="2 sprays need 2 weights, not 1"):
        combine_sprays([a, b], [1.0])


def test_h_spray_correspondence_rejects_a_metric_of_another_dimension():
    phi = metric_from_name("sphere:2")
    h1, h2 = metric_from_name("exp1d"), metric_from_name("conformal2d:0.1*t1")
    with pytest.raises(SprayError, match="temporal metric of dimension p = 1"):
        h_trace(canonical_spatial(phi, 1), h2)
    with pytest.raises(SprayError, match="temporal metric of dimension p = 2"):
        h_trace(canonical_spatial(phi, 2), h1)
    hs = h_trace(canonical_spatial(phi, 1), h1)
    for wrong in (h2, metric_from_name("exp1d", "spatial")):
        with pytest.raises(SprayError, match="one temporal dimension"):
            spray_from_hspray(hs, wrong)


def test_derived_tables_guard_each_metric_once():
    h, phi = standard_metrics(2, 2)
    flat = metric_from_name("euclidean:2", "temporal")
    s = canonical_spatial(phi, 2)
    assert combine_sprays([canonical_temporal(h, 2), canonical_temporal(flat, 2),
                           canonical_temporal(h, 2)], [0.5, 0.3, 0.2]).tables.metrics == [h, flat]
    assert h_trace(s, h).tables.metrics == [phi, h]
    assert zero_spray("spatial", 2, 2).tables.metrics == []
    tables = h_trace(s, h).tables
    assert tables.kernel.guards == (phi.guard, h.guard)
    assert tables.kernel.exprs == tables.entries


def test_derived_sprays_on_a_degenerate_metric_raise_geometry_error():
    """A combination whose second metric is degenerate (hyperbolic, det g =
    x2^-4 < 1e-12 at x2 = 2000) and the spray of an h-trace over a
    degenerate temporal metric (det h = t1) raise GeometryError from `at`,
    `batch`, `batch_at` and the geodesic RK4 that writes their table in."""
    from jetflow.maps import solve_affine_ode

    sphere, hyper = metric_from_name("sphere:2"), metric_from_name("hyperbolic:2")
    mixed = combine_sprays([canonical_spatial(sphere, 1), canonical_spatial(hyper, 1)],
                           [0.3, 0.7])
    deg = Metric("deg", "temporal", [[parse("t1")]])
    from_trace = spray_from_hspray(h_trace(canonical_spatial(sphere, 1), deg), deg)
    good_t, good_x = np.array([0.5]), np.array([1.0, 0.5])
    V = np.ones((2, 2, 1))
    for s, t, x in ((mixed, good_t, np.array([1.0, 2000.0])),
                    (from_trace, np.array([0.0]), good_x),
                    (from_trace, np.array([1e-14]), good_x)):
        T, X = np.stack([good_t, t]), np.stack([good_x, x])
        with pytest.raises(GeometryError, match="degenerate"):
            s.coefficients(JetPoint(t, x, V[0]))
        with pytest.raises(GeometryError, match="degenerate"):
            walk_batch(s.tables, T, X, V)
        with pytest.raises(GeometryError, match="degenerate"):
            s.tables.batch_at(T)(X, V)
    temporal = canonical_temporal(metric_from_name("euclidean:1", "temporal"), 2)
    with pytest.raises(GeometryError, match="metric 'hyperbolic:2' is degenerate"):
        solve_affine_ode(SprayPair(temporal, mixed), [0.3, 1.0], [0.0, 40.0], (0.0, 20.0), 40)
    # det h = t1 reaches 0 at the midpoint of [-0.5, 0.5]
    with pytest.raises(GeometryError, match="metric 'deg' is degenerate"):
        solve_affine_ode(SprayPair(temporal, from_trace), [1.0, 0.5], [0.1, 0.1],
                         (-0.5, 0.5), 40)
    # the h-trace itself, frozen on nodes where det h = 0
    with pytest.raises(GeometryError, match="metric 'deg' is degenerate"):
        h_trace(canonical_spatial(sphere, 1), deg).tables.batch_at(np.array([[0.5], [0.0]]))
