"""Prolongation of vector fields, flow transport, horizontal lift."""

import numpy as np
import pytest

from jetflow import numdiff as nd
from jetflow.connection import ConnectionError_, NonlinearConnection, canonical_connection
from jetflow.dtensor import is_dtensor
from jetflow.exprlang import ExprError, diff, parse
from jetflow.jetspace import (JetPoint, jet_env, natural_frame_change,
                              random_jet, transform_jet)
from jetflow.prolong import (
    BaseVectorField,
    ProlongError,
    adapted_t_derivative,
    adapted_x_derivative,
    flow_point,
    flow_transport,
    horizontal_lift,
    olver_prolong,
    prolongation_flow_error,
    pushforward,
    total_derivative,
    vertical_gap_field,
)
from jetflow.sprays import zero_spray
from jetflow.verify import default_prolong_fields

from helpers import catalog, jets_in, reference_flow_transport, standard_metrics


# --- total derivative ----------------------------------------------------------


def test_total_derivative_chain_rule():
    """D_a f along the lift of a curve equals d/dt^a of the composite."""
    u = JetPoint(np.array([0.3, -0.2]), np.array([0.7, 1.1]),
                 np.array([[0.5, -1.0], [2.0, 0.25]]))
    D = total_derivative("sin(x1)*t2 + x2^2", u)
    # by hand: @f/@t = (0, sin(x1)); @f/@x = (t2 cos(x1), 2 x2)
    dft = np.array([0.0, np.sin(0.7)])
    dfx = np.array([-0.2 * np.cos(0.7), 2 * 1.1])
    want = dft + u.v.T @ dfx
    assert np.max(np.abs(D - want)) < 1e-14


def test_total_derivative_of_base_function_is_plain_gradient():
    u = JetPoint(np.array([0.4]), np.array([1.0]), np.array([[0.0]]))
    assert abs(total_derivative("t1^2", u)[0] - 0.8) < 1e-15


# --- prolongation components -----------------------------------------------------


def test_prolongation_of_purely_vertical_quantities():
    """For X = f(t,x) @/@x^i the vertical part is D_a f for that row."""
    X = BaseVectorField(2, 2, ["0", "0"], ["sin(t1)*x2", "0"])
    pr = olver_prolong(X)
    u = random_jet(np.random.default_rng(91), 2, 2)
    vert = pr.vertical(u)
    want_row0 = total_derivative("sin(t1)*x2", u)
    assert np.max(np.abs(vert[0] - want_row0)) < 1e-13
    assert np.max(np.abs(vert[1])) < 1e-15


def test_prolongation_of_temporal_field_drags_jets():
    """For X = g(t) @/@t^b the vertical part is -(D_a g) x^i_b."""
    X = BaseVectorField(1, 2, ["t1^2"], ["0", "0"])
    pr = olver_prolong(X)
    u = JetPoint(np.array([0.5]), np.array([1.0, -1.0]),
                 np.array([[0.7], [-0.2]]))
    vert = pr.vertical(u)
    want = -u.v * (2 * 0.5)
    assert np.max(np.abs(vert - want)) < 1e-14


def test_packed_layout():
    X = BaseVectorField(1, 2, ["1"], ["x1", "x2"])
    pr = olver_prolong(X)
    u = JetPoint(np.array([0.0]), np.array([2.0, 3.0]),
                 np.array([[0.1], [0.2]]))
    z = pr.packed(u)
    assert z.shape == (1 + 2 + 2,)
    assert z[0] == 1.0 and z[1] == 2.0 and z[2] == 3.0
    assert np.max(np.abs(z[3:] - pr.vertical(u).reshape(-1))) < 1e-15


# --- flow-transport oracle ---------------------------------------------------------


def test_constant_field_flow_transport_is_exact():
    X = BaseVectorField(2, 2, ["0.3", "-0.1"], ["0.7", "0.2"])
    jets = jets_in(np.random.default_rng(92), 2, 2, count=4)
    assert prolongation_flow_error(X, jets, eps=0.05) < 1e-8


def test_flow_difference_converges_at_second_order():
    """Central transport differences converge to pr1(X) with the halving
    ratio 4 (error ~ eps^2)."""
    X = BaseVectorField(1, 2, ["0.25*t1^2 + 0.1*x1"],
                        ["sin(x1) + 0.2*t1*x2", "0.3*x2^2 + 0.1*t1"])
    jets = jets_in(np.random.default_rng(93), 1, 2, count=4)
    e1 = prolongation_flow_error(X, jets, eps=0.04)
    e2 = prolongation_flow_error(X, jets, eps=0.02)
    assert 3.5 < e1 / e2 < 4.5
    assert e1 < 1e-2


def test_flow_transport_matches_jet_lift_of_flowed_graph():
    """Transporting the jet of a graph map must agree with the jet of the
    transported graph: check against the transport of a second nearby jet."""
    X = BaseVectorField(1, 1, ["0.2*t1 + 0.1"], ["0.5*x1"])
    u = JetPoint(np.array([0.3]), np.array([0.8]), np.array([[1.2]]))
    w = flow_transport(X, u, eps=0.3)
    # linear field: flow is exactly expressible, d/deps of transport at
    # eps = 0 equals the prolongation; integrate the vertical part along
    # the flow with small steps as an independent check
    steps = 256
    pr = olver_prolong(X)
    q = u
    for _ in range(steps):
        z = pr.packed(q)
        q = JetPoint(q.t + (0.3 / steps) * z[:1],
                     q.x + (0.3 / steps) * z[1:2],
                     q.v + (0.3 / steps) * z[2:].reshape(1, 1))
    assert np.max(np.abs(w.t - q.t)) < 1e-3
    assert np.max(np.abs(w.x - q.x)) < 1e-3
    assert np.max(np.abs(w.v - q.v)) < 1e-3


@pytest.mark.parametrize("p,n", [(1, 2), (2, 1), (2, 2)])
def test_flow_transport_equals_the_block_by_block_reference(p, n):
    """One loop over the p + n base coordinates fills the flow's Jacobian
    as its four blocks d(t~, x~)/d(t, x) would, bit for bit, at p != n too,
    where the two off-diagonal blocks differ in shape."""
    h, phi = standard_metrics(p, n)
    jets = jets_in(np.random.default_rng(94 + 3 * p + n), p, n, h, phi, count=3)
    for X in default_prolong_fields(p, n):
        for u in jets:
            for eps in (0.02, -0.01):
                got, want = flow_transport(X, u, eps), reference_flow_transport(X, u, eps)
                for a, b in ((got.t, want.t), (got.x, want.x), (got.v, want.v)):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), X.name


# --- compiled fields against the tree interpreter --------------------------------


def _interpreted(X, t, x):
    """The field's components by Expr.eval."""
    env = dict(zip(nd.temporal_names(X.p) + nd.spatial_names(X.n),
                   [float(v) for v in [*t, *x]]))
    return (np.array([e.eval(env) for e in X.temporal]),
            np.array([e.eval(env) for e in X.spatial]))


def _interpreted_flow(X, t, x, eps, substeps=16):
    """RK4 on numpy arrays over Expr.eval, in the operation order of flow_point."""
    y = np.concatenate([np.asarray(t, float), np.asarray(x, float)])
    p = X.p
    ds = eps / substeps

    def rhs(y):
        return np.concatenate(_interpreted(X, y[:p], y[p:]))

    for _ in range(substeps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * ds * k1)
        k3 = rhs(y + 0.5 * ds * k2)
        k4 = rhs(y + ds * k3)
        y = y + ds / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y[:p], y[p:]


ORACLE_FIELDS = default_prolong_fields(2, 2) + [
    BaseVectorField(2, 2, ["exp(0.3*x1) - 1", "log(2 + t1^2)"],
                    ["sqrt(1 + x2^2)*t2", "0.2*exp(t1)*x1/(2 + sin(x2))"],
                    name="exp-log-sqrt"),
]
# the generated flow loop unrolls over the p + n state entries
SHAPED_FIELDS = [
    *default_prolong_fields(1, 3), *default_prolong_fields(3, 1),
    BaseVectorField(1, 3, ["0.2*x1*x3 + sin(t1)"],
                    ["exp(0.2*t1)*x2", "log(2 + x3^2) - 0.1*x1", "x1/(2 + cos(x2))"],
                    name="exp-log-div"),
    BaseVectorField(3, 1, ["0.1*x1 + t2*t3", "sqrt(1 + t1^2)", "cosh(0.3*t3) - 1"],
                    ["0.3*x1^2 + 0.1*t1*t2*t3"], name="sqrt-cosh"),
]


def _field_id(X):
    return X.name if (X.p, X.n) == (2, 2) else f"{X.name}-p{X.p}n{X.n}"


@pytest.mark.parametrize("X", ORACLE_FIELDS + SHAPED_FIELDS, ids=_field_id)
def test_compiled_field_and_flow_match_interpreter_bit_for_bit(X):
    rng = np.random.default_rng(sum(map(ord, X.name)))
    for u in jets_in(rng, X.p, X.n, count=4):
        for got, want in zip(X(u.t, u.x), _interpreted(X, u.t, u.x)):
            assert np.array_equal(got, want)
        for eps in (0.02, -0.01):
            got = flow_point(X, u.t, u.x, eps)
            want = _interpreted_flow(X, u.t, u.x, eps)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("comp,x1", [("log(x1)", -1.0), ("sqrt(x1)", -0.5),
                                     ("1/(x1 - 0.5)", 0.5), ("x1^-2", 0.0)])
def test_compiled_field_raises_the_interpreters_domain_error(comp, x1):
    X = BaseVectorField(1, 1, ["t1"], [comp])
    with pytest.raises(ExprError) as want:
        parse(comp).eval({"t1": 0.0, "x1": x1})
    with pytest.raises(ExprError) as got:
        X(np.array([0.0]), np.array([x1]))
    assert str(got.value) == str(want.value)
    with pytest.raises(ExprError) as flowed:
        flow_point(X, np.array([0.0]), np.array([x1]), 0.01)
    assert str(flowed.value) == str(want.value)


def test_partials_match_interpreted_derivatives_bit_for_bit():
    rng = np.random.default_rng(100)
    h, phi = standard_metrics(2, 2)
    conn = canonical_connection(h, phi)
    f = "sin(x1)*t2 + exp(0.5*x2)*x1_2 - x2_1^2*t1"
    e = parse(f)
    tn, xn = nd.temporal_names(2), nd.spatial_names(2)
    vn = nd.jet_names(2, 2)
    for u in jets_in(rng, 2, 2, h=h, phi=phi, count=3):
        env = jet_env(u)
        d = {v: diff(e, v).eval(env) for v in tn + xn + vn}
        dt = np.array([d[v] for v in tn])
        dx = np.array([d[v] for v in xn])
        dv = np.array([[d[v] for v in vn[j * 2:(j + 1) * 2]] for j in range(2)])
        assert np.array_equal(adapted_t_derivative(f, conn, u),
                              dt - np.einsum("jba,jb->a", conn.M.at(u), dv))
        assert np.array_equal(adapted_x_derivative(f, conn, u),
                              dx - np.einsum("jbi,jb->i", conn.N.at(u), dv))
        g = "sin(x1)*t2 + x2^2*t1"
        base = {v: diff(parse(g), v).eval(env) for v in tn + xn}
        want = np.array([base[v] for v in tn]) + u.v.T @ np.array([base[v] for v in xn])
        assert np.array_equal(total_derivative(g, u), want)


@pytest.mark.parametrize("X", ORACLE_FIELDS, ids=lambda X: X.name)
def test_olver_prolong_matches_total_derivative(X):
    pr = olver_prolong(X)
    for u in jets_in(np.random.default_rng(101), 2, 2, count=4):
        Dt = np.array([total_derivative(e, u) for e in X.temporal])
        Dx = np.array([total_derivative(e, u) for e in X.spatial])
        assert np.max(np.abs(pr.vertical(u) - (Dx - u.v @ Dt))) <= 1e-15


# --- equivariance ---------------------------------------------------------------------


def test_prolongation_commutes_with_chart_changes():
    """pr1(pushforward X) at the image jet = S^T pr1(X) at the source jet."""
    rng = np.random.default_rng(94)
    X = BaseVectorField(2, 2, ["0.2*t2", "0.1*t1^2"],
                        ["sin(x2)", "0.3*x1*x2"])
    for c in catalog(rng, 2, 2, count=1):
        pushed = pushforward(X, c)
        pr_source = olver_prolong(X)
        pr_target = olver_prolong(pushed)
        for u in jets_in(rng, 2, 2, count=3):
            S = natural_frame_change(c, u)
            want = S.T @ pr_source.packed(u)
            got = pr_target.packed(transform_jet(c, u))
            assert np.max(np.abs(got - want)) < 1e-9, c.name


def test_pushforward_round_trip():
    rng = np.random.default_rng(95)
    X = BaseVectorField(1, 2, ["0.5"], ["x2", "sin(x1)"])
    c = nd.random_change(rng, 1, 2, "mixed")
    back = pushforward(pushforward(X, c), c.inverted())
    t, x = np.array([0.2]), np.array([0.4, -0.6])
    Xt, Xx = X(t, x)
    Bt, Bx = back(t, x)
    assert np.max(np.abs(Xt - Bt)) < 1e-10
    assert np.max(np.abs(Xx - Bx)) < 1e-10


def test_pushforward_is_built_once_per_change():
    rng = np.random.default_rng(96)
    X = BaseVectorField(1, 2, ["0.5"], ["x2", "sin(x1)"])
    c, d = nd.random_change(rng, 1, 2, "mixed"), nd.random_change(rng, 1, 2, "mixed")
    assert pushforward(X, c) is pushforward(X, c)
    assert pushforward(X, d) is not pushforward(X, c)


def test_pushforward_dimension_check():
    X = BaseVectorField(1, 2, ["1"], ["0", "0"])
    with pytest.raises(ProlongError):
        pushforward(X, nd.identity_change(2, 2))


# --- horizontal lift and vertical gap ---------------------------------------------------


def test_horizontal_lift_vertical_components():
    h, phi = standard_metrics(2, 2)
    conn = canonical_connection(h, phi)
    X = BaseVectorField(2, 2, ["1", "0"], ["0", "1"])
    lift = horizontal_lift(X, conn)
    u = jets_in(np.random.default_rng(96), 2, 2, h=h, phi=phi, count=1)[0]
    want = -(conn.M.at(u)[:, :, 0] + conn.N.at(u)[:, :, 1])
    assert np.max(np.abs(lift.vertical(u) - want)) < 1e-13
    assert np.array_equal(lift.temporal(u), np.array([1.0, 0.0]))


def test_vertical_gap_is_a_dtensor():
    rng = np.random.default_rng(97)
    h, phi = standard_metrics(2, 2)
    conn = canonical_connection(h, phi)
    X = BaseVectorField(2, 2, ["0.2*t2", "0.1*t1"], ["sin(x2)", "0.3*x1"])
    gap = vertical_gap_field(X, conn)
    v = is_dtensor(gap, catalog(rng, 2, 2, count=2),
                   jets_in(rng, 2, 2, h=h, phi=phi, count=5))
    assert v.passed, v.max_rel_err


def test_vertical_gap_of_a_connection_without_native_form_raises():
    """The gap's native form needs the connection's, so a connection built
    without `rebuild` raises from the gap's `in_chart`."""
    zero = zero_spray("temporal", 2, 2).tables
    X = BaseVectorField(2, 2, ["0.2*t2", "0.1*t1"], ["sin(x2)", "0.3*x1"])
    gap = vertical_gap_field(X, NonlinearConnection(zero, zero, name="bare"))
    with pytest.raises(ConnectionError_, match="'bare' has no chart-native form"):
        gap.in_chart(nd.identity_change(2, 2))


def test_horizontal_lift_dimension_check():
    h, phi = standard_metrics(2, 2)
    conn = canonical_connection(h, phi)
    X = BaseVectorField(1, 2, ["1"], ["0", "0"])
    with pytest.raises(ProlongError):
        horizontal_lift(X, conn)


# --- adapted derivatives ------------------------------------------------------------------


def test_adapted_derivatives_kill_horizontal_directions():
    """For f depending only on base coordinates the adapted derivatives are
    the plain partials (no vertical correction applies)."""
    h, phi = standard_metrics(2, 2)
    conn = canonical_connection(h, phi)
    u = jets_in(np.random.default_rng(98), 2, 2, h=h, phi=phi, count=1)[0]
    dt = adapted_t_derivative("t1*t2", conn, u)
    assert np.max(np.abs(dt - np.array([u.t[1], u.t[0]]))) < 1e-13
    dx = adapted_x_derivative("x1^2", conn, u)
    assert np.max(np.abs(dx - np.array([2 * u.x[0], 0.0]))) < 1e-13


def test_adapted_derivative_subtracts_connection_terms():
    h, phi = standard_metrics(2, 2)
    conn = canonical_connection(h, phi)
    u = jets_in(np.random.default_rng(99), 2, 2, h=h, phi=phi, count=1)[0]
    # f = x1_1: @f/@x^j_b = delta(j,0)delta(b,0)
    dt = adapted_t_derivative("x1_1", conn, u)
    assert np.max(np.abs(dt - (-conn.M.at(u)[0, 0, :]))) < 1e-13
    dx = adapted_x_derivative("x1_1", conn, u)
    assert np.max(np.abs(dx - (-conn.N.at(u)[0, 0, :]))) < 1e-13


# --- validation -----------------------------------------------------------------------------


def test_base_field_validation():
    with pytest.raises(ProlongError, match="component count"):
        BaseVectorField(2, 2, ["1"], ["0", "0"])
    with pytest.raises(ProlongError, match="foreign variables"):
        BaseVectorField(1, 1, ["x2"], ["0"])
    with pytest.raises(ProlongError):
        BaseVectorField(1, 1, ["x1_1"], ["0"])
