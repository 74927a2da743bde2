"""Nonlinear connections: laws, adapted frames, spray correspondence."""

import numpy as np
import pytest

from jetflow import numdiff as nd
from jetflow.connection import (
    ConnectionError_,
    NonlinearConnection,
    adapted_coframe,
    adapted_frame,
    adapted_frame_blocks,
    canonical_connection,
    connection_from_sprays,
    connection_law_error,
    sprays_from_connection,
    transform_connection_m,
    transform_connection_n,
)
from jetflow.geometry import metric_from_name
from jetflow.jetspace import (JetPoint, frame_size, natural_frame_change,
                              random_jet, transform_jet)
from jetflow.sprays import SprayError, SprayPair, canonical_pair, h_trace, zero_spray

from helpers import catalog, jets_in, standard_metrics, walk_gradient


# --- frozen values ------------------------------------------------------------


def test_canonical_connection_frozen_values():
    """Euclidean temporal metric kills M; sphere N^{(1)}_{(1)2} = Gamma^1_22 v^2_1."""
    h = metric_from_name("euclidean:2", "temporal")
    phi = metric_from_name("sphere:2")
    conn = canonical_connection(h, phi)
    u = JetPoint(np.array([0.1, -0.2]), np.array([np.pi / 4, 0.8]),
                 np.array([[1.0, 0.5], [2.0, -1.0]]))
    assert np.max(np.abs(conn.M.at(u))) == 0.0
    N = conn.N.at(u)
    # N[j, b, i] = gamma^j_{ik} v^k_b; gamma^1_{22} = -1/2 at th = pi/4
    assert abs(N[0, 0, 1] - (-0.5) * u.v[1, 0]) < 1e-12   # = -1.0
    assert abs(N[0, 0, 1] - (-1.0)) < 1e-12
    # gamma^2_{21} = cot(th) = 1: N[1, b, 1] = v[0, b]
    assert abs(N[1, 1, 1] - u.v[0, 1]) < 1e-12


def test_canonical_connection_kind_check():
    phi = metric_from_name("sphere:2")
    with pytest.raises(ConnectionError_):
        canonical_connection(phi, phi)


# --- transformation law ---------------------------------------------------------


def test_connection_law_holds_for_canonical_connection():
    rng = np.random.default_rng(61)
    h, phi = standard_metrics(2, 2)
    conn = canonical_connection(h, phi)
    v = connection_law_error(conn, catalog(rng, 2, 2, count=2),
                             jets_in(rng, 2, 2, h=h, phi=phi, count=6))
    assert v.passed and v.max_rel_err < 1e-8
    assert v.pairs == 6 * 6


def test_connection_law_fails_for_grafted_native_form():
    rng = np.random.default_rng(62)
    from dataclasses import replace
    h, phi = standard_metrics(2, 2)
    flat_h = metric_from_name("euclidean:2", "temporal")
    flat_x = metric_from_name("euclidean:2")
    conn = replace(canonical_connection(h, phi),
                   rebuild=canonical_connection(flat_h, flat_x).rebuild)
    v = connection_law_error(conn, catalog(rng, 2, 2, kinds=("mixed",), count=2),
                             jets_in(rng, 2, 2, h=h, phi=phi, count=5))
    assert not v.passed and v.witness is not None


def test_transform_matches_spray_laws_through_m_equals_2h():
    """M = 2H must stay consistent with the temporal spray law pointwise."""
    from jetflow.sprays import transform_spray
    rng = np.random.default_rng(63)
    h, phi = standard_metrics(2, 2)
    pair = canonical_pair(h, phi)
    conn = connection_from_sprays(pair, h)
    c = nd.random_change(rng, 2, 2, "mixed")
    u = jets_in(rng, 2, 2, h=h, phi=phi, count=1)[0]
    M_new = transform_connection_m(conn, c, u)
    H_new = transform_spray(pair.temporal, c, u)
    assert np.max(np.abs(M_new - 2.0 * H_new)) < 1e-12


# --- adapted frame / coframe ------------------------------------------------------


def test_adapted_frame_conjugates_block_diagonally():
    rng = np.random.default_rng(64)
    h, phi = standard_metrics(2, 2)
    conn = canonical_connection(h, phi)
    for c in catalog(rng, 2, 2, count=1):
        for u in jets_in(rng, 2, 2, h=h, phi=phi, count=3):
            S = natural_frame_change(c, u)
            u_new = transform_jet(c, u)
            F = adapted_frame(conn, u)
            F_new = adapted_frame(conn.in_chart(c), u_new)
            got = F @ S @ np.linalg.inv(F_new)
            want = adapted_frame_blocks(c, u)
            assert np.max(np.abs(got - want)) < 1e-8, c.name


def test_adapted_coframe_conjugates_with_inverse_blocks():
    rng = np.random.default_rng(65)
    h, phi = standard_metrics(2, 2)
    conn = canonical_connection(h, phi)
    c = catalog(rng, 2, 2, kinds=("mixed",), count=1)[0]
    u = jets_in(rng, 2, 2, h=h, phi=phi, count=1)[0]
    from jetflow.jetspace import natural_coframe_change
    Cchg = natural_coframe_change(c, u)
    u_new = transform_jet(c, u)
    K = adapted_coframe(conn, u)
    K_new = adapted_coframe(conn.in_chart(c), u_new)
    got = K @ Cchg @ np.linalg.inv(K_new)
    want = np.linalg.inv(adapted_frame_blocks(c, u)).T
    assert np.max(np.abs(got - want)) < 1e-8


def test_frame_coframe_duality():
    rng = np.random.default_rng(66)
    h, phi = standard_metrics(2, 2)
    conn = canonical_connection(h, phi)
    u = jets_in(rng, 2, 2, h=h, phi=phi, count=1)[0]
    F = adapted_frame(conn, u)
    C = adapted_coframe(conn, u)
    # row i of C applied to row j of F must give delta_ij
    assert np.max(np.abs(F @ C.T - np.eye(frame_size(2, 2)))) < 1e-12


def test_adapted_frame_shape_and_identity_block():
    h, phi = standard_metrics(2, 2)
    conn = canonical_connection(h, phi)
    u = random_jet(np.random.default_rng(67), 2, 2,
                   box_t=h.box, box_x=phi.box)
    F = adapted_frame(conn, u)
    assert F.shape == (8, 8)
    assert np.array_equal(F[:, :4], np.eye(8)[:, :4])
    assert np.array_equal(F[4:, 4:], np.eye(4))


# --- sprays <-> connection ----------------------------------------------------------


def test_round_trip_sprays_to_connection_and_back():
    rng = np.random.default_rng(68)
    h, phi = standard_metrics(2, 2)
    pair = canonical_pair(h, phi)
    conn = connection_from_sprays(pair, h)
    back = sprays_from_connection(conn)
    for u in jets_in(rng, 2, 2, h=h, phi=phi, count=5):
        assert np.max(np.abs(back.temporal.coefficients(u)
                             - pair.temporal.coefficients(u))) < 1e-12
        assert np.max(np.abs(back.spatial.coefficients(u)
                             - pair.spatial.coefficients(u))) < 1e-12


def test_m_is_twice_temporal_spray():
    rng = np.random.default_rng(69)
    h, phi = standard_metrics(2, 2)
    pair = canonical_pair(h, phi)
    conn = connection_from_sprays(pair, h)
    u = jets_in(rng, 2, 2, h=h, phi=phi, count=1)[0]
    assert np.max(np.abs(conn.M.at(u) - 2.0 * pair.temporal.coefficients(u))) < 1e-14


def test_canonical_connection_equals_spray_induced_one():
    rng = np.random.default_rng(70)
    h, phi = standard_metrics(2, 2)
    direct = canonical_connection(h, phi)
    induced = connection_from_sprays(canonical_pair(h, phi), h)
    for u in jets_in(rng, 2, 2, h=h, phi=phi, count=4):
        assert np.max(np.abs(direct.M.at(u) - induced.M.at(u))) < 1e-12
        assert np.max(np.abs(direct.N.at(u) - induced.N.at(u))) < 1e-10


def test_spray_induced_n_matches_differences_of_the_h_trace():
    """N is the symbolic jet gradient of the h-trace, lowered by h: against
    central differences of the h-trace's own values."""
    rng = np.random.default_rng(71)
    h, phi = standard_metrics(2, 2)
    pair = canonical_pair(h, phi)
    trace = h_trace(pair.spatial, h)
    conn = connection_from_sprays(pair, h)
    eps = 1e-6
    for u in jets_in(rng, 2, 2, h=h, phi=phi, count=3):
        grad = np.zeros((2, 2, 2))                      # [i, j, g]
        for j in range(2):
            for g in range(2):
                vp, vm = u.v.copy(), u.v.copy()
                vp[j, g] += eps
                vm[j, g] -= eps
                grad[:, j, g] = (trace.at(JetPoint(u.t, u.x, vp))
                                 - trace.at(JetPoint(u.t, u.x, vm))) / (2 * eps)
        want = np.einsum("ijg,ga->iaj", grad, h.components_batch(u.t)[0])
        assert np.max(np.abs(conn.N.at(u) - want)) < 1e-8
        assert np.max(np.abs(np.einsum("ijg,ga->iaj", walk_gradient(trace, u),
                                       h.components_batch(u.t)[0]) - conn.N.at(u))) < 1e-14


def test_canonical_connection_tables_are_shared():
    """One M table per (h, n) and one N table per (phi, p), like the
    canonical sprays' tables; a rebuilt connection shares the pullbacks'."""
    h, phi = standard_metrics(2, 2)
    conn = canonical_connection(h, phi)
    assert canonical_connection(h, phi).M is conn.M
    assert canonical_connection(h, phi).N is conn.N
    assert canonical_connection(h, metric_from_name("euclidean:3")).M is not conn.M
    c = nd.random_change(np.random.default_rng(72), 2, 2, "mixed")
    assert conn.in_chart(c).M is conn.in_chart(c).M
    assert conn.in_chart(c).N is conn.in_chart(c).N


def test_connection_from_sprays_validates_inputs():
    h, phi = standard_metrics(2, 2)
    temporal = zero_spray("temporal", 2, 2)
    with pytest.raises(ConnectionError_, match="different jet spaces"):
        connection_from_sprays(SprayPair(temporal, zero_spray("spatial", 2, 3)), h)
    with pytest.raises(ConnectionError_, match="temporal metric"):
        connection_from_sprays(SprayPair(temporal, zero_spray("spatial", 2, 2)), phi)


def test_connection_without_rebuild_has_no_chart_native_form():
    zero = zero_spray("temporal", 2, 2).tables
    conn = NonlinearConnection(zero, zero)
    with pytest.raises(ConnectionError_, match="no chart-native form"):
        conn.in_chart(nd.identity_change(2, 2))


def test_derived_connection_and_sprays_raise_their_parts_error():
    """connection_from_sprays of a zero spray raises the spray's SprayError
    from `in_chart`, and the sprays of a connection with no native form
    raise its ConnectionError_."""
    h, phi = standard_metrics(2, 2)
    c = nd.identity_change(2, 2)
    pair = SprayPair(zero_spray("temporal", 2, 2), canonical_pair(h, phi).spatial)
    with pytest.raises(SprayError, match="'zero-temporal' has no chart-native form"):
        connection_from_sprays(pair, h).in_chart(c)
    zero = zero_spray("temporal", 2, 2).tables
    derived = sprays_from_connection(NonlinearConnection(zero, zero, name="bare"))
    for s in (derived.temporal, derived.spatial):
        with pytest.raises(ConnectionError_, match="'bare' has no chart-native form"):
            s.in_chart(c)


def test_connection_tables_must_share_one_jet_space():
    m = zero_spray("temporal", 2, 3).tables                  # (3, 2, 2)
    with pytest.raises(ConnectionError_, match="one jet space"):
        NonlinearConnection(m, zero_spray("temporal", 2, 2).tables)
    with pytest.raises(ConnectionError_, match="one jet space"):
        NonlinearConnection(m, m)
