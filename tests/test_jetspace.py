"""Jet space: point transforms, natural frame/coframe changes, scalar pullback."""

import numpy as np
import pytest

from jetflow import numdiff as nd
from jetflow.exprlang import WALK_CALLS, Table, parse
from jetflow.jetspace import (
    JetPoint,
    frame_size,
    jet_env,
    jet_pullback,
    mixed_jet_derivatives,
    natural_coframe_change,
    natural_frame_change,
    random_jet,
    transform_jet,
    vert_index,
)

from helpers import catalog, jets_in


# --- JetPoint -----------------------------------------------------------------


def test_jet_point_validation():
    with pytest.raises(ValueError):
        JetPoint(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        JetPoint(np.zeros(2), np.zeros(3), np.zeros((2, 3)))  # transposed v
    with pytest.raises(ValueError):
        JetPoint(np.array([np.nan]), np.zeros(1), np.zeros((1, 1)))
    u = JetPoint(np.array([0.1, -0.2]), np.array([1.0, 2.0, 3.0]),
                 np.arange(6.0).reshape(3, 2))
    assert (u.p, u.n) == (2, 3)


def test_index_helpers():
    assert vert_index(2, 1, 3) == 7
    assert frame_size(2, 3) == 2 + 3 + 6


def test_jet_env_bindings():
    u = JetPoint(np.array([0.5]), np.array([1.5, 2.5]), np.array([[3.0], [4.0]]))
    env = jet_env(u)
    assert env["t1"] == 0.5 and env["x2"] == 2.5
    assert env["x1_1"] == 3.0 and env["x2_1"] == 4.0


# --- jet transformation law ----------------------------------------------------


def test_transform_jet_identity():
    u = JetPoint(np.array([0.2, 0.3]), np.array([0.4, -0.5]),
                 np.array([[1.0, 2.0], [3.0, 4.0]]))
    w = transform_jet(nd.identity_change(2, 2), u)
    assert np.max(np.abs(w.v - u.v)) < 1e-15


def test_transform_jet_matches_curve_derivative():
    """v~ must be the t~-derivative of the transformed curve x~(t~(t))."""
    rng = np.random.default_rng(21)
    c = nd.random_change(rng, 2, 2, "mixed")
    t0 = np.array([0.3, -0.1])
    # curve x(t) with dx/dt prescribed at t0
    M = np.array([[0.7, -0.4], [0.2, 1.1]])
    x0 = np.array([0.5, -0.3])

    def curve(t):
        return x0 + M @ (t - t0)

    u = JetPoint(t0, curve(t0), M)
    w = transform_jet(c, u)
    # finite-difference the composed curve in the target chart
    eps = 1e-6
    A = nd.jacobian_blocks(c, t0, curve(t0)).A
    V = np.empty((2, 2))
    for b in range(2):
        db = np.zeros(2)
        db[b] = eps
        # move along the direction in t that produces e_b in t~
        dt = np.linalg.solve(A, db)
        xp = c.forward(t0 + dt, curve(t0 + dt))[1]
        xm = c.forward(t0 - dt, curve(t0 - dt))[1]
        V[:, b] = (xp - xm) / (2 * eps)
    assert np.max(np.abs(w.v - V)) < 1e-6


def test_transform_jet_composes():
    rng = np.random.default_rng(22)
    c1 = nd.random_change(rng, 2, 2, "shear")
    c2 = nd.random_change(rng, 2, 2, "affine")
    u = random_jet(rng, 2, 2)
    w_two_step = transform_jet(c2, transform_jet(c1, u))
    w_composed = transform_jet(c1.then(c2), u)
    assert np.max(np.abs(w_two_step.v - w_composed.v)) < 1e-9
    assert np.max(np.abs(w_two_step.x - w_composed.x)) < 1e-12


def test_transform_jet_inverse_round_trip():
    rng = np.random.default_rng(23)
    c = nd.random_change(rng, 2, 3, "mixed")
    u = random_jet(rng, 2, 3)
    w = transform_jet(c.inverted(), transform_jet(c, u))
    assert np.max(np.abs(w.v - u.v)) < 1e-9
    assert np.max(np.abs(w.t - u.t)) < 1e-10


@pytest.mark.parametrize("kind,p,n", [("affine", 2, 3), ("shear", 2, 3), ("mixed", 2, 3),
                                      ("monotone", 1, 1)])
def test_one_chart_evaluation_per_point(monkeypatch, kind, p, n):
    """Everything that reads a change at a jet takes it from the one record
    `jacobian_blocks` keeps: at a new point each of the change's two tables
    is called once, however many of them read it.  The jet transform is
    the record's image and jet rule bit for bit."""
    rng = np.random.default_rng(sum(map(ord, "once" + kind)))
    c = nd.random_change(rng, p, n, kind)
    calls = []
    call = Table.__call__
    monkeypatch.setattr(Table, "__call__",
                        lambda self, *args: calls.append(id(self)) or call(self, *args))
    for u in [random_jet(rng, p, n) for _ in range(3)]:
        del calls[:]
        jb = nd.jacobian_blocks(c, u.t, u.x)
        w = transform_jet(c, u)
        mixed_jet_derivatives(c, u)
        natural_frame_change(c, u)
        assert sorted(calls) == sorted(map(id, c._tables))
        assert np.array_equal(w.t, jb.t_new) and np.array_equal(w.x, jb.x_new)
        assert np.array_equal(w.v, jb.B @ u.v @ jb.A_inv)


# --- natural frame change -------------------------------------------------------


def _fd_frame_oracle(change, u):
    """S[a, b] via finite differences: the chain-rule matrix of the induced
    coordinate change on the jet space, evaluated columnwise."""
    p, n = u.p, u.n
    size = frame_size(p, n)

    def pack(q):
        return np.concatenate([q.t, q.x, q.v.reshape(-1)])

    def unpack(z):
        return JetPoint(z[:p], z[p:p + n], z[p + n:].reshape(n, p))

    z0 = pack(u)
    S = np.empty((size, size))
    eps = 1e-6
    for k in range(size):
        dz = np.zeros(size)
        dz[k] = eps
        zp = pack(transform_jet(change, unpack(z0 + dz)))
        zm = pack(transform_jet(change, unpack(z0 - dz)))
        S[k] = (zp - zm) / (2 * eps)
    return S


def test_natural_frame_change_matches_fd_oracle():
    rng = np.random.default_rng(24)
    for kind in ("affine", "shear", "mixed"):
        c = nd.random_change(rng, 2, 2, kind)
        u = random_jet(rng, 2, 2, v_scale=1.5)
        S = natural_frame_change(c, u)
        S_fd = _fd_frame_oracle(c, u)
        assert np.max(np.abs(S - S_fd)) < 1e-7, kind


def test_natural_frame_change_block_structure():
    rng = np.random.default_rng(25)
    c = nd.random_change(rng, 2, 2, "mixed")
    u = random_jet(rng, 2, 2)
    S = natural_frame_change(c, u)
    jb = nd.jacobian_blocks(c, u.t, u.x)
    p, n = 2, 2
    vt = p + n
    assert np.max(np.abs(S[:p, :p] - jb.A.T)) < 1e-12
    assert np.max(np.abs(S[p:vt, p:vt] - jb.B.T)) < 1e-12
    assert np.max(np.abs(S[vt:, vt:] - np.kron(jb.B.T, jb.A_inv))) < 1e-10
    # base rows never reach across to base columns of the other factor
    assert np.max(np.abs(S[:p, p:vt])) < 1e-15
    assert np.max(np.abs(S[p:vt, :p])) < 1e-15
    # vertical rows have no base components
    assert np.max(np.abs(S[vt:, :vt])) < 1e-15


def test_frame_change_inverts_through_inverse_change():
    rng = np.random.default_rng(26)
    c = nd.random_change(rng, 2, 2, "mixed")
    u = random_jet(rng, 2, 2)
    S = natural_frame_change(c, u)
    S_back = natural_frame_change(c.inverted(), transform_jet(c, u))
    eye = np.eye(frame_size(2, 2))
    assert np.max(np.abs(S @ S_back - eye)) < 1e-9


def test_inverse_change_is_built_once():
    rng = np.random.default_rng(29)
    c = nd.random_change(rng, 2, 2, "mixed")
    assert c.inverted() is c.inverted()
    assert c.inverted().inverted() is c


def test_coframe_change_keeps_the_bits_of_a_fresh_inverse():
    """natural_coframe_change reuses the change's inverse, whose tables move
    from the walk to the compiled tier as calls accumulate; every call
    equals, bit for bit, the frame change of an inverse built afresh for
    that call."""
    rng = np.random.default_rng(30)
    c = nd.random_change(rng, 2, 2, "mixed")
    for u in [random_jet(rng, 2, 2) for _ in range(WALK_CALLS + 2)]:
        fresh = nd.ChangeMap(c.name + "^-1", c.inverse_t, c.inverse_x,
                             c.forward_t, c.forward_x)
        want = natural_frame_change(fresh, transform_jet(c, u)).T
        assert natural_coframe_change(c, u).tobytes() == want.tobytes()


def test_coframe_is_inverse_transpose_of_frame():
    rng = np.random.default_rng(27)
    c = nd.random_change(rng, 1, 2, "mixed")
    u = random_jet(rng, 1, 2)
    S = natural_frame_change(c, u)
    C = natural_coframe_change(c, u)
    eye = np.eye(frame_size(1, 2))
    assert np.max(np.abs(C @ S.T - eye)) < 1e-9
    assert np.max(np.abs(S.T @ C - eye)) < 1e-9


# --- scalar pullback --------------------------------------------------------------


def test_jet_pullback_scalar_identity():
    """Pulled-back Expr at the transformed jet equals the original value."""
    rng = np.random.default_rng(28)
    e = parse("sin(x1)*x1_1 + t1*x2_2^2 + x2*x1_2")
    for c in catalog(rng, 2, 2, count=2):
        back = jet_pullback(e, c, 2, 2)
        for u in jets_in(rng, 2, 2, count=4):
            w = transform_jet(c, u)
            assert abs(back.eval(jet_env(w)) - e.eval(jet_env(u))) < 1e-9


# --- random jets -------------------------------------------------------------------


def test_random_jet_respects_boxes():
    rng = np.random.default_rng(29)
    box_t = [(0.0, 1.0)]
    box_x = [(0.2, np.pi - 0.2), (-3.0, 3.0)]
    for _ in range(50):
        u = random_jet(rng, 1, 2, box_t=box_t, box_x=box_x, v_scale=0.5)
        assert 0.1 <= u.t[0] <= 0.9 + 1e-12
        assert box_x[0][0] < u.x[0] < box_x[0][1]
        assert np.max(np.abs(u.v)) <= 0.5
