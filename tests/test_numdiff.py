"""Chart changes: catalog construction, Jacobians, composition."""

import numpy as np
import pytest

from jetflow import numdiff as nd
from jetflow.exprlang import parse
from jetflow.numdiff import ChangeMap, ChartError

from helpers import RandomOnly, fd_jacobian, roundtrip_error


def _sample(rng, change, scale=1.0):
    t = rng.uniform(-scale, scale, size=change.p)
    x = rng.uniform(-scale, scale, size=change.n)
    return t, x


@pytest.mark.parametrize("kind", ["affine", "shear", "monotone", "mixed"])
@pytest.mark.parametrize("p,n", [(1, 1), (1, 2), (2, 2), (3, 2)])
def test_catalog_round_trips(kind, p, n):
    rng = np.random.default_rng(5)
    for _ in range(4):
        c = nd.random_change(rng, p, n, kind)
        for _ in range(5):
            t, x = _sample(rng, c)
            assert roundtrip_error(c, t, x) < 1e-10, c.name


def test_monotone_fallback_for_one_dimensional_shear():
    rng = np.random.default_rng(6)
    c = nd.random_change(rng, 1, 1, "shear")
    t, x = np.array([0.3]), np.array([-0.4])
    assert roundtrip_error(c, t, x) < 1e-10


def test_jacobian_blocks_are_consistent_inverses():
    rng = np.random.default_rng(7)
    for kind in ("affine", "shear", "mixed"):
        c = nd.random_change(rng, 2, 2, kind)
        t, x = _sample(rng, c)
        blocks = nd.jacobian_blocks(c, t, x)
        assert np.max(np.abs(blocks.A @ blocks.A_inv - np.eye(2))) < 1e-9
        assert np.max(np.abs(blocks.B @ blocks.B_inv - np.eye(2))) < 1e-9


def test_symbolic_jacobian_matches_finite_differences():
    rng = np.random.default_rng(8)
    c = nd.random_change(rng, 2, 2, "mixed")
    t, x = _sample(rng, c)

    def ft(tv):
        return c.forward(tv, x)[0]

    J_fd = fd_jacobian(ft, t)
    assert np.max(np.abs(nd.jacobian_blocks(c, t, x).A - J_fd)) < 1e-6

    def fx(xv):
        return c.forward(t, xv)[1]

    J_fd = fd_jacobian(fx, x)
    assert np.max(np.abs(nd.jacobian_blocks(c, t, x).B - J_fd)) < 1e-6


def test_hessian_matches_finite_differences_of_jacobian():
    rng = np.random.default_rng(9)
    c = nd.random_change(rng, 2, 2, "shear")
    t, x = _sample(rng, c)
    H = nd.jacobian_blocks(c, t, x).hess_t
    h = 1e-5
    for b in range(2):
        dt = np.zeros(2); dt[b] = h
        J_fd = (nd.jacobian_blocks(c, t + dt, x).A - nd.jacobian_blocks(c, t - dt, x).A) / (2 * h)
        assert np.max(np.abs(H[:, :, b] - J_fd)) < 1e-6


def test_singular_jacobian_raises():
    """On every call: a failed evaluation is not kept."""
    c = ChangeMap("sq", [parse("t1^2")], [parse("x1")],
                  [parse("sqrt(t1)")], [parse("x1")])
    for _ in range(2):
        with pytest.raises(ChartError):
            nd.jacobian_blocks(c, np.array([0.0]), np.array([1.0]))


def _flat(entries):
    while entries and isinstance(entries[0], list):
        entries = [e for row in entries for e in row]
    return entries


@pytest.mark.parametrize("kind", ["affine", "shear", "monotone", "mixed"])
def test_record_equals_the_interpreter_bit_for_bit(kind):
    """Every forward field of the record is ``Expr.eval`` of the change's
    symbolic lists at the point, and the inverse blocks are numpy's inverse
    of the forward ones.  The record is kept per point and read-only."""
    rng = np.random.default_rng(sum(map(ord, "record" + kind)))
    c = nd.random_change(rng, 2, 3, kind)
    names = nd.temporal_names(2) + nd.spatial_names(3)
    for _ in range(3):
        t, x = _sample(rng, c, scale=0.8)
        jb = nd.jacobian_blocks(c, t, x)
        assert nd.jacobian_blocks(c, t.copy(), x.copy()) is jb
        env = dict(zip(names, [*t.tolist(), *x.tolist()]))
        for field, exprs in (("t_new", c.forward_t), ("x_new", c.forward_x),
                             ("A", c._dft), ("B", c._dfx),
                             ("hess_t", c._d2ft), ("hess_x", c._d2fx)):
            want = np.array([e.eval(env) for e in _flat(exprs)], dtype=float)
            assert getattr(jb, field).ravel().tobytes() == want.tobytes(), field
            assert not getattr(jb, field).flags.writeable, field
        for field, block in (("A_inv", jb.A), ("B_inv", jb.B)):
            assert getattr(jb, field).tobytes() == np.linalg.inv(block).tobytes(), field
            assert not getattr(jb, field).flags.writeable, field
        with pytest.raises(ValueError):
            jb.A[0, 0] = 1.0


def test_product_structure_is_enforced():
    with pytest.raises(ChartError):
        ChangeMap("bad", [parse("t1 + x1")], [parse("x1")],
                  [parse("t1")], [parse("x1")])
    with pytest.raises(ChartError):
        ChangeMap("bad", [parse("t1")], [parse("x1 + t1")],
                  [parse("t1")], [parse("x1")])


def test_dimension_mismatch_raises():
    with pytest.raises(ChartError):
        ChangeMap("bad", [parse("t1")], [parse("x1")], [parse("t1"), parse("t2")],
                  [parse("x1")])


def test_composition_and_inversion():
    rng = np.random.default_rng(10)
    c1 = nd.random_change(rng, 2, 2, "shear")
    c2 = nd.random_change(rng, 2, 2, "affine")
    comp = c1.then(c2)
    t, x = _sample(rng, c1, scale=0.8)
    t1, x1 = c1.forward(t, x)
    t2, x2 = c2.forward(t1, x1)
    tc, xc = comp.forward(t, x)
    assert np.max(np.abs(tc - t2)) < 1e-12 and np.max(np.abs(xc - x2)) < 1e-12
    assert roundtrip_error(comp, t, x) < 1e-9

    inv = c1.inverted()
    tb, xb = inv.forward(*c1.forward(t, x))
    assert np.max(np.abs(tb - t)) < 1e-10 and np.max(np.abs(xb - x)) < 1e-10


def test_identity_change():
    c = nd.identity_change(2, 3)
    t, x = np.array([0.1, -0.2]), np.array([1.0, 2.0, -0.5])
    tt, xx = c.forward(t, x)
    assert np.allclose(tt, t) and np.allclose(xx, x)
    assert np.allclose(nd.jacobian_blocks(c, t, x).A, np.eye(2))


def test_affine_changes_are_well_conditioned():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = nd.random_change(rng, 3, 3, "affine")
        t, x = _sample(rng, c)
        blocks = nd.jacobian_blocks(c, t, x)
        for M in (blocks.A, blocks.B):
            assert np.linalg.cond(M) < 50


def test_change_catalog_names_and_count():
    rng = np.random.default_rng(12)
    cs = nd.change_catalog(rng, 2, 2, ["affine", "shear"], 3)
    assert len(cs) == 6
    assert [c.name for c in cs[:3]] == ["affine-0", "affine-1", "affine-2"]
    assert cs[3].name == "shear-0"


KINDS = ["affine", "shear", "monotone", "mixed"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p,n", [(1, 1), (2, 2), (2, 3)])
def test_catalog_draws_only_through_random(kind, p, n):
    """A source with only `random()` drives every kind: equal seeds give
    equal changes, each round-trips, and an affine block keeps cond <= 4."""
    rng = RandomOnly(f"{kind}/{p}/{n}")
    changes = nd.change_catalog(rng, p, n, [kind], 3)
    assert rng.calls > 0
    again = nd.change_catalog(RandomOnly(f"{kind}/{p}/{n}"), p, n, [kind], 3)
    points = np.random.default_rng(14)
    for c, d in zip(changes, again):
        assert [str(e) for e in c.forward_t + c.forward_x] == \
            [str(e) for e in d.forward_t + d.forward_x]
        t, x = _sample(points, c, scale=0.8)
        assert roundtrip_error(c, t, x) < 1e-10, c.name
        if kind == "affine":
            blocks = nd.jacobian_blocks(c, t, x)
            assert max(np.linalg.cond(blocks.A), np.linalg.cond(blocks.B)) <= 4 + 1e-9


@pytest.mark.parametrize("u", [0.0, 1 - 2 ** -53])
def test_catalog_holds_at_the_ends_of_the_unit_interval(u):
    """Every draw at 0 or just below 1: a shear's partner index stays below
    d, and the rank-one uniform matrices still give orthogonal factors."""
    for kind in KINDS:
        for c in nd.change_catalog(RandomOnly(u), 2, 3, [kind], 1):
            t, x = np.array([0.1, -0.2]), np.array([0.3, 0.2, -0.1])
            assert roundtrip_error(c, t, x) < 1e-10, c.name
            if kind == "affine":
                blocks = nd.jacobian_blocks(c, t, x)
                assert max(np.linalg.cond(blocks.A), np.linalg.cond(blocks.B)) <= 4 + 1e-9


def test_name_helpers():
    assert nd.temporal_names(2) == ["t1", "t2"]
    assert nd.spatial_names(3) == ["x1", "x2", "x3"]
    assert nd.jet_name(2, 1) == "x2_1"
    assert nd.jet_names(2, 2) == ["x1_1", "x1_2", "x2_1", "x2_2"]


def test_unknown_kind_raises():
    rng = np.random.default_rng(13)
    with pytest.raises(ChartError):
        nd.random_change(rng, 2, 2, "warp")
