"""Tiered tables: a table answers its first WALK_CALLS float calls by the DAG
walk and then runs its compiled function.  Both tiers must agree bit for
bit with the tree interpreter, for every structure that builds tables, and
raise the interpreter's first error.  A frozen table (`Table.freeze`) must
agree bit for bit with the full table and raise the interpreter's error."""

from dataclasses import replace

import numpy as np
import pytest

from jetflow import exprlang, maps, numdiff as nd, sprays
from jetflow.exprlang import WALK_CALLS, ExprError, compile_table, diff, free_vars, parse
from jetflow.geometry import GeometryError, Metric, metric_from_name
from jetflow.maps import solve_affine_ode
from jetflow.numdiff import spatial_names, temporal_names
from jetflow.prolong import BaseVectorField, flow_point, pushforward
from jetflow.connection import (canonical_connection, connection_from_sprays,
                                sprays_from_connection)
from jetflow.sprays import (SprayPair, canonical_pair, canonical_spatial, canonical_temporal,
                            combine_sprays)

from helpers import metric_and_points
from test_exprlang import DOMAIN_ERRORS
from test_geometry import CATALOG

CHANGE_KINDS = [None, "affine", "shear", "mixed"]
CALLS = WALK_CALLS + 2


def _bits(values) -> list[str]:
    """Exact text of each value: equal lists mean equal types and bits."""
    return [repr(v) for v in values]


def assert_tiers_match_interpreter(call, exprs, names, points, table=None):
    """Calls 1 .. WALK_CALLS + 2 of `call` on the float rows of `points`
    equal ``Expr.eval`` bit for bit; one call on the columns equals
    ``Expr.eval`` on the columns bit for bit, and each of its rows the float
    call on that row to 1e-13.  With `table`, also check which tier ran."""
    points = np.asarray(points, float)
    assert len(points) == CALLS
    rows = []
    for k, pt in enumerate(points):
        env = dict(zip(names, pt.tolist()))
        got = call(*pt.tolist())
        assert _bits(got) == _bits(e.eval(env) for e in exprs), k
        rows.append(got)
        if table is not None:
            assert (table._fn is not None) == (k >= WALK_CALLS), k
    cols = list(points.T)
    env = dict(zip(names, cols))
    got = call(*cols)
    for k, e in enumerate(exprs):
        want = np.broadcast_to(np.asarray(e.eval(env), float), (len(points),))
        column = np.broadcast_to(np.asarray(got[k], float), (len(points),))
        assert column.tobytes() == want.tobytes(), k
    for k, row in enumerate(rows):
        want = np.asarray(row, float)
        column = np.array([np.broadcast_to(g, (len(points),))[k] for g in got])
        assert np.max(np.abs(column - want) / np.maximum(1.0, np.abs(want)), initial=0) <= 1e-13


def _fresh(table):
    """A new table of the same entries, in its first tier."""
    return compile_table(table.exprs, table.names, table.checks)


@pytest.mark.parametrize("change_kind", CHANGE_KINDS)
@pytest.mark.parametrize("name,kind", CATALOG)
def test_metric_tables_tiers_match_interpreter(name, kind, change_kind):
    rng = np.random.default_rng(sum(map(ord, "tiers" + name + kind + str(change_kind))))
    g, pts = metric_and_points(name, kind, change_kind, rng, count=CALLS)
    for which in ("g", "inverse", "christoffel"):
        table = g._kernel(which)
        assert table._fn is None
        assert_tiers_match_interpreter(table, g._exprs(which), g.variables, pts, table)


# the 3-dimensional catalog metric is left out here: the interpreter walks
# every path of a pulled-back 3-d spray table's DAG, which takes seconds
@pytest.mark.parametrize("change_kind", CHANGE_KINDS)
@pytest.mark.parametrize("name,kind", [c for c in CATALOG if c[0] != "euclidean:3"])
def test_spray_tables_tiers_match_interpreter(name, kind, change_kind):
    rng = np.random.default_rng(sum(map(ord, "spray" + name + kind + str(change_kind))))
    g, pts = metric_and_points(name, kind, change_kind, rng, count=CALLS)
    # the other factor is 1-dimensional, for the same reason
    if kind == "temporal":
        p, n = g.dim, 1
        s = canonical_temporal(g, n)
        T, X = pts, rng.uniform(-1.0, 1.0, (CALLS, n))
    else:
        p, n = 1, g.dim
        s = canonical_spatial(g, p)
        T, X = rng.uniform(-1.0, 1.0, (CALLS, p)), pts
    V = rng.normal(0.0, 1.5, (CALLS, n * p))
    args = np.hstack([T, X, V])
    tables = s.tables
    for table in (tables.kernel, tables._gradient):
        assert_tiers_match_interpreter(table, table.exprs, tables.names, args, table)


FIELDS = {
    "polynomial-trig": (["1 + 0.1*t2", "0.3*x1"], ["x2*t1", "-sin(x1) + t2^2"]),
    "exp-log-sqrt": (["exp(0.3*x1) - 1", "log(2 + t1^2)"],
                     ["sqrt(1 + x2^2)*t2", "0.2*exp(t1)*x1/(2 + sin(x2))"]),
}


@pytest.mark.parametrize("change_kind", CHANGE_KINDS)
@pytest.mark.parametrize("name", FIELDS)
def test_vector_field_tables_tiers_match_interpreter(name, change_kind):
    rng = np.random.default_rng(sum(map(ord, name + str(change_kind))))
    X = BaseVectorField(2, 2, *FIELDS[name], name=name)
    if change_kind is not None:
        X = pushforward(X, nd.random_change(rng, X.p, X.n, change_kind))
    pts = rng.uniform(-0.8, 0.8, (CALLS, X.p + X.n))
    comps = X.temporal + X.spatial
    assert_tiers_match_interpreter(X._values, comps, X.variables, pts, X._values)
    partials = [diff(e, v) for e in comps for v in X.variables]
    assert_tiers_match_interpreter(lambda *a: [d for row in X._gradients(*a) for d in row],
                                   partials, X.variables, pts)


# a change's two tables in order (`ChangeMap._tables`): the symbolic lists
# each flattens, all read at the point
CHANGE_TABLES = [("forward_t", "_dft", "_d2ft"), ("forward_x", "_dfx", "_d2fx")]


@pytest.mark.parametrize("kind", ["affine", "shear", "monotone", "mixed"])
def test_change_tables_tiers_match_interpreter(kind):
    rng = np.random.default_rng(sum(map(ord, "change" + kind)))
    c = nd.random_change(rng, 2, 2, kind)
    pts = rng.uniform(-0.8, 0.8, (CALLS, 4))
    names = temporal_names(2) + spatial_names(2)
    assert len(c._tables) == len(CHANGE_TABLES)
    for table, lists in zip(c._tables, CHANGE_TABLES):
        exprs = []
        for name in lists:
            entries = getattr(c, name)
            for _ in range(name.startswith("_d") + name.startswith("_d2")):
                entries = [e for row in entries for e in row]
            exprs += entries
        temporal = lists[0].endswith("t")
        assert table._fn is None
        assert_tiers_match_interpreter(table, exprs, names[:2] if temporal else names[2:],
                                       pts[:, :2] if temporal else pts[:, 2:], table)


@pytest.mark.parametrize("arrays", [False, True])
@pytest.mark.parametrize("text,env", DOMAIN_ERRORS)
def test_both_tiers_raise_the_interpreters_domain_error(text, env, arrays):
    if arrays:
        env = {k: np.array([1.0, v, 2.0]) for k, v in env.items()}
    with pytest.raises(ExprError) as want:
        parse(text).eval(env)
    names = sorted(env) or ["x"]
    values = [env[k] for k in sorted(env)] or [1.0]
    table = compile_table([parse("x + 1"), parse(text)], names)
    with pytest.raises(ExprError) as first:
        table(*values)              # the walk on floats; arrays compile at once
    assert (table._fn is not None) == any(isinstance(v, np.ndarray) for v in values)
    with pytest.raises(ExprError) as compiled:
        table.compiled()(*values)
    assert str(first.value) == str(compiled.value) == str(want.value)


@pytest.mark.parametrize("kind", ["spatial", "temporal"])
def test_degenerate_metric_raises_from_both_tiers(kind):
    v = "x1" if kind == "spatial" else "t1"
    g = Metric("deg", kind, [[parse(v), parse("0")], [parse("0"), parse("1")]])
    s = canonical_spatial(g, 2) if kind == "spatial" else canonical_temporal(g, 2)
    for bad in (0.0, 1e-14):
        pt = [bad, 1.0]
        other = [0.5, 0.5]
        jet = (other + pt if kind == "spatial" else pt + other) + [1.0] * 4
        for table, args in ((g._kernel("inverse"), pt), (g._kernel("christoffel"), pt),
                            (s.tables.kernel, jet), (s.tables._gradient, jet)):
            fresh = _fresh(table)
            with pytest.raises(GeometryError, match="degenerate"):
                fresh(*args)
            assert fresh._fn is None
            with pytest.raises(GeometryError, match="degenerate"):
                fresh.compiled()(*args)


def test_solver_loops_compile_once_and_never_walk(monkeypatch):
    """Both RK4 solvers run one generated loop with the tables written in:
    two geodesic solves on one spray pair build one loop, two flows of one
    field build one loop, and neither compiles or walks a table."""
    walks, built = [], []
    real_walk, real_define = exprlang.evaluate_table, exprlang._define
    monkeypatch.setattr(exprlang, "evaluate_table",
                        lambda *a, **k: walks.append(a) or real_walk(*a, **k))
    monkeypatch.setattr(exprlang, "_define",
                        lambda src, ns, filename, name:
                        built.append(filename) or real_define(src, ns, filename, name))
    pair = canonical_pair(metric_from_name("exp1d"), metric_from_name("sphere:2"))
    for _ in range(2):
        solve_affine_ode(pair, [1.2, 0.1], [0.3, -0.5], (0.0, 0.5), 20)
    assert built == ["<compiled rk4>"] and not walks     # one loop per spray pair
    X = BaseVectorField(2, 2, *FIELDS["exp-log-sqrt"])
    for eps in (0.01, -0.02):
        flow_point(X, np.array([0.1, 0.2]), np.array([0.3, 0.4]), eps)
    assert built == ["<compiled rk4>"] * 2 and not walks


# ---------------------------------------------------------------------------
# frozen tables


def assert_frozen_matches_table(table, fixed, points):
    """`table.freeze(fixed, ...)` on the other values equals the full
    compiled table bit for bit: on each float row of `points`, and on its
    columns (same types, same bytes)."""
    points = np.asarray(points, float)
    at = [table.names.index(name) for name in fixed]
    rest = [k for k, name in enumerate(table.names) if name not in fixed]
    full = table.compiled()
    for row in points.tolist():
        frozen = table.freeze(fixed, [row[k] for k in at])
        assert _bits(frozen(*[row[k] for k in rest])) == _bits(full(*row))
    cols = list(points.T)
    got = table.freeze(fixed, [cols[k] for k in at])(*[cols[k] for k in rest])
    want = full(*cols)
    assert [type(g) for g in got] == [type(w) for w in want]
    assert [np.asarray(g).tobytes() for g in got] == [np.asarray(w).tobytes() for w in want]


def _spray_and_args(name, kind, change_kind, count=CALLS):
    """A catalog metric's canonical spray (pulled back through a change of
    `change_kind`) with the other factor 1-dimensional, and `count` rows of
    its jet arguments."""
    rng = np.random.default_rng(sum(map(ord, "freeze" + name + kind + str(change_kind))))
    g, pts = metric_and_points(name, kind, change_kind, rng, count=count)
    if kind == "temporal":
        s, n = canonical_temporal(g, 1), 1
        T, X = pts, rng.uniform(-1.0, 1.0, (count, n))
    else:
        s, n = canonical_spatial(g, 1), g.dim
        T, X = rng.uniform(-1.0, 1.0, (count, 1)), pts
    V = rng.normal(0.0, 1.5, (count, n * s.p))
    return s, np.hstack([T, X, V])


@pytest.mark.parametrize("change_kind", [None, "affine", "mixed"])
@pytest.mark.parametrize("name,kind", CATALOG)
def test_frozen_spray_tables_match_the_full_tables(name, kind, change_kind):
    s, args = _spray_and_args(name, kind, change_kind)
    tables = s.tables
    for table in (tables.kernel, tables._gradient):
        assert_frozen_matches_table(table, temporal_names(s.p), args)


@pytest.mark.parametrize("name,kind", [("conformal2d:0.3*t1 - 0.2*t2 + 0.1*t1*t2", "temporal"),
                                       ("sphere:2", "spatial")])
def test_table_frozen_on_all_or_none_of_its_names(name, kind):
    s, args = _spray_and_args(name, kind, "mixed")
    table = s.tables.kernel
    assert_frozen_matches_table(table, table.names, args)
    assert_frozen_matches_table(table, [], args)
    with pytest.raises(TypeError):
        table.freeze(["t1", "t1"], [0.0, 0.0])
    with pytest.raises(TypeError):
        table.freeze(["nowhere"], [0.0])
    with pytest.raises(TypeError):
        table.freeze(["t1"], [])


@pytest.mark.parametrize("fixed_all", [False, True])
@pytest.mark.parametrize("arrays", [False, True])
@pytest.mark.parametrize("text,env", DOMAIN_ERRORS)
def test_frozen_table_raises_the_interpreters_domain_error(text, env, arrays, fixed_all):
    """The error is raised by `freeze` when the failing node reads only
    fixed names and literals, and by the call otherwise."""
    if arrays:
        env = {k: np.array([1.0, v, 2.0]) for k, v in env.items()}
    with pytest.raises(ExprError) as want:
        parse(text).eval(env)
    names = sorted(env) or ["x"]
    values = [env[k] for k in sorted(env)] or [1.0]
    fixed = names if fixed_all else []
    at_freeze = free_vars(parse(text)) <= set(fixed)
    table = compile_table([parse("x + 1"), parse(text)], names)
    with pytest.raises(ExprError) as got:
        frozen = table.freeze(fixed, values[:len(fixed)])
        assert not at_freeze, "freeze should have raised"
        frozen(*values[len(fixed):])
    assert str(got.value) == str(want.value)


def test_degenerate_temporal_metric_raises_when_frozen():
    """A temporal spray frozen on nodes where its metric is degenerate
    raises there, before any call: a grid level is refused when built."""
    g = Metric("deg", "temporal", [[parse("t1"), parse("0")], [parse("0"), parse("1")]])
    T = np.array([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(GeometryError, match="degenerate"):
        canonical_temporal(g, 2).tables.batch_at(T)
    h = metric_from_name("euclidean:2", kind="temporal")
    pair = SprayPair(canonical_temporal(g, 2), canonical_spatial(metric_from_name("euclidean:2"), 2))
    with pytest.raises(GeometryError, match="degenerate"):
        maps._Level(pair, h, np.linspace(0.0, 1.0, 3) - 0.5, np.linspace(0.0, 1.0, 3))


def _level_problem():
    h = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    phi = metric_from_name("conformal2d:0.2*x1 - 0.1*x1*x2", kind="spatial")
    t = np.linspace(-1.0, 1.0, 9)
    vals = np.random.default_rng(41).uniform(-1.0, 1.0, (9, 9, 2))
    return canonical_pair(h, phi), h, t, vals


def _derived_pairs(pair, h):
    """Sprays built from the canonical pair's entries: the pair induced by
    the canonical connection, and a combination with the flat sprays."""
    flat = canonical_pair(metric_from_name("euclidean:2", kind="temporal"),
                          metric_from_name("euclidean:2"))
    phi = pair.spatial.tables.metrics[0]
    return [sprays_from_connection(canonical_connection(h, phi)),
            sprays_from_connection(connection_from_sprays(pair, h)),
            SprayPair(combine_sprays([pair.temporal, flat.temporal], [0.6, 0.4]),
                      combine_sprays([pair.spatial, flat.spatial], [1.5, -0.5]))]


def test_batch_at_matches_batch():
    pair, h = _level_problem()[:2]
    rng = np.random.default_rng(42)
    T = rng.uniform(-1.0, 1.0, (11, 2))
    X, V = rng.uniform(-1.0, 1.0, (11, 2)), rng.normal(0.0, 1.5, (11, 2, 2))
    for s in [s for pr in [pair, *_derived_pairs(pair, h)] for s in (pr.temporal, pr.spatial)]:
        got = s.tables.batch_at(T)(X, V)
        assert got.tobytes() == s.tables.batch(T, X, V).tobytes()
        assert got.shape == (11, 2, 2, 2) and got.flags.writeable
    # nodes laid out as a 3 x 3 grid, the entries written into a given array
    T, X, V = T[:-2].reshape(3, 3, 2), X[:-2].reshape(3, 3, 2), V[:-2].reshape(3, 3, 2, 2)
    for s in [s for pr in [pair, *_derived_pairs(pair, h)] for s in (pr.temporal, pr.spatial)]:
        out = np.empty((3, 3, 2, 2, 2))
        assert s.tables.batch_at(T)(X, V, out) is out
        want = s.tables.batch(T.reshape(9, 2), X.reshape(9, 2), V.reshape(9, 2, 2))
        assert out.tobytes() == want.tobytes()


def test_flat_metric_spray_is_one_constant_array():
    T = np.random.default_rng(43).uniform(-1.0, 1.0, (5, 2))
    X, V = np.ones((5, 2)), np.ones((5, 2, 2))
    for s in (canonical_temporal(metric_from_name("euclidean:2", kind="temporal"), 2),
              canonical_spatial(metric_from_name("euclidean:2"), 2)):
        batch = s.tables.batch_at(T)
        first = batch(X, V)
        assert batch(2 * X, 3 * V) is first and not first.flags.writeable
        assert first.tobytes() == s.tables.batch(T, X, V).tobytes()


def _wrapped(pair, calls):
    """A `dataclasses.replace` copy of each spray whose `coefficients`
    records its calls: the shape of the benchmark tracer's copies."""
    def wrap(s):
        return replace(s, coefficients=lambda u: calls.append(u) or s.coefficients(u))
    return SprayPair(wrap(pair.temporal), wrap(pair.spatial))


def test_level_runs_each_sprays_frozen_tables(monkeypatch):
    """A level freezes each spray's tables on its nodes, whatever the
    spray's `coefficients`."""
    pair, h, t, _ = _level_problem()
    frozen = []
    real_batch_at = sprays.JetTable.batch_at
    monkeypatch.setattr(sprays.JetTable, "batch_at",
                        lambda self, T: frozen.append(self) or real_batch_at(self, T))
    for each in (pair, _wrapped(pair, [])):
        frozen.clear()
        maps._Level(each, h, t, t)
        assert frozen == [pair.spatial.tables, pair.temporal.tables]


def test_wrapped_pair_solves_a_harmonic_grid_bit_for_bit():
    """A copy of a canonical pair with wrapped `coefficients` runs the same
    frozen tables as the pair: the same V-cycles, history and values, bit
    for bit, and no call of the wrapper."""
    pair, h = _level_problem()[:2]
    calls = []
    boundary = maps.SmoothMap(2, ["0.4*t1 + 0.3*t2^2", "0.5*t1*t2 - 0.2*t2"])
    a = maps.solve_harmonic_grid(pair, h, boundary, m=17, tol=1e-10)
    b = maps.solve_harmonic_grid(_wrapped(pair, calls), h, boundary, m=17, tol=1e-10)
    assert a.status == b.status == "converged" and not calls
    assert (a.iterations, a.history) == (b.iterations, b.history)
    assert a.values.tobytes() == b.values.tobytes()
