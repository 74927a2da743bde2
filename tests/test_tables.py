"""Tiered tables: a table answers its first WALK_CALLS float calls by the DAG
walk and then runs its compiled function.  Both tiers must agree bit for
bit with the tree interpreter, for every structure that builds tables, and
raise the interpreter's first error.  A frozen table (`Table.freeze`) must
agree bit for bit with the full table and raise the interpreter's error."""

import collections
import math
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from jetflow import exprlang, maps, numdiff as nd, sprays
from jetflow.exprlang import (DET_TOL, WALK_CALLS, ExprError, Num, compile_floats, compile_rk4,
                              compile_table, diff, free_vars, parse)
from jetflow.geometry import GeometryError, Metric, metric_from_name
from jetflow.maps import solve_affine_ode
from jetflow.numdiff import spatial_names, temporal_names
from jetflow.prolong import BaseVectorField, flow_point, pushforward
from jetflow.scenario import load_scenario
from jetflow.verify import run_verify
from jetflow.connection import (canonical_connection, connection_from_sprays,
                                sprays_from_connection)
from jetflow.sprays import (SprayPair, canonical_pair, canonical_spatial, canonical_temporal,
                            combine_sprays)

from helpers import metric_and_points, walk_batch
from test_exprlang import DOMAIN_ERRORS
from test_geometry import CATALOG

CHANGE_KINDS = [None, "affine", "shear", "mixed"]
CALLS = WALK_CALLS + 2
DEMO = Path(__file__).resolve().parents[1] / "demos" / "verify_scenario.json"


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
    return compile_table(table.exprs, table.names, table.guards)


def _gradient_table(tables):
    """The table of a JetTable's jet gradient entries, with its det-g guards
    like its kernel: the compiler on derivative trees."""
    return compile_table(tables.gradient_entries, tables.names, tables.guards)


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
    for table in (tables.kernel, _gradient_table(tables)):
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
                            (s.tables.kernel, jet), (_gradient_table(s.tables), jet)):
            fresh = _fresh(table)
            with pytest.raises(GeometryError, match="degenerate"):
                fresh(*args)
            assert fresh._fn is None
            with pytest.raises(GeometryError, match="degenerate"):
                fresh.compiled()(*args)


def test_solver_loops_compile_once_and_never_walk(monkeypatch):
    """Both RK4 solvers run one generated loop that calls one float table:
    two geodesic solves on one spray pair build one table and one loop, two
    flows of one field build one table and one loop, and neither compiles
    or walks any other table."""
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
    loop = ["<compiled table>", "<compiled rk4>"]
    assert built == loop and not walks                   # one loop per spray pair
    X = BaseVectorField(2, 2, *FIELDS["exp-log-sqrt"])
    for eps in (0.01, -0.02):
        flow_point(X, np.array([0.1, 0.2]), np.array([0.3, 0.4]), eps)
    assert built == loop * 2 and not walks


# ---------------------------------------------------------------------------
# the values a table keeps per point


def test_kept_values_tell_zero_from_minus_zero():
    """A point is the exact bits of the arguments: sin(-0.0) is -0.0, not
    the sin(0.0) kept before it, though 0.0 == -0.0 and the two hash alike."""
    table = compile_table([parse("sin(x)")], ["x"])
    assert math.copysign(1.0, table(0.0)[0]) == 1.0
    assert math.copysign(1.0, table(-0.0)[0]) == -1.0
    assert table._walks == 2


@pytest.mark.parametrize("text,env", [c for c in DOMAIN_ERRORS if c[1]])
def test_a_failed_walk_is_not_kept(text, env):
    names = sorted(env)
    table = compile_table([parse("x + 1"), parse(text)], names)
    for walks in (1, 2):
        with pytest.raises(ExprError):
            table(*(env[k] for k in names))
        assert table._walks == walks and not table._points


def test_a_degenerate_det_raises_again_at_the_same_point():
    g = Metric("deg", "spatial", [[parse("x1"), parse("0")], [parse("0"), parse("1")]])
    kernel = _fresh(canonical_spatial(g, 2).tables.kernel)
    jet = [0.5, 0.5, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    for walks in (1, 2):
        with pytest.raises(GeometryError, match="degenerate"):
            kernel(*jet)
        assert kernel._walks == walks and not kernel._points


def test_calls_at_kept_points_are_not_walks(monkeypatch):
    walks = []
    real_walk = exprlang.evaluate_table
    monkeypatch.setattr(exprlang, "evaluate_table",
                        lambda *a, **k: walks.append(a) or real_walk(*a, **k))
    e = parse("exp(x)*y - log(2 + y^2)")
    table = compile_table([e, diff(e, "x")], ["x", "y"])
    points = [(0.25, -1.5), (-0.75, 2.0)]
    for k in range(CALLS):
        x, y = points[k % 2]
        assert _bits(table(x, y)) == _bits(f.eval({"x": x, "y": y}) for f in table.exprs)
    assert table._fn is None and table._walks == len(walks) == 2
    # K + 1 distinct points: the (K + 1)-th compiles, as without kept values
    table = compile_table([e], ["x", "y"])
    for k in range(WALK_CALLS + 1):
        got = table(0.1 * k, 0.5)
        assert _bits(got) == _bits([e.eval({"x": 0.1 * k, "y": 0.5})])
        assert len(table._points) == min(k + 1, WALK_CALLS)
        assert (table._fn is not None) == (k == WALK_CALLS)


@pytest.mark.parametrize("point", [(1, 2), (np.float64(1.0), np.float64(2.0)), (1.0, 2)])
def test_calls_not_all_on_python_floats_keep_nothing(point):
    table = compile_table([parse("x/y + 1")], ["x", "y"])
    for walks in (1, 2, 3):
        assert table(*point) == (1.5,)
        assert table._walks == walks and not table._points


def test_demo_verify_walks_no_table_twice_at_one_point(monkeypatch):
    """Every law re-evaluates source-side tables once per chart change; each
    table walks each of its points once."""
    seen = collections.Counter()
    real_walk = exprlang.evaluate_table

    def walk(exprs, env, checks=()):
        seen[id(exprs), struct.pack(f"{len(env)}d", *env.values())] += 1
        return real_walk(exprs, env, checks)

    monkeypatch.setattr(exprlang, "evaluate_table", walk)
    tables = []                     # keep every table alive, so no id is reused
    real_init = exprlang.Table.__init__
    monkeypatch.setattr(exprlang.Table, "__init__",
                        lambda self, *a: tables.append(self) or real_init(self, *a))
    run_verify(load_scenario(str(DEMO)))
    assert seen and max(seen.values()) == 1


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
    for table in (tables.kernel, _gradient_table(tables)):
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


def test_batch_at_matches_the_walk():
    pair, h = _level_problem()[:2]
    rng = np.random.default_rng(42)
    T = rng.uniform(-1.0, 1.0, (11, 2))
    X, V = rng.uniform(-1.0, 1.0, (11, 2)), rng.normal(0.0, 1.5, (11, 2, 2))
    for s in [s for pr in [pair, *_derived_pairs(pair, h)] for s in (pr.temporal, pr.spatial)]:
        got = s.tables.batch_at(T)(X, V)
        assert got.tobytes() == walk_batch(s.tables, T, X, V).tobytes()
        assert got.shape == (11, 2, 2, 2) and got.flags.writeable
    # nodes laid out as a 3 x 3 grid, the entries written into a given array
    T, X, V = T[:-2].reshape(3, 3, 2), X[:-2].reshape(3, 3, 2), V[:-2].reshape(3, 3, 2, 2)
    for s in [s for pr in [pair, *_derived_pairs(pair, h)] for s in (pr.temporal, pr.spatial)]:
        out = np.empty((3, 3, 2, 2, 2))
        assert s.tables.batch_at(T)(X, V, out) is out
        want = walk_batch(s.tables, T.reshape(9, 2), X.reshape(9, 2), V.reshape(9, 2, 2))
        assert out.tobytes() == want.tobytes()


def test_flat_metric_spray_is_one_constant_array():
    T = np.random.default_rng(43).uniform(-1.0, 1.0, (5, 2))
    X, V = np.ones((5, 2)), np.ones((5, 2, 2))
    for s in (canonical_temporal(metric_from_name("euclidean:2", kind="temporal"), 2),
              canonical_spatial(metric_from_name("euclidean:2"), 2)):
        batch = s.tables.batch_at(T)
        first = batch(X, V)
        assert batch(2 * X, 3 * V) is first and not first.flags.writeable
        assert first.tobytes() == walk_batch(s.tables, T, X, V).tobytes()


def test_constant_entries_over_a_det_that_reads_x_keep_their_guard():
    """`batch_at`'s constant short-cut also reads the guards: entries that
    read no x or jet variable, over a metric whose det g = x1 + 1 does,
    still test det g at every call, and raise where it vanishes."""
    g = Metric("shifted", "spatial", [[parse("x1 + 1")]])
    batch = sprays.JetTable(1, 1, (1, 1, 1), [g], lambda: [Num(0.0)]).batch_at(np.zeros((2, 1)))
    V = np.ones((2, 1, 1))
    got = batch(np.array([[0.5], [1.0]]), V)
    assert got.flags.writeable and got.shape == (2, 1, 1, 1) and not got.any()
    with pytest.raises(GeometryError, match="'shifted' is degenerate"):
        batch(np.array([[0.5], [-1.0]]), V)


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


# ---------------------------------------------------------------------------
# det-g guards: a table calls a guard's check only where |det g| < DET_TOL,
# and the check (`Metric.check_det`) raises there


BELOW = math.nextafter(DET_TOL, 0.0)
DEGENERATE = "metric 'line' is degenerate: |det g| < 1e-12"


def _rk4_tier(table, x1):
    """Two RK4 steps from x1 whose right-hand side is the table's entries
    times 0, so every stage sees the same det g; then that right-hand
    side's values at x1."""
    rhs = compile_floats([exprlang.Mul(Num(0.0), e) for e in table.exprs], ["s", "x1"],
                         table.guards)
    compile_rk4(1, rhs)(0.0, x1, 0.1, 2, None)
    return rhs(0.0, x1)


# each tier computes a one-entry table of a 1-d metric at x1, with the
# metric's det-g guard: the metric's inverse table, 1/det g, or a literal
# 0 that reads no guard
DET_TABLES = {
    "inverse": lambda g: g._kernel("inverse"),
    "unread": lambda g: compile_table([Num(0.0)], ["x1"], [g.guard]),
}
DET_TIERS = {
    "walk": lambda table, x1: table(x1),
    "compiled": lambda table, x1: table.compiled()(x1),
    "columns": lambda table, x1: table(np.array([1.0, x1])),
    "frozen": lambda table, x1: table.freeze(["x1"], [x1])(),
    "rk4": _rk4_tier,
}


def _spied_line(det: float, literal: bool):
    """The 1-d metric named "line" with det g = `det`, a literal or the
    value of x1; its `check_det` records each call before it raises.
    Returns the metric, the x1 that gives `det`, and the calls."""
    g = Metric("line", "spatial", [[Num(det) if literal else parse("x1")]])
    calls = []
    real = g.check_det
    g.check_det = lambda value: calls.append(value) or real(value)
    return g, 0.5 if literal else det, calls


@pytest.mark.parametrize("entries", DET_TABLES)
@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("det", [DET_TOL, -DET_TOL, math.nan, 1.0, -3.0])
@pytest.mark.parametrize("tier", DET_TIERS)
def test_det_guard_passes_at_det_tol_and_nan(tier, det, literal, entries):
    """|det g| = DET_TOL is not below it, and NaN fails the test: no tier
    calls the check, at a boundary or at a nondegenerate point, and each
    returns one value per entry, none for the guard."""
    g, x1, calls = _spied_line(det, literal)
    assert len(DET_TIERS[tier](DET_TABLES[entries](g), x1)) == 1
    assert calls == []


@pytest.mark.parametrize("entries", DET_TABLES)
@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("det", [BELOW, -BELOW, 0.0, -0.0])
@pytest.mark.parametrize("tier", DET_TIERS)
def test_det_guard_raises_just_below_det_tol(tier, det, literal, entries):
    """The largest |det g| below DET_TOL, and a zero det g, call the check
    once, which raises GeometryError with the metric's message before
    1/det g is computed; a guard that no entry reads is tested too."""
    g, x1, calls = _spied_line(det, literal)
    with pytest.raises(GeometryError) as err:
        DET_TIERS[tier](DET_TABLES[entries](g), x1)
    assert str(err.value) == DEGENERATE
    assert len(calls) == 1


@pytest.mark.parametrize("det,raises", [(DET_TOL, False), (math.nan, False), (BELOW, True)])
def test_literal_det_guard_runs_when_the_loop_is_built(det, raises):
    """A float right-hand side tests a literal det g once, when it is built:
    one of at least DET_TOL (or NaN) leaves no test in the function the
    loop calls, and one below raises from `compile_floats`."""
    g, _, calls = _spied_line(det, literal=True)

    def build():
        return compile_floats([exprlang.num(0.0)], ["s", "x1"], [g.guard])

    if raises:
        with pytest.raises(GeometryError, match=re.escape(DEGENERATE)):
            build()
        assert len(calls) == 1
    else:
        rhs = build()
        assert not {"check0", "DET_TOL"} & set(rhs.__code__.co_names)
        compile_rk4(1, rhs)(0.0, 1.0, 0.1, 3, None)
        assert calls == []
