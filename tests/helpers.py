"""Shared helpers for the test suite."""

from __future__ import annotations

import contextlib
import copy
import functools
import gc
import json
import os
import platform
import random
import tempfile

import numpy as np

from jetflow import numdiff as nd
from jetflow.exprlang import compile_floats, compile_rk4, evaluate_table, table_columns
from jetflow.geometry import metric_from_name, pullback_metric
from jetflow.jetspace import JetPoint, random_jet
from jetflow.scenario import load_scenario

TOL_LAW = 1e-8          # transformation-law agreement
TOL_EXACT = 1e-12       # identities that hold to rounding

EPS = float(np.finfo(float).eps)


def golden_writer() -> dict:
    """What the bits of a stored report depend on beyond the code: numpy,
    Python, the machine and its C library (libm)."""
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "libc": list(platform.libc_ver())}


# every default of the scenario schema, written out as a scenario file would
EVERY_DEFAULT = {
    "seed": 2026,
    "changes": {"kinds": ["affine", "shear", "mixed"], "count": 3},
    "jets": {"count": 20, "v_scale": 2.0},
    "verify": {"suites": ["all"],
               "dtensor_candidates": ["liouville-c", "liouville-l", "normalization-j",
                                      "lagrangian-metric", "spray-difference"],
               "tolerance": 1e-8},
    "prolong": {"eps": 0.02, "substeps": 16},
    "harmonic": {"grid": 33, "tolerance": 1e-9, "max_iters": 20000, "damping": 0.8},
}


def with_every_default(payload: dict) -> dict:
    """A copy of the scenario `payload` with each default it omits written
    out: every section of `EVERY_DEFAULT` is added, but `harmonic`, which
    a scenario may leave out, only gets its members filled."""
    out = copy.deepcopy(payload)
    for key, default in EVERY_DEFAULT.items():
        if not isinstance(default, dict):
            out.setdefault(key, default)
        elif key in out or key != "harmonic":
            out[key] = {**copy.deepcopy(default), **out.get(key, {})}
    return out


def scenario_of(payload: dict):
    """`payload` loaded from a scenario file by `load_scenario`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return load_scenario(path)


class RandomOnly:
    """A draw source with nothing but `random()`, counting its calls: the
    chart-change catalog and `random_jet` may ask a source for nothing else.
    With a float `seed`, every draw returns that float."""

    __slots__ = ("_draw", "calls")

    def __init__(self, seed):
        self._draw = (lambda: seed) if isinstance(seed, float) else random.Random(seed).random
        self.calls = 0

    def random(self) -> float:
        self.calls += 1
        return self._draw()


def jet_env(u: JetPoint) -> dict[str, float]:
    """Variable bindings t1.., x1.., x{i}_{a} for evaluating jet-space Exprs
    with the tree interpreter."""
    env = dict(zip(nd.temporal_names(u.p), (float(c) for c in u.t)))
    env.update(zip(nd.spatial_names(u.n), (float(c) for c in u.x)))
    for i in range(u.n):
        for a in range(u.p):
            env[nd.jet_name(i + 1, a + 1)] = float(u.v[i, a])
    return env


def catalog(rng: np.random.Generator, p: int, n: int, kinds=("affine", "shear", "mixed"),
            count: int = 3):
    return nd.change_catalog(rng, p, n, list(kinds), count)


def jets_in(rng: np.random.Generator, p: int, n: int, h=None, phi=None, count: int = 12,
            v_scale: float = 2.0):
    return [random_jet(rng, p, n,
                       box_t=None if h is None else h.box,
                       box_x=None if phi is None else phi.box,
                       v_scale=v_scale)
            for _ in range(count)]


def standard_metrics(p: int = 2, n: int = 2):
    """A curved temporal and a curved spatial metric of the given dimensions."""
    if p == 1:
        h = metric_from_name("exp1d")
    elif p == 2:
        h = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
    else:
        h = metric_from_name(f"euclidean:{p}", kind="temporal")
    if n == 2:
        phi = metric_from_name("sphere:2")
    else:
        phi = metric_from_name(f"euclidean:{n}")
    return h, phi


def metric_and_points(name: str, kind: str, change_kind: str | None,
                      rng: np.random.Generator, count: int = 5):
    """A catalog metric, or its pullback through a random change, and `count`
    points of its chart inside the catalog box."""
    g = metric_from_name(name, kind)
    pts = np.array([[rng.uniform(lo + 0.1, hi - 0.1) for lo, hi in g.box]
                    for _ in range(count)])
    if change_kind is None:
        return g, pts
    p, n = (g.dim, 1) if kind == "temporal" else (1, g.dim)
    c = nd.random_change(rng, p, n, change_kind)
    if kind == "temporal":
        pts = np.array([c.forward(t, np.zeros(1))[0] for t in pts])
    else:
        pts = np.array([c.forward(np.zeros(1), x)[1] for x in pts])
    return pullback_metric(g, c), pts


# --- central differences: references for the symbolic derivatives ----------


def fd_partial(f, point: np.ndarray, i: int) -> float:
    """Central-difference first partial with step eps^(1/3) * max(1, |p_i|)."""
    point = np.asarray(point, dtype=float)
    h = EPS ** (1.0 / 3.0) * max(1.0, abs(point[i]))
    ep = point.copy()
    em = point.copy()
    ep[i] += h
    em[i] -= h
    return (f(ep) - f(em)) / (2.0 * h)


def fd_jacobian(f, point: np.ndarray) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    cols = []
    for i in range(point.size):
        cols.append(fd_partial(lambda q, i=i: np.asarray(f(q), dtype=float), point, i))
    return np.stack(cols, axis=-1)


def roundtrip_error(change, t: np.ndarray, x: np.ndarray) -> float:
    """Largest coordinate gap after the change and then its inverse."""
    t2, x2 = change.inverted().forward(*change.forward(t, x))
    err = 0.0
    if change.p:
        err = max(err, float(np.max(np.abs(t2 - np.asarray(t, float)))))
    if change.n:
        err = max(err, float(np.max(np.abs(x2 - np.asarray(x, float)))))
    return err


@functools.cache
def _flow_loop(X):
    """RK4 for the flow y' = X(y), y = (t, x), alone: one generated loop
    per field over its components as one compiled float table."""
    rhs = compile_floats(X.temporal + X.spatial, ["s", *X.variables])
    return compile_rk4(X.p + X.n, rhs)


def flow_point(X, t, x, eps: float, substeps: int = 16):
    """RK4 integration of the flow of X from (t, x) for parameter eps, in
    `substeps` steps on Python floats, without the variational equations
    that `prolong.flow_transport` carries beside it."""
    y = np.asarray(t, float).tolist() + np.asarray(x, float).tolist()
    end = _flow_loop(X)(0.0, *y, eps / substeps, substeps, None)
    return np.array(end[1:1 + X.p]), np.array(end[1 + X.p:])


def reference_flow_transport(X, u, eps: float, substeps: int = 16):
    """`prolong.flow_transport` by central differences: column k of the
    flow's Jacobian is a central difference of `flow_point` with step 1e-6
    in base coordinate k of (t, x), the others held, and
    v~ = (dPhiM/dt + dPhiM/dx v)(dPhiT/dt + dPhiT/dx v)^-1.  The reference
    for the variational equations."""
    p, step = u.p, 1e-6
    t_new, x_new = flow_point(X, u.t, u.x, eps, substeps)
    y = np.concatenate([u.t, u.x])
    J = np.empty((y.size, y.size))      # [component of (PhiT, PhiM), coordinate k]
    for k in range(y.size):
        plus, minus = y.copy(), y.copy()
        plus[k] += step
        minus[k] -= step
        tp, xp = flow_point(X, plus[:p], plus[p:], eps, substeps)
        tm, xm = flow_point(X, minus[:p], minus[p:], eps, substeps)
        J[:p, k] = (tp - tm) / (2 * step)
        J[p:, k] = (xp - xm) / (2 * step)
    denom = J[:p, :p] + J[:p, p:] @ u.v
    v_new = (J[p:, :p] + J[p:, p:] @ u.v) @ np.linalg.inv(denom)
    return JetPoint(t_new, x_new, v_new)


def reference_prolongation(X, u) -> np.ndarray:
    """pr1(X) at the jet u as its natural components [X^a, X^i, X^{(i)}_{(a)}]
    (vertical fused as i*p + a) by the numeric formula: the components and
    their partials by the tree interpreter, then D_a f = @f/@t^a +
    x^j_a @f/@x^j and X^{(i)}_{(a)} = D_a X^i - (D_a X^b) x^i_b on numpy
    arrays, as Dx - v @ Dt.  The reference for the symbolic
    `prolong.olver_prolong`."""
    from jetflow.exprlang import diff

    env, p = jet_env(u), u.p
    comps = X.temporal + X.spatial
    values = np.array([e.eval(env) for e in comps])
    J = np.array([[diff(e, v).eval(env) for v in X.variables] for e in comps])
    D = J[:, :p] + J[:, p:] @ u.v                   # D[k, a] = D_a X^k
    return np.concatenate([values, (D[p:] - u.v @ D[:p]).ravel()])


def fd_spray_gradient(s, u, eps: float = 1e-6) -> np.ndarray:
    """Centered differences of spray coefficients in the jet coordinates."""
    out = np.zeros((s.n, s.p, s.p, s.n, s.p))
    for k in range(s.n):
        for g in range(s.p):
            vp = u.v.copy(); vp[k, g] += eps
            vm = u.v.copy(); vm[k, g] -= eps
            plus = s.coefficients(JetPoint(u.t, u.x, vp))
            minus = s.coefficients(JetPoint(u.t, u.x, vm))
            out[:, :, :, k, g] = (plus - minus) / (2 * eps)
    return out


def walk_entries(tables, exprs, env) -> list:
    """`exprs`, entries of the JetTable `tables` or their jet gradients, at
    the jets bound in `env` (floats or numpy columns), after the det-g
    guard of each of its metrics: the DAG walk `exprlang.evaluate_table`,
    which shares no code with the compiled tables."""
    return evaluate_table(exprs, env, tables.guards)


def walk_batch(tables, T, X, V) -> np.ndarray:
    """The entries at q jets T (q, p), X (q, n), V (q, n, p), as an array of
    shape (q, *tables.shape), walked on numpy columns."""
    q = len(T)
    columns = [*np.asarray(T, float).T, *np.asarray(X, float).T,
               *np.asarray(V, float).reshape(q, tables.n * tables.p).T]
    values = walk_entries(tables, tables.entries, dict(zip(tables.names, columns)))
    return table_columns(values, q).reshape(q, *tables.shape)


def frozen_batch(tables, T, X, V) -> np.ndarray:
    """The entries at the same q jets as `walk_batch`, through the table's
    kernel frozen on the temporal nodes T (`Table.freeze`)."""
    q = len(T)
    frozen = tables.kernel.freeze(tables.names[:tables.p], list(np.asarray(T, float).T))
    values = frozen(*np.asarray(X, float).T, *np.asarray(V, float).reshape(q, -1).T)
    return table_columns(values, q).reshape(q, *tables.shape)


def walk_gradient(tables, u) -> np.ndarray:
    """The jet gradient d entry / d x^k_g at the jet u, of shape
    tables.shape + (n, p), walked on floats."""
    values = walk_entries(tables, tables.gradient_entries, jet_env(u))
    return np.array(values).reshape(*tables.shape, tables.n, tables.p)


def reference_affine_ode(pair, x0, v0, t_span, steps):
    """(ts, xs, vs) of classic RK4 for x'' = -2 (G + H)^{(i)}_{(1)1} on numpy
    vectors, each right-hand side a JetPoint through the sprays'
    `coefficients`; the reference for the float loop of `solve_affine_ode`."""
    n = pair.temporal.n
    t0, t1 = float(t_span[0]), float(t_span[1])
    dt = (t1 - t0) / steps

    def acc(t, x, v):
        u = JetPoint(np.array([t]), x, v.reshape(n, 1))
        total = pair.spatial.coefficients(u) + pair.temporal.coefficients(u)
        return -2.0 * total[:, 0, 0]

    ts = np.empty(steps + 1)
    xs = np.empty((steps + 1, n))
    vs = np.empty((steps + 1, n))
    t, x, v = t0, np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)
    ts[0], xs[0], vs[0] = t, x, v
    for k in range(steps):
        k1x, k1v = v, acc(t, x, v)
        k2x, k2v = v + 0.5 * dt * k1v, acc(t + 0.5 * dt, x + 0.5 * dt * k1x, v + 0.5 * dt * k1v)
        k3x, k3v = v + 0.5 * dt * k2v, acc(t + 0.5 * dt, x + 0.5 * dt * k2x, v + 0.5 * dt * k2v)
        k4x, k4v = v + dt * k3v, acc(t + dt, x + dt * k3x, v + dt * k3v)
        x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        t = t0 + (k + 1) * dt
        ts[k + 1], xs[k + 1], vs[k + 1] = t, x, v
    return ts, xs, vs


def reference_harmonic_residual(f, pair, h, t) -> np.ndarray:
    """(n,) array h^{ab} (x^i_{ab} + 2 G^{(i)}_{(a)b} + 2 H^{(i)}_{(a)b}) of
    the map f at t, from the sprays' `coefficients` and the metric's numpy
    inverse, contracted by one einsum: the reference for
    `maps.harmonic_residual`, which evaluates the grid solver's symbolic
    residual table."""
    t = np.asarray(t, dtype=float)
    u = f.jet_lift(t)
    hinv = h.inverse_batch(t)[0]
    coeffs = (f.second_derivatives(t)
              + 2.0 * pair.spatial.coefficients(u)
              + 2.0 * pair.temporal.coefficients(u))
    return np.einsum("ab,iab->i", hinv, coeffs)


def grid_level(residual, h, t1, t2):
    """The multigrid level on the nodes t1 x t2 that `solve_harmonic_grid`
    builds from the residual table `residual`."""
    from jetflow import maps

    return maps._Level(residual, h, t1, t2, maps._stencils(residual))


def reference_grid_residual(pair, T, hinv, d1, d2, vals):
    """The harmonic residual of the m x m grid values `vals` (m, m, n) at the
    interior nodes T ((m-2)^2, 2, row-major), as (q, n): second differences
    and jet coordinates from central differences with spacings d1 and d2,
    contracted with the metric inverse hinv (q, 2, 2).  The reference for
    `maps._Level.residual`; it shares no code with it."""
    m, n = vals.shape[0], vals.shape[2]

    def coefficients(spray, X, V):
        # the DAG walk of the spray's entries on the whole (T, X, V), not
        # the solver's frozen tables
        return walk_batch(spray.tables, T, X, V)

    c = vals[1:-1, 1:-1]                      # (m-2, m-2, n)
    e, w = vals[2:, 1:-1], vals[:-2, 1:-1]
    nn, ss = vals[1:-1, 2:], vals[1:-1, :-2]
    ne, sw = vals[2:, 2:], vals[:-2, :-2]
    nw, se = vals[:-2, 2:], vals[2:, :-2]
    d11 = (e - 2 * c + w) / d1 ** 2
    d22 = (nn - 2 * c + ss) / d2 ** 2
    d12 = (ne + sw - nw - se) / (4 * d1 * d2)
    v1 = (e - w) / (2 * d1)
    v2 = (nn - ss) / (2 * d2)
    q = (m - 2) * (m - 2)
    X = c.reshape(q, n)
    V = np.stack([v1.reshape(q, n), v2.reshape(q, n)], axis=2)  # (q, n, 2)
    coeffs = (coefficients(pair.spatial, X, V)
              + coefficients(pair.temporal, X, V))               # (q, n, 2, 2)
    x2 = np.empty((q, n, 2, 2))
    x2[:, :, 0, 0] = d11.reshape(q, n)
    x2[:, :, 1, 1] = d22.reshape(q, n)
    x2[:, :, 0, 1] = x2[:, :, 1, 0] = d12.reshape(q, n)
    return np.einsum("qab,qiab->qi", hinv, x2 + 2.0 * coeffs)   # (q, n)


def jacobi_harmonic_reference(pair, h, boundary, m=33, tol=1e-9, max_iters=20000,
                              damping=0.8, domain=None):
    """Damped Jacobi relaxation for the p = 2 harmonic map equation on an
    m x m grid, one sweep per iteration; the reference for the multigrid
    `solve_harmonic_grid`, whose single-level case is this loop.  Returns
    (status, sweeps, max_residual, t1, t2, values, history), history being
    max|R| after each sweep."""
    from jetflow.geometry import GeometryError

    n = pair.temporal.n
    box = list(domain) if domain is not None else (h.box or [(-1.0, 1.0), (-1.0, 1.0)])
    t1 = np.linspace(box[0][0], box[0][1], m)
    t2 = np.linspace(box[1][0], box[1][1], m)
    d1 = t1[1] - t1[0]
    d2 = t2[1] - t2[0]

    bmap = boundary
    values = np.zeros((m, m, n))
    for i in (0, m - 1):
        for j in range(m):
            values[i, j] = bmap(np.array([t1[i], t2[j]]))
            values[j, i] = bmap(np.array([t1[j], t2[i]]))

    # interior-node temporal coordinates, flattened row-major
    TT1, TT2 = np.meshgrid(t1[1:-1], t2[1:-1], indexing="ij")
    T = np.stack([TT1.ravel(), TT2.ravel()], axis=1)
    hinv = h.inverse_batch(T)                     # (q, 2, 2)
    kappa = 2.0 * (hinv[:, 0, 0] / d1 ** 2 + hinv[:, 1, 1] / d2 ** 2)   # (q,)
    if np.any(kappa <= 0):
        raise GeometryError("metric inverse is not positive on the grid diagonal")

    R = reference_grid_residual(pair, T, hinv, d1, d2, values)
    initial = float(np.max(np.abs(R)))
    if initial <= tol:
        return "converged", 0, initial, t1, t2, values, []
    status = "max-iterations"
    iterations = max_iters
    history = []
    for sweep in range(1, max_iters + 1):
        step = (damping * R / kappa[:, None]).reshape(m - 2, m - 2, n)
        values[1:-1, 1:-1] += step
        R = reference_grid_residual(pair, T, hinv, d1, d2, values)
        worst = float(np.max(np.abs(R)))
        history.append(worst)
        if worst <= tol:
            status, iterations = "converged", sweep
            break
        if worst > 10.0 * max(initial, 1e-30) or not np.isfinite(worst):
            status, iterations = "diverged", sweep
            break
    return status, iterations, float(np.max(np.abs(R))), t1, t2, values, history


# --- reference symbolic rules: plain recursion, no memo ----------------------


def naive_diff(e, name: str):
    """Partial derivative by the textbook recursion, re-differentiating every
    occurrence of a shared subtree; the reference for the memoised `diff`."""
    from jetflow import exprlang as ex

    d = lambda c: naive_diff(c, name)
    if isinstance(e, ex.Num):
        return ex.Num(0.0)
    if isinstance(e, ex.Var):
        return ex.Num(1.0 if e.name == name else 0.0)
    if isinstance(e, ex.Neg):
        return ex.neg(d(e.a))
    if isinstance(e, ex.Add):
        return ex.add(d(e.a), d(e.b))
    if isinstance(e, ex.Sub):
        return ex.sub(d(e.a), d(e.b))
    if isinstance(e, ex.Mul):
        return ex.add(ex.mul(d(e.a), e.b), ex.mul(e.a, d(e.b)))
    if isinstance(e, ex.Div):
        db = d(e.b)
        if isinstance(db, ex.Num) and db.value == 0.0:
            return ex.div(d(e.a), e.b)
        return ex.sub(ex.div(d(e.a), e.b), ex.div(ex.mul(e.a, db), ex.pow_(e.b, 2)))
    if isinstance(e, ex.Pow):
        k = e.exponent
        if k == 0:
            return ex.Num(0.0)
        return ex.mul(ex.mul(ex.Num(float(k)), ex.pow_(e.base, k - 1)), d(e.base))
    if isinstance(e, ex.Call):
        return ex.mul(ex._fn_derivative(e.fn, e.arg), d(e.arg))
    raise TypeError(type(e).__name__)


def naive_subst(e, mapping):
    """Substitution by plain recursion; the reference for the memoised `subst`."""
    from jetflow import exprlang as ex

    s = lambda c: naive_subst(c, mapping)
    if isinstance(e, ex.Num):
        return e
    if isinstance(e, ex.Var):
        return mapping.get(e.name, e)
    if isinstance(e, ex.Neg):
        return ex.neg(s(e.a))
    if isinstance(e, ex.Pow):
        return ex.pow_(s(e.base), e.exponent)
    if isinstance(e, ex.Call):
        return ex.call(e.fn, s(e.arg))
    ctor = {ex.Add: ex.add, ex.Sub: ex.sub, ex.Mul: ex.mul, ex.Div: ex.div}[type(e)]
    return ctor(s(e.a), s(e.b))


def node_objects(e) -> list:
    """The distinct node objects reachable from e."""
    from jetflow import exprlang as ex

    seen, todo = {}, [e]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        todo.extend(getattr(node, f) for f in ("a", "b", "base", "arg")
                    if isinstance(getattr(node, f, None), ex.Expr))
    return list(seen.values())


def distinct_nodes(e) -> int:
    """Number of distinct node objects reachable from e."""
    return len(node_objects(e))


@contextlib.contextmanager
def collector_paused():
    """The cyclic collector disabled for the block, then as it was: inside,
    only reference counting frees objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
