"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from jetflow import numdiff as nd
from jetflow.geometry import metric_from_name, pullback_metric
from jetflow.jetspace import random_jet

TOL_LAW = 1e-8          # transformation-law agreement
TOL_EXACT = 1e-12       # identities that hold to rounding


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


def fd_spray_gradient(s, u, eps: float = 1e-6) -> np.ndarray:
    """Centered differences of spray coefficients in the jet coordinates."""
    from jetflow.jetspace import JetPoint
    out = np.zeros((s.n, s.p, s.p, s.n, s.p))
    for k in range(s.n):
        for g in range(s.p):
            vp = u.v.copy(); vp[k, g] += eps
            vm = u.v.copy(); vm[k, g] -= eps
            plus = s.coefficients(JetPoint(u.t, u.x, vp))
            minus = s.coefficients(JetPoint(u.t, u.x, vm))
            out[:, :, :, k, g] = (plus - minus) / (2 * eps)
    return out


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
        return ex.sub(ex.div(d(e.a), e.b), ex.div(ex.mul(e.a, d(e.b)), ex.pow_(e.b, 2)))
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


def distinct_nodes(e) -> int:
    """Number of distinct node objects reachable from e."""
    from jetflow import exprlang as ex

    seen, todo = set(), [e]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        todo.extend(getattr(node, f) for f in ("a", "b", "base", "arg")
                    if isinstance(getattr(node, f, None), ex.Expr))
    return len(seen)
