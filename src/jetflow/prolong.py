"""Jet prolongation of vector fields on the product of the temporal and
spatial manifolds.

A base vector field X = X^a(t,x) @/@t^a + X^i(t,x) @/@x^i prolongs to the
first jet space with vertical components

    X^{(i)}_{(a)} = D_a X^i - (D_a X^b) x^i_b,
    D_a f = @f/@t^a + x^j_a @f/@x^j,

so that the prolongation is the infinitesimal generator of the jet lift of
the flow of X.  The prolongation, the horizontal lift through a nonlinear
connection and the vertical gap between them (a d-tensor field) are each
one `jetspace.JetTable` of symbolic entries, built from the field's
Jacobian by one total derivative (`_total`) and from the connection's
entries; the total and adapted derivatives of a function evaluate one
table too.  The flow transport that verifies the prolongation runs the
flow of X and its variational equations (the flow's Jacobian on the jet's
p tangent directions) as one generated RK4 loop per field
(`exprlang.compile_rk4`); the tests keep central differences of the flow
as its reference.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .exprlang import (Expr, add, compile_floats, compile_rk4, foreign_vars, mul, neg, parse,
                       partials, sub, subst, total, var)
from .dtensor import DTensorField, IndexSignature
from .connection import NonlinearConnection
from .numdiff import ChangeMap, jet_name, jet_names, spatial_names, temporal_names
from .jetspace import JetPoint, JetTable, frame_size

__all__ = [
    "ProlongError", "BaseVectorField",
    "total_derivative", "olver_prolong", "pushforward",
    "flow_transport", "prolongation_flow_error",
    "horizontal_lift", "vertical_gap_field",
    "adapted_t_derivative", "adapted_x_derivative",
]


class ProlongError(ValueError):
    pass


def _total(row: Sequence[Expr], p: int, n: int) -> list[Expr]:
    """D_a f = @f/@t^a + x^j_a @f/@x^j for a = 1..p, from the partials row
    (@f/@t^1..@f/@t^p, @f/@x^1..@f/@x^n), summed left to right."""
    return [total([row[a], *(mul(var(jet_name(j + 1, a + 1)), row[p + j]) for j in range(n))])
            for a in range(p)]


class BaseVectorField:
    """Vector field on the product manifold: p temporal and n spatial
    component expressions, each in the variables t1..tp, x1..xn.

    Its components are the first p + n entries of its prolongation's table
    (`olver_prolong(X).at(u)[:p + n]`).  Its flow, with the variational
    equations of the p directions that a jet transports, runs as one
    generated RK4 loop (`compile_rk4`), built on first use, that calls one
    compiled float table once per stage.  It runs on Python floats, so the
    flowed (t, x) agree bit for bit with `Expr.eval`.  The symbolic
    Jacobian (`_jacobian`) is shared by the loop and the prolongation
    (`olver_prolong`), which is built once per field.
    """

    def __init__(self, p: int, n: int, temporal: Sequence[Expr | str],
                 spatial: Sequence[Expr | str], name: str = "vector-field"):
        if len(temporal) != p or len(spatial) != n:
            raise ProlongError("component count does not match dimensions")
        self.p, self.n, self.name = int(p), int(n), name
        conv = lambda c: parse(c) if isinstance(c, str) else c
        self.temporal = [conv(c) for c in temporal]
        self.spatial = [conv(c) for c in spatial]
        found = foreign_vars(self.temporal + self.spatial, self.variables)
        if found:
            raise ProlongError(f"component references foreign variables {found[1]}")
        self._pushed: dict[ChangeMap, BaseVectorField] = {}   # see pushforward
        self._prolongation: JetTable | None = None            # see olver_prolong

    @property
    def variables(self) -> list[str]:
        return temporal_names(self.p) + spatial_names(self.n)

    @cached_property
    def _jacobian(self) -> list[list[Expr]]:
        """DX: per component, its partials in t1..tp, x1..xn."""
        return partials(self.temporal + self.spatial, self.variables)

    @cached_property
    def _tangent_flow(self) -> Callable[..., tuple]:
        """RK4 in the parameter s for the flow y' = X(y), y = (t, x), and
        its variational equations W' = DX(y) W, W an (m, p) matrix kept
        row by row as w{l}_{a} (m = p + n): the state is (y, W).  The
        slopes of y come first and read y alone, so y's values are those
        of the flow without W."""
        m, p = len(self.variables), self.p
        w = [[f"w{l}_{a}" for a in range(p)] for l in range(m)]
        tangent = [total(mul(d, var(w[l][a])) for l, d in enumerate(row))
                   for row in self._jacobian for a in range(p)]
        rhs = compile_floats(self.temporal + self.spatial + tangent,
                             ["s", *self.variables, *(name for row in w for name in row)])
        return compile_rk4(m + m * p, rhs)


def total_derivative(f: Expr | str, u: JetPoint) -> np.ndarray:
    """D_a f = @f/@t^a + x^j_a @f/@x^j for f a function of (t, x), as a (p,)
    array at the jet point u.  A jet variable in f is an error: its D_a
    would need the second-order jet."""
    e = parse(f) if isinstance(f, str) else f
    base = temporal_names(u.p) + spatial_names(u.n)
    found = foreign_vars([e], base)
    if found:
        raise ProlongError(f"total_derivative takes a function of (t, x); f references "
                           f"foreign variables {found[1]}")
    return JetTable(u.p, u.n, (u.p,), [], lambda: _total(partials([e], base)[0], u.p, u.n)).at(u)


def olver_prolong(X: BaseVectorField) -> JetTable:
    """First prolongation pr1(X), the table of its natural components
    [X^a, X^i, X^{(i)}_{(a)}] (vertical index fused as i*p + a) with
    X^{(i)}_{(a)} = D_a X^i - (D_a X^b) x^i_b.  Built once per field, with
    its entries, which refer to the field's components, not to the field."""
    if X._prolongation is None:
        p, n = X.p, X.n
        D = [_total(row, p, n) for row in X._jacobian]        # D[k][a] = D_a X^k
        entries = X.temporal + X.spatial + [
            sub(D[p + i][a], total(mul(var(jet_name(i + 1, b + 1)), D[b][a]) for b in range(p)))
            for i in range(n) for a in range(p)]
        X._prolongation = JetTable(p, n, (frame_size(p, n),), [], lambda: entries)
    return X._prolongation


def pushforward(X: BaseVectorField, change: ChangeMap) -> BaseVectorField:
    """The same field written in the target chart:
    X~^m = (dt~^m/dt^b) X^b and X~^k = (dx~^k/dx^i) X^i, composed with the
    inverse chart map (all symbolic).  Built once per (field, change): every
    caller shares the pushed field and its compiled tables."""
    if (X.p, X.n) != (change.p, change.n):
        raise ProlongError("field and chart change live on different manifolds")
    if change in X._pushed:
        return X._pushed[change]
    back = dict(zip(temporal_names(X.p), change.inverse_t))
    back.update(zip(spatial_names(X.n), change.inverse_x))

    def push(rows: list[list[Expr]], comps: list[Expr]) -> list[Expr]:
        return [subst(total(mul(d, comp) for d, comp in zip(row, comps)), back)
                for row in rows]

    pushed = X._pushed[change] = BaseVectorField(X.p, X.n,
                                                 push(change._dft, X.temporal),
                                                 push(change._dfx, X.spatial),
                                                 name=f"{X.name}@{change.name}")
    return pushed


# ---------------------------------------------------------------------------
# flow-transport oracle


def flow_transport(X: BaseVectorField, u: JetPoint, eps: float,
                   substeps: int = 16) -> JetPoint:
    """Transport of the jet u by the time-eps flow (PhiT, PhiM) of X: the
    base point flows, and the jet matrix transports through the flow's
    Jacobian as  v~ = (dPhiM/dt + dPhiM/dx v)(dPhiT/dt + dPhiT/dx v)^-1.
    One RK4 loop of `substeps` steps (`BaseVectorField._tangent_flow`)
    carries (t, x) and W = d(PhiT, PhiM)/d(t, x) [I_p; v] from W(0) = [I_p; v],
    so v~ = W_x W_t^-1."""
    p, m = X.p, X.p + X.n
    w0 = np.vstack([np.eye(p), u.v])
    end = X._tangent_flow(0.0, *u.t.tolist(), *u.x.tolist(), *w0.ravel().tolist(),
                          eps / substeps, substeps, None)
    W = np.array(end[1 + m:]).reshape(m, p)
    v_new = W[p:] @ np.linalg.inv(W[:p])
    return JetPoint(np.array(end[1:1 + p]), np.array(end[1 + p:1 + m]), v_new)


def prolongation_flow_error(X: BaseVectorField, jets: Sequence[JetPoint],
                            eps: float, substeps: int = 16) -> float:
    """Max abs difference between the central flow difference
    (transport(+eps) - transport(-eps)) / (2 eps) and the prolongation."""
    pr, p, m = olver_prolong(X), X.p, X.p + X.n
    worst = 0.0
    for u in jets:
        up = flow_transport(X, u, +eps, substeps)
        um = flow_transport(X, u, -eps, substeps)
        z = pr.at(u)
        for moved, want in ((up.t - um.t, z[:p]), (up.x - um.x, z[p:m]),
                            ((up.v - um.v).ravel(), z[m:])):
            worst = max(worst, float(np.max(np.abs(moved / (2 * eps) - want))))
    return worst


# ---------------------------------------------------------------------------
# horizontal lift and vertical gap


def horizontal_lift(X: BaseVectorField, conn: NonlinearConnection) -> JetTable:
    """X^H = X^a d/dt^a + X^i d/dx^i in the adapted frame of conn, as the
    table of its natural components [X^a, X^i, vertical] with vertical
    components -(M^{(j)}_{(b)a} X^a + N^{(j)}_{(b)i} X^i), fused as j*p + b."""
    if (X.p, X.n) != (conn.p, conn.n):
        raise ProlongError("field and connection live on different jet spaces")
    p, n = X.p, X.n

    def entries() -> list[Expr]:
        M, N = conn.M.entries, conn.N.entries
        return X.temporal + X.spatial + [
            neg(add(total(mul(M[(j * p + b) * p + a], X.temporal[a]) for a in range(p)),
                    total(mul(N[(j * p + b) * n + i], X.spatial[i]) for i in range(n))))
            for j in range(n) for b in range(p)]

    return JetTable(p, n, (frame_size(p, n),), [*conn.M.guards, *conn.N.guards], entries)


def vertical_gap_field(X: BaseVectorField, conn: NonlinearConnection) -> DTensorField:
    """pr1(X) - X^H: purely vertical, and a d-tensor field."""
    lift, m = horizontal_lift(X, conn), X.p + X.n
    entries = lambda: [sub(a, b) for a, b in zip(olver_prolong(X).entries[m:], lift.entries[m:])]
    return DTensorField(f"vertical-gap[{X.name}]", IndexSignature.parse("U(i,a)"),
                        JetTable(X.p, X.n, (X.n * X.p,), lift.guards, entries),
                        rebuild=lambda c: vertical_gap_field(pushforward(X, c), conn.in_chart(c)))


# ---------------------------------------------------------------------------
# adapted derivatives of jet-space functions


def _adapted(f: Expr | str, base: list[str], coefficients: JetTable, u: JetPoint) -> np.ndarray:
    """@f/@y^c - C^{(j)}_{(b)c} @f/@x^j_b at u for the base names y^c, C the
    (n, p, len(base)) table of connection coefficients."""
    e = parse(f) if isinstance(f, str) else f
    p, n, k = coefficients.p, coefficients.n, len(base)

    def entries() -> list[Expr]:
        row, C = partials([e], [*base, *jet_names(n, p)])[0], coefficients.entries
        return [sub(row[c], total(mul(C[v * k + c], row[k + v]) for v in range(n * p)))
                for c in range(k)]

    return JetTable(p, n, (k,), coefficients.guards, entries).at(u)


def adapted_t_derivative(f: Expr | str, conn: NonlinearConnection,
                         u: JetPoint) -> np.ndarray:
    """(d/dt^a) f = @f/@t^a - M^{(j)}_{(b)a} @f/@x^j_b for f a function of
    the jet coordinates, as a (p,) array."""
    return _adapted(f, temporal_names(conn.p), conn.M, u)


def adapted_x_derivative(f: Expr | str, conn: NonlinearConnection,
                         u: JetPoint) -> np.ndarray:
    """(d/dx^i) f = @f/@x^i - N^{(j)}_{(b)i} @f/@x^j_b, as an (n,) array."""
    return _adapted(f, spatial_names(conn.n), conn.N, u)
