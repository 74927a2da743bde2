"""Jet prolongation of vector fields on the product of the temporal and
spatial manifolds.

A base vector field X = X^a(t,x) @/@t^a + X^i(t,x) @/@x^i prolongs to the
first jet space with vertical components

    X^{(i)}_{(a)} = D_a X^i - (D_a X^b) x^i_b,
    D_a f = @f/@t^a + x^j_a @f/@x^j,

so that the prolongation is the infinitesimal generator of the jet lift of
the flow of X.  The module also provides the flow transport used to verify
that statement numerically: the flow of X and its variational equations
(the flow's Jacobian applied to the jet's p tangent directions) run as one
generated RK4 loop of p + n + (p + n)p states per field
(`exprlang.compile_rk4`); the tests keep central differences of the flow
as its reference.  It also provides the horizontal lift through a
nonlinear connection, and the vertical gap between prolongation and
horizontal lift (a d-tensor field).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .exprlang import (Expr, compile_floats, compile_rk4, compile_table, foreign_vars, mul,
                       parse, partials, subst, total, var)
from .dtensor import DTensorField, IndexSignature
from .connection import NonlinearConnection
from .numdiff import ChangeMap, jet_names, spatial_names, temporal_names
from .jetspace import JetPoint, JetTable, frame_size

__all__ = [
    "ProlongError", "BaseVectorField", "JetVectorField",
    "total_derivative", "olver_prolong", "pushforward",
    "flow_transport", "prolongation_flow_error",
    "horizontal_lift", "vertical_gap_field",
    "adapted_t_derivative", "adapted_x_derivative",
]


class ProlongError(ValueError):
    pass


def _total_derivatives(rows: Sequence[tuple], u: JetPoint) -> np.ndarray:
    """D_a f = @f/@t^a + x^j_a @f/@x^j for each row of partials
    (@f/@t^1..@f/@t^p, @f/@x^1..@f/@x^n); shape (rows, p)."""
    p = u.p
    return np.array([np.array(row[:p]) + u.v.T @ np.array(row[p:]) for row in rows])


class BaseVectorField:
    """Vector field on the product manifold: p temporal and n spatial
    component expressions, each in the variables t1..tp, x1..xn.

    Numeric values come from two compiled tables (`compile_table`), each
    built on first use: the p + n components, and their first partials.
    Its flow, with the variational equations of the p directions that a
    jet transports, runs as one generated RK4 loop (`compile_rk4`), also
    built on first use, that calls one compiled float table once per
    stage.  All run on Python floats, so the components, and the flowed
    (t, x), agree bit for bit with `Expr.eval`.
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

    @property
    def variables(self) -> list[str]:
        return temporal_names(self.p) + spatial_names(self.n)

    @cached_property
    def _values(self) -> Callable[..., tuple]:
        """The p + n components as a function of t1..tp, x1..xn."""
        return compile_table(self.temporal + self.spatial, self.variables)

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

    @cached_property
    def _gradients(self) -> Callable[..., list[tuple]]:
        """The values of `_jacobian`, one tuple of floats per component, as a
        function of t1..tp, x1..xn."""
        m = len(self.variables)
        kernel = compile_table([d for row in self._jacobian for d in row], self.variables)

        def at(*values: float) -> list[tuple]:
            out = kernel(*values)
            return [out[k:k + m] for k in range(0, len(out), m)]

        return at

    def __call__(self, t: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = self._values(*np.asarray(t, float).tolist(), *np.asarray(x, float).tolist())
        return np.array(out[:self.p]), np.array(out[self.p:])


def total_derivative(f: Expr | str, u: JetPoint) -> np.ndarray:
    """D_a f = @f/@t^a + x^j_a @f/@x^j for f a function of (t, x), as a (p,)
    array at the jet point u."""
    base, _ = _jet_partials(f, temporal_names(u.p) + spatial_names(u.n), u)
    return _total_derivatives([base], u)[0]


@dataclass(frozen=True)
class JetVectorField:
    """Vector field on the jet space in natural components: callables for the
    temporal (p,), spatial (n,) and vertical (n, p) parts."""

    p: int
    n: int
    temporal: Callable[[JetPoint], np.ndarray]
    spatial: Callable[[JetPoint], np.ndarray]
    vertical: Callable[[JetPoint], np.ndarray]
    name: str = "jet-vector-field"

    def packed(self, u: JetPoint) -> np.ndarray:
        """Natural-frame components ordered [t, x, fused vertical i*p+a]."""
        out = np.empty(frame_size(self.p, self.n))
        out[:self.p] = self.temporal(u)
        out[self.p:self.p + self.n] = self.spatial(u)
        out[self.p + self.n:] = self.vertical(u).reshape(self.n * self.p)
        return out


def _over_base(X: BaseVectorField, vertical: Callable[[JetPoint], np.ndarray],
               name: str) -> JetVectorField:
    """The jet field whose temporal and spatial parts are X at the base
    point of the jet, with the given vertical part."""
    return JetVectorField(X.p, X.n, lambda u: X(u.t, u.x)[0], lambda u: X(u.t, u.x)[1],
                          vertical, name=name)


def olver_prolong(X: BaseVectorField) -> JetVectorField:
    """First prolongation: vertical part D_a X^i - (D_a X^b) x^i_b."""
    p = X.p

    def vertical(u: JetPoint) -> np.ndarray:
        rows = X._gradients(*u.t.tolist(), *u.x.tolist())
        Dt = _total_derivatives(rows[:p], u)    # (p, p) [b, a]
        Dx = _total_derivatives(rows[p:], u)    # (n, p) [i, a]
        return Dx - u.v @ Dt

    return _over_base(X, vertical, f"pr1[{X.name}]")


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
    pr = olver_prolong(X)
    worst = 0.0
    for u in jets:
        up = flow_transport(X, u, +eps, substeps)
        um = flow_transport(X, u, -eps, substeps)
        diff_t = (up.t - um.t) / (2 * eps)
        diff_x = (up.x - um.x) / (2 * eps)
        diff_v = (up.v - um.v) / (2 * eps)
        worst = max(worst, float(np.max(np.abs(diff_t - pr.temporal(u)))))
        worst = max(worst, float(np.max(np.abs(diff_x - pr.spatial(u)))))
        worst = max(worst, float(np.max(np.abs(diff_v - pr.vertical(u)))))
    return worst


# ---------------------------------------------------------------------------
# horizontal lift and vertical gap


def horizontal_lift(X: BaseVectorField, conn: NonlinearConnection) -> JetVectorField:
    """X^H = X^a d/dt^a + X^i d/dx^i in the adapted frame of conn; vertical
    natural components -(M^{(j)}_{(b)a} X^a + N^{(j)}_{(b)i} X^i)."""
    if (X.p, X.n) != (conn.p, conn.n):
        raise ProlongError("field and connection live on different jet spaces")

    def vertical(u: JetPoint) -> np.ndarray:
        Xt, Xx = X(u.t, u.x)
        return -(np.einsum("jba,a->jb", conn.M.at(u), Xt)
                 + np.einsum("jbi,i->jb", conn.N.at(u), Xx))

    return _over_base(X, vertical, f"horizontal[{X.name}]")


_GAP_SIG = IndexSignature.parse("U(i,a)")


def vertical_gap_field(X: BaseVectorField, conn: NonlinearConnection) -> DTensorField:
    """pr1(X) - X^H: purely vertical, and a d-tensor field."""
    pr = olver_prolong(X)
    lift = horizontal_lift(X, conn)
    p, n = X.p, X.n

    def comps(u: JetPoint) -> np.ndarray:
        return (pr.vertical(u) - lift.vertical(u)).reshape(n * p)

    return DTensorField(f"vertical-gap[{X.name}]", _GAP_SIG, p, n, comps,
                        rebuild=lambda c: vertical_gap_field(pushforward(X, c), conn.in_chart(c)))


# ---------------------------------------------------------------------------
# adapted derivatives of jet-space functions


def _jet_partials(f: Expr | str, base: Sequence[str],
                  u: JetPoint) -> tuple[np.ndarray, np.ndarray]:
    """Partials of a jet-space function at u: in the base names, as a vector,
    and in the jet coordinates, as an (n, p) matrix."""
    e = parse(f) if isinstance(f, str) else f
    wrt = [*base, *jet_names(u.n, u.p)]
    row = JetTable(u.p, u.n, (len(wrt),), [], lambda: partials([e], wrt)[0]).at(u)
    return row[:len(base)], row[len(base):].reshape(u.n, u.p)


def adapted_t_derivative(f: Expr | str, conn: NonlinearConnection,
                         u: JetPoint) -> np.ndarray:
    """(d/dt^a) f = @f/@t^a - M^{(j)}_{(b)a} @f/@x^j_b for f a function of
    the jet coordinates, as a (p,) array."""
    dt, dv = _jet_partials(f, temporal_names(conn.p), u)
    return dt - np.einsum("jba,jb->a", conn.M.at(u), dv)


def adapted_x_derivative(f: Expr | str, conn: NonlinearConnection,
                         u: JetPoint) -> np.ndarray:
    """(d/dx^i) f = @f/@x^i - N^{(j)}_{(b)i} @f/@x^j_b, as an (n,) array."""
    dx, dv = _jet_partials(f, spatial_names(conn.n), u)
    return dx - np.einsum("jbi,jb->i", conn.N.at(u), dv)
