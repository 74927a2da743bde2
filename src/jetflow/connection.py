"""Nonlinear connections on the first jet space.

A connection is a pair of coefficient fields

    M^{(j)}_{(b)a}  (n, p, p)   temporal components, layout [j, b, a]
    N^{(j)}_{(b)i}  (n, p, n)   spatial components,  layout [j, b, i]

chosen so that the adapted frame

    d/dt^a = @/@t^a - M^{(j)}_{(b)a} @/@x^j_b
    d/dx^i = @/@x^i - N^{(j)}_{(b)i} @/@x^j_b
    @/@x^j_b                                  (vertical, unchanged)

transforms block-diagonally between charts.  Matching vertical coefficients
of the frame vectors across a chart change and solving gives

    M~[k,m,g] = M[j,b,a] B[k,j] Ainv[b,m] Ainv[a,g] - Wt[k,m,a] Ainv[a,g]
    N~[k,m,l] = N[j,b,i] B[k,j] Ainv[b,m] Binv[i,l] - Wx[k,m,i] Binv[i,l]

A pair of sprays induces a connection (M = 2H, N from the jet gradient of
the h-trace of the spatial spray) and a connection induces sprays
(H = M/2, 2 G^{(i)}_{(a)b} = N^{(i)}_{(a)j} x^j_b); on canonical sprays the
round trip is exact.

M and N are two `jetspace.JetTable`s, symbolic entries over the jet
variables, so every connection, and every spray it induces, is
evaluated, and enters the solvers' tables, as a canonical spray does.  Both
directions build entries from entries: the jet gradient of the h-trace is
its symbolic derivative.  The tables of a canonical connection are shared
per metric and other dimension, like the canonical sprays' tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dtensor import Verdict, law_check
from .exprlang import Expr, mul, neg, num, total, var
from .geometry import Metric, pullback_metric
from .numdiff import ChangeMap, jet_name
from .jetspace import (JetPoint, JetTable, adapted_frame_blocks, frame_size,
                       mixed_jet_derivatives)
from .sprays import Spray, SprayPair, _shared, h_trace

__all__ = [
    "ConnectionError_", "NonlinearConnection", "canonical_connection",
    "transform_connection_m", "transform_connection_n", "connection_law_error",
    "adapted_frame", "adapted_coframe", "adapted_frame_blocks",
    "connection_from_sprays", "sprays_from_connection",
]


class ConnectionError_(ValueError):
    """Connection construction or transformation failure."""


@dataclass(frozen=True)
class NonlinearConnection:
    """M and N as jet tables.  `rebuild` gives the native form in a change's
    target chart (`in_chart`); None means there is none.  A derived
    connection's native form is its constructor on its parts' native forms,
    so a part with none raises its own error."""

    M: JetTable                                   # temporal components, (n, p, p)
    N: JetTable                                   # spatial components, (n, p, n)
    rebuild: Callable[[ChangeMap], "NonlinearConnection"] | None = None
    name: str = "connection"

    def __post_init__(self):
        p, n = self.p, self.n
        if (self.M.shape, self.N.shape, self.N.p) != ((n, p, p), (n, p, n), p):
            raise ConnectionError_("M and N are (n, p, p) and (n, p, n) tables on one jet space")

    p = property(lambda self: self.M.p)
    n = property(lambda self: self.M.n)

    def in_chart(self, change: ChangeMap) -> "NonlinearConnection":
        if self.rebuild is None:
            raise ConnectionError_(f"connection '{self.name}' has no chart-native form")
        return self.rebuild(change)


def canonical_connection(h: Metric, phi: Metric) -> NonlinearConnection:
    """M^{(j)}_{(b)a} = -H^g_{ba} x^j_g,  N^{(j)}_{(b)i} = gamma^j_{ik} x^k_b."""
    if h.kind != "temporal" or phi.kind != "spatial":
        raise ConnectionError_("canonical connection needs a temporal and a spatial metric")
    p, n = h.dim, phi.dim

    def m_entries(gamma) -> list[Expr]:
        return [neg(total(mul(gamma[g][b][a], var(jet_name(j + 1, g + 1)))
                          for g in range(p)))
                for j in range(n) for b in range(p) for a in range(p)]

    def n_entries(gamma) -> list[Expr]:
        return [total(mul(gamma[j][i][k], var(jet_name(k + 1, b + 1))) for k in range(n))
                for j in range(n) for b in range(p) for i in range(n)]

    return NonlinearConnection(
        _shared(h, "connection", n, (n, p, p), m_entries),
        _shared(phi, "connection", p, (n, p, n), n_entries),
        rebuild=lambda c: canonical_connection(pullback_metric(h, c),
                                               pullback_metric(phi, c)),
        name=f"canonical[{h.name},{phi.name}]")


# ---------------------------------------------------------------------------
# transformation law


def transform_connection_m(conn: NonlinearConnection, change: ChangeMap,
                           u: JetPoint) -> np.ndarray:
    jb, Wt, _ = mixed_jet_derivatives(change, u)
    tensor = np.einsum("jba,kj,bm,ag->kmg", conn.M.at(u), jb.B, jb.A_inv, jb.A_inv)
    return tensor - np.einsum("kma,ag->kmg", Wt, jb.A_inv)


def transform_connection_n(conn: NonlinearConnection, change: ChangeMap,
                           u: JetPoint) -> np.ndarray:
    jb, _, Wx = mixed_jet_derivatives(change, u)
    tensor = np.einsum("jbi,kj,bm,il->kml", conn.N.at(u), jb.B, jb.A_inv, jb.B_inv)
    return tensor - np.einsum("kmi,il->kml", Wx, jb.B_inv)


def connection_law_error(conn: NonlinearConnection, changes: Sequence[ChangeMap],
                         jets: Sequence[JetPoint], tol: float = 1e-8) -> Verdict:
    """Compare both coefficient laws against the chart-native recompute,
    with M and N raveled into one component vector per pair."""
    def predict(change: ChangeMap, u: JetPoint) -> np.ndarray:
        return np.concatenate([transform_connection_m(conn, change, u).ravel(),
                               transform_connection_n(conn, change, u).ravel()])

    def native(change: ChangeMap) -> Callable[[JetPoint], np.ndarray]:
        c = conn.in_chart(change)
        return lambda u: np.concatenate([c.M.at(u).ravel(), c.N.at(u).ravel()])

    return law_check(predict, native, changes, jets, tol)


# ---------------------------------------------------------------------------
# adapted frame / coframe


def adapted_frame(conn: NonlinearConnection, u: JetPoint) -> np.ndarray:
    """Rows are the adapted frame vectors in natural components, ordered
    [d/dt^a, d/dx^i, @/@x^j_b] with the vertical index fused as j*p + b."""
    p, n = conn.p, conn.n
    sz = frame_size(p, n)
    F = np.eye(sz)
    F[:p, p + n:] = -conn.M.at(u).reshape(n * p, p).T
    F[p:p + n, p + n:] = -conn.N.at(u).reshape(n * p, n).T
    return F


def adapted_coframe(conn: NonlinearConnection, u: JetPoint) -> np.ndarray:
    """Rows are the adapted coframe covectors in natural components:
    dt^a, dx^i, and dx^j_b + M^{(j)}_{(b)a} dt^a + N^{(j)}_{(b)i} dx^i."""
    p, n = conn.p, conn.n
    sz = frame_size(p, n)
    C = np.eye(sz)
    C[p + n:, :p] = conn.M.at(u).reshape(n * p, p)
    C[p + n:, p:p + n] = conn.N.at(u).reshape(n * p, n)
    return C


# ---------------------------------------------------------------------------
# sprays <-> connection


def connection_from_sprays(pair: SprayPair, h: Metric) -> NonlinearConnection:
    """M = 2H; N^{(i)}_{(a)j} = (dG^i/dx^j_g) h_{ga}, with dG^i/dx^j_g the
    symbolic jet gradient of the h-trace G^i of the spatial spray."""
    H, G = pair.temporal, pair.spatial
    if (H.p, H.n) != (G.p, G.n):
        raise ConnectionError_("spray pair lives on different jet spaces")
    if h.kind != "temporal" or h.dim != H.p:
        raise ConnectionError_("h must be a temporal metric of matching dimension")
    p, n = H.p, H.n
    trace = h_trace(G, h)

    def m_entries() -> list[Expr]:
        return [mul(num(2.0), e) for e in H.tables.entries]

    def n_entries() -> list[Expr]:
        grad, hc = trace.gradient_entries, h.components      # grad[(i*n + j)*p + g]
        return [total(mul(grad[(i * n + j) * p + g], hc[g][a]) for g in range(p))
                for i in range(n) for a in range(p) for j in range(n)]

    return NonlinearConnection(
        JetTable(p, n, (n, p, p), H.tables.guards, m_entries),
        JetTable(p, n, (n, p, n), trace.guards, n_entries),
        rebuild=lambda c: connection_from_sprays(SprayPair(H.in_chart(c), G.in_chart(c)),
                                                 pullback_metric(h, c)),
        name=f"from-sprays[{H.name},{G.name}]")


def sprays_from_connection(conn: NonlinearConnection) -> SprayPair:
    """H = M/2 and 2 G^{(i)}_{(a)b} = N^{(i)}_{(a)j} x^j_b."""
    p, n = conn.p, conn.n

    def h_entries() -> list[Expr]:
        return [mul(num(0.5), e) for e in conn.M.entries]

    def g_entries() -> list[Expr]:
        N = conn.N.entries
        return [mul(num(0.5), total(mul(N[(i * p + a) * n + j], var(jet_name(j + 1, b + 1)))
                                    for j in range(n)))
                for i in range(n) for a in range(p) for b in range(p)]

    return SprayPair(
        Spray("temporal", JetTable(p, n, (n, p, p), conn.M.guards, h_entries),
              rebuild=lambda c: sprays_from_connection(conn.in_chart(c)).temporal,
              name=f"temporal[{conn.name}]"),
        Spray("spatial", JetTable(p, n, (n, p, p), conn.N.guards, g_entries),
              rebuild=lambda c: sprays_from_connection(conn.in_chart(c)).spatial,
              name=f"spatial[{conn.name}]"))
