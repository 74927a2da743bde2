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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dtensor import Verdict, law_check
from .geometry import Metric, pullback_metric
from .numdiff import ChangeMap
from .jetspace import JetPoint, adapted_frame_blocks, frame_size, mixed_jet_derivatives
from .sprays import Spray, SprayPair, h_trace

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
    p: int
    n: int
    temporal: Callable[[JetPoint], np.ndarray]    # M, (n, p, p)
    spatial: Callable[[JetPoint], np.ndarray]     # N, (n, p, n)
    rebuild: Callable[[ChangeMap], "NonlinearConnection"] | None = None
    name: str = "connection"

    def in_chart(self, change: ChangeMap) -> "NonlinearConnection":
        if self.rebuild is None:
            raise ConnectionError_(f"connection '{self.name}' has no chart-native form")
        return self.rebuild(change)


def canonical_connection(h: Metric, phi: Metric) -> NonlinearConnection:
    """M^{(j)}_{(b)a} = -H^g_{ba} x^j_g,  N^{(j)}_{(b)i} = gamma^j_{ik} x^k_b."""
    if h.kind != "temporal" or phi.kind != "spatial":
        raise ConnectionError_("canonical connection needs a temporal and a spatial metric")
    p, n = h.dim, phi.dim

    def M(u: JetPoint) -> np.ndarray:
        gamma = h.christoffel_batch(u.t)[0]
        return -np.einsum("gba,jg->jba", gamma, u.v)

    def N(u: JetPoint) -> np.ndarray:
        gamma = phi.christoffel_batch(u.x)[0]
        return np.einsum("jik,kb->jbi", gamma, u.v)

    return NonlinearConnection(
        p, n, M, N,
        rebuild=lambda c: canonical_connection(pullback_metric(h, c),
                                               pullback_metric(phi, c)),
        name=f"canonical[{h.name},{phi.name}]")


# ---------------------------------------------------------------------------
# transformation law


def transform_connection_m(conn: NonlinearConnection, change: ChangeMap,
                           u: JetPoint) -> np.ndarray:
    jb, Wt, _ = mixed_jet_derivatives(change, u)
    tensor = np.einsum("jba,kj,bm,ag->kmg", conn.temporal(u), jb.B, jb.A_inv, jb.A_inv)
    return tensor - np.einsum("kma,ag->kmg", Wt, jb.A_inv)


def transform_connection_n(conn: NonlinearConnection, change: ChangeMap,
                           u: JetPoint) -> np.ndarray:
    jb, _, Wx = mixed_jet_derivatives(change, u)
    tensor = np.einsum("jbi,kj,bm,il->kml", conn.spatial(u), jb.B, jb.A_inv, jb.B_inv)
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
        return lambda u: np.concatenate([c.temporal(u).ravel(), c.spatial(u).ravel()])

    return law_check(predict, native, changes, jets, tol)


# ---------------------------------------------------------------------------
# adapted frame / coframe


def adapted_frame(conn: NonlinearConnection, u: JetPoint) -> np.ndarray:
    """Rows are the adapted frame vectors in natural components, ordered
    [d/dt^a, d/dx^i, @/@x^j_b] with the vertical index fused as j*p + b."""
    p, n = conn.p, conn.n
    sz = frame_size(p, n)
    F = np.eye(sz)
    F[:p, p + n:] = -conn.temporal(u).reshape(n * p, p).T
    F[p:p + n, p + n:] = -conn.spatial(u).reshape(n * p, n).T
    return F


def adapted_coframe(conn: NonlinearConnection, u: JetPoint) -> np.ndarray:
    """Rows are the adapted coframe covectors in natural components:
    dt^a, dx^i, and dx^j_b + M^{(j)}_{(b)a} dt^a + N^{(j)}_{(b)i} dx^i."""
    p, n = conn.p, conn.n
    sz = frame_size(p, n)
    C = np.eye(sz)
    C[p + n:, :p] = conn.temporal(u).reshape(n * p, p)
    C[p + n:, p:p + n] = conn.spatial(u).reshape(n * p, n)
    return C


# ---------------------------------------------------------------------------
# sprays <-> connection


def connection_from_sprays(pair: SprayPair, h: Metric,
                           fd_step: float = 1e-6) -> NonlinearConnection:
    """M = 2H; N^{(i)}_{(a)j} = (dG^i/dx^j_g) h_{ga} with G^i the h-trace of
    the spatial spray (jet gradient used when available, else centered
    differences in the jet coordinates)."""
    H, G = pair.temporal, pair.spatial
    if (H.p, H.n) != (G.p, G.n):
        raise ConnectionError_("spray pair lives on different jet spaces")
    if h.kind != "temporal" or h.dim != H.p:
        raise ConnectionError_("h must be a temporal metric of matching dimension")
    p, n = H.p, H.n
    trace = h_trace(G, h)

    def M(u: JetPoint) -> np.ndarray:
        return 2.0 * H.coefficients(u)

    def trace_grad(u: JetPoint) -> np.ndarray:
        if trace.jet_gradient is not None:
            return trace.jet_gradient(u)
        out = np.zeros((n, n, p))
        for j in range(n):
            for g in range(p):
                vp = u.v.copy(); vp[j, g] += fd_step
                vm = u.v.copy(); vm[j, g] -= fd_step
                out[:, j, g] = (trace.components(JetPoint(u.t, u.x, vp))
                                - trace.components(JetPoint(u.t, u.x, vm))) / (2 * fd_step)
        return out

    def N(u: JetPoint) -> np.ndarray:
        h_at = h.components_batch(u.t)[0]
        return np.einsum("ijg,ga->iaj", trace_grad(u), h_at)

    rebuild = None
    if H.rebuild is not None and G.rebuild is not None:
        def rebuild(change: ChangeMap) -> NonlinearConnection:
            return connection_from_sprays(
                SprayPair(H.rebuild(change), G.rebuild(change)),
                pullback_metric(h, change), fd_step)

    return NonlinearConnection(p, n, M, N, rebuild=rebuild,
                               name=f"from-sprays[{H.name},{G.name}]")


def sprays_from_connection(conn: NonlinearConnection) -> SprayPair:
    """H = M/2 and 2 G^{(i)}_{(a)b} = N^{(i)}_{(a)j} x^j_b."""
    p, n = conn.p, conn.n

    def h_coeff(u: JetPoint) -> np.ndarray:
        return 0.5 * conn.temporal(u)

    def g_coeff(u: JetPoint) -> np.ndarray:
        return 0.5 * np.einsum("iaj,jb->iab", conn.spatial(u), u.v)

    h_rebuild = g_rebuild = None
    if conn.rebuild is not None:
        def h_rebuild(change: ChangeMap) -> Spray:
            return sprays_from_connection(conn.rebuild(change)).temporal

        def g_rebuild(change: ChangeMap) -> Spray:
            return sprays_from_connection(conn.rebuild(change)).spatial

    return SprayPair(
        Spray("temporal", p, n, h_coeff, rebuild=h_rebuild, name=f"temporal[{conn.name}]"),
        Spray("spatial", p, n, g_coeff, rebuild=g_rebuild, name=f"spatial[{conn.name}]"))
