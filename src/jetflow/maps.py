"""Maps from the temporal manifold into the spatial one, their jet lifts,
and the second-order PDE residuals attached to a spray pair (H, G):

    affine:    x^i_{ab} + G^{(i)}_{(a)b} + G^{(i)}_{(b)a}
                        + H^{(i)}_{(a)b} + H^{(i)}_{(b)a} = 0
    harmonic:  h^{ab} (x^i_{ab} + 2 G^{(i)}_{(a)b} + 2 H^{(i)}_{(a)b}) = 0
    Poisson:   Delta_h x^i + 2 S^i = 0, where
               Delta_h x^i = h^{ab}(x^i_{ab} - H^g_{ab} x^i_g) and
               S^i = h^{ab}(G^{(i)}_{(a)b} + H^{(i)}_{(a)b})
                     + (1/2) h^{ab} H^g_{ab} x^i_g.

The harmonic and Poisson forms agree identically: the Christoffel trace
added inside Delta_h is subtracted back inside the source.

Two solvers are provided: a fixed-step RK4 integrator for the p = 1 affine
equation (geodesics of a spray pair) and a damped Jacobi relaxation for the
p = 2 harmonic equation on a rectangular grid with Dirichlet boundary data.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable, Sequence

import numpy as np

from .exprlang import Expr, diff, evaluate, free_vars, parse
from .geometry import GeometryError, Metric
from .numdiff import temporal_names
from .jetspace import JetPoint
from .sprays import SprayPair

__all__ = [
    "MapError", "SmoothMap",
    "affine_residual", "harmonic_residual",
    "metric_laplacian", "spray_source", "poisson_residual",
    "OdeSolution", "solve_affine_ode",
    "GridSolution", "solve_harmonic_grid",
]


class MapError(ValueError):
    pass


class SmoothMap:
    """A map t -> x given by one expression per spatial coordinate, in the
    temporal variables t1..tp."""

    def __init__(self, p: int, components: Sequence[Expr | str], name: str = "map"):
        self.p = int(p)
        self.n = len(components)
        self.name = name
        self.components: list[Expr] = [
            parse(c) if isinstance(c, str) else c for c in components]
        allowed = set(temporal_names(self.p))
        for k, e in enumerate(self.components):
            bad = free_vars(e) - allowed
            if bad:
                raise MapError(f"component {k} references foreign variables {sorted(bad)}")
        self._grad = [[diff(e, t) for t in temporal_names(self.p)]
                      for e in self.components]
        self._hess = [[[diff(g, t) for t in temporal_names(self.p)] for g in row]
                      for row in self._grad]

    def _env(self, t: np.ndarray) -> dict:
        return {name: float(t[a]) for a, name in enumerate(temporal_names(self.p))}

    def __call__(self, t: np.ndarray) -> np.ndarray:
        env = self._env(np.asarray(t, dtype=float))
        return np.array([evaluate(e, env) for e in self.components])

    def jet_lift(self, t: np.ndarray) -> JetPoint:
        """First jet of the map at t."""
        t = np.asarray(t, dtype=float)
        env = self._env(t)
        x = np.array([evaluate(e, env) for e in self.components])
        v = np.array([[evaluate(g, env) for g in row] for row in self._grad])
        return JetPoint(t, x, v)

    def second_derivatives(self, t: np.ndarray) -> np.ndarray:
        """x^i_{ab} as an (n, p, p) array."""
        env = self._env(np.asarray(t, dtype=float))
        return np.array([[[evaluate(e, env) for e in row] for row in mat]
                         for mat in self._hess])


def _symmetrized(pair: SprayPair, u: JetPoint) -> np.ndarray:
    G = pair.spatial.coefficients(u)
    H = pair.temporal.coefficients(u)
    S = G + H
    return S + S.transpose(0, 2, 1)


def affine_residual(f: SmoothMap, pair: SprayPair, t: np.ndarray) -> np.ndarray:
    """(n, p, p) array; zero exactly when f solves the affine map equation."""
    u = f.jet_lift(t)
    return f.second_derivatives(t) + _symmetrized(pair, u)


def harmonic_residual(f: SmoothMap, pair: SprayPair, h: Metric,
                      t: np.ndarray) -> np.ndarray:
    """(n,) array: the h-trace of the affine residual."""
    if h.kind != "temporal":
        raise MapError("harmonic residual needs a temporal metric")
    t = np.asarray(t, dtype=float)
    u = f.jet_lift(t)
    hinv = h.inverse_at(t)
    coeffs = (f.second_derivatives(t)
              + 2.0 * pair.spatial.coefficients(u)
              + 2.0 * pair.temporal.coefficients(u))
    return np.einsum("ab,iab->i", hinv, coeffs)


def metric_laplacian(f: SmoothMap, h: Metric, t: np.ndarray) -> np.ndarray:
    """Delta_h x^i = h^{ab}(x^i_{ab} - H^g_{ab} x^i_g)."""
    t = np.asarray(t, dtype=float)
    u = f.jet_lift(t)
    hinv = h.inverse_at(t)
    gamma = h.christoffel_at(t)
    corrected = f.second_derivatives(t) - np.einsum("gab,ig->iab", gamma, u.v)
    return np.einsum("ab,iab->i", hinv, corrected)


def spray_source(pair: SprayPair, h: Metric) -> Callable[[JetPoint], np.ndarray]:
    """S^i = h^{ab}(G + H)^{(i)}_{(a)b} + (1/2) h^{ab} H^g_{ab} x^i_g."""

    def source(u: JetPoint) -> np.ndarray:
        hinv = h.inverse_at(u.t)
        gamma = h.christoffel_at(u.t)
        coeffs = pair.spatial.coefficients(u) + pair.temporal.coefficients(u)
        trace = np.einsum("ab,iab->i", hinv, coeffs)
        correction = 0.5 * np.einsum("ab,gab,ig->i", hinv, gamma, u.v)
        return trace + correction

    return source


def poisson_residual(f: SmoothMap, source: Callable[[JetPoint], np.ndarray],
                     h: Metric, t: np.ndarray) -> np.ndarray:
    """Delta_h x^i + 2 S^i; with source = spray_source(pair, h) this equals
    harmonic_residual(f, pair, h, t) identically."""
    return metric_laplacian(f, h, t) + 2.0 * source(f.jet_lift(np.asarray(t, dtype=float)))


# ---------------------------------------------------------------------------
# solvers


@dataclass(frozen=True)
class OdeSolution:
    ts: np.ndarray       # (steps + 1,)
    xs: np.ndarray       # (steps + 1, n)
    vs: np.ndarray       # (steps + 1, n)


def _jet_kernel(spray, n: int) -> tuple[Callable[..., Sequence[float]], slice]:
    """The spray's `coefficients` as a function of the flat p = 1 jet
    arguments (t, x1..xn, x1_1..xn_1), with the slice of its result that
    holds S^{(1)}_{(1)1}..S^{(n)}_{(1)1}.  While `coefficients` is still the
    canonical spray's own, that is its compiled kernel (entry 0 is the
    det g check); any other `coefficients` runs on a JetPoint."""
    tables = spray.tables
    if tables is not None and spray.coefficients == tables.coefficients:
        return tables.kernel, slice(1, n + 1)

    def kernel(*args: float) -> list[float]:
        u = JetPoint(np.array(args[:1]), np.array(args[1:1 + n]),
                     np.array(args[1 + n:]).reshape(n, 1))
        return spray.coefficients(u)[:, 0, 0].tolist()

    return kernel, slice(0, n)


def solve_affine_ode(pair: SprayPair, x0: np.ndarray, v0: np.ndarray,
                     t_span: tuple[float, float], steps: int) -> OdeSolution:
    """Classic RK4 for the p = 1 affine equation
    x'' = -2 (G + H)^{(i)}_{(1)1}, on Python floats: each stage calls the
    two sprays' jet kernels on [t, *x, *v].  A non-finite stage input
    stops the solve with MapError before the kernels see it, and so does a
    non-finite final state."""
    if pair.temporal.p != 1:
        raise MapError("the ODE solver handles one temporal dimension")
    n = pair.temporal.n
    x = np.asarray(x0, dtype=float).tolist()
    v = np.asarray(v0, dtype=float).tolist()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if steps < 1:
        raise MapError("steps must be positive")
    if len(x) != n or len(v) != n:
        raise MapError(f"x0 and v0 need n = {n} entries")
    dt = (t1 - t0) / steps
    half, sixth = 0.5 * dt, dt / 6.0
    G, gs = _jet_kernel(pair.spatial, n)
    H, hs = _jet_kernel(pair.temporal, n)

    def check_finite(step: int, args: list[float]) -> None:
        if not all(map(isfinite, args)):
            raise MapError(f"non-finite geodesic state in RK4 step {step} of "
                           f"{steps}, at t = {args[0]!r}")

    def acc(step: int, args: list[float]) -> list[float]:
        check_finite(step, args)
        return [-2.0 * (g + h) for g, h in zip(G(*args)[gs], H(*args)[hs])]

    # each stage and update keeps the operation order of the vector form
    # x + (dt/6)(k1 + 2 k2 + 2 k3 + k4), so the trajectory is bit for bit
    # that of the same RK4 on numpy arrays
    rows = np.empty((steps + 1, 1 + 2 * n))     # t, x, v per step
    t, state = t0, [t0, *x, *v]
    for k in range(steps):
        rows[k] = state
        step = k + 1
        k1v = acc(step, state)
        k2x = [a + half * b for a, b in zip(v, k1v)]
        k2v = acc(step, [t + half, *[a + half * b for a, b in zip(x, v)], *k2x])
        k3x = [a + half * b for a, b in zip(v, k2v)]
        k3v = acc(step, [t + half, *[a + half * b for a, b in zip(x, k2x)], *k3x])
        k4x = [a + dt * b for a, b in zip(v, k3v)]
        k4v = acc(step, [t + dt, *[a + dt * b for a, b in zip(x, k3x)], *k4x])
        x = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(x, v, k2x, k3x, k4x)]
        v = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(v, k1v, k2v, k3v, k4v)]
        t = t0 + step * dt
        state = [t, *x, *v]
    check_finite(steps, state)
    rows[steps] = state
    return OdeSolution(rows[:, 0], rows[:, 1:1 + n], rows[:, 1 + n:])


@dataclass(frozen=True)
class GridSolution:
    status: str          # "converged" | "max-iterations" | "diverged"
    iterations: int
    max_residual: float
    t1: np.ndarray       # (m,)
    t2: np.ndarray       # (m,)
    values: np.ndarray   # (m, m, n)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _batch_coefficients(spray, T, X, V):
    if spray.coefficients_batch is not None:
        return spray.coefficients_batch(T, X, V)
    out = np.empty((len(T), spray.n, spray.p, spray.p))
    for q in range(len(T)):
        out[q] = spray.coefficients(JetPoint(T[q], X[q], V[q]))
    return out


def solve_harmonic_grid(pair: SprayPair, h: Metric,
                        boundary: Callable[[np.ndarray], np.ndarray] | SmoothMap,
                        m: int = 33, tol: float = 1e-9, max_iters: int = 20000,
                        damping: float = 0.8,
                        domain: Sequence[tuple[float, float]] | None = None) -> GridSolution:
    """Damped Jacobi relaxation for the p = 2 harmonic map equation on an
    m x m grid with Dirichlet data from `boundary`.

    Each sweep freezes the metric inverse and the spray coefficients at the
    current iterate (jet coordinates from central differences) and relaxes
    the diagonal second-difference terms.  Divergence is declared when the
    residual exceeds ten times its initial value.
    """
    if pair.temporal.p != 2:
        raise MapError("the grid solver handles two temporal dimensions")
    if h.kind != "temporal" or h.dim != 2:
        raise MapError("the grid solver needs a 2-dimensional temporal metric")
    if m < 3:
        raise MapError("grid needs at least 3 points per side")
    n = pair.temporal.n
    box = list(domain) if domain is not None else (h.box or [(-1.0, 1.0), (-1.0, 1.0)])
    t1 = np.linspace(box[0][0], box[0][1], m)
    t2 = np.linspace(box[1][0], box[1][1], m)
    d1 = t1[1] - t1[0]
    d2 = t2[1] - t2[0]

    bmap = boundary                    # SmoothMap instances are callable too
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

    def residual(vals: np.ndarray) -> np.ndarray:
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
        coeffs = (_batch_coefficients(pair.spatial, T, X, V)
                  + _batch_coefficients(pair.temporal, T, X, V))    # (q, n, 2, 2)
        x2 = np.empty((q, n, 2, 2))
        x2[:, :, 0, 0] = d11.reshape(q, n)
        x2[:, :, 1, 1] = d22.reshape(q, n)
        x2[:, :, 0, 1] = x2[:, :, 1, 0] = d12.reshape(q, n)
        return np.einsum("qab,qiab->qi", hinv, x2 + 2.0 * coeffs)   # (q, n)

    R = residual(values)
    initial = max(float(np.max(np.abs(R))), 1e-30)
    if initial <= tol:
        return GridSolution("converged", 0, initial, t1, t2, values)
    status = "max-iterations"
    iterations = max_iters
    for sweep in range(1, max_iters + 1):
        step = (damping * R / kappa[:, None]).reshape(m - 2, m - 2, n)
        values[1:-1, 1:-1] += step
        R = residual(values)
        worst = float(np.max(np.abs(R)))
        if worst <= tol:
            status, iterations = "converged", sweep
            break
        if worst > 10.0 * initial or not np.isfinite(worst):
            status, iterations = "diverged", sweep
            break
    return GridSolution(status, iterations, float(np.max(np.abs(R))), t1, t2, values)
