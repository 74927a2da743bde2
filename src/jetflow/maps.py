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
equation (geodesics of a spray pair), generated as one loop on Python
floats that calls one compiled float table of both sprays' entries per
stage (`exprlang.compile_rk4`), and nonlinear full-approximation-scheme (FAS)
multigrid V-cycles, smoothed by damped Jacobi, for the p = 2 harmonic
equation on a rectangular grid with Dirichlet boundary data.  Both take
every spray pair the same way, through the sprays' `sprays.JetTable`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .exprlang import (Add, Expr, Mul, Num, Var, compile_floats, compile_rk4, evaluate,
                       foreign_vars, parse, partials)
from .geometry import GeometryError, Metric
from .numdiff import jet_names, temporal_names
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

    def __init__(self, p: int, components: Sequence[Expr | str]):
        self.p = int(p)
        self.n = len(components)
        self.components: list[Expr] = [
            parse(c) if isinstance(c, str) else c for c in components]
        found = foreign_vars(self.components, temporal_names(self.p))
        if found:
            raise MapError(f"component {found[0]} references foreign variables {found[1]}")

    @cached_property
    def _grad(self) -> list[list[Expr]]:
        """d component / d t_a, built on first use: calling the map needs
        no derivative."""
        return partials(self.components, temporal_names(self.p))

    @cached_property
    def _hess(self) -> list[list[list[Expr]]]:
        return [partials(row, temporal_names(self.p)) for row in self._grad]

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
    hinv = h.inverse_batch(t)[0]
    coeffs = (f.second_derivatives(t)
              + 2.0 * pair.spatial.coefficients(u)
              + 2.0 * pair.temporal.coefficients(u))
    return np.einsum("ab,iab->i", hinv, coeffs)


def metric_laplacian(f: SmoothMap, h: Metric, t: np.ndarray) -> np.ndarray:
    """Delta_h x^i = h^{ab}(x^i_{ab} - H^g_{ab} x^i_g)."""
    t = np.asarray(t, dtype=float)
    u = f.jet_lift(t)
    hinv = h.inverse_batch(t)[0]
    gamma = h.christoffel_batch(t)[0]
    corrected = f.second_derivatives(t) - np.einsum("gab,ig->iab", gamma, u.v)
    return np.einsum("ab,iab->i", hinv, corrected)


def spray_source(pair: SprayPair, h: Metric) -> Callable[[JetPoint], np.ndarray]:
    """S^i = h^{ab}(G + H)^{(i)}_{(a)b} + (1/2) h^{ab} H^g_{ab} x^i_g."""

    def source(u: JetPoint) -> np.ndarray:
        hinv = h.inverse_batch(u.t)[0]
        gamma = h.christoffel_batch(u.t)[0]
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


def _nonfinite(step: int, steps: int, t: float) -> None:
    raise MapError(f"non-finite geodesic state in RK4 step {step} of {steps}, at t = {t!r}")


def _coefficients_rhs(pair: SprayPair, n: int) -> Callable[..., tuple]:
    """F = (v, -2 (G + H)^{(i)}_{(1)1}) at (t1, x, v) through the sprays'
    `coefficients` on a JetPoint, one call per spray: the right-hand side
    for sprays whose `coefficients` is not their tables' `at`."""
    def rhs(t: float, *y: float) -> tuple:
        u = JetPoint(np.array([t]), np.array(y[:n]), np.array(y[n:]).reshape(n, 1))
        G = pair.spatial.coefficients(u)[:, 0, 0].tolist()
        H = pair.temporal.coefficients(u)[:, 0, 0].tolist()
        return (*y[n:], *(-2.0 * (g + h) for g, h in zip(G, H)))

    return rhs


def _geodesic_loop(pair: SprayPair, n: int) -> Callable:
    """The generated RK4 of the p = 1 affine equation: state (x, v) and
    F = (v, -2 (G + H)^{(i)}_{(1)1}).  While both sprays' `coefficients`
    are their tables' `at`, F is one float table (`compile_floats`) of v
    and -2 (G + H), and the loop is built once per pair of spray tables;
    otherwise F calls `coefficients` and the loop is built on every call.
    F takes both tables' det-g guards, the spatial ones first, and tests
    them inline at every stage before any entry; a literal det, such as a
    flat metric's 1.0, is tested once, when F is built."""
    G, H = pair.spatial.tables, pair.temporal.tables
    if pair.spatial.coefficients != G.at or pair.temporal.coefficients != H.at:
        return compile_rk4(2 * n, _coefficients_rhs(pair, n), _nonfinite)
    if H not in G.loops:
        # raw nodes: add() would fold a flat spray's H = 0.0 away, and
        # -2 (G + 0.0) is not -2 G at G = -0.0
        accel = [Mul(Num(-2.0), Add(g, h)) for g, h in zip(G.entries, H.entries)]
        rhs = compile_floats([*map(Var, jet_names(n, 1)), *accel], G.names,
                             [*G.guards, *H.guards])
        G.loops[H] = compile_rk4(2 * n, rhs, _nonfinite)
    return G.loops[H]


def solve_affine_ode(pair: SprayPair, x0: np.ndarray, v0: np.ndarray,
                     t_span: tuple[float, float], steps: int) -> OdeSolution:
    """Classic RK4 for the p = 1 affine equation
    x'' = -2 (G + H)^{(i)}_{(1)1}, as one generated loop on Python floats
    that calls one compiled right-hand side per stage (`_geodesic_loop`).  A
    non-finite stage input stops the solve with MapError before the sprays
    see it, and so does a non-finite final state."""
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
    rows = np.empty((steps + 1, 1 + 2 * n))     # t, x, v per step
    _geodesic_loop(pair, n)(t0, *x, *v, (t1 - t0) / steps, steps, rows)
    return OdeSolution(rows[:, 0], rows[:, 1:1 + n], rows[:, 1 + n:])


@dataclass(frozen=True)
class GridSolution:
    status: str          # "converged" | "max-iterations" | "diverged"
    iterations: int      # V-cycles run
    max_residual: float
    t1: np.ndarray       # (m,)
    t2: np.ndarray       # (m,)
    values: np.ndarray   # (m, m, n)
    history: tuple[float, ...]   # fine max|R| after each V-cycle

    @property
    def converged(self) -> bool:
        return self.status == "converged"


# V-cycle shape: damped-Jacobi steps before and after the coarse-grid
# correction
PRE_SWEEPS, POST_SWEEPS = 2, 1
# grids smaller than this run as a single level: there the fixed cost of a
# residual evaluation, paid on every coarse grid, can outweigh the sweeps
# saved.  Best of 12 in-process solves on a 2-core x86-64 machine, with the
# conformal2d:0.3*t1 - 0.2*t2 domain metric: 13 x 13 and 15 x 15 multigrid
# solves take 1.11-1.19x the time of Jacobi for the boundary t1^2 - t2^2
# into euclidean:1, 0.88-0.96x for a quadratic harmonic pair into
# euclidean:2, and 0.25-0.30x for exp(t1)*(cos t2, sin t2) into
# conformal2d:0.2*(x1^2 + x2^2), so the size is due for retuning together
# with the starting guess
MULTIGRID_MIN = 17


def _coarsest_sweeps(m: int) -> int:
    """Damped-Jacobi steps on the coarsest m x m grid of a V-cycle: enough
    to cut its smoothest error mode by a fixed factor, which takes O(m^2)
    steps (2 on a 3 x 3 grid, 96 on the 18 x 18 grid below 35 x 35)."""
    return max(2, (m - 1) ** 2 // 3)


class _Level:
    """One grid of the multigrid hierarchy: its interior nodes T, the metric
    inverse frozen there, kappa, the diagonal of the linearised residual
    that scales the damped-Jacobi step, each spray's coefficients as a
    function of the jet components over the (m-2) x (m-2) interior grid
    with its `t`-only terms computed once on T (`JetTable.batch_at`), the
    stencil's spacing constants as floats, and the buffers each residual
    writes the jet coordinates, second differences and coefficients into.
    A residual evaluation (`residual`) and a damped-Jacobi step (`relax`)
    are separate calls, so a V-cycle computes only the residuals it reads."""

    def __init__(self, pair: SprayPair, h: Metric, t1: np.ndarray, t2: np.ndarray):
        m, n = len(t1), pair.temporal.n
        self.m, self.n = m, n
        d1, d2 = t1[1] - t1[0], t2[1] - t2[0]
        TT1, TT2 = np.meshgrid(t1[1:-1], t2[1:-1], indexing="ij")
        self.T = np.stack([TT1.ravel(), TT2.ravel()], axis=1)        # row-major
        self.hinv = h.inverse_batch(self.T)                          # (q, 2, 2)
        self.kappa = 2.0 * (self.hinv[:, 0, 0] / d1 ** 2
                            + self.hinv[:, 1, 1] / d2 ** 2)          # (q,)
        if np.any(self.kappa <= 0):
            raise GeometryError("metric inverse is not positive on the grid diagonal")
        grid = self.T.reshape(m - 2, m - 2, 2)
        self.sprays = (pair.spatial.tables.batch_at(grid),
                       pair.temporal.tables.batch_at(grid))
        self.d1sq, self.d2sq = float(d1 ** 2), float(d2 ** 2)
        self.d12x4, self.d1x2, self.d2x2 = float(4 * d1 * d2), float(2 * d1), float(2 * d2)
        # x^i and x^i_a, one contiguous (m-2) x (m-2) block per component
        # (the tables run faster on those than on strided views), read
        # through views laid out as the tables take them: (.., n), (.., n, 2)
        X, V = np.empty((n, m - 2, m - 2)), np.empty((n, 2, m - 2, m - 2))
        self.X, self.V = X.transpose(1, 2, 0), V.transpose(2, 3, 0, 1)
        self.x2 = np.empty((m - 2, m - 2, n, 2, 2))       # x^i_ab
        self.hcoef = np.empty((m - 2, m - 2, n, 2, 2))    # H^(i)_(a)b
        # G^(i)_(a)b, then x2 + 2 (G + H), which the contraction reads as (q, n, 2, 2)
        self.acc = np.empty((m - 2, m - 2, n, 2, 2))
        self.flat = self.acc.reshape(-1, n, 2, 2)

    def residual(self, vals: np.ndarray, rhs: np.ndarray | float) -> np.ndarray:
        """(q, n): the harmonic residual of the grid values `vals` at the
        interior nodes (jet coordinates from central differences), minus rhs."""
        V, x2, acc, (G, H) = self.V, self.x2, self.acc, self.sprays
        c = vals[1:-1, 1:-1]                      # (m-2, m-2, n)
        e, w = vals[2:, 1:-1], vals[:-2, 1:-1]
        nn, ss = vals[1:-1, 2:], vals[1:-1, :-2]
        ne, sw = vals[2:, 2:], vals[:-2, :-2]
        nw, se = vals[:-2, 2:], vals[2:, :-2]
        c2 = 2 * c
        np.divide(e - c2 + w, self.d1sq, out=x2[..., 0, 0])
        np.divide(nn - c2 + ss, self.d2sq, out=x2[..., 1, 1])
        np.divide(ne + sw - nw - se, self.d12x4, out=x2[..., 0, 1])
        x2[..., 1, 0] = x2[..., 0, 1]
        np.divide(e - w, self.d1x2, out=V[..., 0])
        np.divide(nn - ss, self.d2x2, out=V[..., 1])
        np.copyto(self.X, c)
        np.add(G(self.X, V, acc), H(self.X, V, self.hcoef), out=acc)
        np.multiply(acc, 2.0, out=acc)
        np.add(x2, acc, out=acc)
        return np.einsum("qab,qiab->qi", self.hinv, self.flat) - rhs

    def relax(self, vals: np.ndarray, R: np.ndarray, damping: float) -> None:
        """One damped-Jacobi step on `vals`, in place, from its residual R."""
        vals[1:-1, 1:-1] += (damping * R / self.kappa[:, None]).reshape(
            self.m - 2, self.m - 2, self.n)


def _restrict(R: np.ndarray, m: int) -> np.ndarray:
    """Full weighting of an interior field (q, n) of an m x m grid onto the
    interior nodes of the (m + 1)/2 grid, as ((mc-2)^2, n)."""
    F = R.reshape(m - 2, m - 2, -1)
    F = 0.25 * F[:-2:2] + 0.5 * F[1:-1:2] + 0.25 * F[2::2]
    F = 0.25 * F[:, :-2:2] + 0.5 * F[:, 1:-1:2] + 0.25 * F[:, 2::2]
    return F.reshape(-1, F.shape[2])


def _prolong(E: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a coarse grid field (mc, mc, n) onto the
    2 mc - 1 grid whose even nodes are the coarse ones."""
    mc = E.shape[0]
    out = np.empty((2 * mc - 1, 2 * mc - 1, E.shape[2]))
    out[::2, ::2] = E
    out[1::2, ::2] = 0.5 * (E[:-1] + E[1:])
    out[:, 1::2] = 0.5 * (out[:, :-2:2] + out[:, 2::2])
    return out


def _sweeps(level: _Level, vals: np.ndarray, R: np.ndarray, rhs: np.ndarray | float,
            damping: float, count: int, keep: bool) -> np.ndarray | None:
    """`count` damped-Jacobi steps on `vals` from its residual R, each
    followed by the new residual, which is returned; with `keep` False the
    final step only relaxes and None is returned, as nothing reads it."""
    for k in range(count):
        level.relax(vals, R, damping)
        if not keep and k == count - 1:
            return None
        R = level.residual(vals, rhs)
    return R


def _v_cycle(levels: list[_Level], k: int, vals: np.ndarray, R: np.ndarray,
             rhs: np.ndarray | float, damping: float) -> np.ndarray | None:
    """One FAS V-cycle from level k down, updating `vals` in place towards
    residual(vals) = rhs; R is its residual on entry.  The finest level
    (k = 0) returns its new residual, which the solver reads.  A coarser
    level's result is the correction left in `vals`, so its last sweep
    only relaxes and the cycle returns None.  A hierarchy of one level
    makes the cycle a single Jacobi sweep."""
    level, fine = levels[k], k == 0
    if k == len(levels) - 1:
        return _sweeps(level, vals, R, rhs, damping,
                       1 if fine else _coarsest_sweeps(level.m), fine)
    R = _sweeps(level, vals, R, rhs, damping, PRE_SWEEPS, True)
    # full approximation scheme: the coarse problem is solved for the
    # injected values themselves, its right-hand side carrying the
    # restricted fine residual, so the coarse residual starts out as that
    coarse = levels[k + 1]
    start = vals[::2, ::2].copy()
    Rc = _restrict(R, level.m)
    approx = start.copy()
    _v_cycle(levels, k + 1, approx, Rc, coarse.residual(start, 0.0) - Rc, damping)
    vals[1:-1, 1:-1] += _prolong(approx - start)[1:-1, 1:-1]
    return _sweeps(level, vals, level.residual(vals, rhs), rhs, damping, POST_SWEEPS, fine)


def _grid_sizes(m: int) -> list[int]:
    """Points per side of each level: m halved while m - 1 is even and
    m >= 5, or m alone below MULTIGRID_MIN."""
    sizes = [m]
    while m >= MULTIGRID_MIN and (sizes[-1] - 1) % 2 == 0 and sizes[-1] >= 5:
        sizes.append((sizes[-1] + 1) // 2)
    return sizes


def solve_harmonic_grid(pair: SprayPair, h: Metric,
                        boundary: Callable[[np.ndarray], np.ndarray] | SmoothMap,
                        m: int = 33, tol: float = 1e-9, max_iters: int = 20000,
                        damping: float = 0.8,
                        domain: Sequence[tuple[float, float]] | None = None) -> GridSolution:
    """FAS multigrid V-cycles for the p = 2 harmonic map equation on an
    m x m grid with Dirichlet data from `boundary`, from a zero interior.

    From m = MULTIGRID_MIN (17) on, the grid is halved while m - 1 is even
    and m >= 5 (17, 9, 5, 3); each level keeps its own nodes, frozen metric
    inverse and kappa.  The smoother is damped Jacobi with factor
    `damping`: each step freezes the spray coefficients at the current
    iterate and relaxes the diagonal second-difference terms.  Residuals
    restrict by full weighting, coarse corrections prolong bilinearly, and
    the coarsest grid gets O(size^2) steps (`_coarsest_sweeps`).  A smaller
    or an even m gives one level, and each V-cycle is then one Jacobi sweep.

    At most `max_iters` V-cycles run; the solve has converged once the fine
    max|R| is at most `tol`, and has diverged when it exceeds ten times its
    initial value or is not finite.  `history` holds the fine max|R| after
    each V-cycle.
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

    bmap = boundary                    # SmoothMap instances are callable too
    values = np.zeros((m, m, n))
    for i in (0, m - 1):
        for j in range(m):
            values[i, j] = bmap(np.array([t1[i], t2[j]]))
            values[j, i] = bmap(np.array([t1[j], t2[i]]))

    levels = [_Level(pair, h, t1[::1 << k], t2[::1 << k])
              for k in range(len(_grid_sizes(m)))]

    R = levels[0].residual(values, 0.0)
    initial = float(np.max(np.abs(R)))
    if initial <= tol:
        return GridSolution("converged", 0, initial, t1, t2, values, ())
    status = "max-iterations"
    history: list[float] = []
    for _ in range(max_iters):
        R = _v_cycle(levels, 0, values, R, 0.0, damping)
        worst = float(np.max(np.abs(R)))
        history.append(worst)
        if worst <= tol:
            status = "converged"
            break
        if worst > 10.0 * max(initial, 1e-30) or not np.isfinite(worst):
            status = "diverged"
            break
    return GridSolution(status, len(history), float(np.max(np.abs(R))), t1, t2, values,
                        tuple(history))
