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
equation (geodesics of a spray pair), generated as one straight-line loop
on Python floats with both sprays' tables written into each stage
(`exprlang.compile_rk4`), and nonlinear full-approximation-scheme (FAS)
multigrid V-cycles, smoothed by damped Jacobi, for the p = 2 harmonic
equation on a rectangular grid with Dirichlet boundary data.  Both take
every spray pair the same way, through the sprays' `sprays.JetTable`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exprlang import (Add, Expr, Mul, Num, Table, Var, compile_rk4, diff, evaluate,
                       free_vars, parse)
from .geometry import GeometryError, Metric
from .numdiff import jet_names, spatial_names, temporal_names
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


def _jet_block(spray, n: int, name: str) -> tuple[Callable, list[str], list[str]]:
    """The spray as a block of the generated RK4 (`compile_rk4`): a function
    of the flat p = 1 jet (t1, x1..xn, x1_1..xn_1) whose outputs named
    name1..name<n> are S^{(1)}_{(1)1}..S^{(n)}_{(1)1}.  While
    `coefficients` is still `tables.at`, that is the spray's table, written
    into the loop (its leading entries, named name + "det0", ..., are the
    checked det g of its metrics); a replaced `coefficients` runs on a
    JetPoint once per stage."""
    names = temporal_names(1) + spatial_names(n) + jet_names(n, 1)
    outs = [f"{name}{i + 1}" for i in range(n)]
    tables = spray.tables
    if spray.coefficients == tables.at:
        dets = [f"{name}det{k}" for k in range(len(tables.metrics))]
        return tables.kernel, names, [*dets, *outs]

    def coefficients(*args: float) -> list[float]:
        u = JetPoint(np.array(args[:1]), np.array(args[1:1 + n]),
                     np.array(args[1 + n:]).reshape(n, 1))
        return spray.coefficients(u)[:, 0, 0].tolist()

    return coefficients, names, outs


def _nonfinite(step: int, steps: int, t: float) -> None:
    raise MapError(f"non-finite geodesic state in RK4 step {step} of {steps}, at t = {t!r}")


def _geodesic_loop(pair: SprayPair, n: int) -> Callable:
    """The generated RK4 of the p = 1 affine equation: state (x, v) and
    F = (v, -2 (G + H)^{(i)}_{(1)1}).  Built once per pair of spray tables
    when both sprays run their tables, and on every call otherwise."""
    G, H = _jet_block(pair.spatial, n, "G"), _jet_block(pair.temporal, n, "H")
    shared = isinstance(G[0], Table) and isinstance(H[0], Table)
    if shared and pair.temporal.tables in pair.spatial.tables.loops:
        return pair.spatial.tables.loops[pair.temporal.tables]
    x, v = spatial_names(n), jet_names(n, 1)
    # raw nodes: add() would fold a flat spray's H = 0.0 away, and
    # -2 (G + 0.0) is not -2 G at G = -0.0
    accel = [Mul(Num(-2.0), Add(Var(f"G{i}"), Var(f"H{i}"))) for i in range(1, n + 1)]
    loop = compile_rk4([*x, *v], "t1", [*map(Var, v), *accel], [G, H], nonfinite=_nonfinite)
    if shared:
        pair.spatial.tables.loops[pair.temporal.tables] = loop
    return loop


def solve_affine_ode(pair: SprayPair, x0: np.ndarray, v0: np.ndarray,
                     t_span: tuple[float, float], steps: int) -> OdeSolution:
    """Classic RK4 for the p = 1 affine equation
    x'' = -2 (G + H)^{(i)}_{(1)1}, as one generated loop on Python floats
    with both sprays' tables written into it (`_geodesic_loop`).  A
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
# saved (13 x 13 and 15 x 15 multigrid solves of a near-harmonic boundary
# run about 5 % slower than Jacobi)
MULTIGRID_MIN = 17


def _coarsest_sweeps(m: int) -> int:
    """Damped-Jacobi steps on the coarsest m x m grid of a V-cycle: enough
    to cut its smoothest error mode by a fixed factor, which takes O(m^2)
    steps (2 on a 3 x 3 grid, 96 on the 18 x 18 grid below 35 x 35)."""
    return max(2, (m - 1) ** 2 // 3)


class _Level:
    """One grid of the multigrid hierarchy: its interior nodes T, the metric
    inverse frozen there, kappa, the diagonal of the linearised residual
    that scales the damped-Jacobi step, and each spray's coefficients as a
    function of the jet columns with its `t`-only terms computed once on T
    (`JetTable.batch_at`)."""

    def __init__(self, pair: SprayPair, h: Metric, t1: np.ndarray, t2: np.ndarray):
        self.m, self.n = len(t1), pair.temporal.n
        self.d1, self.d2 = t1[1] - t1[0], t2[1] - t2[0]
        TT1, TT2 = np.meshgrid(t1[1:-1], t2[1:-1], indexing="ij")
        self.T = np.stack([TT1.ravel(), TT2.ravel()], axis=1)        # row-major
        self.hinv = h.inverse_batch(self.T)                          # (q, 2, 2)
        self.kappa = 2.0 * (self.hinv[:, 0, 0] / self.d1 ** 2
                            + self.hinv[:, 1, 1] / self.d2 ** 2)     # (q,)
        if np.any(self.kappa <= 0):
            raise GeometryError("metric inverse is not positive on the grid diagonal")
        self.sprays = (pair.spatial.tables.batch_at(self.T),
                       pair.temporal.tables.batch_at(self.T))

    def residual(self, vals: np.ndarray, rhs: np.ndarray | float) -> np.ndarray:
        """(q, n): the harmonic residual of the grid values `vals` at the
        interior nodes (jet coordinates from central differences), minus rhs."""
        d1, d2, n, (G, H) = self.d1, self.d2, self.n, self.sprays
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
        q = len(self.T)
        X = c.reshape(q, n)
        V = np.stack([v1.reshape(q, n), v2.reshape(q, n)], axis=2)  # (q, n, 2)
        coeffs = G(X, V) + H(X, V)                                  # (q, n, 2, 2)
        x2 = np.empty((q, n, 2, 2))
        x2[:, :, 0, 0] = d11.reshape(q, n)
        x2[:, :, 1, 1] = d22.reshape(q, n)
        x2[:, :, 0, 1] = x2[:, :, 1, 0] = d12.reshape(q, n)
        return np.einsum("qab,qiab->qi", self.hinv, x2 + 2.0 * coeffs) - rhs

    def smooth(self, vals: np.ndarray, R: np.ndarray, rhs: np.ndarray | float,
               damping: float) -> np.ndarray:
        """One damped-Jacobi step on `vals`, in place, from its residual R;
        returns the new residual."""
        vals[1:-1, 1:-1] += (damping * R / self.kappa[:, None]).reshape(
            self.m - 2, self.m - 2, self.n)
        return self.residual(vals, rhs)


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


def _v_cycle(levels: list[_Level], k: int, vals: np.ndarray, R: np.ndarray,
             rhs: np.ndarray | float, damping: float) -> np.ndarray:
    """One FAS V-cycle from level k down, updating `vals` in place towards
    residual(vals) = rhs; R is its residual on entry, the new one is returned.
    A hierarchy of one level makes the cycle a single Jacobi sweep."""
    level = levels[k]
    if k == len(levels) - 1:
        for _ in range(_coarsest_sweeps(level.m) if k else 1):
            R = level.smooth(vals, R, rhs, damping)
        return R
    for _ in range(PRE_SWEEPS):
        R = level.smooth(vals, R, rhs, damping)
    # full approximation scheme: the coarse problem is solved for the
    # injected values themselves, its right-hand side carrying the
    # restricted fine residual, so the coarse residual starts out as that
    coarse = levels[k + 1]
    start = vals[::2, ::2].copy()
    Rc = _restrict(R, level.m)
    approx = start.copy()
    _v_cycle(levels, k + 1, approx, Rc, coarse.residual(start, 0.0) - Rc, damping)
    vals[1:-1, 1:-1] += _prolong(approx - start)[1:-1, 1:-1]
    R = level.residual(vals, rhs)
    for _ in range(POST_SWEEPS):
        R = level.smooth(vals, R, rhs, damping)
    return R


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
