"""Pseudo-Riemannian metrics on the source or target factor and their
Christoffel symbols.

A Metric stores its components symbolically (Exprs over t1..tp for a
temporal metric, x1..xn for a spatial one), so first derivatives and the
pullback along a product chart change are exact.  A small named catalog
covers the standard test metrics.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .exprlang import (
    DET_TOL, Expr, Guard, Num, add, compile_table, diff, div, foreign_vars, mul, neg, num, parse,
    sub, subst, table_columns, total, var,
)
from .numdiff import ChangeMap, jet_name, spatial_names, temporal_names

__all__ = [
    "GeometryError", "Metric",
    "metric_from_name", "pullback_metric", "energy_density",
]


class GeometryError(ValueError):
    pass


def _as_points(points: np.ndarray, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[-1] != dim:
        raise GeometryError(f"expected points of dimension {dim}, got shape {pts.shape}")
    return pts


def _degenerate(name: str) -> Callable[[object], None]:
    """The check of a metric's `guard`: a table calls it only where |det g|
    (float, or any element of a column) is below DET_TOL, and it raises
    GeometryError."""
    def check_det(det) -> None:
        raise GeometryError(f"metric '{name}' is degenerate: |det g| < {DET_TOL}")

    return check_det


class Metric:
    """Symmetric nondegenerate metric with symbolic components.

    kind is "temporal" (components over t1..tp) or "spatial" (over x1..xn).
    box optionally bounds the chart domain where nondegeneracy is certified.

    Numeric values come from three `compile_table` tables, each built on
    first use: g, g^-1 and the Christoffel symbols.  Each `*_batch` method
    takes (q, dim) points, or one point of shape (dim,) as a one-point
    batch that runs on floats.  The symbolic det g, inverse and Christoffel
    symbols are cached.  `guard` is the metric's det-g guard: every table
    that divides by det g, the metric's own and those built elsewhere
    (`jetspace.JetTable`), takes it, tests |det g| < DET_TOL inline before
    any entry and calls `check_det` only there.

    `check_det` is an attribute, a function of the det value that raises
    GeometryError naming the metric, and it does not refer to the metric:
    the tables that hold the guard do not hold the metric, so the metric,
    which keeps its tables, frees them by reference counting.
    """

    def __init__(self, name: str, kind: str, components: Sequence[Sequence[Expr]],
                 box: Sequence[tuple[float, float]] | None = None):
        if kind not in ("temporal", "spatial"):
            raise GeometryError(f"metric kind must be temporal or spatial, got {kind!r}")
        self.name = name
        self.kind = kind
        self.components = [list(row) for row in components]
        self.dim = len(self.components)
        self.box = None if box is None else [tuple(b) for b in box]
        self.check_det = _degenerate(name)
        self._kernels: dict[str, Callable[..., tuple]] = {}
        # canonical sprays' and connections' tables, by (role, the other
        # factor's dimension) (sprays.py, connection.py)
        self._jet_tables: dict[tuple[str, int], object] = {}
        if any(len(row) != self.dim for row in self.components):
            raise GeometryError("metric component matrix is not square")
        found = foreign_vars([e for row in self.components for e in row], self.variables)
        if found:
            raise GeometryError(f"{kind} metric component references foreign variables {found[1]}")

    @property
    def variables(self) -> list[str]:
        if self.kind == "temporal":
            return temporal_names(self.dim)
        return spatial_names(self.dim)

    @cached_property
    def _dg(self) -> list[list[list[Expr]]]:
        """dg[c][a][b] = d g_ab / d coord_c."""
        names = self.variables
        return [[[diff(self.components[a][b], c) for b in range(self.dim)]
                 for a in range(self.dim)] for c in names]

    @cached_property
    def _det_inverse(self) -> tuple[Expr, list[list[Expr]]]:
        """(det g, g^-1) by the adjugate formula.  Determinants expand along
        their first row; each minor is built once and shared.  A diagonal
        cofactor that is det g itself (g^11 of diag(1, f)) gives the
        literal 1, not det g / det g."""
        g, d = self.components, self.dim
        minors: dict[tuple[tuple[int, ...], tuple[int, ...]], Expr] = {}

        def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> Expr:
            if not rows:
                return num(1.0)
            if (rows, cols) not in minors:
                acc: Expr = num(0.0)
                for j, c in enumerate(cols):
                    term = mul(g[rows[0]][c], minor(rows[1:], cols[:j] + cols[j + 1:]))
                    acc = add(acc, term) if j % 2 == 0 else sub(acc, term)
                minors[rows, cols] = acc
            return minors[rows, cols]

        def without(k: int) -> tuple[int, ...]:
            return tuple(i for i in range(d) if i != k)

        def entry(i: int, j: int) -> Expr:
            cof = minor(without(j), without(i))
            if isinstance(cof, Num) and cof.value == 0:
                return num(0.0)
            if i == j and cof is det:
                return num(1.0)
            return div(cof if (i + j) % 2 == 0 else neg(cof), det)

        try:
            det = minor(tuple(range(d)), tuple(range(d)))
            return det, [[entry(i, j) for j in range(d)] for i in range(d)]
        finally:
            del minor       # `minor` reaches itself through its cell: empty it

    @cached_property
    def christoffel_exprs(self) -> list[list[list[Expr]]]:
        """Symbolic Christoffel symbols G[a][b][c] = Gamma^a_bc, built once and
        shared by the metric's own table and the canonical sprays' tables:
        Gamma^a_bc = (1/2) g^{ae} (d_b g_ec + d_c g_be - d_e g_bc)."""
        dg, d = self._dg, self.dim
        inv = self._det_inverse[1]

        def entry(a: int, b: int, c: int) -> Expr:
            lowered = lambda e: sub(add(dg[b][e][c], dg[c][b][e]), dg[e][b][c])
            return mul(num(0.5), total(mul(inv[a][e], lowered(e)) for e in range(d)))

        return [[[entry(a, b, c) for c in range(d)] for b in range(d)] for a in range(d)]

    def inverse_components(self) -> list[list[Expr]]:
        """Symbolic inverse matrix via the adjugate formula."""
        return [list(row) for row in self._det_inverse[1]]

    @property
    def guard(self) -> Guard:
        """The det-g guard (symbolic det g, `check_det`) of every table that
        divides by det g (`exprlang.compile_table`)."""
        return self._det_inverse[0], self.check_det

    def _exprs(self, table: str) -> list[Expr]:
        """Entries of a table, row-major: "g" is g; "inverse" is g^-1;
        "christoffel" is Gamma^a_bc."""
        if table == "g":
            return [e for row in self.components for e in row]
        if table == "inverse":
            return [e for row in self._det_inverse[1] for e in row]
        return [e for plane in self.christoffel_exprs for row in plane for e in row]

    def _kernel(self, table: str) -> Callable[..., tuple]:
        """The compiled table, built on first use; the tables that divide by
        det g stop with GeometryError where the metric is degenerate
        (`guard`)."""
        kernel = self._kernels.get(table)
        if kernel is None:
            guards = () if table == "g" else (self.guard,)
            kernel = compile_table(self._exprs(table), self.variables, guards)
            self._kernels[table] = kernel
        return kernel

    def _tabulate(self, table: str, points: np.ndarray) -> np.ndarray:
        """(q, k) values of a k-entry table at q points; one point runs on floats."""
        pts = _as_points(points, self.dim)
        args = pts[0].tolist() if len(pts) == 1 else pts.T
        return table_columns(self._kernel(table)(*args), len(pts))

    def components_batch(self, points: np.ndarray) -> np.ndarray:
        d = self.dim
        return self._tabulate("g", points).reshape(-1, d, d)

    def inverse_batch(self, points: np.ndarray) -> np.ndarray:
        d = self.dim
        return self._tabulate("inverse", points).reshape(-1, d, d)

    def christoffel_batch(self, points: np.ndarray) -> np.ndarray:
        """Levi-Civita coefficients G[q, a, b, c] = Gamma^a_bc at each point."""
        d = self.dim
        return self._tabulate("christoffel", points).reshape(-1, d, d, d)

    def __repr__(self):
        return f"Metric({self.name!r}, kind={self.kind!r}, dim={self.dim})"


# ---------------------------------------------------------------------------
# pullback


def pullback_metric(metric: Metric, change: ChangeMap) -> Metric:
    """Express a metric in the target chart of a product change.

    g~_{cd}(u) = g_{ab}(phi^{-1}(u)) * d phi^{-1 a}/d u^c * d phi^{-1 b}/d u^d,
    built by Expr substitution, so the result is exact.  Built once per
    (metric, change): every caller shares the pulled-back metric, its
    symbolic tables and its kernels.
    """
    if metric in change._pulled:
        return change._pulled[metric]
    if metric.kind == "temporal":
        if change.p != metric.dim:
            raise GeometryError("temporal change dimension does not match metric")
        inv_exprs = change.inverse_t
        dinv = change._dit
        names = temporal_names(metric.dim)
    else:
        if change.n != metric.dim:
            raise GeometryError("spatial change dimension does not match metric")
        inv_exprs = change.inverse_x
        dinv = change._dix
        names = spatial_names(metric.dim)
    back = dict(zip(names, inv_exprs))
    d = metric.dim
    comp = [[subst(metric.components[a][b], back) for b in range(d)] for a in range(d)]
    out = [[total(mul(mul(comp[a][b], dinv[a][c]), dinv[b][e])
                  for a in range(d) for b in range(d))
            for e in range(d)] for c in range(d)]
    pulled = change._pulled[metric] = Metric(f"{metric.name}@{change.name}", metric.kind,
                                             out, box=None)
    return pulled


# ---------------------------------------------------------------------------
# catalog


def _diag(entries: Sequence[str]) -> list[list[Expr]]:
    d = len(entries)
    zero = num(0.0)
    return [[parse(entries[a]) if a == b else zero for b in range(d)] for a in range(d)]


def metric_from_name(name: str, kind: str | None = None) -> Metric:
    """Builtin metric catalog.

    euclidean:N       identity metric in N coordinates
    sphere:2          diag(1, sin(x1)^2) on x1 in (0.2, pi - 0.2)
    hyperbolic:2      diag(1/x2^2, 1/x2^2) on x2 > 0.1
    exp1d             single temporal coordinate, h11 = exp(2*t1)
    conformal2d:EXPR  exp(2*lambda(t)) * delta on two temporal coordinates
    """
    head, _, param = name.partition(":")
    if head == "euclidean":
        d = int(param)
        k = kind or "spatial"
        comp = [[num(1.0) if a == b else num(0.0) for b in range(d)] for a in range(d)]
        return Metric(name, k, comp, box=[(-2.0, 2.0)] * d)
    if head == "sphere":
        if param != "2":
            raise GeometryError("sphere metric is 2-dimensional: use sphere:2")
        k = kind or "spatial"
        v = "x1" if k == "spatial" else "t1"
        comp = _diag(["1", f"sin({v})^2"])
        return Metric(name, k, comp, box=[(0.2, float(np.pi) - 0.2), (-3.0, 3.0)])
    if head == "hyperbolic":
        if param != "2":
            raise GeometryError("hyperbolic metric is 2-dimensional: use hyperbolic:2")
        k = kind or "spatial"
        v = "x2" if k == "spatial" else "t2"
        comp = _diag([f"1/{v}^2", f"1/{v}^2"])
        return Metric(name, k, comp, box=[(-2.0, 2.0), (0.1, 3.0)])
    if head == "exp1d":
        k = kind or "temporal"
        v = "t1" if k == "temporal" else "x1"
        return Metric(name, k, [[parse(f"exp(2*{v})")]], box=[(-1.5, 1.5)])
    if head == "conformal2d":
        k = kind or "temporal"
        lam = parse(param) if param else num(0.0)
        found = foreign_vars([lam], temporal_names(2) if k == "temporal" else spatial_names(2))
        if found:
            raise GeometryError(f"conformal factor references foreign variables {found[1]}")
        factor = parse(f"exp(2*({param or '0'}))")
        zero = num(0.0)
        comp = [[factor, zero], [zero, factor]]
        return Metric(name, k, comp, box=[(-1.5, 1.5), (-1.5, 1.5)])
    raise GeometryError(f"unknown metric '{name}'")


def energy_density(h: Metric, phi: Metric) -> Expr:
    """Energy density h^{ab}(t) phi_{ij}(x) x^i_a x^j_b as a jet-variable Expr."""
    if h.kind != "temporal" or phi.kind != "spatial":
        raise GeometryError("energy density expects a temporal and a spatial metric")
    hinv = h.inverse_components()
    p, n = h.dim, phi.dim
    return total(mul(mul(hinv[a][b], phi.components[i][j]),
                     mul(var(jet_name(i + 1, a + 1)), var(jet_name(j + 1, b + 1))))
                 for a in range(p) for b in range(p) for i in range(n) for j in range(n))
