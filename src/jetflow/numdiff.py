"""Product-form coordinate changes and the names of the jet-space variables.

A ChangeMap is a diffeomorphism of product form t~ = t~(t), x~ = x~(x),
held symbolically (forward and inverse component Exprs) so Jacobians and
Hessians are exact.  The module also provides a seeded catalog of random
chart changes whose inverses are closed form by construction.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .exprlang import (
    DET_TOL, Expr, Table, add, call, compile_table, div, foreign_vars, mul, num, partials, sub,
    subst, var,
)

__all__ = [
    "ChartError", "ChangeMap", "JacobianBlocks", "jacobian_blocks",
    "temporal_names", "spatial_names", "jet_name", "jet_names",
    "identity_change", "affine_change", "random_affine_change",
    "random_shear_change", "random_monotone_change", "random_change",
    "change_catalog",
]


def temporal_names(p: int) -> list[str]:
    return [f"t{a + 1}" for a in range(p)]


def spatial_names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def jet_name(i: int, a: int) -> str:
    """Name of the jet variable x^i_a (1-based indices), e.g. jet_name(2,1) == 'x2_1'."""
    return f"x{i}_{a}"


def jet_names(n: int, p: int) -> list[str]:
    """All jet variable names, spatial index major: x1_1, x1_2, ..., xn_p."""
    return [jet_name(i + 1, a + 1) for i in range(n) for a in range(p)]


# ---------------------------------------------------------------------------
# coordinate changes


class ChartError(ValueError):
    pass


class ChangeMap:
    """Product-form chart change t~ = t~(t), x~ = x~(x) with symbolic inverse.

    forward_t / inverse_t are p Exprs over t1..tp; forward_x / inverse_x are
    n Exprs over x1..xn (the inverse components are written in the same
    variable names, read as the target chart's coordinates).  Its values
    at a point (the map, its Jacobians and Hessians, and numpy's inverse of
    each Jacobian block there) come from two `compile_table` tables through
    `jacobian_blocks`, which keeps one read-only record per point on the
    change.
    """

    def __init__(self, name: str, forward_t: Sequence[Expr], forward_x: Sequence[Expr],
                 inverse_t: Sequence[Expr], inverse_x: Sequence[Expr]):
        self.name = name
        self.p = len(forward_t)
        self.n = len(forward_x)
        self.forward_t = list(forward_t)
        self.forward_x = list(forward_x)
        self.inverse_t = list(inverse_t)
        self.inverse_x = list(inverse_x)
        self._blocks: dict[bytes, JacobianBlocks] = {}   # see jacobian_blocks
        self._pulled: dict = {}     # metric -> its pullback, see geometry.pullback_metric
        self._inverse: ChangeMap | weakref.ref | None = None   # see inverted
        if len(inverse_t) != self.p or len(inverse_x) != self.n:
            raise ChartError("forward and inverse components disagree in dimension")
        for label, exprs, names in (
                ("temporal", self.forward_t + self.inverse_t, temporal_names(self.p)),
                ("spatial", self.forward_x + self.inverse_x, spatial_names(self.n))):
            found = foreign_vars(exprs, names)
            if found:
                raise ChartError(f"{label} component references non-{label} variables {found[1]}")

    # cached symbolic derivative tables: d[component][name] of the forward
    # and inverse components, and d2[component][name][name] of the forward ones
    _dft = cached_property(lambda self: partials(self.forward_t, temporal_names(self.p)))
    _dfx = cached_property(lambda self: partials(self.forward_x, spatial_names(self.n)))
    _dit = cached_property(lambda self: partials(self.inverse_t, temporal_names(self.p)))
    _dix = cached_property(lambda self: partials(self.inverse_x, spatial_names(self.n)))
    _d2ft = cached_property(lambda self: [partials(row, temporal_names(self.p))
                                          for row in self._dft])
    _d2fx = cached_property(lambda self: [partials(row, spatial_names(self.n))
                                          for row in self._dfx])

    # pointwise evaluation ---------------------------------------------------

    @cached_property
    def _tables(self) -> tuple[Table, Table]:
        """The two tables `jacobian_blocks` evaluates, flattened: t~ with its first
        and second derivatives over t1..tp, the same for x~ over x1..xn."""
        tn, xn = temporal_names(self.p), spatial_names(self.n)
        return (compile_table(self.forward_t + _flat(self._dft) + _flat(_flat(self._d2ft)), tn),
                compile_table(self.forward_x + _flat(self._dfx) + _flat(_flat(self._d2fx)), xn))

    def forward(self, t: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The image point (t~, x~), read from the record `jacobian_blocks` keeps."""
        jb = jacobian_blocks(self, t, x)
        return jb.t_new, jb.x_new

    # structure --------------------------------------------------------------

    def inverted(self) -> "ChangeMap":
        """The inverse change, built on first use and kept, so its tables
        compile once: ``c.inverted() is c.inverted()``.

        The change holds its inverse, and the inverse refers back to it
        weakly, so the two do not hold each other: while `c` lives,
        ``c.inverted().inverted() is c``.  An inverse that outlives `c`
        still inverts: it builds and keeps a new inverse of its own, with
        the components of `c`."""
        got = self._inverse
        if isinstance(got, weakref.ref):
            got = got()
        if got is None:
            got = self._inverse = ChangeMap(self.name + "^-1", self.inverse_t, self.inverse_x,
                                            self.forward_t, self.forward_x)
            got._inverse = weakref.ref(self)
        return got

    def then(self, other: "ChangeMap") -> "ChangeMap":
        """Composition: apply self first, then other (Expr substitution)."""
        if (self.p, self.n) != (other.p, other.n):
            raise ChartError("cannot compose changes of different dimensions")
        tnames, xnames = temporal_names(self.p), spatial_names(self.n)
        fwd_t = [subst(e, dict(zip(tnames, self.forward_t))) for e in other.forward_t]
        fwd_x = [subst(e, dict(zip(xnames, self.forward_x))) for e in other.forward_x]
        inv_t = [subst(e, dict(zip(tnames, other.inverse_t))) for e in self.inverse_t]
        inv_x = [subst(e, dict(zip(xnames, other.inverse_x))) for e in self.inverse_x]
        return ChangeMap(f"{other.name}.{self.name}", fwd_t, fwd_x, inv_t, inv_x)

    def __repr__(self):
        return f"ChangeMap({self.name!r}, p={self.p}, n={self.n})"


@dataclass(frozen=True)
class JacobianBlocks:
    """A chart change evaluated at a point: the image, Jacobian blocks and
    Hessians there, and numpy's inverse of each block.  All read-only."""

    A: np.ndarray       # d t~ / d t,   p x p
    B: np.ndarray       # d x~ / d x,   n x n
    A_inv: np.ndarray   # inv(A) = d t / d t~ at the image point
    B_inv: np.ndarray   # inv(B) = d x / d x~ at the image point
    t_new: np.ndarray   # the image point (t~, x~)
    x_new: np.ndarray
    hess_t: np.ndarray  # [a, b, c] = d^2 t~^a / d t^b d t^c,  p x p x p
    hess_x: np.ndarray  # [i, j, k] = d^2 x~^i / d x^j d x^k,  n x n x n


def _flat(rows: list) -> list:
    return [e for row in rows for e in row]


def _readonly(values: Sequence[float], shape: tuple[int, ...]) -> np.ndarray:
    out = np.array(values, dtype=float).reshape(shape)
    out.flags.writeable = False
    return out


def _singular(m: np.ndarray) -> bool:
    return bool(m.size) and abs(np.linalg.det(m)) < DET_TOL


def _unpack(values: tuple, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A forward table's values as the image, the Jacobian and the Hessian."""
    return (_readonly(values[:d], (d,)), _readonly(values[d:d + d * d], (d, d)),
            _readonly(values[d + d * d:], (d, d, d)))


def jacobian_blocks(change: ChangeMap, t: np.ndarray, x: np.ndarray) -> JacobianBlocks:
    """The one evaluation of a product-form change at (t, x).

    The image, the forward blocks and the Hessians are the change's two
    tables at (t, x); the inverse blocks are numpy's inverse of the forward
    ones, taken once here, so every law reads the same A^-1 and B^-1 and
    only the target chart's own side reads the inverse components.  A
    nearly singular block (|det| < DET_TOL) raises ChartError before it is
    inverted.  The change keeps the record, keyed by the point's bytes; a
    failed evaluation is not kept.
    """
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    key = t.tobytes() + x.tobytes()
    jb = change._blocks.get(key)
    if jb is None:
        (fwd_t, fwd_x), p, n = change._tables, change.p, change.n
        t_new, A, hess_t = _unpack(fwd_t(*t.tolist()), p)
        x_new, B, hess_x = _unpack(fwd_x(*x.tolist()), n)
        for label, m in (("temporal", A), ("spatial", B)):
            if _singular(m):
                raise ChartError(f"invalid chart change: singular {label} block "
                                 "at evaluation point")
        jb = change._blocks[key] = JacobianBlocks(
            A=A, B=B,
            A_inv=_readonly(np.linalg.inv(A), (p, p)), B_inv=_readonly(np.linalg.inv(B), (n, n)),
            t_new=t_new, x_new=x_new, hess_t=hess_t, hess_x=hess_x)
    return jb


# ---------------------------------------------------------------------------
# chart-change catalog.  Every family has a closed-form symbolic inverse so
# the round-trip invariant holds at machine precision.


def _linear_exprs(names: Sequence[str], A: np.ndarray, b: np.ndarray) -> list[Expr]:
    out = []
    for row, shift in zip(A, b):
        e: Expr = num(shift)
        for coeff, name in zip(row, names):
            e = add(e, mul(num(coeff), var(name)))
        out.append(e)
    return out


def identity_change(p: int, n: int) -> ChangeMap:
    return ChangeMap("identity",
                     [var(v) for v in temporal_names(p)],
                     [var(v) for v in spatial_names(n)],
                     [var(v) for v in temporal_names(p)],
                     [var(v) for v in spatial_names(n)])


def affine_change(name: str, At: np.ndarray, bt: np.ndarray,
                  Ax: np.ndarray, bx: np.ndarray) -> ChangeMap:
    At, bt = np.asarray(At, float), np.asarray(bt, float)
    Ax, bx = np.asarray(Ax, float), np.asarray(bx, float)
    if _singular(At) or _singular(Ax):
        raise ChartError("affine block is singular")
    p, n = len(bt), len(bx)
    At_i, Ax_i = np.linalg.inv(At), np.linalg.inv(Ax)
    return ChangeMap(
        name,
        _linear_exprs(temporal_names(p), At, bt),
        _linear_exprs(spatial_names(n), Ax, bx),
        _linear_exprs(temporal_names(p), At_i, -At_i @ bt),
        _linear_exprs(spatial_names(n), Ax_i, -Ax_i @ bx),
    )


def _uniform(rng, lo: float, hi: float, shape: tuple[int, ...] = ()) -> np.ndarray:
    """lo + (hi - lo) u for each u = rng.random(), filled in C order.  Every
    draw of the catalog and of `jetspace.random_jet` comes through here, so
    `rng` needs only `random()`: a `random.Random`, or numpy's Generator."""
    u = np.array([rng.random() for _ in range(math.prod(shape))]).reshape(shape)
    return lo + (hi - lo) * u


def _random_well_conditioned(rng, d: int) -> np.ndarray:
    """Random matrix with singular values in [0.5, 2], so cond <= 4 < 50: the
    orthogonal factors of two uniform [-1, 1) matrices around diag(s)."""
    q1, _ = np.linalg.qr(_uniform(rng, -1.0, 1.0, (d, d)))
    q2, _ = np.linalg.qr(_uniform(rng, -1.0, 1.0, (d, d)))
    s = _uniform(rng, 0.5, 2.0, (d,))
    m = q1 @ np.diag(s) @ q2
    assert np.linalg.cond(m) < 50.0
    return m


def _affine_block(rng, d: int) -> tuple[np.ndarray, np.ndarray]:
    return _random_well_conditioned(rng, d), _uniform(rng, -0.5, 0.5, (d,))


def random_affine_change(rng, p: int, n: int, name: str = "affine") -> ChangeMap:
    At, bt = _affine_block(rng, p)
    Ax, bx = _affine_block(rng, n)
    return affine_change(name, At, bt, Ax, bx)


def _shear_exprs(rng, names: Sequence[str]) -> tuple[list[Expr], list[Expr]]:
    """Triangular sin/cos shear: coordinate k is displaced by a smooth
    function of the later coordinates, of amplitude at most 0.1, so the
    inverse is exact back-substitution and the Jacobian is unit triangular."""
    d = len(names)
    fwd: list[Expr] = [var(v) for v in names]
    perturb: list[Expr | None] = [None] * d
    for k in range(d - 1):
        j = min(k + 1 + int(rng.random() * (d - k - 1)), d - 1)
        fn = "sin" if rng.random() < 0.5 else "cos"
        freq = float(_uniform(rng, 0.5, 1.5))
        phase = float(_uniform(rng, 0.0, 2.0 * math.pi))
        amp = float(_uniform(rng, 0.3, 1.0) * 0.1)
        perturb[k] = mul(num(amp), call(fn, add(mul(num(freq), var(names[j])), num(phase))))
        fwd[k] = add(var(names[k]), perturb[k])
    inv: list[Expr] = [var(v) for v in names]
    for k in range(d - 2, -1, -1):
        if perturb[k] is None:
            continue
        solved = dict(zip(names, inv))
        inv[k] = sub(var(names[k]), subst(perturb[k], solved))
    return fwd, inv


def _monotone_1d(rng, name: str) -> tuple[list[Expr], list[Expr]]:
    """Nonlinear monotone map of a single coordinate with an elementary inverse."""
    a = float(_uniform(rng, 0.8, 1.2))
    b = float(_uniform(rng, 0.4, 0.8))
    c = float(_uniform(rng, -0.3, 0.3))
    v = var(name)
    # u = a*exp(b*t) + c  with inverse  t = log((u - c)/a)/b
    fwd = [add(mul(num(a), call("exp", mul(num(b), v))), num(c))]
    inv = [div(call("log", div(sub(v, num(c)), num(a))), num(b))]
    return fwd, inv


def random_shear_change(rng, p: int, n: int,
                        name: str = "shear") -> ChangeMap:
    if p >= 2:
        ft, it = _shear_exprs(rng, temporal_names(p))
    else:
        ft, it = _monotone_1d(rng, "t1")
    if n >= 2:
        fx, ix = _shear_exprs(rng, spatial_names(n))
    else:
        fx, ix = _monotone_1d(rng, "x1")
    return ChangeMap(name, ft, fx, it, ix)


def random_monotone_change(rng, p: int, n: int, name: str = "monotone") -> ChangeMap:
    """Coordinatewise nonlinear monotone map in every single coordinate."""
    ft, it = [], []
    for v in temporal_names(p):
        f, i = _monotone_1d(rng, v)
        ft += f
        it += i
    fx, ix = [], []
    for v in spatial_names(n):
        f, i = _monotone_1d(rng, v)
        fx += f
        ix += i
    return ChangeMap(name, ft, fx, it, ix)


def random_change(rng, p: int, n: int, kind: str = "mixed") -> ChangeMap:
    if kind == "affine":
        return random_affine_change(rng, p, n)
    if kind == "shear":
        return random_shear_change(rng, p, n)
    if kind == "monotone":
        return random_monotone_change(rng, p, n)
    if kind == "mixed":
        # nonlinear shear followed by a well-conditioned affine map
        first = random_shear_change(rng, p, n)
        second = random_affine_change(rng, p, n)
        c = first.then(second)
        c.name = "mixed"
        return c
    raise ChartError(f"unknown change kind '{kind}'")


def change_catalog(rng, p: int, n: int, kinds: Sequence[str],
                   count: int) -> list[ChangeMap]:
    """Deterministic list of catalog changes: `count` draws per kind, named kind-k."""
    out = []
    for kind in kinds:
        for k in range(count):
            c = random_change(rng, p, n, kind)
            c.name = f"{kind}-{k}"
            out.append(c)
    return out
