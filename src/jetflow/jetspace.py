"""Points of the first jet space of maps T -> M and their chart behavior.

A jet point holds (t, x, v) with v[i, a] the jet coordinate x^i_a (row =
spatial index, column = temporal index).  Product chart changes act by

    t~ = t~(t),  x~ = x~(x),  x~^i_a = (dx~^i/dx^j) (dt^b/dt~^a) x^j_b,

and the natural frame / coframe of the jet space transforms by block
matrices of size (p + n + n*p)^2 whose vertical axis is fused with index
i*p + a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprlang import Expr, mul, subst, total, var
from .numdiff import (
    ChangeMap, _uniform, jacobian_blocks, jet_name, spatial_names, temporal_names,
)

__all__ = [
    "JetPoint", "vert_index", "frame_size", "transform_jet",
    "natural_frame_change", "natural_coframe_change", "jet_pullback",
    "mixed_jet_derivatives", "adapted_frame_blocks",
    "jet_env", "random_jet",
]


def vert_index(i: int, a: int, p: int) -> int:
    """Fused vertical index of the pair (i, a), 0-based: i*p + a."""
    return i * p + a


def frame_size(p: int, n: int) -> int:
    return p + n + n * p


@dataclass(frozen=True)
class JetPoint:
    """A point (t, x, v) of the first jet space; v has shape (n, p)."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.t.ndim != 1 or self.x.ndim != 1:
            raise ValueError("t and x must be vectors")
        if self.v.shape != (self.x.size, self.t.size):
            raise ValueError(f"v must have shape (n, p) = {(self.x.size, self.t.size)}, "
                             f"got {self.v.shape}")
        if not (np.isfinite(self.t).all() and np.isfinite(self.x).all()
                and np.isfinite(self.v).all()):
            raise ValueError("jet point has non-finite entries")

    @property
    def p(self) -> int:
        return self.t.size

    @property
    def n(self) -> int:
        return self.x.size


def jet_env(u: JetPoint) -> dict[str, float]:
    """Variable bindings t1.., x1.., x{i}_{a} for evaluating jet-space Exprs."""
    env = dict(zip(temporal_names(u.p), (float(c) for c in u.t)))
    env.update(zip(spatial_names(u.n), (float(c) for c in u.x)))
    for i in range(u.n):
        for a in range(u.p):
            env[jet_name(i + 1, a + 1)] = float(u.v[i, a])
    return env


def transform_jet(change: ChangeMap, u: JetPoint) -> JetPoint:
    """Apply the product chart change to a jet point."""
    jb = jacobian_blocks(change, u.t, u.x)
    return JetPoint(jb.t_new, jb.x_new, jb.B @ u.v @ jb.A_inv)


def mixed_jet_derivatives(change: ChangeMap, u: JetPoint):
    """The change's record at u with the derivatives of the transformed jet
    coordinates with respect to the base coordinates, as functions on the
    jet space, returned as (record, Wt, Wx):

        Wt[k, m, a] = d x~^k_m / d t^a
        Wx[k, m, i] = d x~^k_m / d x^i

    computed from first and second forward derivatives (the inverse temporal
    Jacobian enters through d(A^-1) = -A^-1 dA A^-1).
    """
    jb = jacobian_blocks(change, u.t, u.x)
    # dAinv[b, m, a] = d (A^-1)[b, m] / d t^a
    dAinv = -np.einsum("bg,gda,dm->bma", jb.A_inv, jb.hess_t, jb.A_inv)
    Wt = np.einsum("kj,jb,bma->kma", jb.B, u.v, dAinv)
    Wx = np.einsum("kji,bm,jb->kmi", jb.hess_x, jb.A_inv, u.v)
    return jb, Wt, Wx


def adapted_frame_blocks(change: ChangeMap, u: JetPoint) -> np.ndarray:
    """The block-diagonal matrix blockdiag(A.T, B.T, kron(B.T, A_inv)): the
    natural frame change without its mixed blocks, and what conjugating it
    by adapted frames must produce."""
    jb = jacobian_blocks(change, u.t, u.x)
    p, vt = u.p, u.p + u.n
    D = np.zeros((frame_size(u.p, u.n),) * 2)
    D[:p, :p] = jb.A.T
    D[p:vt, p:vt] = jb.B.T
    D[vt:, vt:] = np.kron(jb.B.T, jb.A_inv)
    return D


def natural_frame_change(change: ChangeMap, u: JetPoint) -> np.ndarray:
    """Matrix S with rows indexed by the source-chart natural frame
    [d/dt^a, d/dx^i, d/dx^i_a] and columns by the target-chart frame, so
    that (frame element a) = sum_b S[a, b] (target frame element b).

    Ordering: p temporal rows, n spatial rows, n*p vertical rows fused as
    i*p + a.  S is `adapted_frame_blocks` plus the vertical columns of the
    base rows.
    """
    p, n, vt = u.p, u.n, u.p + u.n
    _, Wt, Wx = mixed_jet_derivatives(change, u)
    S = adapted_frame_blocks(change, u)
    S[:p, vt:] = Wt.reshape(n * p, p).T
    S[p:vt, vt:] = Wx.reshape(n * p, n).T
    return S


def natural_coframe_change(change: ChangeMap, u: JetPoint) -> np.ndarray:
    """Matrix C with (coframe element a) = sum_b C[a, b] (target coframe b);
    same row/column ordering as natural_frame_change.  Entries are the
    derivatives of the source coordinates with respect to the target ones,
    i.e. the frame matrix of the inverted change at the image jet,
    transposed.
    """
    return natural_frame_change(change.inverted(), transform_jet(change, u)).T


def jet_pullback(e: Expr, change: ChangeMap, p: int, n: int) -> Expr:
    """Express a scalar jet-space Expr in the target chart of a change.

    Substitutes the inverse base maps and the inverse jet rule
    v^i_a = (dx^i/dx~^j) (dt~^b/dt^a) v~^j_b, all symbolically.
    """
    back_t = dict(zip(temporal_names(p), change.inverse_t))
    back: dict[str, Expr] = {**back_t, **dict(zip(spatial_names(n), change.inverse_x))}
    for i in range(n):
        for a in range(p):
            back[jet_name(i + 1, a + 1)] = total(
                mul(mul(change._dix[i][j], subst(change._dft[b][a], back_t)),
                    var(jet_name(j + 1, b + 1)))
                for j in range(n) for b in range(p))
    return subst(e, back)


def random_jet(rng, p: int, n: int,
               box_t=None, box_x=None, v_scale: float = 2.0) -> JetPoint:
    """Seeded jet point with base coordinates drawn inside the boxes
    (shrunk inward by a tenth of each side length) and v uniform in
    [-v_scale, v_scale].  Like the chart-change catalog, it draws only
    through `rng.random()` (`numdiff._uniform`)."""
    def draw(box, d):
        if box is None:
            return _uniform(rng, -1.0, 1.0, (d,))
        return np.array([_uniform(rng, lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
                         for lo, hi in box])

    t = draw(box_t, p)
    x = draw(box_x, n)
    v = _uniform(rng, -v_scale, v_scale, (n, p))
    return JetPoint(t, x, v)
