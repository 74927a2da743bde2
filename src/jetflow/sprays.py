"""Temporal and spatial sprays on the first jet space.

Coefficients are stored as (n, p, p) arrays arr[j, b, a] = S^{(j)}_{(b)a}
(vertical pair (j, b), extra lower temporal index a).  Temporal sprays
transform by

    2 H~^{(k)}_{(m)g} = 2 H^{(j)}_{(b)a} (dt^a/dt~^g)(dx~^k/dx^j)(dt^b/dt~^m)
                        - (dt^a/dt~^g)(d x~^k_m / d t^a)

and spatial sprays by the analogous law with inhomogeneous term
-(dx^i/dx~^j)(d x~^k_m / d x^i) x~^j_g.  The canonical examples come from
metric Christoffel symbols:

    2 H^{(j)}_{(b)a} = -H^g_ab x^j_g          (temporal metric h)
    2 G^{(j)}_{(b)a} = gamma^j_kl x^k_a x^l_b (spatial metric phi)

The difference of two sprays of the same kind is a d-tensor; a spray is
canonical part plus d-tensor remainder.

A canonical spray is one compiled table over the jet variables (built from
the metric's symbolic Christoffel symbols on first use); its pointwise and
batched coefficients run the same table, and constant folding makes the
spray of a flat metric a table of zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from .dtensor import DTensorField, IndexSignature, Verdict
from .exprlang import Expr, add, diff, mul, num, var
from .geometry import Metric, pullback_metric
from .numdiff import ChangeMap, jet_name, jet_names, spatial_names, temporal_names
from .jetspace import JetPoint, mixed_jet_derivatives, transform_jet

__all__ = [
    "SprayError", "TemporalSpray", "SpatialSpray", "HSpray", "SprayPair",
    "canonical_temporal", "canonical_spatial", "canonical_pair",
    "zero_temporal", "zero_spatial",
    "transform_temporal", "transform_spatial",
    "temporal_law_error", "spatial_law_error",
    "h_trace", "spray_from_hspray",
    "combine_temporal", "combine_spatial",
    "spray_difference_field", "spray_coefficient_field", "decompose_temporal",
    "decompose_spatial",
]


class SprayError(ValueError):
    pass


@dataclass(frozen=True)
class TemporalSpray:
    p: int
    n: int
    coefficients: Callable[[JetPoint], np.ndarray]          # (n, p, p)
    jet_gradient: Callable[[JetPoint], np.ndarray] | None = None  # (n,p,p,n,p)
    rebuild: Callable[[ChangeMap], "TemporalSpray"] | None = None
    # (T, X, V) arrays of shape (q,p), (q,n), (q,n,p) -> (q,n,p,p)
    coefficients_batch: Callable[..., np.ndarray] | None = None
    name: str = "temporal-spray"
    # a canonical spray's compiled tables; the geodesic RK4 runs their
    # kernel while `coefficients` is still `tables.coefficients`
    tables: _SprayTables | None = None

    def in_chart(self, change: ChangeMap) -> "TemporalSpray":
        if self.rebuild is None:
            raise SprayError(f"spray '{self.name}' has no chart-native form")
        return self.rebuild(change)


@dataclass(frozen=True)
class SpatialSpray:
    p: int
    n: int
    coefficients: Callable[[JetPoint], np.ndarray]
    jet_gradient: Callable[[JetPoint], np.ndarray] | None = None
    rebuild: Callable[[ChangeMap], "SpatialSpray"] | None = None
    coefficients_batch: Callable[..., np.ndarray] | None = None
    name: str = "spatial-spray"
    tables: _SprayTables | None = None

    def in_chart(self, change: ChangeMap) -> "SpatialSpray":
        if self.rebuild is None:
            raise SprayError(f"spray '{self.name}' has no chart-native form")
        return self.rebuild(change)


@dataclass(frozen=True)
class HSpray:
    """h-trace of a spray: components G^i = h^{ab} S^{(i)}_{(a)b}."""

    p: int
    n: int
    components: Callable[[JetPoint], np.ndarray]             # (n,)
    jet_gradient: Callable[[JetPoint], np.ndarray] | None = None  # (n, n, p)
    name: str = "h-spray"


@dataclass(frozen=True)
class SprayPair:
    temporal: TemporalSpray
    spatial: SpatialSpray


# ---------------------------------------------------------------------------
# canonical sprays


class _SprayTables:
    """The compiled tables of a canonical spray, each built on first use:
    its coefficients arr[j, b, a] (row-major) and their jet gradient
    d arr[j, b, a] / d x^k_g.  Both run over the jet variables t1..tp,
    x1..xn, x1_1..xn_p and lead with det g, so a degenerate metric stops
    them with GeometryError.  Points run on Python floats, batches on numpy
    columns; `kernel` is the coefficient table itself, a function of the
    flat jet arguments returning (det g, *arr.ravel())."""

    def __init__(self, metric: Metric, p: int, n: int,
                 entries: Callable[[], list[Expr]]):
        self.metric, self.p, self.n = metric, p, n
        self._build_entries = entries
        self.names = temporal_names(p) + spatial_names(n) + jet_names(n, p)

    @cached_property
    def _entries(self) -> list[Expr]:
        return self._build_entries()

    @cached_property
    def kernel(self) -> Callable[..., tuple]:
        return self.metric.checked_table(self._entries, self.names)

    @cached_property
    def _gradient(self) -> Callable[..., tuple]:
        jets = jet_names(self.n, self.p)
        return self.metric.checked_table([diff(e, v) for e in self._entries for v in jets],
                                         self.names)

    @staticmethod
    def _floats(u: JetPoint) -> list[float]:
        return u.t.tolist() + u.x.tolist() + u.v.ravel().tolist()

    def coefficients(self, u: JetPoint) -> np.ndarray:
        values = self.kernel(*self._floats(u))
        return np.array(values[1:]).reshape(self.n, self.p, self.p)

    def jet_gradient(self, u: JetPoint) -> np.ndarray:
        n, p = self.n, self.p
        values = self._gradient(*self._floats(u))
        return np.array(values[1:]).reshape(n, p, p, n, p)

    def coefficients_batch(self, T: np.ndarray, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        q = len(T)
        values = self.kernel(*np.asarray(T, float).T, *np.asarray(X, float).T,
                             *np.asarray(V, float).reshape(q, self.n * self.p).T)
        out = np.empty((q, len(values) - 1))
        for k, v in enumerate(values[1:]):
            out[:, k] = v                       # a constant entry broadcasts
        return out.reshape(q, self.n, self.p, self.p)


def _total(terms) -> Expr:
    return reduce(add, terms, num(0.0))


def canonical_temporal(h: Metric, n: int) -> TemporalSpray:
    if h.kind != "temporal":
        raise SprayError("canonical temporal spray needs a temporal metric")
    p = h.dim

    def entries() -> list[Expr]:
        # H^{(j)}_{(b)a} = -(1/2) Gamma^g_ab x^j_g
        gamma = h.christoffel_exprs
        return [mul(num(-0.5), _total(mul(gamma[g][a][b], var(jet_name(j + 1, g + 1)))
                                      for g in range(p)))
                for j in range(n) for b in range(p) for a in range(p)]

    tables = _SprayTables(h, p, n, entries)
    return TemporalSpray(p, n, tables.coefficients, jet_gradient=tables.jet_gradient,
                         rebuild=lambda c: canonical_temporal(pullback_metric(h, c), n),
                         coefficients_batch=tables.coefficients_batch,
                         name=f"canonical-temporal[{h.name}]", tables=tables)


def canonical_spatial(phi: Metric, p: int) -> SpatialSpray:
    if phi.kind != "spatial":
        raise SprayError("canonical spatial spray needs a spatial metric")
    n = phi.dim

    def entries() -> list[Expr]:
        # G^{(j)}_{(b)a} = (1/2) gamma^j_kl x^k_a x^l_b
        gamma = phi.christoffel_exprs
        return [mul(num(0.5), _total(mul(mul(gamma[j][k][l], var(jet_name(k + 1, a + 1))),
                                         var(jet_name(l + 1, b + 1)))
                                     for k in range(n) for l in range(n)))
                for j in range(n) for b in range(p) for a in range(p)]

    tables = _SprayTables(phi, p, n, entries)
    return SpatialSpray(p, n, tables.coefficients, jet_gradient=tables.jet_gradient,
                        rebuild=lambda c: canonical_spatial(pullback_metric(phi, c), p),
                        coefficients_batch=tables.coefficients_batch,
                        name=f"canonical-spatial[{phi.name}]", tables=tables)


def canonical_pair(h: Metric, phi: Metric) -> SprayPair:
    return SprayPair(canonical_temporal(h, phi.dim), canonical_spatial(phi, h.dim))


def zero_temporal(p: int, n: int) -> TemporalSpray:
    return TemporalSpray(p, n, lambda u: np.zeros((n, p, p)),
                         jet_gradient=lambda u: np.zeros((n, p, p, n, p)),
                         coefficients_batch=lambda T, X, V: np.zeros((len(T), n, p, p)),
                         name="zero-temporal")


def zero_spatial(p: int, n: int) -> SpatialSpray:
    return SpatialSpray(p, n, lambda u: np.zeros((n, p, p)),
                        jet_gradient=lambda u: np.zeros((n, p, p, n, p)),
                        coefficients_batch=lambda T, X, V: np.zeros((len(T), n, p, p)),
                        name="zero-spatial")


# ---------------------------------------------------------------------------
# transformation laws


def transform_temporal(s: TemporalSpray, change: ChangeMap, u: JetPoint) -> np.ndarray:
    """Predicted target-chart coefficients at the image of u."""
    A, B, A_inv, Wt, _ = mixed_jet_derivatives(change, u)
    tensor = np.einsum("jba,ag,kj,bm->kmg", s.coefficients(u), A_inv, B, A_inv)
    return tensor - 0.5 * np.einsum("ag,kma->kmg", A_inv, Wt)


def transform_spatial(s: SpatialSpray, change: ChangeMap, u: JetPoint) -> np.ndarray:
    A, B, A_inv, _, Wx = mixed_jet_derivatives(change, u)
    B_inv = np.linalg.inv(B)
    v_new = B @ u.v @ A_inv
    tensor = np.einsum("jba,ag,kj,bm->kmg", s.coefficients(u), A_inv, B, A_inv)
    return tensor - 0.5 * np.einsum("ij,kmi,jg->kmg", B_inv, Wx, v_new)


def _law_error(s, transform, changes: Sequence[ChangeMap], jets: Sequence[JetPoint]) -> Verdict:
    worst, witness, pairs = 0.0, None, 0
    for change in changes:
        native = s.in_chart(change)
        for k, u in enumerate(jets):
            predicted = transform(s, change, u)
            actual = native.coefficients(transform_jet(change, u))
            err = float(np.max(np.abs(predicted - actual) / np.maximum(1.0, np.abs(actual))))
            pairs += 1
            if err > worst:
                worst, witness = err, (change.name, k)
    return Verdict(passed=True, max_rel_err=worst, pairs=pairs, witness=witness)


def temporal_law_error(s: TemporalSpray, changes, jets, tol: float = 1e-8) -> Verdict:
    """Compare the transformation law against the chart-native recompute."""
    v = _law_error(s, transform_temporal, changes, jets)
    return Verdict(v.max_rel_err <= tol, v.max_rel_err, v.pairs, v.witness)


def spatial_law_error(s: SpatialSpray, changes, jets, tol: float = 1e-8) -> Verdict:
    v = _law_error(s, transform_spatial, changes, jets)
    return Verdict(v.max_rel_err <= tol, v.max_rel_err, v.pairs, v.witness)


# ---------------------------------------------------------------------------
# h-trace and the one-dimensional correspondence


def h_trace(s: TemporalSpray | SpatialSpray, h: Metric) -> HSpray:
    """G^i = h^{ab} S^{(i)}_{(a)b}."""
    if h.kind != "temporal":
        raise SprayError("h_trace contracts with a temporal metric")

    def comps(u: JetPoint) -> np.ndarray:
        hinv = h.inverse_at(u.t)
        return np.einsum("ab,iab->i", hinv, s.coefficients(u))

    grad = None
    if s.jet_gradient is not None:
        def grad(u: JetPoint) -> np.ndarray:
            hinv = h.inverse_at(u.t)
            return np.einsum("ab,iabkg->ikg", hinv, s.jet_gradient(u))

    return HSpray(s.p, s.n, comps, jet_gradient=grad, name=f"h-trace[{s.name}]")


def spray_from_hspray(hs: HSpray, h: Metric) -> SpatialSpray:
    """Inverse of h_trace; only one temporal dimension admits it."""
    if hs.p != 1 or h.dim != 1:
        raise SprayError("the spray <-> h-spray correspondence holds only for "
                         "one temporal dimension")

    def coeff(u: JetPoint) -> np.ndarray:
        h11 = h.components_at(u.t)[0, 0]
        return (h11 * hs.components(u)).reshape(hs.n, 1, 1)

    grad = None
    if hs.jet_gradient is not None:
        def grad(u: JetPoint) -> np.ndarray:
            h11 = h.components_at(u.t)[0, 0]
            return (h11 * hs.jet_gradient(u)).reshape(hs.n, 1, 1, hs.n, 1)

    return SpatialSpray(1, hs.n, coeff, jet_gradient=grad,
                        name=f"from-h-spray[{hs.name}]")


# ---------------------------------------------------------------------------
# affine structure


def _combine(cls, sprays, weights):
    if not sprays:
        raise SprayError("nothing to combine")
    w = [float(c) for c in weights]
    if abs(sum(w) - 1.0) > 1e-12:
        raise SprayError("affine combination weights must sum to 1")
    p, n = sprays[0].p, sprays[0].n

    def coeff(u: JetPoint) -> np.ndarray:
        return sum(c * s.coefficients(u) for c, s in zip(w, sprays))

    grad = None
    if all(s.jet_gradient is not None for s in sprays):
        def grad(u: JetPoint) -> np.ndarray:
            return sum(c * s.jet_gradient(u) for c, s in zip(w, sprays))

    rebuild = None
    if all(s.rebuild is not None for s in sprays):
        def rebuild(change: ChangeMap):
            return _combine(cls, [s.rebuild(change) for s in sprays], w)

    batch = None
    if all(s.coefficients_batch is not None for s in sprays):
        def batch(T, X, V):
            return sum(c * s.coefficients_batch(T, X, V) for c, s in zip(w, sprays))

    return cls(p, n, coeff, jet_gradient=grad, rebuild=rebuild,
               coefficients_batch=batch, name="affine-combination")


def combine_temporal(sprays: Sequence[TemporalSpray], weights: Sequence[float]) -> TemporalSpray:
    """Affine combination (weights summing to 1), which is again a spray."""
    return _combine(TemporalSpray, list(sprays), weights)


def combine_spatial(sprays: Sequence[SpatialSpray], weights: Sequence[float]) -> SpatialSpray:
    return _combine(SpatialSpray, list(sprays), weights)


# ---------------------------------------------------------------------------
# sprays vs d-tensors


_SPRAY_SIG = IndexSignature.parse("U(j,b);L(a)")


def spray_difference_field(s1, s2, name: str | None = None) -> DTensorField:
    """The difference of two sprays of the same kind, as a d-tensor field."""
    if (s1.p, s1.n) != (s2.p, s2.n):
        raise SprayError("sprays live on different jet spaces")
    p, n = s1.p, s1.n

    def comps(u: JetPoint) -> np.ndarray:
        return (s1.coefficients(u) - s2.coefficients(u)).reshape(n * p, p)

    rebuild = None
    if s1.rebuild is not None and s2.rebuild is not None:
        def rebuild(change: ChangeMap) -> DTensorField:
            return spray_difference_field(s1.rebuild(change), s2.rebuild(change), name)

    return DTensorField(name or f"{s1.name}-minus-{s2.name}", _SPRAY_SIG, p, n,
                        comps, rebuild=rebuild)


def spray_coefficient_field(s, name: str | None = None) -> DTensorField:
    """Spray coefficients wrapped as a candidate d-tensor (a negative
    control: the inhomogeneous term makes is_dtensor fail)."""
    p, n = s.p, s.n

    def comps(u: JetPoint) -> np.ndarray:
        return s.coefficients(u).reshape(n * p, p)

    rebuild = None
    if s.rebuild is not None:
        def rebuild(change: ChangeMap) -> DTensorField:
            return spray_coefficient_field(s.rebuild(change), name)

    return DTensorField(name or f"coefficients[{s.name}]", _SPRAY_SIG, p, n,
                        comps, rebuild=rebuild)


def decompose_temporal(s: TemporalSpray, h: Metric) -> tuple[TemporalSpray, DTensorField]:
    """Split s into the canonical temporal spray of h plus a d-tensor remainder."""
    base = canonical_temporal(h, s.n)
    return base, spray_difference_field(s, base, name=f"remainder[{s.name}]")


def decompose_spatial(s: SpatialSpray, phi: Metric) -> tuple[SpatialSpray, DTensorField]:
    base = canonical_spatial(phi, s.p)
    return base, spray_difference_field(s, base, name=f"remainder[{s.name}]")
