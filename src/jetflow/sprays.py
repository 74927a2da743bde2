"""Temporal and spatial sprays on the first jet space.

A spray is one `Spray` whose `kind` is "temporal" or "spatial"; the kind
fixes only the inhomogeneous term of its transformation law.  Coefficients
are stored as (n, p, p) arrays arr[j, b, a] = S^{(j)}_{(b)a} (vertical pair
(j, b), extra lower temporal index a).  Temporal sprays transform by

    2 H~^{(k)}_{(m)g} = 2 H^{(j)}_{(b)a} (dt^a/dt~^g)(dx~^k/dx^j)(dt^b/dt~^m)
                        - (dt^a/dt~^g)(d x~^k_m / d t^a)

and spatial sprays by the analogous law with inhomogeneous term
-(dx^i/dx~^j)(d x~^k_m / d x^i) x~^j_g.  The canonical examples come from
metric Christoffel symbols:

    2 H^{(j)}_{(b)a} = -H^g_ab x^j_g          (temporal metric h)
    2 G^{(j)}_{(b)a} = gamma^j_kl x^k_a x^l_b (spatial metric phi)

The difference of two sprays of the same kind is a d-tensor; a spray is
canonical part plus d-tensor remainder.

A canonical spray is one table over the jet variables (built from the
metric's symbolic Christoffel symbols on first use, and shared by every
canonical spray of the same metric and dimensions); its pointwise and
batched coefficients run the same table, and constant folding makes the
spray of a flat metric a table of zeros.  A grid solver that evaluates a
spray on fixed temporal nodes runs the table frozen on them (`batch_at`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from .dtensor import DTensorField, IndexSignature, Verdict, law_check
from .exprlang import Expr, add, diff, free_vars, mul, num, var
from .geometry import Metric, pullback_metric
from .numdiff import ChangeMap, jet_name, jet_names, spatial_names, temporal_names
from .jetspace import JetPoint, mixed_jet_derivatives

__all__ = [
    "SprayError", "Spray", "HSpray", "SprayPair",
    "canonical_temporal", "canonical_spatial", "canonical_pair", "zero_spray",
    "transform_spray", "spray_law_error", "h_trace", "spray_from_hspray",
    "combine_sprays", "spray_difference_field", "spray_coefficient_field",
    "decompose_spray",
]

_KINDS = ("temporal", "spatial")


class SprayError(ValueError):
    pass


@dataclass(frozen=True)
class Spray:
    kind: str                                                # one of _KINDS
    p: int
    n: int
    coefficients: Callable[[JetPoint], np.ndarray]          # (n, p, p)
    jet_gradient: Callable[[JetPoint], np.ndarray] | None = None  # (n,p,p,n,p)
    rebuild: Callable[[ChangeMap], "Spray"] | None = None
    # (T, X, V) arrays of shape (q,p), (q,n), (q,n,p) -> (q,n,p,p)
    coefficients_batch: Callable[..., np.ndarray] | None = None
    name: str = "spray"
    # a canonical spray's compiled tables; the geodesic RK4 runs their
    # kernel while `coefficients` is still `tables.coefficients`
    tables: _SprayTables | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SprayError(f"spray kind must be one of {_KINDS}, not {self.kind!r}")

    def in_chart(self, change: ChangeMap) -> "Spray":
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
    temporal: Spray
    spatial: Spray

    def __post_init__(self):
        if (self.temporal.kind, self.spatial.kind) != _KINDS:
            raise SprayError("a spray pair is a temporal spray then a spatial spray")


# ---------------------------------------------------------------------------
# canonical sprays


class _SprayTables:
    """The `compile_table` tables of a canonical spray, each built on first use:
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

    def _filled(self, q: int, values: Sequence) -> np.ndarray:
        """(q, n, p, p) coefficients from a kernel's values (det g first)."""
        out = np.empty((q, len(values) - 1))
        for k, v in enumerate(values[1:]):
            out[:, k] = v                       # a constant entry broadcasts
        return out.reshape(q, self.n, self.p, self.p)

    def _jet_columns(self, X: np.ndarray, V: np.ndarray) -> list[np.ndarray]:
        return [*np.asarray(X, float).T,
                *np.asarray(V, float).reshape(len(X), self.n * self.p).T]

    def coefficients_batch(self, T: np.ndarray, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        return self._filled(len(T), self.kernel(*np.asarray(T, float).T,
                                                *self._jet_columns(X, V)))

    def batch_at(self, T: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """`coefficients_batch` on the fixed temporal nodes T, as a function
        of (X, V): the kernel frozen on t1..tp (`Table.freeze`), so the terms
        that read only t are computed once, here, and a metric degenerate at
        a node raises GeometryError here.  Every value is bit for bit the
        one `coefficients_batch(T, X, V)` gives.  When no entry reads x or
        the jet variables (the spray of a flat metric), every call returns
        the same read-only array."""
        q, fixed = len(T), temporal_names(self.p)
        table = self.kernel.freeze(fixed, list(np.asarray(T, float).T))

        def batch(X: np.ndarray, V: np.ndarray) -> np.ndarray:
            return self._filled(q, table(*self._jet_columns(X, V)))

        if free_vars(*self.kernel.exprs) <= set(fixed):
            constant = batch(np.zeros((q, self.n)), np.zeros((q, self.n, self.p)))
            constant.flags.writeable = False
            return lambda X, V: constant
        return batch


def _total(terms) -> Expr:
    return reduce(add, terms, num(0.0))


def _tables_of(metric: Metric, p: int, n: int,
               entries: Callable[[], list[Expr]]) -> _SprayTables:
    """The canonical spray tables of a metric with the other factor of the
    jet space, built once per (metric, other dimension): every canonical
    spray of that pair shares them, and their compiled kernels."""
    other = n if metric.kind == "temporal" else p
    tables = metric._spray_tables.get(other)
    if tables is None:
        tables = metric._spray_tables[other] = _SprayTables(metric, p, n, entries)
    return tables


def canonical_temporal(h: Metric, n: int) -> Spray:
    if h.kind != "temporal":
        raise SprayError("canonical temporal spray needs a temporal metric")
    p = h.dim

    def entries() -> list[Expr]:
        # H^{(j)}_{(b)a} = -(1/2) Gamma^g_ab x^j_g
        gamma = h.christoffel_exprs
        return [mul(num(-0.5), _total(mul(gamma[g][a][b], var(jet_name(j + 1, g + 1)))
                                      for g in range(p)))
                for j in range(n) for b in range(p) for a in range(p)]

    tables = _tables_of(h, p, n, entries)
    return Spray("temporal", p, n, tables.coefficients, jet_gradient=tables.jet_gradient,
                 rebuild=lambda c: canonical_temporal(pullback_metric(h, c), n),
                 coefficients_batch=tables.coefficients_batch,
                 name=f"canonical-temporal[{h.name}]", tables=tables)


def canonical_spatial(phi: Metric, p: int) -> Spray:
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

    tables = _tables_of(phi, p, n, entries)
    return Spray("spatial", p, n, tables.coefficients, jet_gradient=tables.jet_gradient,
                 rebuild=lambda c: canonical_spatial(pullback_metric(phi, c), p),
                 coefficients_batch=tables.coefficients_batch,
                 name=f"canonical-spatial[{phi.name}]", tables=tables)


def canonical_pair(h: Metric, phi: Metric) -> SprayPair:
    return SprayPair(canonical_temporal(h, phi.dim), canonical_spatial(phi, h.dim))


def zero_spray(kind: str, p: int, n: int) -> Spray:
    return Spray(kind, p, n, lambda u: np.zeros((n, p, p)),
                 jet_gradient=lambda u: np.zeros((n, p, p, n, p)),
                 coefficients_batch=lambda T, X, V: np.zeros((len(T), n, p, p)),
                 name=f"zero-{kind}")


# ---------------------------------------------------------------------------
# transformation laws


def transform_spray(s: Spray, change: ChangeMap, u: JetPoint) -> np.ndarray:
    """Predicted target-chart coefficients at the image of u: the tensor
    term plus the inhomogeneous term of the spray's kind."""
    jb, Wt, Wx = mixed_jet_derivatives(change, u)
    tensor = np.einsum("jba,ag,kj,bm->kmg", s.coefficients(u), jb.A_inv, jb.B, jb.A_inv)
    if s.kind == "temporal":
        return tensor - 0.5 * np.einsum("ag,kma->kmg", jb.A_inv, Wt)
    v_new = jb.B @ u.v @ jb.A_inv
    return tensor - 0.5 * np.einsum("ij,kmi,jg->kmg", jb.B_inv, Wx, v_new)


def spray_law_error(s: Spray, changes: Sequence[ChangeMap], jets: Sequence[JetPoint],
                    tol: float = 1e-8) -> Verdict:
    """Compare the transformation law against the chart-native recompute."""
    return law_check(lambda c, u: transform_spray(s, c, u),
                     lambda c: s.in_chart(c).coefficients, changes, jets, tol)


# perfbench's tracer times the spray law under this name
_law_error = spray_law_error


# ---------------------------------------------------------------------------
# h-trace and the one-dimensional correspondence


def h_trace(s: Spray, h: Metric) -> HSpray:
    """G^i = h^{ab} S^{(i)}_{(a)b}."""
    if h.kind != "temporal":
        raise SprayError("h_trace contracts with a temporal metric")

    def comps(u: JetPoint) -> np.ndarray:
        hinv = h.inverse_batch(u.t)[0]
        return np.einsum("ab,iab->i", hinv, s.coefficients(u))

    grad = None
    if s.jet_gradient is not None:
        def grad(u: JetPoint) -> np.ndarray:
            hinv = h.inverse_batch(u.t)[0]
            return np.einsum("ab,iabkg->ikg", hinv, s.jet_gradient(u))

    return HSpray(s.p, s.n, comps, jet_gradient=grad, name=f"h-trace[{s.name}]")


def spray_from_hspray(hs: HSpray, h: Metric) -> Spray:
    """Inverse of h_trace; only one temporal dimension admits it."""
    if hs.p != 1 or h.dim != 1:
        raise SprayError("the spray <-> h-spray correspondence holds only for "
                         "one temporal dimension")

    def coeff(u: JetPoint) -> np.ndarray:
        h11 = h.components_batch(u.t)[0, 0, 0]
        return (h11 * hs.components(u)).reshape(hs.n, 1, 1)

    grad = None
    if hs.jet_gradient is not None:
        def grad(u: JetPoint) -> np.ndarray:
            h11 = h.components_batch(u.t)[0, 0, 0]
            return (h11 * hs.jet_gradient(u)).reshape(hs.n, 1, 1, hs.n, 1)

    return Spray("spatial", 1, hs.n, coeff, jet_gradient=grad,
                 name=f"from-h-spray[{hs.name}]")


# ---------------------------------------------------------------------------
# affine structure


def _same_space(sprays: Sequence[Spray]) -> None:
    """Sprays that are added or subtracted must share kind and jet space."""
    first = sprays[0]
    for s in sprays[1:]:
        if s.kind != first.kind:
            raise SprayError(f"sprays of different kinds: {first.kind} and {s.kind}")
        if (s.p, s.n) != (first.p, first.n):
            raise SprayError("sprays live on different jet spaces")


def combine_sprays(sprays: Sequence[Spray], weights: Sequence[float]) -> Spray:
    """Affine combination (weights summing to 1) of sprays of one kind,
    which is again a spray of that kind."""
    sprays = list(sprays)
    if not sprays:
        raise SprayError("nothing to combine")
    _same_space(sprays)
    w = [float(c) for c in weights]
    if abs(sum(w) - 1.0) > 1e-12:
        raise SprayError("affine combination weights must sum to 1")
    kind, p, n = sprays[0].kind, sprays[0].p, sprays[0].n

    def coeff(u: JetPoint) -> np.ndarray:
        return sum(c * s.coefficients(u) for c, s in zip(w, sprays))

    grad = None
    if all(s.jet_gradient is not None for s in sprays):
        def grad(u: JetPoint) -> np.ndarray:
            return sum(c * s.jet_gradient(u) for c, s in zip(w, sprays))

    rebuild = None
    if all(s.rebuild is not None for s in sprays):
        def rebuild(change: ChangeMap):
            return combine_sprays([s.rebuild(change) for s in sprays], w)

    batch = None
    if all(s.coefficients_batch is not None for s in sprays):
        def batch(T, X, V):
            return sum(c * s.coefficients_batch(T, X, V) for c, s in zip(w, sprays))

    return Spray(kind, p, n, coeff, jet_gradient=grad, rebuild=rebuild,
                 coefficients_batch=batch, name="affine-combination")


# ---------------------------------------------------------------------------
# sprays vs d-tensors


_SPRAY_SIG = IndexSignature.parse("U(j,b);L(a)")


def spray_difference_field(s1: Spray, s2: Spray, name: str | None = None) -> DTensorField:
    """The difference of two sprays of the same kind, as a d-tensor field."""
    _same_space([s1, s2])
    p, n = s1.p, s1.n

    def comps(u: JetPoint) -> np.ndarray:
        return (s1.coefficients(u) - s2.coefficients(u)).reshape(n * p, p)

    rebuild = None
    if s1.rebuild is not None and s2.rebuild is not None:
        def rebuild(change: ChangeMap) -> DTensorField:
            return spray_difference_field(s1.rebuild(change), s2.rebuild(change), name)

    return DTensorField(name or f"{s1.name}-minus-{s2.name}", _SPRAY_SIG, p, n,
                        comps, rebuild=rebuild)


def spray_coefficient_field(s: Spray, name: str | None = None) -> DTensorField:
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


def decompose_spray(s: Spray, metric: Metric) -> tuple[Spray, DTensorField]:
    """Split s into the canonical spray of a metric of its kind plus a
    d-tensor remainder."""
    if metric.kind != s.kind:
        raise SprayError(f"a {s.kind} spray decomposes over a {s.kind} metric")
    base = (canonical_temporal(metric, s.n) if s.kind == "temporal"
            else canonical_spatial(metric, s.p))
    return base, spray_difference_field(s, base, name=f"remainder[{s.name}]")
