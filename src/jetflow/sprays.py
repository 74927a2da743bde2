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

Every spray, h-spray and nonlinear connection (connection.py) is one
`JetTable`: symbolic entries over the jet variables whose pointwise and
frozen batched values run one compiled table.  A
canonical spray's entries come from the metric's symbolic Christoffel
symbols, shared by every canonical spray of one metric and other
dimension (a flat metric's fold to zeros); a derived object (an affine
combination, an h-trace, the spray of an h-spray, a connection's sprays)
builds its entries from its parts' entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .dtensor import DTensorField, IndexSignature, Verdict, law_check
from .exprlang import Expr, Guard, Table, compile_table, free_vars, mul, num, partials, total, var
from .geometry import Metric, pullback_metric
from .numdiff import ChangeMap, jet_name, jet_names, spatial_names, temporal_names
from .jetspace import JetPoint, mixed_jet_derivatives

__all__ = [
    "SprayError", "JetTable", "Spray", "HSpray", "SprayPair",
    "canonical_temporal", "canonical_spatial", "canonical_pair", "zero_spray",
    "transform_spray", "spray_law_error", "h_trace", "spray_from_hspray",
    "combine_sprays", "spray_difference_field", "spray_coefficient_field",
    "decompose_spray",
]

_KINDS = ("temporal", "spatial")


class SprayError(ValueError):
    pass


class JetTable:
    """Symbolic entries over the jet variables t1..tp, x1..xn, x1_1..xn_p,
    read as one row-major array of `shape`, and their compiled table.

    The table `kernel` (`compile_table`) takes the det-g guard (`guards`)
    of every metric the entries read (`metrics`, in order) and tests each
    before any entry: where |det g| < DET_TOL it calls the metric's
    `check_det`, so a degenerate metric stops any evaluation with
    GeometryError before an entry divides by its det g.  The entries, the
    kernel and the symbolic jet gradient (`gradient_entries`) are built on
    first use.  Points run on Python floats (`at`), `batch_at` freezes the
    kernel on fixed temporal nodes for numpy columns, and the geodesic
    solver compiles the kernel's entries into the right-hand side of its
    loop (`maps._geodesic_loop`)."""

    def __init__(self, p: int, n: int, shape: Sequence[int], metrics: Iterable[Metric],
                 entries: Callable[[], list[Expr]]):
        self.p, self.n, self.shape = p, n, tuple(shape)
        self.metrics = list(dict.fromkeys(metrics))
        self._build_entries = entries
        self.names = temporal_names(p) + spatial_names(n) + jet_names(n, p)
        # generated geodesic loops (maps.solve_affine_ode) whose right-hand
        # side holds this spatial spray's kernel, by the temporal spray's table
        self.loops: dict[JetTable, Callable] = {}

    @cached_property
    def entries(self) -> list[Expr]:
        return self._build_entries()

    @cached_property
    def gradient_entries(self) -> list[Expr]:
        """d entry / d x^k_g, entry by entry and then (k, g) row-major."""
        return [d for row in partials(self.entries, jet_names(self.n, self.p)) for d in row]

    @property
    def guards(self) -> list[Guard]:
        return [m.guard for m in self.metrics]

    @cached_property
    def kernel(self) -> Table:
        return compile_table(self.entries, self.names, self.guards)

    def at(self, u: JetPoint) -> np.ndarray:
        values = self.kernel(*u.t.tolist(), *u.x.tolist(), *u.v.ravel().tolist())
        return np.array(values).reshape(self.shape)

    def batch_at(self, T: np.ndarray) -> Callable[..., np.ndarray]:
        """The entries at the jets (T, X, V) on the fixed temporal nodes T,
        as a function of (X, V): the kernel frozen on t1..tp
        (`Table.freeze`), so the terms that read only t are computed once,
        here, and a metric degenerate at a node raises GeometryError here.
        The nodes may be laid out in any shape: T is (..., p), X (..., n)
        and V (..., n, p) over the same leading shape, and the entries come
        back as (..., *shape), written into `out` when a C-contiguous array
        of that shape is given.  The kernel reads the components of X and V
        as they lie, with no copy.  Every value is bit for bit the one
        ``Expr.eval`` gives on the columns of (T, X, V).  When neither an
        entry nor a guard reads x or the jet variables (the spray of a flat
        metric), every call returns the same read-only array and leaves
        `out` alone."""
        T = np.asarray(T, float)
        lead, fixed = T.shape[:-1], temporal_names(self.p)
        table = self.kernel.freeze(fixed, [T[..., a] for a in range(self.p)])
        jets = [(i, a) for i in range(self.n) for a in range(self.p)]

        def batch(X: np.ndarray, V: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            values = table(*(X[..., i] for i in range(self.n)),
                           *(V[..., i, a] for i, a in jets))
            if out is None:
                out = np.empty((*lead, *self.shape))
            columns = out.reshape(*lead, -1)
            for k, v in enumerate(values):
                columns[..., k] = v
            return out

        if free_vars(*self.entries, *(det for det, _ in self.guards)) <= set(fixed):
            constant = batch(np.zeros((*lead, self.n)), np.zeros((*lead, self.n, self.p)))
            constant.flags.writeable = False
            return lambda X, V, out=None: constant
        return batch


def _shared(metric: Metric, role: str, other: int,
            make: Callable[[], JetTable]) -> JetTable:
    """The table of a canonical object of `metric` (role "spray", or
    "connection" for its half of a canonical connection) with the other
    factor of dimension `other`, built once: every such object shares it,
    and its compiled tables."""
    key = (role, other)
    if key not in metric._jet_tables:
        metric._jet_tables[key] = make()
    return metric._jet_tables[key]


@dataclass(frozen=True)
class Spray:
    """A spray whose coefficients arr[j, b, a] are the (n, p, p) entries of
    `tables`.  `coefficients` is `tables.at`; it is a field only so that a
    `dataclasses.replace` copy may wrap it, and then the geodesic solver
    calls the wrapper (`maps._geodesic_loop`).  `rebuild` gives the native
    form in a change's target chart (`in_chart`); None means there is none.
    A derived spray's native form is its constructor on its parts' native
    forms, so a part with none raises its own error."""

    kind: str                                                # one of _KINDS
    tables: JetTable
    rebuild: Callable[[ChangeMap], "Spray"] | None = None
    name: str = "spray"
    coefficients: Callable[[JetPoint], np.ndarray] | None = None   # (n, p, p)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SprayError(f"spray kind must be one of {_KINDS}, not {self.kind!r}")
        if self.tables.shape != (self.n, self.p, self.p):
            raise SprayError(f"a spray's table has shape (n, p, p), not {self.tables.shape}")
        if self.coefficients is None:
            object.__setattr__(self, "coefficients", self.tables.at)

    p = property(lambda self: self.tables.p)
    n = property(lambda self: self.tables.n)

    def in_chart(self, change: ChangeMap) -> "Spray":
        if self.rebuild is None:
            raise SprayError(f"spray '{self.name}' has no chart-native form")
        return self.rebuild(change)


@dataclass(frozen=True)
class HSpray:
    """h-trace of a spray: components G^i = h^{ab} S^{(i)}_{(a)b}, the (n,)
    entries of `tables`."""

    tables: JetTable
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


def canonical_temporal(h: Metric, n: int) -> Spray:
    if h.kind != "temporal":
        raise SprayError("canonical temporal spray needs a temporal metric")
    p = h.dim

    def entries() -> list[Expr]:
        # H^{(j)}_{(b)a} = -(1/2) Gamma^g_ab x^j_g
        gamma = h.christoffel_exprs
        return [mul(num(-0.5), total(mul(gamma[g][a][b], var(jet_name(j + 1, g + 1)))
                                     for g in range(p)))
                for j in range(n) for b in range(p) for a in range(p)]

    tables = _shared(h, "spray", n, lambda: JetTable(p, n, (n, p, p), [h], entries))
    return Spray("temporal", tables,
                 rebuild=lambda c: canonical_temporal(pullback_metric(h, c), n),
                 name=f"canonical-temporal[{h.name}]")


def canonical_spatial(phi: Metric, p: int) -> Spray:
    if phi.kind != "spatial":
        raise SprayError("canonical spatial spray needs a spatial metric")
    n = phi.dim

    def entries() -> list[Expr]:
        # G^{(j)}_{(b)a} = (1/2) gamma^j_kl x^k_a x^l_b
        gamma = phi.christoffel_exprs
        return [mul(num(0.5), total(mul(mul(gamma[j][k][l], var(jet_name(k + 1, a + 1))),
                                        var(jet_name(l + 1, b + 1)))
                                    for k in range(n) for l in range(n)))
                for j in range(n) for b in range(p) for a in range(p)]

    tables = _shared(phi, "spray", p, lambda: JetTable(p, n, (n, p, p), [phi], entries))
    return Spray("spatial", tables,
                 rebuild=lambda c: canonical_spatial(pullback_metric(phi, c), p),
                 name=f"canonical-spatial[{phi.name}]")


def canonical_pair(h: Metric, phi: Metric) -> SprayPair:
    return SprayPair(canonical_temporal(h, phi.dim), canonical_spatial(phi, h.dim))


def zero_spray(kind: str, p: int, n: int) -> Spray:
    return Spray(kind, JetTable(p, n, (n, p, p), [], lambda: [num(0.0)] * (n * p * p)),
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
    if h.kind != "temporal" or h.dim != s.p:
        raise SprayError(f"h_trace contracts with a temporal metric of dimension p = {s.p}")
    p, n = s.p, s.n

    def entries() -> list[Expr]:
        hinv, S = h.inverse_components(), s.tables.entries
        return [total(mul(hinv[a][b], S[(i * p + a) * p + b])
                      for a in range(p) for b in range(p))
                for i in range(n)]

    return HSpray(JetTable(p, n, (n,), [*s.tables.metrics, h], entries),
                  name=f"h-trace[{s.name}]")


def spray_from_hspray(hs: HSpray, h: Metric) -> Spray:
    """Inverse of h_trace; only one temporal dimension admits it."""
    if hs.tables.p != 1 or h.dim != 1 or h.kind != "temporal":
        raise SprayError("the spray <-> h-spray correspondence holds only for "
                         "one temporal dimension")
    n = hs.tables.n

    def entries() -> list[Expr]:
        h11 = h.components[0][0]
        return [mul(h11, e) for e in hs.tables.entries]

    return Spray("spatial", JetTable(1, n, (n, 1, 1), [*hs.tables.metrics, h], entries),
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
    """Affine combination (one weight per spray, summing to 1) of sprays of
    one kind, which is again a spray of that kind."""
    sprays = list(sprays)
    if not sprays:
        raise SprayError("nothing to combine")
    _same_space(sprays)
    w = [float(c) for c in weights]
    if len(w) != len(sprays):
        raise SprayError(f"{len(sprays)} sprays need {len(sprays)} weights, not {len(w)}")
    if abs(sum(w) - 1.0) > 1e-12:
        raise SprayError("affine combination weights must sum to 1")
    kind, p, n = sprays[0].kind, sprays[0].p, sprays[0].n

    def entries() -> list[Expr]:
        return [total(mul(num(c), e) for c, e in zip(w, column))
                for column in zip(*(s.tables.entries for s in sprays))]

    metrics = [m for s in sprays for m in s.tables.metrics]
    return Spray(kind, JetTable(p, n, (n, p, p), metrics, entries),
                 rebuild=lambda c: combine_sprays([s.in_chart(c) for s in sprays], w),
                 name="affine-combination")


# ---------------------------------------------------------------------------
# sprays vs d-tensors


_SPRAY_SIG = IndexSignature.parse("U(j,b);L(a)")


def spray_difference_field(s1: Spray, s2: Spray, name: str | None = None) -> DTensorField:
    """The difference of two sprays of the same kind, as a d-tensor field."""
    _same_space([s1, s2])
    p, n = s1.p, s1.n

    def comps(u: JetPoint) -> np.ndarray:
        return (s1.coefficients(u) - s2.coefficients(u)).reshape(n * p, p)

    return DTensorField(
        name or f"{s1.name}-minus-{s2.name}", _SPRAY_SIG, p, n, comps,
        rebuild=lambda c: spray_difference_field(s1.in_chart(c), s2.in_chart(c), name))


def spray_coefficient_field(s: Spray) -> DTensorField:
    """Spray coefficients wrapped as a candidate d-tensor (a negative
    control: the inhomogeneous term makes is_dtensor fail)."""
    p, n = s.p, s.n

    def comps(u: JetPoint) -> np.ndarray:
        return s.coefficients(u).reshape(n * p, p)

    return DTensorField(f"coefficients[{s.name}]", _SPRAY_SIG, p, n, comps,
                        rebuild=lambda c: spray_coefficient_field(s.in_chart(c)))


def decompose_spray(s: Spray, metric: Metric) -> tuple[Spray, DTensorField]:
    """Split s into the canonical spray of a metric of its kind plus a
    d-tensor remainder."""
    if metric.kind != s.kind:
        raise SprayError(f"a {s.kind} spray decomposes over a {s.kind} metric")
    base = (canonical_temporal(metric, s.n) if s.kind == "temporal"
            else canonical_spatial(metric, s.p))
    return base, spray_difference_field(s, base, name=f"remainder[{s.name}]")
