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

Every spray, h-trace and nonlinear connection (connection.py) is one
`jetspace.JetTable`: symbolic entries over the jet variables whose
pointwise values run one compiled table, and which the solvers compile
into their own tables.  A canonical spray's entries come from the
metric's symbolic Christoffel symbols, shared by every canonical spray of
one metric and other dimension (a flat metric's fold to zeros); a derived
object (an affine combination, an h-trace, the spray of an h-trace, a
connection's sprays) builds its entries from its parts' entries, and its
table takes its parts' det-g guards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dtensor import DTensorField, IndexSignature, Verdict, law_check
from .exprlang import Expr, mul, num, sub, total, var
from .geometry import Metric, pullback_metric
from .numdiff import ChangeMap, jet_name
from .jetspace import JetPoint, JetTable, mixed_jet_derivatives

__all__ = [
    "SprayError", "Spray", "SprayPair",
    "canonical_temporal", "canonical_spatial", "canonical_pair", "zero_spray",
    "transform_spray", "spray_law_error", "h_trace", "spray_from_hspray",
    "combine_sprays", "spray_difference_field", "spray_coefficient_field",
    "decompose_spray",
]

_KINDS = ("temporal", "spatial")


class SprayError(ValueError):
    pass


def _shared(metric: Metric, role: str, other: int, shape: Sequence[int],
            entries: Callable[[list[list[list[Expr]]]], list[Expr]]) -> JetTable:
    """The table of a canonical object of `metric` (role "spray", or
    "connection" for its half of a canonical connection) with the other
    factor of dimension `other`, built once: every such object shares it,
    and its compiled tables.  Its entries are ``entries(gamma)`` for the
    metric's symbolic Christoffel symbols and its det-g guard, which the
    table holds in place of the metric (`JetTable`)."""
    key = (role, other)
    if key not in metric._jet_tables:
        gamma = metric.christoffel_exprs
        p, n = (metric.dim, other) if metric.kind == "temporal" else (other, metric.dim)
        metric._jet_tables[key] = JetTable(p, n, shape, [metric.guard], lambda: entries(gamma))
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

    def entries(gamma) -> list[Expr]:
        # H^{(j)}_{(b)a} = -(1/2) Gamma^g_ab x^j_g
        return [mul(num(-0.5), total(mul(gamma[g][a][b], var(jet_name(j + 1, g + 1)))
                                     for g in range(p)))
                for j in range(n) for b in range(p) for a in range(p)]

    return Spray("temporal", _shared(h, "spray", n, (n, p, p), entries),
                 rebuild=lambda c: canonical_temporal(pullback_metric(h, c), n),
                 name=f"canonical-temporal[{h.name}]")


def canonical_spatial(phi: Metric, p: int) -> Spray:
    if phi.kind != "spatial":
        raise SprayError("canonical spatial spray needs a spatial metric")
    n = phi.dim

    def entries(gamma) -> list[Expr]:
        # G^{(j)}_{(b)a} = (1/2) gamma^j_kl x^k_a x^l_b
        return [mul(num(0.5), total(mul(mul(gamma[j][k][l], var(jet_name(k + 1, a + 1))),
                                        var(jet_name(l + 1, b + 1)))
                                    for k in range(n) for l in range(n)))
                for j in range(n) for b in range(p) for a in range(p)]

    return Spray("spatial", _shared(phi, "spray", p, (n, p, p), entries),
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


def h_trace(s: Spray, h: Metric) -> JetTable:
    """The h-trace (h-spray) of s, the (n,) table G^i = h^{ab} S^{(i)}_{(a)b}."""
    if h.kind != "temporal" or h.dim != s.p:
        raise SprayError(f"h_trace contracts with a temporal metric of dimension p = {s.p}")
    p, n = s.p, s.n

    def entries() -> list[Expr]:
        hinv, S = h.inverse_components(), s.tables.entries
        return [total(mul(hinv[a][b], S[(i * p + a) * p + b])
                      for a in range(p) for b in range(p))
                for i in range(n)]

    return JetTable(p, n, (n,), [*s.tables.guards, h.guard], entries)


def spray_from_hspray(trace: JetTable, h: Metric) -> Spray:
    """Inverse of h_trace on its table; only one temporal dimension admits it."""
    if trace.p != 1 or h.dim != 1 or h.kind != "temporal":
        raise SprayError("the spray <-> h-spray correspondence holds only for "
                         "one temporal dimension")
    n = trace.n

    def entries() -> list[Expr]:
        h11 = h.components[0][0]
        return [mul(h11, e) for e in trace.entries]

    return Spray("spatial", JetTable(1, n, (n, 1, 1), [*trace.guards, h.guard], entries),
                 name=f"from-h-trace[{h.name}]")


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

    guards = [g for s in sprays for g in s.tables.guards]
    return Spray(kind, JetTable(p, n, (n, p, p), guards, entries),
                 rebuild=lambda c: combine_sprays([s.in_chart(c) for s in sprays], w),
                 name="affine-combination")


# ---------------------------------------------------------------------------
# sprays vs d-tensors


def spray_difference_field(s1: Spray, s2: Spray, name: str | None = None) -> DTensorField:
    """The difference of two sprays of the same kind, as a d-tensor field."""
    _same_space([s1, s2])
    p, n = s1.p, s1.n

    def entries() -> list[Expr]:
        return [sub(a, b) for a, b in zip(s1.tables.entries, s2.tables.entries)]

    return DTensorField(
        name or f"{s1.name}-minus-{s2.name}", IndexSignature.parse("U(j,b);L(a)"),
        JetTable(p, n, (n * p, p), [*s1.tables.guards, *s2.tables.guards], entries),
        rebuild=lambda c: spray_difference_field(s1.in_chart(c), s2.in_chart(c), name))


def spray_coefficient_field(s: Spray) -> DTensorField:
    """Spray coefficients wrapped as a candidate d-tensor (a negative
    control: the inhomogeneous term makes is_dtensor fail)."""
    p, n = s.p, s.n
    return DTensorField(f"coefficients[{s.name}]", IndexSignature.parse("U(j,b);L(a)"),
                        JetTable(p, n, (n * p, p), s.tables.guards, lambda: s.tables.entries),
                        rebuild=lambda c: spray_coefficient_field(s.in_chart(c)))


def decompose_spray(s: Spray, metric: Metric) -> tuple[Spray, DTensorField]:
    """Split s into the canonical spray of a metric of its kind plus a
    d-tensor remainder."""
    if metric.kind != s.kind:
        raise SprayError(f"a {s.kind} spray decomposes over a {s.kind} metric")
    base = (canonical_temporal(metric, s.n) if s.kind == "temporal"
            else canonical_spatial(metric, s.p))
    return base, spray_difference_field(s, base, name=f"remainder[{s.name}]")
