"""Distinguished tensor fields on the first jet space.

A d-tensor field has components indexed by temporal slots, spatial slots,
and vertical slots; a vertical slot is a paired (spatial, temporal) index
stored as one fused axis of size n*p with flat index i*p + a.  Components
transform with one Jacobian-block factor per slot, nothing else.

Index signatures are strings such as "U(i,a);L(b);L(j)": terms are
separated by ';', U/L marks the variance, a parenthesized pair is a
vertical slot (named spatial index first), and a single index is temporal
or spatial according to its first letter (a..h temporal, i..z spatial, the
usual alphabet conventions).  For a vertical pair the variance letter
refers to the spatial member: "U(i,a)" is the kind with upper spatial and
lower temporal index (the Liouville field's slot), "L(i,a)" the dual kind.

A field's components are one `jetspace.JetTable` of the signature's
shape; a derived field (a spray difference, the vertical gap of a
prolongation) builds its entries from its parts' entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exprlang import Expr, mul, num, partials, var
from .geometry import Metric, pullback_metric
from .numdiff import ChangeMap, jacobian_blocks, jet_names
from .jetspace import JetPoint, JetTable, jet_pullback, kron, transform_jet

__all__ = [
    "SignatureError", "IndexSignature", "DTensorField", "Verdict",
    "transform_components", "law_check", "is_dtensor",
    "liouville_c_field", "liouville_l_field", "normalization_j_field",
    "lagrangian_metric_field",
]

# slot kind codes
T_UP, T_LO, S_UP, S_LO, V_UP, V_LO = "T+", "T-", "S+", "S-", "V+", "V-"

_TEMPORAL_LETTERS = set("abcdefgh")


class SignatureError(ValueError):
    pass


@dataclass(frozen=True)
class IndexSignature:
    """Ordered slot kinds of a d-tensor and the display names of the indices."""

    slots: tuple[str, ...]
    names: tuple[str, ...]

    @staticmethod
    def parse(text: str) -> "IndexSignature":
        slots: list[str] = []
        names: list[str] = []
        for raw in text.split(";"):
            term = raw.strip()
            if len(term) < 2 or term[0] not in "UL" or term[1] != "(" or not term.endswith(")"):
                raise SignatureError(f"malformed signature term {term!r}")
            upper = term[0] == "U"
            inner = [s.strip() for s in term[2:-1].split(",")]
            if len(inner) == 1:
                name = inner[0]
                if not name or not name[0].isalpha():
                    raise SignatureError(f"malformed index name {name!r}")
                temporal = name[0].lower() in _TEMPORAL_LETTERS
                if temporal:
                    slots.append(T_UP if upper else T_LO)
                else:
                    slots.append(S_UP if upper else S_LO)
                names.append(name)
            elif len(inner) == 2:
                slots.append(V_UP if upper else V_LO)
                names.append(f"({inner[0]},{inner[1]})")
            else:
                raise SignatureError(f"malformed signature term {term!r}")
        if not slots:
            raise SignatureError("empty signature")
        return IndexSignature(tuple(slots), tuple(names))

    def shape(self, p: int, n: int) -> tuple[int, ...]:
        size = {T_UP: p, T_LO: p, S_UP: n, S_LO: n, V_UP: n * p, V_LO: n * p}
        return tuple(size[s] for s in self.slots)

    def __str__(self) -> str:
        out = []
        for slot, name in zip(self.slots, self.names):
            upper = slot in (T_UP, S_UP, V_UP)
            label = name if name.startswith("(") else f"({name})"
            out.append(("U" if upper else "L") + label)
        return ";".join(out)


def _slot_factors(sig: IndexSignature, blocks) -> list[np.ndarray]:
    """Per-slot transformation matrices M with new = M @ old on that axis;
    each slot kind of the signature is built once, and no other kind."""
    A, B, A_inv, B_inv = blocks.A, blocks.B, blocks.A_inv, blocks.B_inv
    make = {T_UP: lambda: A, T_LO: lambda: A_inv.T, S_UP: lambda: B, S_LO: lambda: B_inv.T,
            V_UP: lambda: kron(B, A_inv.T), V_LO: lambda: kron(B_inv.T, A)}
    built = {s: make[s]() for s in set(sig.slots)}
    return [built[s] for s in sig.slots]


@dataclass(frozen=True)
class DTensorField:
    """Component field of a candidate d-tensor.

    `table` holds the chart-native components as symbolic entries over the
    jet variables (`jetspace.JetTable`), with the signature's shape, which
    is checked here, once.  When the defining formula involves
    chart-dependent ingredients (a metric, a Lagrangian, a spray),
    `rebuild` produces the native field of the target chart of a change
    (`in_chart`); a None `rebuild` means the same formula in every chart.
    A derived field's native form is its constructor on its parts' native
    forms, so a part with none raises its own error.
    """

    name: str
    signature: IndexSignature
    table: JetTable
    rebuild: Callable[[ChangeMap], "DTensorField"] | None = None

    def __post_init__(self):
        want = self.signature.shape(self.table.p, self.table.n)
        if self.table.shape != want:
            raise SignatureError(f"field '{self.name}' has a table of shape "
                                 f"{self.table.shape}, signature wants {want}")

    def in_chart(self, change: ChangeMap) -> "DTensorField":
        if self.rebuild is None:
            return self
        return self.rebuild(change)

    def __call__(self, u: JetPoint) -> np.ndarray:
        return self.table.at(u)


def transform_components(f: DTensorField, change: ChangeMap, u: JetPoint) -> np.ndarray:
    """Tensorially transformed components of f at the image of u."""
    blocks = jacobian_blocks(change, u.t, u.x)
    arr = f(u)
    for axis, M in enumerate(_slot_factors(f.signature, blocks)):
        arr = np.moveaxis(np.tensordot(M, arr, axes=(1, axis)), 0, axis)
    return arr


@dataclass(frozen=True)
class Verdict:
    passed: bool
    max_rel_err: float
    pairs: int
    witness: tuple[str, int] | None = None   # (change name, jet index) at the max error


def _worse(err: float, worst: float, witness) -> bool:
    """Does `err` replace `worst` as the largest error so far?  The first
    pair always does.  NaN counts as the largest error: a NaN replaces any
    number and is replaced by nothing, so a check with a NaN at any pair
    reports NaN, fails (NaN <= tol is false), and names the first NaN pair."""
    return witness is None or err > worst or (err != err and worst == worst)


def law_check(predict: Callable[[ChangeMap, JetPoint], np.ndarray],
              native: Callable[[ChangeMap], Callable[[JetPoint], np.ndarray]],
              changes: Sequence[ChangeMap], jets: Sequence[JetPoint],
              tol: float = 1e-8) -> Verdict:
    """Numeric verdict on a transformation law, the loop of every law check.

    For each (change, jet) pair the components `predict(change, u)` that the
    law gives at the image of u are compared against the target chart's own
    `native(change)` evaluated there; the relative error uses denominator
    max(1, |native component|), and the witness is the first pair where the
    largest error occurs (None only when there are no pairs).  A NaN error
    at any pair makes `max_rel_err` NaN and fails the check (`_worse`).
    """
    worst, witness, pairs = 0.0, None, 0
    for change in changes:
        native_at = native(change)
        for k, u in enumerate(jets):
            predicted = predict(change, u)
            actual = native_at(transform_jet(change, u))
            err = float(np.max(np.abs(predicted - actual) / np.maximum(1.0, np.abs(actual))))
            pairs += 1
            if _worse(err, worst, witness):
                worst, witness = err, (change.name, k)
    return Verdict(passed=bool(worst <= tol), max_rel_err=worst, pairs=pairs,
                   witness=witness)


def is_dtensor(f: DTensorField, changes: Sequence[ChangeMap], jets: Sequence[JetPoint],
               tol: float = 1e-8) -> Verdict:
    """Numeric verdict: do the components obey the d-tensor law?  Tensorially
    transformed components against the target chart's native field."""
    return law_check(lambda c, u: transform_components(f, c, u), f.in_chart, changes, jets, tol)


# ---------------------------------------------------------------------------
# canonical d-tensors


def liouville_c_field(p: int, n: int) -> DTensorField:
    """Components C^{(i)}_{(a)} = x^i_a, fused vertical axis."""
    return DTensorField("liouville-c", IndexSignature.parse("U(i,a)"),
                        JetTable(p, n, (n * p,), [], lambda: [var(v) for v in jet_names(n, p)]))


def liouville_l_field(h: Metric, n: int) -> DTensorField:
    """Components L^{(i)}_{(a)bc} = h_bc x^i_a."""
    if h.kind != "temporal":
        raise SignatureError("liouville_l expects a temporal metric")
    p, hc = h.dim, h.components

    def entries() -> list[Expr]:
        return [mul(var(v), hc[b][c]) for v in jet_names(n, p)
                for b in range(p) for c in range(p)]

    return DTensorField(
        "liouville-l", IndexSignature.parse("U(i,a);L(b);L(c)"),
        JetTable(p, n, (n * p, p, p), [], entries),
        rebuild=lambda c: liouville_l_field(pullback_metric(h, c), n))


def normalization_j_field(h: Metric, n: int) -> DTensorField:
    """Components J^{(i)}_{(a)bj} = h_ab delta^i_j."""
    if h.kind != "temporal":
        raise SignatureError("normalization_j expects a temporal metric")
    p, hc = h.dim, h.components

    def entries() -> list[Expr]:
        return [hc[a][b] if i == j else num(0.0) for i in range(n) for a in range(p)
                for b in range(p) for j in range(n)]

    return DTensorField(
        "h-normalization-j", IndexSignature.parse("U(i,a);L(b);L(j)"),
        JetTable(p, n, (n * p, p, n), [], entries),
        rebuild=lambda c: normalization_j_field(pullback_metric(h, c), n))


def _hessian_exprs(L: Expr, p: int, n: int) -> list[list[Expr]]:
    names = jet_names(n, p)
    return partials(partials([L], names)[0], names)


def lagrangian_metric_field(L: Expr, p: int, n: int) -> DTensorField:
    """Vertical metric G_{(i)(j)}^{(a)(b)} = (1/2) d^2 L / dx^i_a dx^j_b.

    The Hessian is built once per chart, on first use, by the memoised
    `diff`, and the factor 1/2 is part of each entry."""
    return DTensorField(
        "lagrangian-metric", IndexSignature.parse("L(i,a);L(j,b)"),
        JetTable(p, n, (n * p, n * p), [],
                 lambda: [mul(num(0.5), e) for row in _hessian_exprs(L, p, n) for e in row]),
        rebuild=lambda c: lagrangian_metric_field(jet_pullback(L, c, p, n), p, n))
