"""Span tracing of the jetflow layers, installed from outside the program.

`Tracer.install` wraps the functions each ``jetflow`` module exposes to the
others (the table `TARGETS`), rebinding every ``jetflow.*`` module attribute
that refers to the original, so callers that imported the name directly are
traced as well.  Each wrapped call records one span (name, start, end,
parent) in flat in-memory arrays; `Tracer.dump` writes them out once, at the
end, and `summarize` turns the file into calls, self time (span time minus
the time its child spans cover) and exact work counters per layer.

Names are resolved at run time.  A name the program no longer has is
recorded as missing, not treated as an error, so the same benchmark can
trace a refactored program.

Expression nodes call ``eval``/``diff``/``subst`` on their children
recursively.  Only the outermost call of each kind opens a span; nested
calls go straight to the original method behind a flag check, so a tree
walk is one span however deep it is.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from array import array

import numpy as np

WRAPPED_MARK = "__perfbench_wrapped__"
ROOT = "cli.main"
BOOKKEEPING = "trace.bookkeeping"


def _rows(points) -> int:
    shape = np.shape(points)
    return int(shape[0]) if len(shape) > 1 else 1


# Hooks that read exact work counts off a call: hook(tracer, args, result,
# seconds), run after the call's span has closed.


def _christoffel_rows(t, args, result, seconds):
    t.add("geometry.christoffel_batch.rows", _rows(args[1]))


def _dtensor_pairs(t, args, result, seconds):
    t.add("dtensor.is_dtensor.pairs", result.pairs)
    field = getattr(args[0], "name", "?")
    t.add(f"dtensor.{field}.s", seconds)
    t.add(f"dtensor.{field}.pairs", result.pairs)


def _suite_time(t, args, result, seconds):
    t.add(f"verify.run_suite.{args[0]}.s", seconds)


def _rk4_steps(t, args, result, seconds):
    t.add("maps.rk4_steps", len(result.ts) - 1)
    t.add("maps.rk4_s", seconds)


def _sweeps(t, args, result, seconds):
    t.add("maps.harmonic_iterations", result.iterations)
    t.add("maps.harmonic_s", seconds)


def _batch_rows(t, args, result, seconds):
    t.add("sprays.coefficients_batch.rows", _rows(args[0]))


# (module, attribute or Class.method, span name, hook)
TARGETS = (
    ("numdiff", "change_catalog", "numdiff.change_catalog", None),
    ("numdiff", "jacobian_blocks", "numdiff.jacobian_blocks", None),
    ("jetspace", "transform_jet", "jetspace.transform_jet", None),
    ("jetspace", "mixed_jet_derivatives", "jetspace.mixed_jet_derivatives", None),
    ("jetspace", "natural_frame_change", "jetspace.natural_frame_change", None),
    ("jetspace", "jet_pullback", "jetspace.jet_pullback", None),
    ("geometry", "pullback_metric", "geometry.pullback_metric", None),
    ("geometry", "Metric.christoffel_batch", "geometry.christoffel_batch", _christoffel_rows),
    ("geometry", "Metric.inverse_batch", "geometry.inverse_batch", None),
    ("dtensor", "is_dtensor", "dtensor.is_dtensor", _dtensor_pairs),
    ("sprays", "_law_error", "sprays.law_error", None),
    ("connection", "adapted_frame", "connection.adapted_frame", None),
    ("prolong", "prolongation_flow_error", "prolong.prolongation_flow_error", None),
    ("prolong", "total_derivative", "prolong.total_derivative", None),
    ("verify", "run_suite", "verify.run_suite", _suite_time),
    ("maps", "solve_affine_ode", "maps.solve_affine_ode", _rk4_steps),
    ("maps", "solve_harmonic_grid", "maps.solve_harmonic_grid", _sweeps),
)
# Expression-language entry points: module function and node method names.
EXPR_KINDS = (("evaluate", "eval"), ("diff", "diff"), ("subst", "subst"))
# Factories whose sprays get their pointwise and batched callables traced.
SPRAY_FACTORIES = ("canonical_temporal", "canonical_spatial")
SUITES = ("dtensors", "sprays", "connection", "adapted", "prolong")


def _jetflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "jetflow" or name.startswith("jetflow."))]


class Tracer:
    """Span recorder plus the wrappers it installs; `uninstall` restores
    every binding it changed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._child_attrs: dict[type, tuple[str, ...]] = {}
        self._expr_base: type | None = None

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def spanned(self, fn, name: str, hook=None):
        """fn wrapped so that each call records a span called `name`;
        hook(self, args, result, seconds) runs once the span has closed."""
        nid = self._nid(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result, end[idx] - start[idx])
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def run_root(self, fn, *args):
        """Run the command under the root span."""
        return self.spanned(fn, ROOT)(*args)

    # -- expression tree sizes ----------------------------------------------

    def _children(self, node) -> tuple[str, ...]:
        cls = type(node)
        attrs = self._child_attrs.get(cls)
        if attrs is None:
            base = self._expr_base
            if dataclasses.is_dataclass(node):
                names = [f.name for f in dataclasses.fields(node)]
            else:
                names = list(getattr(cls, "__slots__", ())) or list(vars(node))
            attrs = tuple(a for a in names if isinstance(getattr(node, a), base))
            self._child_attrs[cls] = attrs
        return attrs

    def tree_counts(self, root) -> tuple[int, int]:
        """(tree size with shared subtrees counted each time they occur,
        number of distinct node objects) of one expression."""
        memo: dict[int, int] = {}

        def size(node) -> int:
            got = memo.get(id(node))
            if got is None:
                got = 1
                for a in self._children(node):     # one frame per tree level
                    got += size(getattr(node, a))
                memo[id(node)] = got
            return got

        return size(root), len(memo)

    def _count_nodes(self, args, result, seconds) -> None:
        t0 = time.perf_counter()
        if isinstance(result, self._expr_base):
            built, distinct = self.tree_counts(result)
            self.add("exprlang.nodes_built", built)
            self.add("exprlang.nodes_distinct", distinct)
        t1 = time.perf_counter()
        self.name_of.append(self._nid(BOOKKEEPING))
        self.parent.append(self.stack[-1])
        self.start.append(t0)
        self.end.append(t1)

    # -- installation --------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod in _jetflow_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _set(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every target of an imported jetflow package."""
        mods = {m.__name__.rpartition(".")[2]: m for m in _jetflow_modules()}
        for modname, qual, name, hook in TARGETS:
            mod = mods.get(modname)
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{modname}.{qual}")
                continue
            wrapper = self.spanned(vars(owner)[attr], name, hook)
            if owner_name:
                self._set(owner, attr, wrapper)
            else:
                self._rebind(vars(owner)[attr], wrapper)
        self._install_exprlang(mods.get("exprlang"))
        self._install_sprays(mods.get("sprays"))

    def _install_exprlang(self, ex) -> None:
        base = getattr(ex, "Expr", None)
        if base is None:
            self.missing.append("exprlang.Expr")
            return
        self._expr_base = base
        classes, todo = [], [base]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for fn_name, method in EXPR_KINDS:
            busy = [False]
            hook = Tracer._count_nodes if fn_name != "evaluate" else None

            def guard(orig, busy=busy, hook=hook, name=f"exprlang.{fn_name}"):
                traced = self.spanned(orig, name, hook)

                def wrapper(node, arg):
                    if busy[0]:
                        return orig(node, arg)
                    busy[0] = True
                    try:
                        return traced(node, arg)
                    finally:
                        busy[0] = False

                setattr(wrapper, WRAPPED_MARK, True)
                return wrapper

            if fn_name in vars(ex):
                self._rebind(vars(ex)[fn_name], guard(vars(ex)[fn_name]))
            else:
                self.missing.append(f"exprlang.{fn_name}")
            for cls in classes:
                if method in vars(cls):
                    self._set(cls, method, guard(vars(cls)[method]))

    def _install_sprays(self, sp) -> None:
        def factory(orig):
            def wrapper(*args, **kwargs):
                spray = orig(*args, **kwargs)
                changes = {}
                if getattr(spray, "coefficients", None) is not None:
                    changes["coefficients"] = self.spanned(
                        spray.coefficients, "sprays.coefficients")
                if getattr(spray, "coefficients_batch", None) is not None:
                    changes["coefficients_batch"] = self.spanned(
                        spray.coefficients_batch, "sprays.coefficients_batch", _batch_rows)
                if changes and dataclasses.is_dataclass(spray):
                    spray = dataclasses.replace(spray, **changes)
                return spray

            setattr(wrapper, WRAPPED_MARK, True)
            return wrapper

        for name in SPRAY_FACTORIES:
            orig = vars(sp).get(name) if sp is not None else None
            if orig is None:
                self.missing.append(f"sprays.{name}")
                continue
            self._rebind(orig, factory(orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans (npz) and the counters and missing names (JSON)."""
        np.savez(path + ".npz",
                 name=np.frombuffer(self.name_of, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counters": self.counters,
                       "missing": self.missing}, fh)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def summarize(path: str) -> dict:
    """Per span name: calls, self seconds and inclusive seconds; plus the
    counters, the missing names and the root span's duration."""
    with np.load(path + ".npz") as z:
        name, parent, start, end = z["name"], z["parent"], z["start"], z["end"]
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    own = self_times(parent, start, end)
    k = len(meta["names"])
    calls = np.bincount(name, minlength=k)
    selfs = np.bincount(name, weights=own, minlength=k)
    incl = np.bincount(name, weights=end - start, minlength=k)
    spans = {n: {"calls": int(calls[i]), "self_s": float(selfs[i]), "total_s": float(incl[i])}
             for i, n in enumerate(meta["names"])}
    roots = name == meta["names"].index(ROOT)
    return {"spans": spans, "counters": meta["counters"], "missing": meta["missing"],
            "root_s": float(np.sum((end - start)[roots])),
            "self_sum_s": float(np.sum(own)), "span_count": int(len(name))}


# ---------------------------------------------------------------------------
# per-layer metric catalog: name -> (unit, better)

# span names reported as <name>.calls and <name>.self_s.  With the root's
# self time (trace.unattributed_s) and trace.bookkeeping_s their self times
# add up to trace.wall_s.
TIMED_SPANS = (
    "exprlang.evaluate", "exprlang.diff", "exprlang.subst",
    "numdiff.change_catalog", "numdiff.jacobian_blocks", "jetspace.transform_jet",
    "jetspace.mixed_jet_derivatives", "jetspace.natural_frame_change",
    "jetspace.jet_pullback", "geometry.pullback_metric",
    "geometry.christoffel_batch", "geometry.inverse_batch", "dtensor.is_dtensor",
    "sprays.law_error", "sprays.coefficients", "sprays.coefficients_batch",
    "connection.adapted_frame", "prolong.prolongation_flow_error",
    "prolong.total_derivative", "verify.run_suite", "maps.solve_affine_ode",
    "maps.solve_harmonic_grid",
)

LAYER_METRICS: dict[str, tuple[str, str]] = {}
for _span in TIMED_SPANS:
    LAYER_METRICS[_span + ".calls"] = ("count", "lower")
    LAYER_METRICS[_span + ".self_s"] = ("s", "lower")
LAYER_METRICS.update({
    "exprlang.nodes_built": ("count", "lower"),
    "exprlang.nodes_distinct": ("count", "lower"),
    "geometry.christoffel_batch.rows": ("count", "lower"),
    "sprays.coefficients_batch.rows": ("count", "lower"),
    "dtensor.is_dtensor.pairs": ("count", "higher"),
    "dtensor.lagrangian-metric.s_per_pair": ("s", "lower"),
    **{f"verify.run_suite.{suite}.s": ("s", "lower") for suite in SUITES},
    "maps.rk4_steps": ("count", "lower"),
    "maps.s_per_rk4_step": ("s", "lower"),
    "maps.harmonic_iterations": ("count", "lower"),
    "maps.s_per_iteration": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.bookkeeping_s": ("s", "lower"),
    "trace.missing_names": ("count", "lower"),
    "fail_ratio": ("ratio", "lower"),
    "wall_s": ("s", "lower"),
    "ref_s": ("s", "lower"),
})
# Metrics taken from the untraced repetitions and the oracles, not the trace.
FROM_RUNS = ("trace.overhead_ratio", "fail_ratio", "wall_s", "ref_s")
# Exact work counts: they must repeat between traced runs of one seed.
EXACT_COUNTS = tuple(n for n, (unit, _) in LAYER_METRICS.items()
                     if unit == "count" and n != "trace.missing_names")


def layer_values(summary: dict) -> dict[str, float]:
    """Every per-layer metric except those of FROM_RUNS."""
    spans, counters = summary["spans"], summary["counters"]

    def count(key):
        return counters.get(key, 0)

    def per(seconds, work):
        return count(seconds) / count(work) if count(work) else 0.0

    out = {}
    for name in LAYER_METRICS:
        prefix, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            out[name] = spans.get(prefix, {}).get(field, 0 if field == "calls" else 0.0)
        elif LAYER_METRICS[name][0] == "s":
            out[name] = float(count(name))
        else:
            out[name] = count(name)
    out.update({
        "dtensor.lagrangian-metric.s_per_pair": per("dtensor.lagrangian-metric.s",
                                                    "dtensor.lagrangian-metric.pairs"),
        "maps.s_per_rk4_step": per("maps.rk4_s", "maps.rk4_steps"),
        "maps.s_per_iteration": per("maps.harmonic_s", "maps.harmonic_iterations"),
        "trace.wall_s": summary["root_s"],
        "trace.unattributed_s": spans[ROOT]["self_s"],
        "trace.bookkeeping_s": spans.get(BOOKKEEPING, {}).get("self_s", 0.0),
        "trace.missing_names": len(summary["missing"]),
    })
    for name in FROM_RUNS:
        del out[name]
    return out
