"""Command-line interface.

    jetflow verify   scenario.json [--output report.json]
    jetflow geodesic scenario.json [--output report.json] [--csv path.csv]
    jetflow harmonic scenario.json [--output report.json] [--csv grid.csv]
    jetflow prolong  scenario.json [--output report.json]

Reports are JSON with sorted keys and no timestamps, so a fixed scenario
and seed produce byte-identical output.  The JETFLOW_SEED environment
variable overrides the scenario seed.  Exit status: 0 when every check
passes (or the solver converges), 1 on check failure, non-convergence or a
numerical failure, 2 on scenario or usage errors.  A numerical failure (a
degenerate metric or chart, a domain error or a floating-point overflow while
evaluating) writes the report {"command", "status": "error", "error"} in
place of the usual one.  Reports are strict JSON (RFC 8259): a non-finite
number, such as a diverged solve's residual, is written as null.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib
import json
import sys

import numpy as np

from . import __version__
from .exprlang import ExprError
from .geometry import GeometryError
from .maps import MapError, SmoothMap, solve_affine_ode, solve_harmonic_grid
from .numdiff import ChartError
from .scenario import Scenario, ScenarioError, load_scenario
from .sprays import canonical_pair
from .verify import run_suite, run_verify

# argparse's first parser loads locale through gettext: load it with the imports, not in main
importlib.import_module("locale")

__all__ = ["main"]


def _emit(report: dict, output: str | None) -> None:
    plain = json.loads(json.dumps(report), parse_constant=lambda _: None)
    text = json.dumps(plain, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=",")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def _cmd_verify(sc: Scenario, args) -> int:
    report = run_verify(sc)
    _emit(report, args.output)
    return 0 if report["all_pass"] else 1


def _cmd_geodesic(sc: Scenario, args) -> int:
    section = sc.section("geodesic")
    n = sc.n
    x0 = np.asarray(section["x0"], dtype=float)
    v0 = np.asarray(section["v0"], dtype=float)
    if len(x0) != n or len(v0) != n:
        raise ScenarioError(f"x0 and v0 must have length n={n}")
    t0, t1 = (float(t) for t in section["t_span"])
    if not np.isfinite(t1 - t0):            # the loader checked each number
        raise ScenarioError("the length of t_span must be finite")
    if sc.p != 1:
        raise ScenarioError("geodesic integration needs a scenario with p=1")
    pair = canonical_pair(sc.temporal_metric, sc.spatial_metric)
    sol = solve_affine_ode(pair, x0, v0, tuple(section["t_span"]), section["steps"])

    # the conserved energy density h^11 g(v, v); euclidean:1's h^11 is the literal 1
    phi = sc.spatial_metric
    g = phi.components_batch(sol.xs)
    h11 = sc.temporal_metric.inverse_batch(sol.ts[:, None])[:, 0, 0]
    energies = h11 * np.einsum("kij,ki,kj->k", g, sol.vs, sol.vs)
    report = {
        "command": "geodesic",
        "metrics": {"temporal": sc.temporal_metric.name, "spatial": phi.name},
        "steps": int(section["steps"]),
        "t_span": [float(section["t_span"][0]), float(section["t_span"][1])],
        "final": {"t": float(sol.ts[-1]),
                  "x": [float(v) for v in sol.xs[-1]],
                  "v": [float(v) for v in sol.vs[-1]]},
        "energy": {"initial": float(energies[0]),
                   "final": float(energies[-1]),
                   "max_drift": float(np.max(np.abs(energies - energies[0])))},
    }
    _emit(report, args.output)
    if args.csv:
        header = (["t"] + [f"x{i + 1}" for i in range(n)]
                  + [f"v{i + 1}" for i in range(n)])
        rows = np.column_stack([sol.ts, sol.xs, sol.vs])
        _write_csv(args.csv, header, rows)
    return 0


# the harmonic report's residual history keeps at most this many entries
HISTORY_ENTRIES = 64


def _decimated(history) -> list[float]:
    """Every k-th entry of `history` and its last, k = ceil(len / HISTORY_ENTRIES)."""
    k = max(1, -(-len(history) // HISTORY_ENTRIES))
    kept = [float(r) for r in history[k - 1::k]]
    if len(history) % k:
        kept.append(float(history[-1]))
    return kept


def _cmd_harmonic(sc: Scenario, args) -> int:
    section = sc.section("harmonic")
    if sc.p != 2:
        raise ScenarioError("harmonic grid relaxation needs a scenario with p=2")
    if len(section["boundary"]) != sc.n:
        raise ScenarioError(f"boundary needs n={sc.n} component expressions")
    try:
        boundary = SmoothMap(2, section["boundary"])
    except ValueError as exc:
        raise ScenarioError(f"scenario error at '/harmonic/boundary': {exc}") from exc
    sides = [(float(lo), float(hi)) for lo, hi in section.get("domain") or ()]
    if not all(np.isfinite(hi - lo) and lo != hi for lo, hi in sides):
        raise ScenarioError("each side of the domain must have a finite, nonzero length")
    pair = canonical_pair(sc.temporal_metric, sc.spatial_metric)
    sol = solve_harmonic_grid(
        pair, sc.temporal_metric, boundary,
        m=section["grid"],
        tol=section["tolerance"],
        max_iters=section["max_iters"],
        damping=section["damping"],
        domain=section.get("domain"))
    report = {
        "command": "harmonic",
        "metrics": {"temporal": sc.temporal_metric.name,
                    "spatial": sc.spatial_metric.name},
        "grid": section["grid"],
        "status": sol.status,
        "iterations": int(sol.iterations),
        "max_residual": float(sol.max_residual),
        "residual_history": _decimated(sol.history),
    }
    _emit(report, args.output)
    if args.csv:
        header = ["t1", "t2"] + [f"x{i + 1}" for i in range(sc.n)]
        t2, values = sol.t2.tolist(), sol.values.tolist()
        rows = [[a, b, *x] for a, row in zip(sol.t1.tolist(), values)
                for b, x in zip(t2, row)]
        _write_csv(args.csv, header, rows)
    return 0 if sol.converged else 1


def _cmd_prolong(sc: Scenario, args) -> int:
    suite = run_suite("prolong", sc)
    report = {
        "command": "prolong",
        "seed": sc.seed,
        "dimensions": {"p": sc.p, "n": sc.n},
        "suites": [suite],
        "all_pass": suite["pass"],
    }
    _emit(report, args.output)
    return 0 if suite["pass"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetflow",
        description="Randomized verification and solvers for first-jet geometry.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, with_csv: bool):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("scenario", help="path to a scenario JSON file")
        sp.add_argument("--output", help="write the JSON report here instead of stdout")
        if with_csv:
            sp.add_argument("--csv", help="also write the solution as CSV")
        return sp

    add("verify", "run the transformation-law verification suites", False)
    add("geodesic", "integrate the p=1 affine equation (RK4)", True)
    add("harmonic", "relax the p=2 harmonic map equation on a grid", True)
    add("prolong", "run the prolongation flow checks", False)
    return parser


_COMMANDS = {
    "verify": _cmd_verify,
    "geodesic": _cmd_geodesic,
    "harmonic": _cmd_harmonic,
    "prolong": _cmd_prolong,
}


_NUMERICAL_ERRORS = (GeometryError, ExprError, ChartError, MapError, OverflowError)


def _is_numerical(exc: Exception) -> bool:
    """A failure of the computation rather than of the scenario; an
    ExprError with an offset is a parse error in scenario text."""
    if isinstance(exc, ExprError) and exc.offset is not None:
        return False
    return isinstance(exc, _NUMERICAL_ERRORS)


def main(argv: list[str] | None = None) -> int:
    """Run one command; the return value is the exit status.

    The objects a command builds hold no reference cycles, so reference
    counting frees them, suite by suite: the cyclic collector is paused
    while `main` runs, and its earlier state is restored on every way
    out, argparse's SystemExit included."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        sc = load_scenario(args.scenario)
        return _COMMANDS[args.command](sc, args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if not _is_numerical(exc):
            return 2
        _emit({"command": args.command, "status": "error", "error": str(exc)}, args.output)
        return 1


if __name__ == "__main__":
    sys.exit(main())
