"""jetflow benchmark: the verify, geodesic and harmonic CLI commands on
seeded scenarios, each repetition in a fresh worker process.

    python3 perfbench/run.py --workload verify-sphere --seed 2026 --seconds 40 --trace 0

Run from the root of a checkout that holds ``src/jetflow``.  The benchmark
writes the scenario for (workload, seed) into a scratch directory of the
checkout, runs one worker at a time with BLAS/OpenMP threads pinned to 1,
checks every repetition's outputs against the oracles in workloads.py, and
prints one line per metric followed, as the last line, by a JSON object
{correct, attempted, failed, metrics}.

--trace 0 reports the end-to-end metrics (wall_ref, setup_s, peak_rss_mb).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of tracer.py.  See README.md for what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
FAST_QUANTILE = 0.10      # the quantile of a run's samples that stands for it
WORKER_TIMEOUT = 120.0    # seconds; the last repetition starts before --seconds,
                          # and a run must end within 180 s

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


def run_worker(cfg: dict, cwd: Path) -> dict:
    """One fresh worker process; its JSON line, or an error record."""
    env = {k: v for k, v in os.environ.items() if k not in ("JETFLOW_SEED", "PYTHONPATH")}
    env.update(THREAD_ENV)
    cfg = dict(cfg, root=str(ROOT))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                              cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT} s",
                "elapsed": time.perf_counter() - t0}
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        out = {"error": f"worker exit {proc.returncode}: {tail[0]}"}
    out["elapsed"] = elapsed
    return out


class Run:
    """Repetitions of one workload at one seed, with their oracle verdicts."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.scenario = workloads.scenario(workload, seed)
        self.scenario_path = work / "scenario.json"
        self.scenario_path.write_text(workloads.scenario_file_text(self.scenario),
                                      encoding="utf-8")
        self.reference: tuple[bytes, bytes] | None = None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.reps = 0

    def argv(self) -> list[str]:
        cmd = workloads.COMMANDS[self.workload]
        args = [cmd, str(self.scenario_path), "--output", str(self.work / "report.json")]
        if cmd == "harmonic":
            args += ["--csv", str(self.work / "grid.csv")]
        return args

    def rep(self, traced: bool = False) -> dict:
        """One repetition: run the command, then check and score its outputs."""
        for name in ("report.json", "grid.csv"):
            (self.work / name).unlink(missing_ok=True)
        cfg = {"mode": "traced" if traced else "untraced", "argv": self.argv(),
               "spans": str(self.work / "spans")}
        out = run_worker(cfg, self.work)
        ops = workloads.operations(self.workload)
        failed, reason = self._score(out, traced)
        self.attempted += ops
        self.failed += min(failed, ops)
        self.reps += 1
        if reason:
            self.reasons.append(reason)
        out["ok"] = failed == 0
        return out

    def _score(self, out: dict, traced: bool) -> tuple[int, str]:
        ops = workloads.operations(self.workload)
        if "error" in out:
            return ops, out["error"]
        if out.get("exit_code") != 0:
            return ops, f"exit code {out.get('exit_code')}"
        if out["tracer_loaded"] != traced or (out["wrapped"] > 0) != traced:
            return ops, (f"traced={traced} but tracer_loaded={out['tracer_loaded']}, "
                         f"{out['wrapped']} wrapped bindings")
        report = self._read("report.json")
        grid = self._read("grid.csv")
        if self.reference is None:
            self.reference = (report, grid)
        elif (report, grid) != self.reference:
            return ops, "output bytes differ from the first repetition's"
        return workloads.check_output(self.workload, self.scenario,
                                      report.decode("utf-8", "replace"),
                                      grid.decode("utf-8", "replace"))

    def _read(self, name: str) -> bytes:
        path = self.work / name
        return path.read_bytes() if path.exists() else b""


def _time_left(t_end: float, reps: list[dict]) -> bool:
    """Whether another repetition as long as the longest so far still ends
    before t_end."""
    return time.perf_counter() + max(r["elapsed"] for r in reps) <= t_end


def fast_quantile(values: list[float]) -> float:
    """The FAST_QUANTILE point of the values (inclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * FAST_QUANTILE) - 1]


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    t_end = time.perf_counter() + seconds
    run_worker({"mode": "import"}, run.work)            # compiles bytecode; not counted
    reps = [run.rep()]
    while _time_left(t_end, reps):
        reps.append(run.rep())
    good = [r for r in reps if r["ok"]] or reps
    walls = sorted(r.get("wall_s", 0.0) for r in good)
    refs = sorted(r["ref_s"] for r in good if "ref_s" in r)
    imports = sorted(r["import_s"] for r in reps if "import_s" in r)
    wall, ref = fast_quantile(walls), (fast_quantile(refs) if refs else 0.0)
    values = {
        "wall_ref": wall / ref if ref else 0.0,
        "setup_s": fast_quantile(imports) if imports else 0.0,
        "peak_rss_mb": statistics.median(r.get("rss_mb", 0.0) for r in good),
    }
    pct = round(100 * FAST_QUANTILE)
    notes = [f"wall_ref: {pct}th percentile of {len(walls)} command times "
             f"({wall:.4f} s) over that of {len(refs)} reference times ({ref:.6f} s per round)",
             f"wall_s: median {statistics.median(walls):.4f} s, range "
             f"{walls[0]:.4f}-{walls[-1]:.4f} s"]
    tail = tail_percentile(walls)
    if tail:
        notes.append(f"wall_s: {tail[0]}th percentile {tail[1]:.4f} s")
    if imports:
        notes.append(f"setup_s: {pct}th percentile of {len(imports)} imports of jetflow.cli; "
                     f"median {statistics.median(imports):.4f} s")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, notes


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of the 75th/90th/99th percentiles with at least ten
    samples beyond it, or None."""
    best = None
    for pct in (75, 90, 99):
        if len(values) * (100 - pct) / 100 >= 10:
            best = (pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1])
    return best


def measure_layers(run: Run, seconds: float) -> tuple[dict, list[str]]:
    t_end = time.perf_counter() + seconds
    plain, traced, layers, missing = [], [], [], []
    while True:
        plain.append(run.rep())
        traced.append(run.rep(traced=True))
        if traced[-1]["ok"]:
            summary = tracer.summarize(str(run.work / "spans"))
            missing = summary["missing"]
            values = tracer.layer_values(summary)
            if layers and any(values[k] != layers[0][k] for k in tracer.EXACT_COUNTS):
                run.failed += workloads.operations(run.workload)
                run.reasons.append("exact work counts differ between traced runs")
            layers.append(values)
        if not _time_left(t_end, [{"elapsed": a["elapsed"] + b["elapsed"]}
                                  for a, b in zip(plain, traced)]):
            break
    notes = [f"{len(layers)} traced and {len(plain)} untraced repetitions; "
             f"counts from the first traced one, times are medians"]
    notes += [f"missing (not traced): {name}" for name in missing]
    walls = [r["wall_s"] for r in plain if r["ok"]]
    refs = [r["ref_s"] for r in plain if r["ok"] and "ref_s" in r]
    metrics = {}
    for name, (unit, _) in tracer.LAYER_METRICS.items():
        if name == "trace.overhead_ratio":
            value = (statistics.median(v["trace.wall_s"] for v in layers)
                     / statistics.median(walls)) if layers and walls else 0.0
        elif name == "wall_s":
            value = fast_quantile(walls) if walls else 0.0
        elif name == "ref_s":
            value = fast_quantile(refs) if refs else 0.0
        elif name == "fail_ratio":
            value = run.failed / run.attempted
        elif not layers:
            value = 0.0
        elif name in tracer.EXACT_COUNTS:
            value = layers[0][name]
        else:
            value = statistics.median(v[name] for v in layers)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, notes


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, seed, work)
        measure = measure_layers if trace else measure_end_to_end
        metrics, notes = measure(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    notes += [f"{run.reps} repetitions, {run.attempted} operations, {run.failed} failed "
              f"(fail_ratio {run.failed / run.attempted:.4g})"]
    notes += [f"failure: {r}" for r in run.reasons[:5]]
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "jetflow" / "cli.py").is_file():
        print(f"error: no jetflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, notes = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in notes:
        print(f"# {note}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
