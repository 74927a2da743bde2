"""One benchmark repetition in a fresh process.

    python3 perfbench/worker.py '<json config>'

Config keys: ``root`` (checkout holding ``src/jetflow``), ``mode``
(``import``, ``untraced`` or ``traced``), ``argv`` (arguments for
``jetflow.cli.main``) and, when traced, ``spans`` (output path prefix).

The worker times ``import jetflow.cli``, then ``cli.main(argv)``, then the
fixed work of reference.py for as long as the command took, and prints one
JSON line: import_s, wall_s, exit_code, error, rss_mb, ref_s (seconds per
reference round) and the number of tracer wrappers found on jetflow
bindings after the command.  The untraced mode never imports the
tracer.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    cfg = json.loads(sys.argv[1])
    src = os.path.join(cfg["root"], "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import jetflow.cli as cli
    t1 = time.perf_counter()
    out = {"import_s": t1 - t0}
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        out["error"] = f"jetflow imported from {cli.__file__}, not from {src}"
    elif cfg["mode"] != "import":
        tracer = None
        if cfg["mode"] == "traced":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        t2 = time.perf_counter()
        try:
            rc = tracer.run_root(cli.main, cfg["argv"]) if tracer else cli.main(cfg["argv"])
            out["exit_code"] = rc
        except Exception as exc:  # reported as a failed operation
            out["error"] = f"{type(exc).__name__}: {exc}"
        t3 = time.perf_counter()
        out["wall_s"] = t3 - t2
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        from reference import reference
        out["ref_s"] = reference(out["wall_s"])
        if tracer is not None:
            tracer.dump(cfg["spans"])
        out["tracer_loaded"] = "tracer" in sys.modules
        out["wrapped"] = wrapped_bindings()
    print(json.dumps(out))
    return 0


WRAPPED_MARK = "__perfbench_wrapped__"   # the mark tracer.py sets on its wrappers


def wrapped_bindings() -> int:
    """How many jetflow module or class attributes carry a tracer wrapper."""
    count = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "jetflow" or name.startswith("jetflow.")):
            continue
        for value in vars(mod).values():
            holders = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
            count += sum(1 for v in holders if getattr(v, WRAPPED_MARK, False) is True)
    return count


if __name__ == "__main__":
    sys.exit(main())
