"""One benchmark process: set up one workload, then run its rounds.

Started by run.py with one compute thread and the checkout's ``src`` as the
only place kfplab is imported from.  Writes its measurements as JSON to the
file named by ``--result``.

Modes:
  --setup-only   set up and stop: one more sample of the set-up time;
  --smoke        set up and run exactly one round;
  --trace 1      untraced rounds for half of ``--seconds``, then traced
                 rounds for per-layer numbers and the tracing overhead;
  otherwise      untraced rounds for ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_chain() -> dict[str, float]:
    """Time the imports a user of kfplab pays for, in dependency order."""
    out = {}
    for label, module in (("numpy", "numpy"), ("scipy_stats", "scipy.stats"),
                          ("kfplab", "kfplab.cli")):
        start = time.perf_counter()
        __import__(module)
        out[label] = time.perf_counter() - start
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    imports = _import_chain() if args.trace else {}

    import numpy
    import scipy

    from harness import Context, Reference, Tally, run_rounds
    from workloads import WORKLOADS

    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    if args.trace:
        import kfplab
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(kfplab)
        workload.setup()
        tracer.uninstall()
        certify_s = layer_metrics(tracer.spans)["fields.certify_s"]
        tracer.reset()
    else:
        workload.setup()
    result: dict = {"setup_s": time.time() - args.spawned_at, "imports": imports}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    tally = Tally()
    ctx = Context(tally, Reference(workload.reference_mix))
    if args.smoke:
        rounds = [workload.run_round(ctx)]
    elif args.trace:
        start = time.perf_counter()
        plain = run_rounds(lambda: workload.run_round(ctx), args.seconds / 2)
        untraced = statistics.median(r["program_s"] / r["reference_s"] for r in plain)
        tracer.install(kfplab)
        ctx.tracer = tracer
        layers: list[dict] = []

        def keep(round_result):
            metrics = layer_metrics(tracer.spans)
            metrics["stage.written_mb"] = round_result.get("written_mb", 0.0)
            layers.append(metrics)

        remaining = max(0.0, args.seconds - (time.perf_counter() - start))
        rounds = plain + run_rounds(lambda: workload.run_round(ctx), remaining,
                                    before_round=tracer.reset, after_round=keep)
        tracer.uninstall()
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["fields.certify_s"] = certify_s
        # both halves in reference units, so that drift of the host's speed
        # between them does not count as overhead
        traced = statistics.median(r["program_s"] / r["reference_s"]
                                   for r in rounds[len(plain):])
        per_layer["trace.overhead"] = traced / untraced - 1.0
        per_layer["trace.untraced_round_s"] = statistics.median(r["program_s"] for r in plain)
        setup = result["setup_s"]
        per_layer["setup.import_s"] = sum(imports.values())
        per_layer["setup.scipy_stats_import_s"] = imports["scipy_stats"]
        per_layer["setup.scipy_stats_share"] = imports["scipy_stats"] / setup
        result["per_layer"] = per_layer
    else:
        rounds = run_rounds(lambda: workload.run_round(ctx), args.seconds)

    result.update(
        rounds=rounds,
        reference_s=statistics.median(ctx.reference_s),
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        versions={"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
