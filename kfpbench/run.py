"""kfplab benchmark: one command for every workload, metric and check.

    python3 kfpbench/run.py --workload rough-pair --seed 1 --seconds 18 --trace 0
    python3 kfpbench/run.py --smoke

Run from the root of a checkout; kfplab is imported from its ``src``.  An
untraced run sets the workload up in three separate processes (two that stop
after set-up and the measuring one) and reports the median set-up time; the
measuring process then starts whole rounds of the workload's operations
until ``--seconds`` have passed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  A fuller record, with the machine it ran on, goes to
``kfpbench/results/``.

``--smoke`` runs one round of every workload's checks and prints one line
per workload; its figures are for iterating on a change, never for
comparison.
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
ROOT = HERE.parent
WORKLOADS = ("rough-pair", "probe-suite", "reassembly", "landau-coulomb")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child(workload: str, seed: int, seconds: float, trace: int, scratch: Path,
           *flags: str) -> dict:
    """Run child.py once and return the measurements it wrote."""
    result = scratch / f"child-{time.monotonic_ns()}.json"
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    # a fixed hash seed keeps the interpreter's memory layout, hence peak RSS,
    # close to the same from run to run
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(scratch / "work"), "--result", str(result), *flags]
    cmd += ["--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: child exceeded {CHILD_TIMEOUT_S}s") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload}: child exited {proc.returncode}\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _machine(child: dict) -> dict:
    return {"nproc": os.cpu_count(), **child["versions"], "git_revision": _git_revision()}


def _scratch(label: str) -> Path:
    path = HERE / "scratch" / f"{label}-{os.getpid()}"
    path.mkdir(parents=True)
    return path


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(printed result, full record) of one benchmark run."""
    scratch = _scratch(workload)
    try:
        # a traced run reports no set-up time, so it takes no extra samples
        setups = [_child(workload, seed, seconds, trace, scratch, "--setup-only")["setup_s"]
                  for _ in range(0 if trace else SETUP_SAMPLES - 1)]
        main = _child(workload, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(main["setup_s"])
    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in main["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "round_ref": {"value": statistics.median(r["program_s"] for r in main["rounds"])
                          / main["reference_s"], "unit": "ref"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
    printed = {"correct": not main["problems"], "attempted": main["attempted"],
               "failed": main["failed"], "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": _machine(main), "setup_samples_s": setups, **printed,
              "problems": main["problems"], "rounds": main["rounds"],
              "reference_s": main["reference_s"],
              "imports_s": main["imports"]}
    return printed, record


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("storage.bytes"):
        return "B"
    if name.endswith(("_ratio", "_share", ".overhead")):
        return "ratio"
    return "count"


def _save(record: dict) -> None:
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = (f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
            f"-{stamp}-{os.getpid()}.json")
    (out / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def smoke() -> int:
    """One round of every workload's checks; exit 0 when all hold."""
    scratch = _scratch("smoke")
    ok = True
    try:
        for workload in WORKLOADS:
            start = time.perf_counter()
            res = _child(workload, 0, 0.0, 0, scratch, "--smoke")
            ok = ok and not res["problems"]
            print(f"{workload}: correct={not res['problems']} attempted={res['attempted']} "
                  f"failed={res['failed']} wall={time.perf_counter() - start:.1f}s "
                  f"{'; '.join(res['problems'])}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of every workload's checks, figures not comparable")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kfplab" / "__init__.py").is_file():
        print(f"no kfplab sources under {ROOT / 'src'}; run from a kfplab checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        printed, record = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    _save(record)
    print(json.dumps(printed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
