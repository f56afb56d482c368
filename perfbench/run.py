"""Run one workload of the hyperinv benchmark and print its metrics.

    python3 perfbench/run.py --workload recip40 --seed 1 --seconds 15 --trace 0

``--workload all`` runs the four workloads one after another and ends with
one JSON line over all of them.  Run from the repository root.  The library
runs from ``src`` as checked out; nothing is built or installed.

Each workload runs in one fresh worker process (worker.py); its set-up up
to the "ready" line is timed and shown in the meta line.  The worker times
the set-ups behind ``setup_s`` and the CLI sessions itself, in pauses of
its item loop.

Every metric BENCHMARK.json lists for the mode is printed by name and unit;
the last line of standard output is the JSON result.  Exits 2 without a
result when the library sources or BENCHMARK.json are missing, and 1 when
the worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER_LIMIT_S = 150  # beyond --seconds: set-up, probes, checks, oracle pass


class BenchError(Exception):
    pass


def run_worker(workload, args):
    """Run the measuring worker; returns (set-up s, its result dict)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(args.seconds + WORKER_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline().strip() == "ready"
        setup = perf_counter() - t0
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not ready or code != 0 or not out.strip():
        raise BenchError(f"worker failed (exit {code})")
    return setup, json.loads(out.strip().splitlines()[-1])


def git_revision():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the library sources, a revision that needs no git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure(workload, spec, args):
    """Run one workload; print its meta and metric lines; return its result.

    The result has the keys of the final JSON line.  Raises BenchError, or
    the error of a malformed worker result, when the run failed.
    """
    setup, result = run_worker(workload, args)
    values = result["values"]
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"{m['name']} measured in {unit}, listed in {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    for problem in result["problems"]:
        print(f"check failed: {workload}: {problem}", file=sys.stderr)
    meta = dict(result["meta"], worker_setup_s=setup, git_revision=git_revision(),
                source_digest=source_digest(), nproc=os.cpu_count(),
                workload=workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace)
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in metrics.items():
        print(f"{workload:12s} {name:36s} {m['value']:14.6g} {m['unit']}", flush=True)
    return {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "hyperinv" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a hyperinv checkout; {SRC} or {spec_path} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            print(json.dumps(measure(args.workload, spec, args)))
            return 0
        results = {w: measure(w, spec, args) for w in names}
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
