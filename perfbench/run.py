"""Benchmark of poisoncert: time, set-up time and peak memory of certificates.

Run from the root of a checkout (numpy is the only requirement):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in its own worker process with one BLAS thread. The run
writes the workload's inputs from the seed, times set-up in several fresh
processes, then runs whole operations (one program call each) until
--seconds have passed and checks every output.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics from a traced second half of the window. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
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

from spans import PER_LAYER
from workloads import WORKLOADS, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
MARK = "PERFBENCH"
SETUP_PROCESSES = 5  # set-up samples per run, the main worker included
# On a shared 2-core host, two BLAS threads ran fixed-cli-784 30% faster but
# doubled the run-to-run spread of run_s (IQR 9.1% against 4.9% of the
# median over six runs each): the operation waits for the slower thread.
BLAS_THREADS = "1"
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _env():
    # A fixed hash seed gives every worker the same dict and set layout; with
    # random seeds the per-process median of integer-counts spread 13% of
    # its median over nine runs, against 5% with the seed fixed.
    env = dict(os.environ, PYTHONHASHSEED="0")
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(mode, name, workdir, seconds, deadline):
    """Start a worker; return its set-up time and its report (None for set-up only)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, name, workdir, repr(seconds)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            env=_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - t0, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} worker did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{name} worker exited with code {proc.returncode}")
    ready = report = None
    for line in proc.stdout.splitlines():
        if line.startswith(f"{MARK}-READY "):
            ready = float(line.split()[1])
        elif line.startswith(f"{MARK} "):
            report = json.loads(line[len(MARK) + 1 :])
    if ready is None or (mode != "setup" and report is None):
        raise BenchError(f"{name} worker printed no result")
    return ready - t0, report


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(HERE, "_work", name)
    shutil.rmtree(workdir, ignore_errors=True)
    make_inputs(WORKLOADS[name], seed, workdir)
    setups = [] if trace else [
        _worker("setup", name, workdir, seconds, deadline)[0] for _ in range(SETUP_PROCESSES - 1)
    ]
    setup, report = _worker("trace" if trace else "run", name, workdir, seconds, deadline)
    if not report["run_s"]:
        raise BenchError(f"{name}: no operation succeeded")
    if trace:
        metrics = {k: {"value": report["per_layer"][k], "unit": unit} for k, unit, _ in PER_LAYER}
    else:
        metrics = {
            "run_s": {"value": statistics.median(report["run_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups + [setup]), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def _print_summary(name, result):
    print(
        f"{name}: {result['attempted']} certificates attempted, {result['failed']} failed, "
        f"outputs {'correct' if result['correct'] else 'WRONG'}"
    )
    for metric, m in result["metrics"].items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "poisoncert", "__init__.py")):
        print("error: run from the root of a poisoncert checkout (src/poisoncert not found)", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _print_summary(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
