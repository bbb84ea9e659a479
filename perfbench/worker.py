"""One workload in one process: prepare, signal ready, run whole operations
until the window closes, check every output, report on the last line.

Started by run.py from the checkout root with src/ on PYTHONPATH:

    python3 perfbench/worker.py <setup|run|trace> <workload> <workdir> <seconds>

`setup` exits once ready. `run` times operations with tracing off. `trace`
spends the first half of the window untraced and the second half traced, and
reports per-layer metrics plus the difference in operation time.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import poisoncert
from poisoncert import certify

import checks
from spans import Tracer, layer_metrics
from workloads import WORKLOADS

MARK = "PERFBENCH"


def load_clean(workdir):
    with np.load(os.path.join(workdir, "clean.npz")) as npz:
        return dict(npz)


class CliOp:
    """`poisoncert certify` on the workload's config, called in-process."""

    def __init__(self, spec, workdir):
        # Imported here: the data-dependent workloads never load the CLI, so
        # its import stays out of their set-up time.
        from poisoncert import cli

        self.cli = cli
        self.spec = spec
        self.workdir = workdir
        self.out = os.path.join(workdir, "out")
        self.argv = ["certify", "--config", os.path.join(workdir, "config.json")]
        self.certificates = len(spec["eps"])
        self._clean = None
        self._params = None

    def before(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        rc = self.cli.main(self.argv)
        if rc != 0:
            raise RuntimeError(f"poisoncert certify exited with code {rc}")

    def check(self, _result, _tracer):
        # Loaded after the first operation, so the check's copy of the data
        # stays out of the program's peak memory.
        if self._clean is None:
            self._clean = load_clean(self.workdir)
            self._params = checks.defense_params(
                self._clean["X_train"], self._clean["y_train"], self.spec["keep_fraction"]
            )
        clean = self._clean
        X, y = clean["X_train"], clean["y_train"]
        certs = []
        for eps in self.spec["eps"]:
            with open(os.path.join(self.out, f"certificate_eps{float(eps)}_seed0.json"), encoding="utf-8") as fh:
                certs.append(json.load(fh))
        for cert in certs:
            checks.check_lower_bound(cert, X, y)
            checks.check_norm(cert)
            checks.check_attack_feasible(cert, self._params)
            checks.check_sandwich(cert)
            if self.spec["integer"]:
                checks.check_integer_attack(cert, X.max(axis=0))
            else:
                checks.check_regret(cert)
        rows = checks.read_sweep(os.path.join(self.out, "sweep.csv"))
        checks.check_sweep(rows, certs, X, y, clean["X_test"], clean["y_test"])


class DataDependentOp:
    """`certify_data_dependent` on a dataset loaded and calibrated at set-up."""

    certificates = 1

    def __init__(self, spec, workdir):
        self.spec = spec
        self.workdir = workdir
        self.D = poisoncert.load_dataset(os.path.join(workdir, "train.csv"), "dense-csv")
        stats = poisoncert.class_stats(self.D)
        params = poisoncert.calibrate_thresholds(self.D, stats, spec["keep_fraction"])
        self.F = poisoncert.FeasibleSet("data-dependent", params)

    def before(self):
        pass

    def run(self):
        s = self.spec
        return certify.certify_data_dependent(
            self.D,
            self.F,
            s["eps"],
            s["rho"],
            s["eta"],
            0,
            steps=s["steps"],
            sdp_samples=s["sdp_samples"],
            attack_samples=s["attack_samples"],
            eval_steps=s["eval_steps"],
            sdp_max_iter=s["sdp_max_iter"],
        )

    def check(self, cert, tracer):
        clean = load_clean(self.workdir)
        doc = cert.to_json_dict()
        checks.check_lower_bound(doc, clean["X_train"], clean["y_train"])
        checks.check_norm(doc)
        checks.check_dd_result(doc, self.spec["eps"], len(clean["y_train"]))
        if tracer is None:
            return
        for args, res in tracer.kept["sdp.max_loss_data_dependent"]:
            checks.check_oracle_value(args["model"].theta, res)
        for args, sol in tracer.kept["sdp.solve_sdp"]:
            if sol.status == "optimal":
                checks.check_gram(args["prog"], sol.G_opt)


def _peak_rss_mb():
    # Taken after the first operation, before its check loads the
    # benchmark's copy of the data. Later operations do the same work; the
    # allocator's growth over them depends on how many fit in the window.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def program_tracer():
    return Tracer({m: importlib.import_module(f"poisoncert.{m}") for m in ("cli", "certify", "maxoracle", "sdp")})


class Window:
    """Runs whole operations until the next one would end past the window."""

    def __init__(self, op):
        self.op = op
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.peak_rss_mb = None

    def run(self, until, tracer=None):
        times = []
        longest = 0.0
        while True:
            self.op.before()
            if tracer is not None:
                tracer.op = self.attempted
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = self.op.run()
            except Exception:
                self.failed += 1
                traceback.print_exc()
            else:
                times.append(time.perf_counter() - t0)
                if self.peak_rss_mb is None:
                    self.peak_rss_mb = _peak_rss_mb()
                try:
                    self.op.check(result, tracer)
                except checks.CheckError as exc:
                    self.errors.append(str(exc))
                    print(f"check failed: {exc}", file=sys.stderr)
            if tracer is not None:
                tracer.kept.clear()
            longest = max(longest, time.perf_counter() - t0)
            if time.monotonic() + longest > until:
                return times


def main(argv):
    mode, name, workdir, seconds = argv[1], argv[2], argv[3], float(argv[4])
    spec = WORKLOADS[name]
    op = (CliOp if spec["kind"] == "cli" else DataDependentOp)(spec, workdir)
    start = time.monotonic()
    print(f"{MARK}-READY {start!r}", flush=True)
    if mode == "setup":
        return 0

    window = Window(op)
    report = {}
    if mode == "trace":
        plain = window.run(start + seconds / 2)
        tracer = program_tracer()
        tracer.install()
        traced_from = window.attempted
        try:
            traced = window.run(start + seconds, tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(workdir, "spans.jsonl"))
        report["per_layer"] = layer_metrics(tracer.spans, window.attempted - traced_from)
        overhead = statistics.median(traced) - statistics.median(plain) if plain and traced else 0.0
        report["per_layer"]["trace.overhead_s"] = overhead
        times = plain
    else:
        times = window.run(start + seconds)
        report["peak_rss_mb"] = window.peak_rss_mb
    report.update(
        run_s=times,
        attempted=window.attempted * op.certificates,
        failed=window.failed * op.certificates,
        errors=window.errors,
    )
    print(f"{MARK} {json.dumps(report)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
