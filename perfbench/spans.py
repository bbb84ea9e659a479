"""Spans around calls into the program's modules, and the per-layer metrics
derived from them.

Each public function of interest is replaced, under every name a calling
module looks it up by, with a wrapper that records a span: layer name, start,
end, parent span and the operation it belongs to. Counts (statuses,
iterations, accepted points) are read from the returned objects. Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

import numpy as np

# Layer name -> "module.attr" names the program calls it by. A missing
# attribute is skipped, so a refactor that drops a call site reports zero
# calls instead of breaking the traced run.
TARGETS = {
    "cli.main": ["cli.main"],
    "data.load_dataset": ["cli.load_dataset"],
    "defense.calibrate_thresholds": ["cli.calibrate_thresholds"],
    "model.evaluate": ["cli.evaluate"],
    "certify.certify_fixed": ["cli.certify_fixed", "certify.certify_fixed"],
    "certify.certify_data_dependent": ["certify.certify_data_dependent"],
    "certify.rda_step": ["certify.rda_step"],
    "model.train_erm": ["certify.train_erm"],
    "maxoracle.max_loss_continuous": ["certify.max_loss_continuous", "maxoracle.max_loss_continuous"],
    "maxoracle.max_loss_integer": ["certify.max_loss_integer"],
    "defense.membership": ["maxoracle.membership"],
    "sdp.max_loss_data_dependent": ["sdp.max_loss_data_dependent"],
    "sdp.solve_sdp": ["sdp.solve_sdp"],
    "sdp.build_gram_program": ["sdp.build_gram_program"],
    "sdp.recover_vectors": ["sdp.recover_vectors"],
}

# Layers whose arguments and results are kept for the output checks.
KEPT = ("sdp.max_loss_data_dependent", "sdp.solve_sdp")

# Per-layer metrics: name, unit, better. Counts and busy times are per
# operation (one call of the workload's entry point), averaged over the
# traced operations.
PER_LAYER = [
    ("model.train_erm.calls", "count", "lower"),
    ("model.train_erm.busy_s", "s", "lower"),
    ("model.train_erm.ms_per_call", "ms", "lower"),
    ("model.train_erm.input_mb", "MB", "lower"),
    ("certify.certify_fixed.busy_s", "s", "lower"),
    ("certify.certify_data_dependent.busy_s", "s", "lower"),
    ("certify.self_s", "s", "lower"),
    ("certify.rda_step.calls", "count", "lower"),
    ("certify.rda_step.busy_s", "s", "lower"),
    ("maxoracle.max_loss_continuous.calls", "count", "lower"),
    ("maxoracle.max_loss_continuous.busy_s", "s", "lower"),
    ("maxoracle.max_loss_continuous.us_per_call", "us", "lower"),
    ("maxoracle.max_loss_integer.calls", "count", "lower"),
    ("maxoracle.max_loss_integer.busy_s", "s", "lower"),
    ("maxoracle.max_loss_integer.self_s", "s", "lower"),
    ("maxoracle.max_loss_integer.ms_per_call", "ms", "lower"),
    ("maxoracle.max_loss_integer.no_candidate", "count", "lower"),
    ("defense.membership.calls", "count", "lower"),
    ("defense.membership.accept_ratio", "ratio", "higher"),
    ("sdp.solve_sdp.calls", "count", "lower"),
    ("sdp.solve_sdp.busy_s", "s", "lower"),
    ("sdp.solve_sdp.iterations", "count", "lower"),
    ("sdp.solve_sdp.us_per_iter", "us", "lower"),
    ("sdp.solve_sdp.optimal", "count", "higher"),
    ("sdp.solve_sdp.max_iter", "count", "lower"),
    ("sdp.solve_sdp.infeasible", "count", "lower"),
    ("sdp.solve_sdp.discarded_busy_s", "s", "lower"),
    ("sdp.max_loss_data_dependent.calls", "count", "lower"),
    ("sdp.max_loss_data_dependent.busy_s", "s", "lower"),
    ("sdp.max_loss_data_dependent.draws", "count", "lower"),
    ("sdp.max_loss_data_dependent.usable_ratio", "ratio", "higher"),
    ("sdp.quick_rejects", "count", "higher"),
    ("sdp.build_gram_program.busy_s", "s", "lower"),
    ("sdp.recover_vectors.busy_s", "s", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("data.load_dataset.busy_s", "s", "lower"),
    ("defense.calibrate_thresholds.busy_s", "s", "lower"),
    ("model.evaluate.busy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def usable(sol):
    """The oracle's own rule for keeping a draw: solved, or stopped at
    max-iter with primal residual at most 1e-4."""
    return sol.status == "optimal" or (sol.status == "max-iter" and sol.primal_residual <= 1e-4)


def _arg_attrs(layer, bound):
    args = bound.arguments
    if layer == "model.train_erm":
        return {"input_mb": args["ds"].n * args["ds"].d * 8 / 1e6}
    if layer == "sdp.max_loss_data_dependent":
        # The oracle answers theta = 0 in closed form and draws nothing.
        zero = float(np.linalg.norm(args["model"].theta)) == 0.0
        return {"draws": 0 if zero else int(args["samples"]) + len(args.get("extra_weights", ()))}
    return {}


def _result_attrs(layer, result):
    if layer == "maxoracle.max_loss_integer":
        return {"no_candidate": bool(result.no_candidate)}
    if layer == "defense.membership":
        return {"accepted": bool(result)}
    if layer == "sdp.solve_sdp":
        return {"status": result.status, "iterations": int(result.iterations), "usable": usable(result)}
    return {}


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.kept = defaultdict(list)
        self.op = None
        self._stack = []
        self._patched = []

    def install(self):
        for layer, names in TARGETS.items():
            found = [(self.modules[m], a) for m, a in (n.split(".") for n in names) if hasattr(self.modules[m], a)]
            if not found:
                continue
            wrapper = self._wrap(layer, getattr(*found[0]))
            for mod, attr in found:
                self._patched.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, layer, fn):
        sig = inspect.signature(fn)
        needs_args = layer in ("model.train_erm", "sdp.max_loss_data_dependent") + KEPT
        tracer = self

        def traced(*args, **kwargs):
            span = {
                "id": len(tracer.spans),
                "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                "op": tracer.op,
                "name": layer,
            }
            bound = None
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                span.update(_arg_attrs(layer, bound))
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            span.update(_result_attrs(layer, result))
            if layer in KEPT:
                tracer.kept[layer].append((bound.arguments, result))
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans, n_ops):
    """Per-layer metrics over the given spans, per operation."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["id"]]
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def calls(layer):
        return len(by[layer])

    def busy(layer):
        return sum(dur[s["id"]] for s in by[layer])

    def self_time(*layers):
        return sum(dur[s["id"]] - child[s["id"]] for layer in layers for s in by[layer])

    def ratio(num, den):
        return num / den if den else 0.0

    erm = by["model.train_erm"]
    solves = by["sdp.solve_sdp"]
    membership = by["defense.membership"]
    draws = sum(s["draws"] for s in by["sdp.max_loss_data_dependent"])
    iterations = sum(s.get("iterations", 0) for s in solves)
    per_op = {
        "model.train_erm.calls": calls("model.train_erm"),
        "model.train_erm.busy_s": busy("model.train_erm"),
        "certify.certify_fixed.busy_s": busy("certify.certify_fixed"),
        "certify.certify_data_dependent.busy_s": busy("certify.certify_data_dependent"),
        "certify.self_s": self_time("certify.certify_fixed", "certify.certify_data_dependent"),
        "certify.rda_step.calls": calls("certify.rda_step"),
        "certify.rda_step.busy_s": busy("certify.rda_step"),
        "maxoracle.max_loss_continuous.calls": calls("maxoracle.max_loss_continuous"),
        "maxoracle.max_loss_continuous.busy_s": busy("maxoracle.max_loss_continuous"),
        "maxoracle.max_loss_integer.calls": calls("maxoracle.max_loss_integer"),
        "maxoracle.max_loss_integer.busy_s": busy("maxoracle.max_loss_integer"),
        "maxoracle.max_loss_integer.self_s": self_time("maxoracle.max_loss_integer"),
        "maxoracle.max_loss_integer.no_candidate": sum(s.get("no_candidate", False) for s in by["maxoracle.max_loss_integer"]),
        "defense.membership.calls": len(membership),
        "sdp.solve_sdp.calls": len(solves),
        "sdp.solve_sdp.busy_s": busy("sdp.solve_sdp"),
        "sdp.solve_sdp.iterations": iterations,
        "sdp.solve_sdp.optimal": sum(s.get("status") == "optimal" for s in solves),
        "sdp.solve_sdp.max_iter": sum(s.get("status") == "max-iter" for s in solves),
        "sdp.solve_sdp.infeasible": sum(s.get("status") == "infeasible" for s in solves),
        "sdp.solve_sdp.discarded_busy_s": sum(dur[s["id"]] for s in solves if not s.get("usable", False)),
        "sdp.max_loss_data_dependent.calls": calls("sdp.max_loss_data_dependent"),
        "sdp.max_loss_data_dependent.busy_s": busy("sdp.max_loss_data_dependent"),
        "sdp.max_loss_data_dependent.draws": draws,
        "sdp.quick_rejects": draws - len(solves),
        "sdp.build_gram_program.busy_s": busy("sdp.build_gram_program"),
        "sdp.recover_vectors.busy_s": busy("sdp.recover_vectors"),
        "cli.main.busy_s": busy("cli.main"),
        "cli.self_s": self_time("cli.main"),
        "data.load_dataset.busy_s": busy("data.load_dataset"),
        "defense.calibrate_thresholds.busy_s": busy("defense.calibrate_thresholds"),
        "model.evaluate.busy_s": busy("model.evaluate"),
    }
    out = {k: v / n_ops for k, v in per_op.items()}
    out["model.train_erm.ms_per_call"] = 1e3 * ratio(busy("model.train_erm"), len(erm))
    out["model.train_erm.input_mb"] = max((s["input_mb"] for s in erm), default=0.0)
    out["maxoracle.max_loss_continuous.us_per_call"] = 1e6 * ratio(
        busy("maxoracle.max_loss_continuous"), calls("maxoracle.max_loss_continuous")
    )
    out["maxoracle.max_loss_integer.ms_per_call"] = 1e3 * ratio(
        busy("maxoracle.max_loss_integer"), calls("maxoracle.max_loss_integer")
    )
    out["defense.membership.accept_ratio"] = ratio(sum(s.get("accepted", False) for s in membership), len(membership))
    out["sdp.solve_sdp.us_per_iter"] = 1e6 * ratio(busy("sdp.solve_sdp"), iterations)
    out["sdp.max_loss_data_dependent.usable_ratio"] = ratio(sum(s.get("usable", False) for s in solves), draws)
    return out
