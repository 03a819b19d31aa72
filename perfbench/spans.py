"""Spans around the public calls of each cpckit module, taken from outside.

A Tracer rebinds each target function in every cpckit module that holds
it (``harness`` imports ``train_base_ensemble`` and ``cpc_predict_many``
by name, ``cli`` imports ``cross_validate``, and so on), so calls made
from inside the package are seen too. A target that no longer exists is
listed in ``Tracer.absent`` and its metrics read 0; the run goes on.

Spans stay in memory and are written out once, when the run ends. Each
span records name, start, end, parent span and request id; self time is
a span's duration minus the durations of its child spans (calls are
synchronous, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time

KINDS = ("softmax", "linear_svm", "random_forest", "knn")
ROUTING = ("cpc.cpc_predict_many", "cpc.cpc_predict", "cpc.discriminate")


def _kind_of_spec(args, kwargs, result):
    spec = args[0] if args else kwargs.get("spec")
    return {"kind": getattr(spec, "kind", None)}


def _kind_of_self(args, kwargs, result):
    spec = getattr(args[0], "spec", None) if args else None
    return {"kind": getattr(spec, "kind", None)}


def _routed_many(args, kwargs, result):
    margins = [r.discriminator_margin for r in result]
    return {"rows": len(margins), "mixed": sum(math.isfinite(m) for m in margins)}


def _routed_one(args, kwargs, result):
    return {"rows": 1, "mixed": int(math.isfinite(result.discriminator_margin))}


def _rows(args, kwargs, result):
    return {"rows": result.n}


def _epochs(args, kwargs, result):
    return {"epochs": len(result[1])}


# (module, attribute path, note taken from the call). A dotted attribute
# path names a method on a class.
TARGETS = (
    ("cpckit.cli", "main", None),
    ("cpckit.dataset", "load_dataset", _rows),
    ("cpckit.preprocess", "fit_zca", None),
    ("cpckit.preprocess", "apply_whitening", None),
    ("cpckit.preprocess", "normalize_samples", None),
    ("cpckit.mlp", "train", _epochs),
    ("cpckit.mlp", "extract_features", None),
    ("cpckit.classifiers", "fit", _kind_of_spec),
    ("cpckit.classifiers", "TrainedClassifier.predict_many", _kind_of_self),
    ("cpckit.classifiers", "TrainedClassifier.decision_scores", _kind_of_self),
    ("cpckit.cpc", "train_base_ensemble", None),
    ("cpckit.cpc", "compute_ease", None),
    ("cpckit.cpc", "partition", None),
    ("cpckit.cpc", "fit_cpc", None),
    ("cpckit.cpc", "train_cpc", None),
    ("cpckit.cpc", "cpc_predict_many", _routed_many),
    ("cpckit.cpc", "cpc_predict", _routed_one),
    ("cpckit.cpc", "discriminate", None),
    ("cpckit.harness", "theta_sweep", None),
    ("cpckit.harness", "cross_validate", None),
    ("cpckit.harness", "run_pipeline", None),
    ("cpckit.harness", "write_report", None),
)


class Tracer:
    """Install with ``with tracer:``; spans collect until ``write``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.request = None
        self._stack: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def _wrap(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "request": self.request,
            }
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter() - self._t0
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - self._t0
                self._stack.pop()
            if note is not None:
                span.update(note(args, kwargs, result))
            return result

        return traced

    def __enter__(self):
        package = [m for n, m in list(sys.modules.items()) if n.startswith("cpckit")]
        absent = []
        for module_name, attr, note in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            name = f"{module_name.rsplit('.', 1)[-1]}.{fn_name}"
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = vars(owner).get(fn_name) if owner is not None else None
            if not callable(fn):
                absent.append(name)
                continue
            wrapped = self._wrap(name, fn, note)
            holders = [owner] if owner_name else package
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapped)
        self.absent = absent
        return self

    def __exit__(self, *exc):
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()
        return False

    def write(self, path, info: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"info": info, "absent": self.absent}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals over one list of spans (one traced pass)."""
    by_id = {s["id"]: s for s in spans}
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]

    def dur(s):
        return s["end"] - s["start"]

    def self_time(name):
        return sum(dur(s) - child.get(s["id"], 0.0) for s in spans if s["name"] == name)

    def total(name, keep=lambda s: True):
        return sum(dur(s) for s in spans if s["name"] == name and keep(s))

    routing_memo = {}

    def in_routing(s):
        """True when some ancestor of s is a routing span."""
        p = s["parent"]
        if p is None:
            return False
        if p not in routing_memo:
            parent = by_id[p]
            routing_memo[p] = parent["name"] in ROUTING or in_routing(parent)
        return routing_memo[p]

    outer_routes = [s for s in spans if s["name"] in ROUTING and not in_routing(s)]
    routed = sum(s.get("rows", 0) for s in outer_routes)
    mixed = sum(s.get("mixed", 0) for s in outer_routes)
    fits = [s for s in spans if s["name"] == "classifiers.fit"]
    disc_fits = [s for s in fits if in_routing(s)]
    epochs = sum(s.get("epochs", 0) for s in spans if s["name"] == "mlp.train")

    def forest(s):
        return s.get("kind") == "random_forest"

    out = {
        "cpc.route_s": sum(dur(s) for s in outer_routes),
        "cpc.discriminate.self_s": self_time("cpc.discriminate"),
        "cpc.disc_fit_s": sum(dur(s) for s in disc_fits),
        "cpc.disc_fits": len(disc_fits),
        "cpc.mixed_share": mixed / routed if routed else 0.0,
        "cpc.routed_queries": routed,
        "cpc.ensemble_fit_s": total("cpc.train_base_ensemble"),
        "cpc.ease_s": total("cpc.compute_ease"),
        "cpc.partition_s": total("cpc.partition"),
        "cpc.expert_fit_s": total("cpc.fit_cpc"),
    }
    for kind in KINDS:
        out[f"classifiers.fits.{kind}"] = sum(s.get("kind") == kind for s in fits)
    out["classifiers.fit_s.softmax"] = sum(
        dur(s) for s in fits if s.get("kind") == "softmax" and not in_routing(s)
    )
    out["classifiers.fit_s.random_forest"] = total("classifiers.fit", forest)
    out["classifiers.predict_s.random_forest"] = total(
        "classifiers.predict_many", forest
    ) + total("classifiers.decision_scores", forest)
    train_s = total("mlp.train")
    out.update({
        "mlp.train_s": train_s,
        "mlp.epoch_ms": 1000.0 * train_s / epochs if epochs else 0.0,
        "mlp.extract_s": total("mlp.extract_features"),
        "preprocess.fit_zca_s": total("preprocess.fit_zca"),
        "preprocess.apply_s": total("preprocess.apply_whitening")
        + total("preprocess.normalize_samples"),
        "dataset.load_s": total("dataset.load_dataset"),
        "dataset.rows_loaded": sum(
            s.get("rows", 0) for s in spans if s["name"] == "dataset.load_dataset"
        ),
        "harness.theta_sweep.self_s": self_time("harness.theta_sweep"),
        "harness.cross_validate.self_s": self_time("harness.cross_validate"),
        "harness.write_report_s": total("harness.write_report"),
        "cli.main.self_s": self_time("cli.main"),
        "trace.spans": len(spans),
    })
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
