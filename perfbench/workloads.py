"""The three benchmark workloads.

Each workload makes its inputs from a pool index ``p`` (the run's seed
modulo ``POOL``), so that every run is checked against answers recorded
for that index by record.py: routes, labels and discriminator margins per
query for the routing workloads, the report's sha256 for the CLI one.

A workload has a set-up step, timed on its own, and a unit of work that
the run repeats and that returns the unit's answers. A unit calls
``meter.begin(i)`` as it starts request ``i`` (the traced run gives each
request its own id) and makes each call that returns answers through
``meter.call(queries, fn, *args)``, which times it; that gives the
per-query answer latency.

All calls into cpckit go through module attributes looked up at call
time, so the span wrappers in spans.py see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import replace
from pathlib import Path

from cpckit import cli, cpc, dataset, harness
from cpckit.classifiers import SOFTMAX, ClassifierSpec, SoftmaxParams

POOL = 10
MARGIN_TOL = 1e-12  # batched routing may reorder float operations
OUT = Path("perfbench") / "out"

# Criterion 6's theta grid: 0 and the midpoints of 15 equal steps.
C6_GRID = [0.0] + [(k - 0.5) / 15 for k in range(1, 16)]


def _two_regime(n_easy, n_hard, seed):
    return dataset.generate_two_regime(n_easy, n_hard, 4, 8, 6.0, 0.8, seed=seed)


def _cpc_config(p, theta=0.5):
    """Criterion 6's learners: a 30-epoch softmax ensemble, softmax experts."""
    return cpc.CpcConfig(
        base_spec=ClassifierSpec(SOFTMAX, SoftmaxParams(epochs=30, seed=p)),
        expert_spec=ClassifierSpec(SOFTMAX, SoftmaxParams(seed=p)),
        theta=theta,
        seed=p,
    )


def routed_answers(routed) -> dict:
    return {
        "routes": "".join(r.route for r in routed),
        "labels": [int(r.label) for r in routed],
        "margins": [float(r.discriminator_margin) for r in routed],
    }


def routed_mismatches(answers: dict, ref: dict) -> int:
    """Queries whose route, label or margin differ from the reference.

    Unanimous neighbourhoods give a margin of +-inf, which must match
    exactly; finite margins must agree within MARGIN_TOL.
    """
    if len(answers["routes"]) != len(ref["routes"]):
        return max(len(answers["routes"]), len(ref["routes"]))
    bad = 0
    for r, l, m, rr, rl, rm in zip(
        answers["routes"], answers["labels"], answers["margins"],
        ref["routes"], ref["labels"], ref["margins"],
    ):
        same_margin = m == rm if math.isinf(rm) else abs(m - rm) <= MARGIN_TOL
        bad += not (r == rr and l == rl and same_margin)
    return bad


class SweepC6:
    """One seed of acceptance criterion 6, through the library."""

    name = "sweep-c6"

    def setup(self, p, tiny=False):
        n_tr, n_te = (40, 20) if tiny else (400, 200)
        train = _two_regime(n_tr, n_tr, seed=1000 + p)
        test = _two_regime(n_te, n_te, seed=2000 + p)
        tr, val, _ = dataset.split(train, dataset.SplitSpec(0.75, 0.25, 0.0, seed=p))
        grid = [0.0, 0.5, 1.0] if tiny else C6_GRID
        return {"train": train, "test": test, "tr": tr, "val": val, "grid": grid,
                "cfg": _cpc_config(p)}

    def unit(self, s, meter):
        meter.begin(0)
        sweep = meter.call(len(s["grid"]) * s["val"].n, harness.theta_sweep,
                           s["tr"], s["val"], s["grid"], s["cfg"])
        model = cpc.train_cpc(s["train"], replace(s["cfg"], theta=sweep.best_theta))
        routed = meter.call(s["test"].n, cpc.cpc_predict_many, model, s["test"].features)
        return {"best_theta": sweep.best_theta, "accuracies": sweep.accuracies,
                "test": routed_answers(routed)}

    def queries(self, s):
        return len(s["grid"]) * s["val"].n + s["test"].n

    def mismatches(self, s, out, ref):
        """Each wrong grid accuracy fails that grid point's validation
        queries; each wrong test answer fails one query."""
        val_n = s["val"].n
        bad = sum(val_n for a, r in zip(out["accuracies"], ref["accuracies"]) if a != r)
        if len(out["accuracies"]) != len(ref["accuracies"]):
            bad += val_n * len(s["grid"])
        if out["best_theta"] != ref["best_theta"]:
            bad += s["test"].n
        return min(bad + routed_mismatches(out["test"], ref["test"]), self.queries(s))


class OnlineRoute:
    """One trained model; fresh queries one at a time through cpc_predict,
    as a closed loop with one client."""

    name = "online-route"

    def setup(self, p, tiny=False):
        n_tr, n_q = (40, 10) if tiny else (400, 500)
        train = _two_regime(n_tr, n_tr, seed=3000 + p)
        queries = _two_regime(n_q, n_q, seed=4000 + p).features
        model = cpc.train_cpc(train, _cpc_config(p, theta=0.1))
        return {"model": model, "queries": queries}

    def unit(self, s, meter):
        routed = []
        for i, x in enumerate(s["queries"]):
            meter.begin(i)
            routed.append(meter.call(1, cpc.cpc_predict, s["model"], x))
        return routed_answers(routed)

    def queries(self, s):
        return len(s["queries"])

    def mismatches(self, s, out, ref):
        return routed_mismatches(out, ref)


class CvForestMlp:
    """``cpckit cv`` in-process: ZCA, residual MLP extractor, 30-tree forest."""

    name = "cv-forest-mlp"

    def setup(self, p, tiny=False):
        n = 60 if tiny else 600
        OUT.mkdir(parents=True, exist_ok=True)
        csv_path, report = OUT / f"{self.name}.csv", OUT / f"{self.name}.json"
        dataset.write_dataset(_two_regime(n, n, seed=5000 + p), csv_path)
        argv = [
            "cv", "--in", str(csv_path), "--folds", "5", "--mode", "baseline",
            "--clf", "forest", "--trees", "3" if tiny else "30", "--zca",
            "--arch", "in:8 concat:32 head:4",
            "--extractor-epochs", "2" if tiny else "100",
            "--seed", str(p), "--report", str(report),
        ]
        return {"argv": argv, "report": report, "rows": 2 * n}

    def unit(self, s, meter):
        meter.begin(0)
        s["report"].unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = meter.call(s["rows"], cli.main, s["argv"])
        report = s["report"].read_bytes() if code == 0 else b""
        return {"exit": code, "sha256": hashlib.sha256(report).hexdigest()}

    def queries(self, s):
        return s["rows"]  # every row is held out and scored once

    def mismatches(self, s, out, ref):
        return 0 if out == ref else s["rows"]


WORKLOADS = {w.name: w for w in (SweepC6(), OnlineRoute(), CvForestMlp())}


def refs_path(name: str) -> Path:
    return Path("perfbench") / "refs" / f"{name}.json"


def load_refs(name: str) -> dict:
    with open(refs_path(name)) as fh:
        return json.load(fh)["pool"]
