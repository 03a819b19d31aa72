"""Time each layer once on the 800-train / 400-test two-regime fixture, under
the benchmark's tracer, next to the per-layer baseline in ROADMAP item 1.

The fixture is the README's CLI example: ``synth`` seeds 0 (train) and 1
(test), the default softmax as base and expert learner, theta 0.5, and the
``in:8 concat:32 head:4`` extractor trained for 40 epochs.

    python3 perfbench/reconcile.py

Prints one row per layer (baseline, measured, measured/baseline) and writes
them to ``perfbench/out/reconcile.json``. A row that disagrees is a finding
to record, not a number to tune.
"""

from __future__ import annotations

import json
import sys

from run import environment, prepare

# ROADMAP item 1, measured on a 2-core box when the roadmap was written.
BASELINE = {
    "route 400 queries (s)": 3.7,
    "discriminator fits while routing": 253,
    "forest fit, 100 trees (s)": 3.6,
    "forest predict, 400 rows (s)": 0.17,
    "softmax fit (s)": 0.08,
    "ensemble 5x3 (s)": 0.10,
    "knn predict, 400 rows (s)": 0.05,
    "mlp 40 epochs (s)": 0.13,
    "compute_ease (s)": 0.001,
}


def main() -> int:
    prepare()
    from cpckit import classifiers, cpc, dataset, mlp
    from spans import Tracer, layer_metrics
    from workloads import OUT

    train = dataset.generate_two_regime(400, 400, 4, 8, 6.0, 0.8, seed=0)
    test = dataset.generate_two_regime(200, 200, 4, 8, 6.0, 0.8, seed=1)
    tracer = Tracer()
    softmax = classifiers.softmax_spec(seed=0)
    with tracer:
        cfg = cpc.CpcConfig(base_spec=softmax, expert_spec=softmax, theta=0.5)
        model = cpc.train_cpc(train, cfg)
        cpc.cpc_predict_many(model, test.features)
        for spec in (classifiers.forest_spec(seed=0), softmax, classifiers.knn_spec()):
            classifiers.fit(spec, train).predict_many(test.features)
        net = mlp.build_mlp(*mlp.parse_arch("in:8 concat:32 head:4"), seed=0)
        mlp.train(net, train, mlp.TrainConfig(epochs=40))
    m = layer_metrics(tracer.spans)

    def spent(name, kind):
        return sum(s["end"] - s["start"] for s in tracer.spans
                   if s["name"] == name and s.get("kind") == kind and s["parent"] is None)

    measured = {
        "route 400 queries (s)": m["cpc.route_s"],
        "discriminator fits while routing": m["cpc.disc_fits"],
        "forest fit, 100 trees (s)": m["classifiers.fit_s.random_forest"],
        "forest predict, 400 rows (s)": m["classifiers.predict_s.random_forest"],
        "softmax fit (s)": spent("classifiers.fit", "softmax"),
        "ensemble 5x3 (s)": m["cpc.ensemble_fit_s"],
        "knn predict, 400 rows (s)": spent("classifiers.predict_many", "knn"),
        "mlp 40 epochs (s)": m["mlp.train_s"],
        "compute_ease (s)": m["cpc.ease_s"],
    }
    rows = [{"layer": k, "baseline": BASELINE[k], "measured": measured[k],
             "ratio": measured[k] / BASELINE[k]} for k in BASELINE]
    print(f"{'layer':36} {'baseline':>9} {'measured':>9} {'ratio':>6}")
    for r in rows:
        print(f"{r['layer']:36} {r['baseline']:9.3f} {r['measured']:9.3f} {r['ratio']:6.2f}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "reconcile.json").write_text(
        json.dumps({"environment": environment(), "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
