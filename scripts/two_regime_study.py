"""Head-to-head on the two-regime fixture: baseline vs routed experts.

For each classifier family the study trains a plain baseline and a full
complexity-routing model with the same spec, then adds the tag-oracle
ceiling (experts routed by the true regime of each sample). A theta curve
for the softmax spec is written as CSV for external plotting.

Usage:
    python scripts/two_regime_study.py --seed 0 --out-dir results/
"""

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from cpckit.classifiers import (
    ClassifierSpec,
    ForestParams,
    SoftmaxParams,
    SvmParams,
    fit,
)
from cpckit.cpc import CpcConfig, cpc_predict_many, train_cpc
from cpckit.dataset import (
    EASY_TAG,
    HARD_TAG,
    SplitSpec,
    generate_two_regime,
    split,
    take,
)
from cpckit.harness import PipelineConfig, run_pipeline, theta_sweep, write_sweep_curve


def accuracy(preds, labels) -> float:
    return float(np.mean(np.asarray(preds) == labels))


def pipeline_accuracy(train, test, learner) -> float:
    """Test accuracy of the plain (ClassifierSpec) or routed (CpcConfig) learner."""
    [(preds, _)] = run_pipeline([(train, test)], PipelineConfig(learner))
    return accuracy(preds, test.labels)


def oracle_accuracy(train, test, spec) -> float:
    """Ceiling: one expert per regime, test points routed by true tags."""
    tr_tags = np.asarray(train.regime_tags)
    te_tags = np.asarray(test.regime_tags)
    preds = np.empty(test.n, dtype=np.int64)
    for tag in (EASY_TAG, HARD_TAG):
        expert = fit(spec, take(train, np.flatnonzero(tr_tags == tag)))
        sel = np.flatnonzero(te_tags == tag)
        preds[sel] = expert.predict_many(test.features[sel])
    return accuracy(preds, test.labels)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-train", type=int, default=400, help="per regime")
    ap.add_argument("--n-test", type=int, default=200, help="per regime")
    ap.add_argument("--classes", type=int, default=4)
    ap.add_argument("--dim", type=int, default=8)
    ap.add_argument("--easy-margin", type=float, default=6.0)
    ap.add_argument("--hard-margin", type=float, default=0.8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", type=Path, default=Path("results"))
    args = ap.parse_args()

    train = generate_two_regime(
        args.n_train, args.n_train, args.classes, args.dim,
        args.easy_margin, args.hard_margin, seed=1000 + args.seed,
    )
    test = generate_two_regime(
        args.n_test, args.n_test, args.classes, args.dim,
        args.easy_margin, args.hard_margin, seed=2000 + args.seed,
    )

    # weak members sharpen the ease signal; experts train at full strength
    weak = ClassifierSpec("softmax", SoftmaxParams(epochs=30, seed=args.seed))
    softmax = ClassifierSpec("softmax", SoftmaxParams(seed=args.seed))

    # pick theta on a held-out slice of the training set
    tr, val, _ = split(train, SplitSpec(0.75, 0.25, 0.0, seed=args.seed))
    grid = [0.0] + [(k - 0.5) / 15 for k in range(1, 16)]
    cfg = CpcConfig(base_spec=weak, expert_spec=softmax, seed=args.seed)
    sweep = theta_sweep(tr, val, grid, cfg)
    print(f"sweep best theta {sweep.best_theta:.3f} "
          f"(val acc {max(sweep.accuracies):.4f} vs baseline "
          f"{sweep.baseline_accuracy:.4f})")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    curve_path = args.out_dir / f"theta_curve_seed{args.seed}.csv"
    write_sweep_curve(sweep, curve_path)
    print(f"theta curve written to {curve_path}")

    # headline: weak base members, full-strength softmax experts
    cfg = replace(cfg, theta=sweep.best_theta)
    model = train_cpc(train, cfg)
    routed = cpc_predict_many(model, test.features)
    preds = [p.label for p in routed]
    baseline = fit(softmax, train)
    base_acc = accuracy(baseline.predict_many(test.features), test.labels)
    routed_acc = accuracy(preds, test.labels)
    oracle_acc = oracle_accuracy(train, test, softmax)
    gap = oracle_acc - base_acc
    print(
        f"\nsoftmax study: baseline {base_acc:.4f}, routed {routed_acc:.4f}, "
        f"tag oracle {oracle_acc:.4f}"
    )
    if gap > 0:
        print(f"recovered {(routed_acc - base_acc) / gap:.1%} of the oracle gap")

    routes = [p.route for p in routed]
    te_tags = np.asarray(test.regime_tags)
    easy_sent_easy = sum(
        1 for r, t in zip(routes, te_tags) if r == "+" and t == EASY_TAG
    )
    print(
        f"routing: {routes.count('+')} easy / {routes.count('-')} difficult "
        f"of {test.n}; {easy_sent_easy}/{int((te_tags == EASY_TAG).sum())} "
        f"true-easy samples routed easy"
    )

    # secondary view: each family serving as both base and expert learner
    specs = [
        softmax,
        ClassifierSpec("linear_svm", SvmParams(seed=args.seed)),
        ClassifierSpec("random_forest", ForestParams(seed=args.seed)),
    ]
    print(f"\n{'spec':<14} {'baseline':>9} {'routed':>9} {'delta':>8} {'oracle':>8}")
    for spec in specs:
        plain = pipeline_accuracy(train, test, spec)
        cpc = pipeline_accuracy(train, test, replace(cfg, base_spec=spec, expert_spec=spec))
        print(
            f"{spec.kind:<14} {plain:>9.4f} {cpc:>9.4f} {cpc - plain:>+8.4f} "
            f"{oracle_accuracy(train, test, spec):>8.4f}"
        )


if __name__ == "__main__":
    main()
