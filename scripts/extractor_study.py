"""Linear probe on learned features: concentric rings are not linearly
separable, so a softmax on raw coordinates sits near chance while the same
softmax on residual-block activations recovers the structure.

Usage:
    python scripts/extractor_study.py --epochs 60 --seed 0
"""

import argparse

import numpy as np

from cpckit.classifiers import ClassifierSpec, KnnParams, SoftmaxParams, fit
from cpckit.dataset import LabeledDataset
from cpckit.mlp import TrainConfig, extract_features, fit_extractor, format_arch


def make_rings(n: int, seed: int) -> LabeledDataset:
    """Two concentric annuli: class 0 inside radius 1, class 1 in [1.6, 2.6]."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    radii = np.where(labels == 0, rng.uniform(0.0, 1.0, n), rng.uniform(1.6, 2.6, n))
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    feats = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return LabeledDataset(feats, labels, 2)


def probe(name: str, spec: ClassifierSpec, train_ds, test_ds) -> None:
    model = fit(spec, train_ds)
    acc = float(np.mean(model.predict_many(test_ds.features) == test_ds.labels))
    print(f"  {name:<24} {acc:.4f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-train", type=int, default=600)
    ap.add_argument("--n-test", type=int, default=400)
    ap.add_argument("--arch", default="in:2 concat:16 concat:16 head:2")
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--dropout", type=float, default=0.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    train_ds = make_rings(args.n_train, seed=args.seed)
    test_ds = make_rings(args.n_test, seed=args.seed + 1)

    cfg = TrainConfig(epochs=args.epochs, dropout=args.dropout, seed=args.seed)
    model, losses = fit_extractor(train_ds, args.arch, cfg)
    print(f"extractor {format_arch(model)}: final epoch loss {losses[-1]:.4f}")

    train_feat = extract_features(model, train_ds)
    test_feat = extract_features(model, test_ds)
    print(f"tap width {train_feat.d} (raw d={train_ds.d})")

    softmax = ClassifierSpec("softmax", SoftmaxParams(seed=args.seed))
    knn = ClassifierSpec("knn", KnnParams(k=5))
    print("\nraw coordinates:")
    probe("softmax", softmax, train_ds, test_ds)
    probe("knn (k=5)", knn, train_ds, test_ds)
    print("extracted features:")
    probe("softmax", softmax, train_feat, test_feat)
    probe("knn (k=5)", knn, train_feat, test_feat)


if __name__ == "__main__":
    main()
