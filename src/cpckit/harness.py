"""Evaluation harness: confusion counts, reports, the train-and-score
pipeline, cross-validation and threshold sweeps.

A PipelineConfig's learner picks the pipeline: a ClassifierSpec is the
plain classifier, a CpcConfig the routed one. Both refuse bad values when
built, so every stage trusts the settings it is given.

Reports are plain dicts, written as JSON as they are: sorted keys and no
timestamps, so identical configurations and seeds give identical bytes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import classifiers as clf_mod
from .classifiers import ClassifierSpec, _as_queries
from .cpc import (
    ROUTE_DIFFICULT,
    ROUTE_EASY,
    CpcConfig,
    _route_rows,
    _run_shares,
    check_theta,
    cpc_predict_grid,
    ease_scores,
    fit_cpc_many,
    partition,
)
from .dataset import LabeledDataset, as_labels, kfold, take
from .errors import BadSpec, ConfigError, EmptyDataset, LabelOutOfRange, LengthMismatch, save_json
from .mlp import TrainConfig, check_arch, extract_features, fit_extractor, parse_arch
from .preprocess import apply_whitening, fit_zca, normalize_samples


def confusion(preds, truth, class_count: int) -> np.ndarray:
    """(C, C) int64 counts: [i, j] = samples of true class i predicted as j;
    a value on either side that is not a whole number is refused (as_labels)."""
    preds = as_labels(preds)
    truth = as_labels(truth)
    if len(preds) != len(truth):
        raise LengthMismatch(f"{len(preds)} predictions for {len(truth)} labels")
    if len(preds) == 0:
        raise LengthMismatch("nothing to evaluate")
    both = np.concatenate([preds, truth])
    if both.min() < 0 or both.max() >= class_count:
        raise LabelOutOfRange(f"labels outside [0, {class_count})")
    counts = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(counts, (truth, preds), 1)
    return counts


def evaluate(
    preds,
    truth,
    class_count: int,
    routes=None,
    config: dict | None = None,
    seed: int = 0,
) -> dict:
    """Score predictions against ground truth as the report dict the CLI
    writes: accuracy, per-class accuracy (diagonal over row sums, None
    where a class has no true samples), confusion counts, route stats,
    config and seed.

    routes, any per-sample "+"/"-" sequence (a list, tuple, str or array),
    gives per-route counts and accuracies (None when a route saw no samples);
    any other route value is refused.
    """
    counts = confusion(preds, truth, class_count)
    route_stats = None
    if routes is not None:
        hit = as_labels(preds) == as_labels(truth)
        routes = np.asarray(list(routes), dtype=str)  # list(): a str is its characters
        if len(routes) != len(hit):
            raise LengthMismatch(f"{len(routes)} routes for {len(hit)} samples")
        bad = ~np.isin(routes, (ROUTE_EASY, ROUTE_DIFFICULT))
        if bad.any():
            raise BadSpec(f"a route must be '+' or '-', not {str(routes[bad][0])!r}")
        plus = routes == ROUTE_EASY
        n_plus, n_minus = int(plus.sum()), int((~plus).sum())
        route_stats = {
            "+": n_plus,
            "-": n_minus,
            "acc+": float(hit[plus].mean()) if n_plus else None,
            "acc-": float(hit[~plus].mean()) if n_minus else None,
        }
    rows = counts.sum(axis=1)
    return {
        "accuracy": float(np.trace(counts)) / int(counts.sum()),
        "per_class": [float(counts[i, i] / row) if row else None for i, row in enumerate(rows)],
        "confusion": counts.tolist(),
        "routes": route_stats,
        "config": dict(config or {}),
        "seed": seed,
    }


def write_report(report_dict: dict, path) -> None:
    save_json(report_dict, path, sort_keys=True, indent=2)


# pipeline --------------------------------------------------------------

@dataclass(frozen=True)
class PreprocessConfig:
    normalize: bool = False
    zca: bool = False
    epsilon: float = 1e-6

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ConfigError(f"epsilon must be finite and positive, got {self.epsilon!r}")


@dataclass(frozen=True)
class ExtractorConfig:
    arch: str
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        check_arch(*parse_arch(self.arch))


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to train and score one model end to end. A
    CpcConfig learner trains with its own base and expert specs."""

    learner: ClassifierSpec | CpcConfig
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    extractor: ExtractorConfig | None = None

    def __post_init__(self):
        if not isinstance(self.learner, (ClassifierSpec, CpcConfig)):
            raise ConfigError(f"learner must be a ClassifierSpec or a CpcConfig, "
                              f"got {type(self.learner).__name__}")


def run_pipeline(pairs, cfg: PipelineConfig) -> list[tuple]:
    """Fit on the training side of each (train, test) pair and predict its
    test side. Returns one (preds, routes array or None) per pair.

    Stage by stage: each pair is preprocessed and its extractor trained,
    then a ClassifierSpec learner trains on all pairs in one fit_many call;
    a CpcConfig learner partitions each pair at its theta and fits all
    pairs' experts in one fit_cpc_many call. Preprocessing and the
    extractor are fit on training data only and applied to the test side."""
    pairs = [_prepare(train_ds, test_ds, cfg) for train_ds, test_ds in pairs]
    c = cfg.learner
    if isinstance(c, ClassifierSpec):
        fitted = clf_mod.fit_many([c] * len(pairs), [train for train, _ in pairs])
        return [(clf.predict_many(test.features), None) for clf, (_, test) in zip(fitted, pairs)]
    parts = [partition(train, ease_scores(train, c), c.theta) for train, _ in pairs]
    models = fit_cpc_many(parts, c.expert_spec, c.disc_k)
    grids = [cpc_predict_grid([m], test.features) for m, (_, test) in zip(models, pairs)]
    return [(labels, np.where(margins > 0, ROUTE_EASY, ROUTE_DIFFICULT))
            for [margins], [labels] in grids]


def _prepare(train_ds: LabeledDataset, test_ds: LabeledDataset, cfg: PipelineConfig):
    """One pair after the preprocessing and extractor stages of cfg."""
    if cfg.preprocess.normalize:
        train_ds = normalize_samples(train_ds)
        test_ds = normalize_samples(test_ds)
    if cfg.preprocess.zca:
        t = fit_zca(train_ds, cfg.preprocess.epsilon)
        train_ds = apply_whitening(t, train_ds)
        test_ds = apply_whitening(t, test_ds)
    if cfg.extractor is not None:
        model, _ = fit_extractor(train_ds, cfg.extractor.arch, cfg.extractor.train)
        train_ds = extract_features(model, train_ds)
        test_ds = extract_features(model, test_ds)
    return train_ds, test_ds


# cross-validation --------------------------------------------------------

def cross_validate(
    ds: LabeledDataset, cfg: PipelineConfig, folds: int = 5, seed: int = 0
) -> dict:
    """K-fold protocol: each fold is scored once by a pipeline trained on
    the others. The folds run in contiguous shares, one per usable CPU (see
    cpc._run_shares), and route in their share. A fit does not depend on its
    group (fit_many equals fit bit for bit, forest trees come out node for
    node), so the report does not either. Returns
    {"folds": one evaluate report per fold, "mean_accuracy", "std_accuracy"}:
    the mean of fold accuracies and their population deviation."""
    fold_of = kfold(ds, folds, seed=seed)
    tests = [take(ds, fold_of == f) for f in range(folds)]
    pairs = [(take(ds, fold_of != f), test) for f, test in enumerate(tests)]
    results = [r for share in _run_shares(run_pipeline, pairs, cfg) for r in share]
    reports = [
        evaluate(preds, test.labels, ds.class_count, routes=routes, config={"fold": f}, seed=seed)
        for f, (test, (preds, routes)) in enumerate(zip(tests, results))
    ]
    accs = np.array([r["accuracy"] for r in reports])
    return {
        "folds": reports,
        "mean_accuracy": float(accs.mean()),
        "std_accuracy": float(accs.std()),
    }


# theta sweep ---------------------------------------------------------------

@dataclass
class SweepResult:
    thetas: list[float]
    accuracies: list[float]
    baseline_accuracy: float
    best_theta: float


def theta_sweep(
    train_ds: LabeledDataset,
    val_ds: LabeledDataset,
    grid,
    cfg: CpcConfig,
) -> SweepResult:
    """Validation accuracy across thresholds.

    The base ensemble and ease scores are computed once and shared by every
    grid point; the grid is checked and an empty validation set, or one of
    another width, refused before anything trains, cfg when built.
    Thresholds between the same two distinct ease ratios split the same
    rows, so one model is fitted and routed per distinct easy set among
    theta 0 and the grid, and its accuracy is copied to each such point.
    A point above every ratio shares theta 0's model: both send every
    query to one expert fitted on every row, so their accuracies are equal.
    The partitions, in easy-set order, run in contiguous shares (see
    cpc._run_shares), so neighbouring thresholds share their discriminator
    problems. Each share's are fitted by one fit_cpc_many call (linear
    experts in one stacked SGD run) and scored by one cpc._route_rows
    call, which solves only the distinct discriminator problems of mixed
    (model, query) pairs where exactly one of the two experts is right:
    every other pair's answer is right or wrong whichever way it routes.
    So a sweep raises Divergence only for a problem it solves. The
    accuracies are those of fit_cpc and cpc_predict_many at each grid point,
    whatever the shares. The theta-0 model's lone expert is the baseline.
    Ties for the best threshold break toward the smaller value.
    """
    grid = [float(t) for t in grid]
    if not grid:
        raise ConfigError("empty theta grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("theta grid must be strictly ascending")
    for theta in grid:
        check_theta(theta)
    if val_ds.n == 0:
        raise EmptyDataset("empty validation set")
    _as_queries(val_ds.features, train_ds.d)
    ease = ease_scores(train_ds, cfg)
    thetas = [0.0, *grid]
    # ratios >= theta depends only on how many distinct ratios lie below theta;
    # all of them gives the empty easy set, whose lone expert is theta 0's
    ratios = np.unique(ease.ratios)
    easy_sets = np.searchsorted(ratios, thetas) % len(ratios)
    _, first, slot = np.unique(easy_sets, return_index=True, return_inverse=True)
    parts = [partition(train_ds, ease, thetas[i]) for i in first]

    def share_accuracies(share):
        models = fit_cpc_many(share, cfg.expert_spec, cfg.disc_k)
        return (_route_rows(val_ds.features, models, val_ds.labels) / val_ds.n).tolist()

    model_acc = [a for share in _run_shares(share_accuracies, parts) for a in share]
    baseline_acc, *accuracies = [model_acc[s] for s in slot]
    best = grid[int(np.argmax(accuracies))]
    return SweepResult(
        thetas=grid,
        accuracies=accuracies,
        baseline_accuracy=baseline_acc,
        best_theta=best,
    )


def write_sweep_curve(result: SweepResult, path) -> None:
    """Two-column CSV (theta, accuracy), ready for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "accuracy"])
        for t, a in zip(result.thetas, result.accuracies):
            writer.writerow([repr(t), repr(a)])
