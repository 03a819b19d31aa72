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
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import classifiers as clf_mod
from .classifiers import ClassifierSpec
from .cpc import (
    ROUTE_EASY,
    CpcConfig,
    check_theta,
    cpc_predict_grid,
    cpc_predict_many,
    ease_scores,
    fit_cpc_many,
    partition,
)
from .dataset import LabeledDataset, kfold, take
from .errors import ConfigError, EmptyDataset, LabelOutOfRange, LengthMismatch
from .mlp import TrainConfig, check_arch, extract_features, fit_extractor, parse_arch
from .preprocess import apply_whitening, fit_zca, normalize_samples


def confusion(preds, truth, class_count: int) -> np.ndarray:
    """(C, C) int64 counts: [i, j] = samples of true class i predicted as j."""
    preds = np.asarray(preds, dtype=np.int64).reshape(-1)
    truth = np.asarray(truth, dtype=np.int64).reshape(-1)
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

    routes, when given, is a per-sample "+"/"-" sequence and produces
    per-route counts and accuracies (None when a route saw no samples).
    """
    counts = confusion(preds, truth, class_count)
    route_stats = None
    if routes is not None:
        preds_arr = np.asarray(preds, dtype=np.int64)
        truth_arr = np.asarray(truth, dtype=np.int64)
        routes = list(routes)
        if len(routes) != len(preds_arr):
            raise LengthMismatch(f"{len(routes)} routes for {len(preds_arr)} samples")
        plus = np.array([r == ROUTE_EASY for r in routes], dtype=bool)
        hit = preds_arr == truth_arr
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
    with open(path, "w") as fh:
        json.dump(report_dict, fh, sort_keys=True, indent=2)
        fh.write("\n")


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
    test side. Returns one (preds, routes-or-None) per pair.

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
    out = []
    for model, (_, test) in zip(fit_cpc_many(parts, c.expert_spec, c.disc_k), pairs):
        routed = cpc_predict_many(model, test.features)
        out.append((np.array([r.label for r in routed], dtype=np.int64),
                    [r.route for r in routed]))
    return out


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
    the others. The folds run on every usable CPU (see _run_shares); a fit
    does not depend on its group (fit_many equals fit bit for bit, forest
    trees come out node for node), so the report does not either. Returns
    {"folds": one evaluate report per fold, "mean_accuracy", "std_accuracy"}:
    the mean of fold accuracies and their population deviation."""
    fa = kfold(ds, folds, seed=seed)
    tests = [take(ds, fa.indices_of(f)) for f in range(folds)]
    pairs = [(take(ds, fa.complement_of(f)), test) for f, test in enumerate(tests)]
    results = _run_shares(lambda share: run_pipeline(share, cfg), pairs)
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


def _run_shares(fn, items: list) -> list:
    """fn(items), one result per item, computed on w processes, w the CPUs
    this process may use, at most len(items). Share i holds items i, i + w,
    ...: this process runs share 0 and one forked worker each other share,
    each share in one fn call. The results come back in item order, so they
    do not depend on w where fn's answer for an item does not depend on the
    rest of its share. Every worker is waited for before the failure of the
    first failing share, in share order, is raised."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    w = min(len(items), cpus)
    if w <= 1:
        return fn(items)
    import multiprocessing  # here, so that commands which never fork do not load it
    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for i in range(1, w):
            inbox, outbox = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_share_worker, args=(fn, items[i::w], outbox))
            with warnings.catch_warnings():
                # Python >= 3.12 warns when a process with threads forks, and a
                # warning made an error would escape after the fork, leaving
                # the worker untracked. The usual thread is numpy's BLAS pool,
                # which multiprocessing forked on Linux by default until 3.14.
                warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                        DeprecationWarning)
                proc.start()
            outbox.close()
            workers.append((proc, inbox))
        outcomes = [_attempt(fn, items[0::w])]
        for proc, inbox in workers:
            try:
                outcomes.append(inbox.recv())
            except EOFError:  # it died before sending
                outcomes.append((False, RuntimeError("a share worker died")))
            proc.join()
    finally:  # reached early only when this process is interrupted
        for proc, inbox in workers:
            inbox.close()
            proc.terminate()  # a no-op once joined
            proc.join()
    out = [None] * len(items)
    for i, (ok, value) in enumerate(outcomes):
        if not ok:
            raise value
        out[i::w] = value
    return out


def _attempt(fn, share):
    try:
        return True, fn(share)
    except Exception as e:
        return False, e


def _share_worker(fn, share, outbox):
    outbox.send(_attempt(fn, share))


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
    grid point; the grid is checked and an empty validation set refused
    before anything trains, cfg when built.
    Thresholds between the same two distinct ease ratios split the same
    rows, so one model is fitted and routed per distinct easy set among
    theta 0 and the grid, and its accuracy is copied to each such point.
    The partitions run on every usable CPU (see _run_shares), each share's
    fitted by one fit_cpc_many call (linear experts in one stacked SGD run)
    and routed by one cpc_predict_grid call. A row set trains in each share
    that holds it, as the full set of theta 0 and of an all-difficult point
    can. The answers are those of fit_cpc and cpc_predict_many at each grid
    point, whatever the shares. The theta-0 model's lone expert is the
    baseline. Ties for the best threshold break toward the smaller value.
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
    ease = ease_scores(train_ds, cfg)
    thetas = [0.0, *grid]
    # ratios >= theta depends only on how many distinct ratios lie below theta
    easy_sets = np.searchsorted(np.unique(ease.ratios), thetas)
    _, first, slot = np.unique(easy_sets, return_index=True, return_inverse=True)
    parts = [partition(train_ds, ease, thetas[i]) for i in first]

    def share_accuracies(share):
        _, labels = cpc_predict_grid(fit_cpc_many(share, cfg.expert_spec, cfg.disc_k),
                                     val_ds.features)
        return [float(np.mean(preds == val_ds.labels)) for preds in labels]

    model_acc = _run_shares(share_accuracies, parts)
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
