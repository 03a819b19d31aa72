"""Labeled feature datasets: CSV loading, splitting, folding, and synthesis.

This module is the sole owner of sample indexing. Everything downstream
(whitening, classifiers, ease scoring) receives a LabeledDataset and refers
to rows by the positions defined here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BadFractions,
    BadK,
    BadSpec,
    EmptyDataset,
    LabelOutOfRange,
    LengthMismatch,
    NonFinite,
    NonNumeric,
    RaggedRow,
)

EASY_TAG = "easy"
HARD_TAG = "hard"


@dataclass(frozen=True)
class LabeledDataset:
    """n feature vectors with dense integer labels in [0, class_count).

    regime_tags is only populated by the synthetic generator; label_map
    records the original-to-dense label mapping applied by the CSV loader.
    Instances are treated as immutable after construction. Features must
    be finite. Loaders reject empty input; index subsets (splits, folds,
    subspaces) may be empty. Derived datasets are dataclasses.replace
    copies, which carry every other field along and are checked again.
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int
    regime_tags: tuple[str, ...] | None = None
    label_map: dict[int, int] | None = None

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labs = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if feats.ndim != 2:
            raise EmptyDataset("features must be a 2-D matrix")
        if feats.shape[1] < 1:
            raise EmptyDataset("feature dimension must be at least 1")
        if not np.isfinite(feats).all():
            row, col = np.argwhere(~np.isfinite(feats))[0]
            raise NonFinite(f"row {row}, column {col} is {float(feats[row, col])}")
        if labs.shape[0] != feats.shape[0]:
            raise LengthMismatch(
                f"{feats.shape[0]} rows but {labs.shape[0]} labels"
            )
        if self.class_count < 1:
            raise BadSpec("class_count must be at least 1")
        if labs.size and (labs.min() < 0 or labs.max() >= self.class_count):
            raise BadSpec("labels must lie in [0, class_count)")
        if self.regime_tags is not None and len(self.regime_tags) != feats.shape[0]:
            raise LengthMismatch("one regime tag per sample required")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def take(ds: LabeledDataset, indices) -> LabeledDataset:
    """Subset by row positions, carrying tags and the label map along."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    tags = None
    if ds.regime_tags is not None:
        tags = tuple(ds.regime_tags[i] for i in idx)
    return replace(ds, features=ds.features[idx], labels=ds.labels[idx], regime_tags=tags)


# CSV wire format: one sample per row, "f0,f1,...,f{d-1},label" ---------

def load_dataset(
    path, has_header: bool = False, label_map: dict[int, int] | None = None
) -> LabeledDataset:
    """Read a dataset CSV. Labels are densified to 0..C-1, mapping recorded.

    Pass the training set's label_map when loading its test or validation
    file: labels then map through it, and a label it lacks is an error.
    """
    rows = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader, start=1):
            if has_header and lineno == 1:
                continue
            if not cells or (len(cells) == 1 and cells[0].strip() == ""):
                continue  # blank line
            if width is None:
                width = len(cells)
                if width < 2:
                    raise RaggedRow(
                        f"line {lineno}: need at least one feature column and a label"
                    )
            elif len(cells) != width:
                raise RaggedRow(
                    f"line {lineno}: expected {width} columns, got {len(cells)}"
                )
            rows.append((lineno, cells))
    if not rows:
        raise EmptyDataset(f"{path}: no data rows")

    feats = np.empty((len(rows), width - 1), dtype=np.float64)
    raw_labels = np.empty(len(rows), dtype=np.int64)
    for r, (lineno, cells) in enumerate(rows):
        for c, cell in enumerate(cells[:-1]):
            try:
                feats[r, c] = float(cell)
            except ValueError:
                raise NonNumeric(f"line {lineno}, column {c}: {cell!r}") from None
        try:
            raw_labels[r] = int(cells[-1])
        except ValueError:
            raise NonNumeric(
                f"line {lineno}, label column: {cells[-1]!r}"
            ) from None

    if label_map is None:
        label_map = {int(orig): dense for dense, orig in enumerate(np.unique(raw_labels))}
    unseen = sorted(set(raw_labels.tolist()) - label_map.keys())
    if unseen:
        raise LabelOutOfRange(f"{path}: labels {unseen} are not in the training labels")
    dense = np.array([label_map[int(v)] for v in raw_labels], dtype=np.int64)
    return LabeledDataset(
        features=feats,
        labels=dense,
        class_count=len(label_map),
        label_map=label_map,
    )


def write_dataset(ds: LabeledDataset, path) -> None:
    """Write the CSV wire format, with no header; labels go last, as read:
    through the inverse of label_map when the dataset has one."""
    original = {dense: orig for orig, dense in (ds.label_map or {}).items()}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for x, y in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in x] + [original.get(int(y), int(y))])


# splitting -------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Three-way split fractions. Fractions must sum to 1 within 1e-9."""

    train: float
    val: float
    test: float
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train, self.val, self.test)
        if any(f < 0 for f in fracs):
            raise BadFractions(f"negative fraction in {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise BadFractions(f"fractions {fracs} sum to {sum(fracs)!r}, not 1")


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _apportion(quotas: np.ndarray, total: int, capacity: np.ndarray) -> np.ndarray:
    """Largest-remainder apportionment of `total` across classes.

    Respects per-class capacity; ties on the fractional part break toward
    the lower class id.
    """
    base = np.minimum(np.floor(quotas).astype(np.int64), capacity)
    remaining = total - int(base.sum())
    if remaining > 0:
        order = np.lexsort((np.arange(len(quotas)), -(quotas - np.floor(quotas))))
        for c in order:
            if remaining == 0:
                break
            room = capacity[c] - base[c]
            grab = min(room, remaining)
            base[c] += grab
            remaining -= grab
    return base


def split(
    ds: LabeledDataset, spec: SplitSpec
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Deterministic stratified train/val/test split.

    Validation and test sizes are rounded to nearest; train receives the
    residue. Per-class proportions are preserved up to rounding.
    """
    if ds.n == 0:
        raise EmptyDataset("cannot split an empty dataset")
    n = ds.n
    n_val = _round_half_up(n * spec.val)
    n_test = _round_half_up(n * spec.test)
    n_train = n - n_val - n_test
    if n_train < 0:
        raise BadFractions("rounded val and test sizes exceed the dataset")
    rng = np.random.default_rng(spec.seed)
    class_ids = np.arange(ds.class_count)
    members = [np.flatnonzero(ds.labels == c) for c in class_ids]
    sizes = np.array([len(ix) for ix in members], dtype=np.int64)
    val_c = _apportion(sizes * spec.val, n_val, sizes)
    test_c = _apportion(sizes * spec.test, n_test, sizes - val_c)

    tr_parts, va_parts, te_parts = [], [], []
    for c in class_ids:
        shuffled = rng.permutation(members[c])
        v, t = int(val_c[c]), int(test_c[c])
        va_parts.append(shuffled[:v])
        te_parts.append(shuffled[v : v + t])
        tr_parts.append(shuffled[v + t :])
    tr = np.concatenate(tr_parts)
    va = np.concatenate(va_parts)
    te = np.concatenate(te_parts)
    return take(ds, np.sort(tr)), take(ds, np.sort(va)), take(ds, np.sort(te))


# k-fold ---------------------------------------------------------------

@dataclass(frozen=True)
class FoldAssignment:
    """Maps each sample position to a fold id in [0, K)."""

    fold_of: np.ndarray

    def indices_of(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def complement_of(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)


def kfold(ds: LabeledDataset, K: int, seed: int = 0) -> FoldAssignment:
    """Partition samples into K stratified folds whose sizes differ by one at most.

    Each class's shuffled samples are dealt onto a single round-robin
    cursor, which balances classes across folds without ever violating the
    global size bound.
    """
    if not (2 <= K <= ds.n):
        raise BadK(f"K={K} outside [2, n={ds.n}]")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(ds.n, dtype=np.int64)
    cursor = 0
    for c in range(ds.class_count):
        for i in rng.permutation(np.flatnonzero(ds.labels == c)):
            fold_of[i] = cursor % K
            cursor += 1
    return FoldAssignment(fold_of=fold_of)


# synthetic two-regime data ---------------------------------------------

def two_regime_centers(
    C: int, d: int, easy_margin: float, hard_margin: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster centers used by generate_two_regime.

    Each regime places C centers on a circle in the first two coordinates,
    scaled so the minimum pairwise distance equals the regime's margin (in
    units of the unit sample standard deviation). The regimes sit on
    opposite sides of the origin along axis 0 with an 8-sigma gap between
    their closest clusters, so the regimes themselves stay separable.
    """
    if C < 2:
        raise BadSpec("need at least two classes")
    if d < 2:
        raise BadSpec("need at least two feature dimensions")
    if not np.inf > easy_margin > hard_margin > 0:
        raise BadSpec("margins must satisfy inf > easy_margin > hard_margin > 0")

    def circle(radius: float, offset: float) -> np.ndarray:
        angles = 2.0 * np.pi * np.arange(C) / C
        centers = np.zeros((C, d))
        centers[:, 0] = offset + radius * np.cos(angles)
        centers[:, 1] = radius * np.sin(angles)
        return centers

    r_easy = easy_margin / (2.0 * np.sin(np.pi / C))
    r_hard = hard_margin / (2.0 * np.sin(np.pi / C))
    shift = (r_easy + r_hard + 8.0) / 2.0
    return circle(r_easy, -shift), circle(r_hard, +shift)


def generate_two_regime(
    n_easy: int,
    n_hard: int,
    C: int,
    d: int,
    easy_margin: float,
    hard_margin: float,
    seed: int = 0,
) -> LabeledDataset:
    """Synthesize unit-variance Gaussian class clusters in two regimes.

    Easy-regime clusters are separated by easy_margin standard deviations,
    hard-regime clusters by hard_margin. Labels are dealt round-robin
    within each regime; rows are shuffled; regime_tags records provenance.
    """
    if n_easy < 0 or n_hard < 0 or n_easy + n_hard < 1:
        raise BadSpec("need a positive total sample count")
    easy_centers, hard_centers = two_regime_centers(C, d, easy_margin, hard_margin)
    rng = np.random.default_rng(seed)

    labels = np.concatenate([np.arange(n_easy) % C, np.arange(n_hard) % C])
    centers = np.concatenate(
        [easy_centers[labels[:n_easy]], hard_centers[labels[n_easy:]]]
    )
    feats = rng.standard_normal((n_easy + n_hard, d)) + centers
    tags = [EASY_TAG] * n_easy + [HARD_TAG] * n_hard

    perm = rng.permutation(n_easy + n_hard)
    return LabeledDataset(
        features=feats[perm],
        labels=labels[perm],
        class_count=C,
        regime_tags=tuple(tags[i] for i in perm),
    )
