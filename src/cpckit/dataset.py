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

    regime_tags, a string array, is only populated by the synthetic
    generator; label_map records the CSV loader's original-to-dense labels.
    Instances are treated as immutable after construction. Features must be
    finite, labels whole (see as_labels). Loaders reject empty input; index
    subsets (splits, folds, subspaces) may be empty. Derived datasets are
    dataclasses.replace copies, which carry every other field along and are
    checked again.
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int
    regime_tags: np.ndarray | None = None
    label_map: dict[int, int] | None = None

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labs = as_labels(self.labels)
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
        tags = None if self.regime_tags is None else np.asarray(self.regime_tags, dtype=str)
        if tags is not None and len(tags) != feats.shape[0]:
            raise LengthMismatch("one regime tag per sample required")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "regime_tags", tags)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def as_labels(values) -> np.ndarray:
    """Labels as a flat int64 array. Integer and bool arrays pass as they are;
    other values must be whole numbers within int64 (not 0.5, NaN, inf)."""
    labs = np.asarray(values).reshape(-1)
    if labs.dtype.kind not in "biu":
        labs = labs.astype(np.float64)
        bad = ~((labs == np.floor(labs)) & (np.abs(labs) < 2.0**63))  # NaN fails both
        if bad.any():
            raise BadSpec(f"labels must be whole numbers, not {labs[bad][0]!r}")
    return labs.astype(np.int64, copy=False)


def take(ds: LabeledDataset, indices) -> LabeledDataset:
    """Rows at integer positions in [0, n), or under a bool mask of length
    n, the tag array too; the label map is kept. Other masks and positions,
    negative ones included, are refused."""
    idx = np.asarray(indices).reshape(-1)
    if idx.dtype == bool:
        if len(idx) != ds.n:
            raise LengthMismatch(f"a mask of {len(idx)} for {ds.n} rows")
        idx = idx.nonzero()[0]  # once, not once per array taken
    elif not idx.size:
        idx = idx.astype(np.int64)  # np.asarray([]) is float64
    elif idx.dtype.kind not in "iu":
        raise BadSpec(f"row positions must be integers, not {idx.dtype}")
    elif idx.min() < 0 or idx.max() >= ds.n:
        raise BadSpec(f"row positions must lie in [0, {ds.n})")
    tags = None if ds.regime_tags is None else ds.regime_tags[idx]
    return replace(ds, features=ds.features[idx], labels=ds.labels[idx], regime_tags=tags)


# CSV wire format: one sample per row, "f0,f1,...,f{d-1},label" ---------

def load_dataset(
    path, has_header: bool = False, label_map: dict[int, int] | None = None
) -> LabeledDataset:
    """Read a dataset CSV. Labels are densified to 0..C-1, mapping recorded.

    Rows are checked in file order and the first bad one is reported: a
    row whose width is not the first row's, a cell that is not a number,
    or a label that is not an integer that fits int64. Pass the training
    set's label_map when loading its test or validation file: labels then
    map through it, and a label it lacks is an error.
    """
    feats, raw = [], []
    width = 0
    with open(path, newline="") as fh:
        for lineno, cells in enumerate(csv.reader(fh), start=1):
            if (has_header and lineno == 1) or (len(cells) < 2 and not "".join(cells).strip()):
                continue  # the header, or a blank line: no cell or one blank one
            width = width or len(cells)
            if width < 2:
                raise RaggedRow(f"line {lineno}: need at least one feature column and a label")
            if len(cells) != width:
                raise RaggedRow(f"line {lineno}: expected {width} columns, got {len(cells)}")
            for c, cell in enumerate(cells[:-1]):
                try:
                    feats.append(float(cell))
                except ValueError:
                    raise NonNumeric(f"line {lineno}, column {c}: {cell!r}") from None
            try:
                raw.append(int(cells[-1]))
                if not -(2**63) <= raw[-1] < 2**63:
                    raise ValueError  # beyond int64
            except ValueError:
                raise NonNumeric(f"line {lineno}, label column: {cells[-1]!r}") from None
    if not raw:
        raise EmptyDataset(f"{path}: no data rows")

    if label_map is None:
        label_map = {orig: dense for dense, orig in enumerate(sorted(set(raw)))}
    unseen = sorted(set(raw) - label_map.keys())
    if unseen:
        raise LabelOutOfRange(f"{path}: labels {unseen} are not in the training labels")
    feats = np.array(feats, dtype=np.float64).reshape(len(raw), width - 1)
    labels = np.array([label_map[v] for v in raw], dtype=np.int64)
    return LabeledDataset(feats, labels, len(label_map), label_map=label_map)


def write_dataset(ds: LabeledDataset, path) -> None:
    """Write the CSV wire format, with no header; labels go last, as read:
    through the inverse of label_map when the dataset has one."""
    original = {dense: orig for orig, dense in (ds.label_map or {}).items()}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for x, y in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in x] + [original.get(int(y), int(y))])


# splitting -------------------------------------------------------------

def check_seed(seed, error=BadSpec) -> None:
    """Raise error for a seed that numpy's default_rng cannot take: a negative
    one or one that is not an integer (bools and numpy integers are integers)."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise error(f"seed={seed!r} must be a non-negative integer")


@dataclass(frozen=True)
class SplitSpec:
    """Three-way split fractions, which must sum to 1 within 1e-9, and the
    seed of the shuffle, a non-negative integer."""

    train: float
    val: float
    test: float
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed)
        fracs = (self.train, self.val, self.test)
        if not all(f >= 0 for f in fracs):  # NaN too
            raise BadFractions(f"negative or NaN fraction in {fracs}")
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
    residue. Per-class proportions are preserved up to rounding. Each row
    gets one part, 0 for train, 1 for val and 2 for test: a class's shuffled
    rows go to val, then test, then train, and each part keeps row order.
    """
    if ds.n == 0:
        raise EmptyDataset("cannot split an empty dataset")
    n_val = _round_half_up(ds.n * spec.val)
    n_test = _round_half_up(ds.n * spec.test)
    if n_val + n_test > ds.n:
        raise BadFractions("rounded val and test sizes exceed the dataset")
    rng = np.random.default_rng(spec.seed)
    sizes = np.bincount(ds.labels, minlength=ds.class_count)
    val_c = _apportion(sizes * spec.val, n_val, sizes)
    test_c = _apportion(sizes * spec.test, n_test, sizes - val_c)
    part = np.zeros(ds.n, dtype=np.int64)
    for c, (v, t) in enumerate(zip(val_c, test_c)):
        shuffled = rng.permutation(np.flatnonzero(ds.labels == c))
        part[shuffled[:v]] = 1
        part[shuffled[v : v + t]] = 2
    return take(ds, part == 0), take(ds, part == 1), take(ds, part == 2)


# k-fold ---------------------------------------------------------------

def kfold(ds: LabeledDataset, K: int, seed: int = 0) -> np.ndarray:
    """The int64 fold id in [0, K) of each row: K stratified folds whose
    sizes differ by one at most. K is an integer in [2, n] and seed a
    non-negative integer (numpy integers count).

    Each class's samples are shuffled, and one round-robin deal over the
    permutations joined in class order balances classes across folds
    without ever violating the global size bound.
    """
    if not isinstance(K, (int, np.integer)) or not (2 <= K <= ds.n):
        raise BadK(f"K={K} must be an integer in [2, n={ds.n}]")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    order = np.concatenate([rng.permutation(np.flatnonzero(ds.labels == c))
                            for c in range(ds.class_count)])
    fold_of = np.empty(ds.n, dtype=np.int64)
    fold_of[order] = np.arange(ds.n) % K
    return fold_of


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
    tags = np.repeat([EASY_TAG, HARD_TAG], [n_easy, n_hard])

    perm = rng.permutation(n_easy + n_hard)
    return LabeledDataset(
        features=feats[perm], labels=labels[perm], class_count=C, regime_tags=tags[perm]
    )
