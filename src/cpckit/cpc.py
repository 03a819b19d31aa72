"""Complexity-perception classification.

The pipeline: train N = K*m weak base classifiers (m repetitions of a
seeded K-fold partition, each member fit on a single fold), score every
training sample by the fraction of members that classify it correctly,
split the training set at a threshold theta into easy and difficult
subspaces, fit one expert per subspace, and route each query at prediction
time with a per-query discriminator: if the query's k nearest training
points all landed in one subspace the route is immediate, otherwise a tiny
binary softmax trained on just those k points decides. Discriminators are
full-batch fits from zero weights, so identical queries route identically.
From zero weights a binary softmax is a logistic regression on the
difference of its two weight columns, and it is fitted in that form; the
discriminators of all mixed-neighbourhood queries of one call are solved
together, each a fixed-matrix heavy-ball recursion in min(d, k) + 1 numbers.
Models that split the same pooled points at different thresholds, as the
grid of a theta sweep does, route a batch of queries with one neighbour
search and solve each distinct (query, neighbour labels) problem once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import classifiers as clf_mod
from .classifiers import (
    ClassifierSpec,
    SoftmaxParams,
    TrainedClassifier,
    _as_queries,
    _nearest_indices,
    with_seed,
)
from .dataset import LabeledDataset, kfold, take
from .errors import BadK, BadSpec, Divergence, EmptyPartition, LengthMismatch

INCLUDE_ALL = "include_all"
EXCLUDE_IN_FOLD = "exclude_in_fold"

SINGLE_FOLD = "single_fold"  # each member trains on one fold
COMPLEMENT = "complement"  # conventional alternative: train on the other K-1

ROUTE_EASY = "+"
ROUTE_DIFFICULT = "-"

# Every routing discriminator's settings; full batch from zero, batch_size and seed unused.
DEFAULT_DISC = SoftmaxParams(learning_rate=0.05, epochs=200, l2=1e-2, momentum=0.5)


# Step-matrix bytes per stacked solve: 124 problems at k=25, d=8, 24 at k=25, d=784.
_SOLVE_BYTES = 3 << 18


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _check_choice(what: str, value: str, choices) -> None:
    if value not in choices:
        raise BadSpec(f"unknown {what} {value!r}")


@dataclass
class BaseEnsemble:
    members: list[TrainedClassifier]
    trained_on: list[np.ndarray]  # member rep * K + fold's training rows
    n: int  # size of the training set
    digest: str  # of its features and labels, see _digest

    @property
    def N(self) -> int:
        return len(self.members)


def train_base_ensemble(
    train: LabeledDataset,
    K: int,
    m: int,
    base_spec: ClassifierSpec,
    seed: int = 0,
    fold_training: str = SINGLE_FOLD,
) -> BaseEnsemble:
    """Fit N = K*m members, one per (repetition, fold) pair.

    Each repetition draws a fresh seeded K-fold partition. The default
    trains every member on exactly one fold, i.e. the folds act as small
    training sets rather than held-out sets; fold_training="complement"
    gives the conventional K-1 fold training set instead. All members train
    in one classifiers.fit_many call, so linear members share one stacked
    SGD run. The ensemble records the training set's size and digest.
    """
    if m < 1:
        raise BadSpec(f"m={m} must be at least 1")
    _check_choice("fold_training", fold_training, (SINGLE_FOLD, COMPLEMENT))
    single = fold_training == SINGLE_FOLD
    specs, trained_on = [], []
    for rep in range(m):
        fa = kfold(train, K, seed=_derive_seed(seed, 0, rep))
        for fold in range(K):
            trained_on.append(fa.indices_of(fold) if single else fa.complement_of(fold))
            specs.append(with_seed(base_spec, _derive_seed(seed, 1, rep, fold)))
    members = clf_mod.fit_many(specs, [take(train, rows) for rows in trained_on])
    return BaseEnsemble(members=members, trained_on=trained_on, n=train.n, digest=_digest(train))


def _digest(ds: LabeledDataset) -> str:
    h = hashlib.blake2b(ds.features.tobytes(), digest_size=16)
    h.update(ds.labels.astype(np.int64).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class EaseScores:
    """Per-sample correct-member counts and their ratios in [0, 1].

    include_all divides by N; exclude_in_fold skips members whose training
    fold contained the sample, dividing by N - m.
    """

    correct_counts: np.ndarray
    ratios: np.ndarray
    N: int

    @property
    def n(self) -> int:
        return len(self.ratios)


def compute_ease(
    ens: BaseEnsemble, train: LabeledDataset, mode: str = INCLUDE_ALL
) -> EaseScores:
    """Fraction of ensemble members that classify each training sample
    correctly. Exact integer counting; ratios are counts over the mode's
    denominator. Raises LengthMismatch unless train has the size and digest
    of the set the ensemble was built on."""
    _check_choice("ease mode", mode, (INCLUDE_ALL, EXCLUDE_IN_FOLD))
    n = train.n
    if n != ens.n or _digest(train) != ens.digest:
        raise LengthMismatch("ensemble was built on a different training set")
    correct = np.zeros((ens.N, n), dtype=bool)
    for j, member in enumerate(ens.members):
        correct[j] = member.predict_many(train.features) == train.labels
    if mode == INCLUDE_ALL:
        counts = correct.sum(axis=0)
        denom = np.full(n, ens.N, dtype=np.int64)
    else:
        included = np.ones((ens.N, n), dtype=bool)
        for j, rows in enumerate(ens.trained_on):
            included[j, rows] = False
        counts = (correct & included).sum(axis=0)
        denom = included.sum(axis=0)
        if np.any(denom <= 0):
            raise BadSpec("exclusion leaves no members for some sample")
    return EaseScores(correct_counts=counts.astype(np.int64), ratios=counts / denom, N=ens.N)


@dataclass
class SubspacePartition:
    """Threshold split of the training set: ratio >= theta goes easy."""

    dataset: LabeledDataset
    theta: float
    easy_indices: np.ndarray
    difficult_indices: np.ndarray

    def subspaces(self) -> list[np.ndarray]:
        """The row arrays of the non-empty subspaces, easy first: one
        expert trains on each."""
        rows = [r for r in (self.easy_indices, self.difficult_indices) if len(r)]
        if not rows:
            raise EmptyPartition("no samples in either subspace")
        return rows


def check_theta(theta: float) -> None:
    """Refuse a threshold outside [0, 2]; above 1 means all difficult."""
    if not 0.0 <= theta <= 2.0:
        raise BadSpec(f"theta={theta} outside [0, 2]")


def partition(
    train: LabeledDataset, ease: EaseScores, theta: float
) -> SubspacePartition:
    """Split at theta; the boundary sample (ratio == theta) lands easy.

    Theta above 1 is allowed to force an all-difficult partition.
    """
    if ease.n != train.n:
        raise LengthMismatch(f"{ease.n} ease scores for {train.n} samples")
    check_theta(theta)
    easy = np.flatnonzero(ease.ratios >= theta)
    difficult = np.flatnonzero(ease.ratios < theta)
    return SubspacePartition(
        dataset=train,
        theta=float(theta),
        easy_indices=easy,
        difficult_indices=difficult,
    )


@dataclass
class CpcModel:
    theta: float
    easy_expert: TrainedClassifier | None
    difficult_expert: TrainedClassifier | None
    pooled_features: np.ndarray
    pooled_binary: np.ndarray  # 1 where the training sample fell easy, else 0
    discriminator_k: int

    @property
    def input_dim(self) -> int:
        return self.pooled_features.shape[1]


def check_disc(disc_k: int) -> None:
    """Refuse a neighbourhood size below one; routing clamps it to n."""
    if disc_k < 1:
        raise BadSpec(f"disc_k={disc_k} must be at least 1")


def fit_cpc(
    part: SubspacePartition,
    expert_spec: ClassifierSpec,
    disc_k: int = 25,
) -> CpcModel:
    """The model of one partition: fit_cpc_many with one partition."""
    return fit_cpc_many([part], expert_spec, disc_k)[0]


def fit_cpc_many(
    parts: list[SubspacePartition],
    expert_spec: ClassifierSpec,
    disc_k: int,
) -> list[CpcModel]:
    """Fit the subspace experts of every partition, all in one
    classifiers.fit_many call, and freeze each one's pooled routing points.

    Each distinct row set of a training set trains once per call (a theta
    sweep makes one call per share): every one-sided partition of a set
    shares one expert, and partitions with equal easy sets share both.
    Experts train with expert_spec exactly as given, so a one-sided
    partition reproduces the plain baseline classifier bit for bit.
    """
    check_disc(disc_k)
    subspaces = [part.subspaces() for part in parts]
    jobs = {}
    for part, rows_of in zip(parts, subspaces):
        for rows in rows_of:
            jobs.setdefault((id(part.dataset), rows.tobytes()), take(part.dataset, rows))
    fitted = dict(zip(jobs, clf_mod.fit_many([expert_spec] * len(jobs), list(jobs.values()))))
    models = []
    for part, rows_of in zip(parts, subspaces):
        experts = [fitted[id(part.dataset), rows.tobytes()] for rows in rows_of]
        binary = np.zeros(part.dataset.n, dtype=np.int64)
        binary[part.easy_indices] = 1
        models.append(CpcModel(
            theta=part.theta,
            easy_expert=experts[0] if len(part.easy_indices) else None,
            difficult_expert=experts[-1] if len(part.difficult_indices) else None,
            pooled_features=part.dataset.features,
            pooled_binary=binary,
            discriminator_k=disc_k,
        ))
    return models


@np.errstate(over="ignore", invalid="ignore")
def _discriminator_margins(P: np.ndarray, y: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Fit one discriminator per query on its own neighbours, all at once.

    P holds each query's k neighbour features (Q, k, d), y their 0/1
    subspace labels (Q, k), X the queries (Q, d). Each discriminator is the
    binary softmax of classifiers with the settings of DEFAULT_DISC, fitted
    full-batch from zero weights with momentum SGD. From zero its two weight
    columns stay opposite, so only their difference u = w1 - w0 is fitted:
    logistic regression with gradient g(u) = 2 (sigma(u.x) - y) x / k + l2 u,
    where 2 sigma(m) - 1 = tanh(m / 2). The bias rides as a last weight on a
    constant-one feature, exempt from l2. That SGD is the heavy-ball
    recursion u+ = u + mu (u - u-) - lr g(u), which never leaves the span of
    the neighbours P1 and the bias: its state v is u when d <= k, else the
    k + 1 coefficients of u = P1^T a + b e_bias, so an epoch costs
    O(k min(d, k)) per query. It is linear in z = [v, v-, t, 1], t = tanh(half
    margins), so a step matrix M per slot of z that holds v makes an epoch
    three numpy calls, the step written to scratch, not into the z it reads.
    A lone query runs them as 2-D np.dot calls, bit for bit a stacked row.
    Returns each query's margin u.x = s1 - s0 toward the easy side; raises
    Divergence when one is not finite (overflow on the way).
    """
    Q, k, d = P.shape
    lr, mu, l2 = DEFAULT_DISC.learning_rate, DEFAULT_DISC.momentum, DEFAULT_DISC.l2
    P1 = np.concatenate([P, np.ones((Q, k, 1))], axis=2)  # (Q, k, d + 1)
    X1 = np.concatenate([X, np.ones((Q, 1))], axis=1)[:, :, None]
    H, grad, read, coef = P1, P1.transpose(0, 2, 1), X1, k < d
    if coef:  # neighbour margins P1 u = K a + b, the query's (P1 x1).a + b
        H = np.concatenate([P1 @ grad, np.ones((Q, k, 1))], axis=2)
        grad, read = np.eye(k + 1, k), np.concatenate([P1 @ X1, np.ones((Q, 1, 1))], axis=1)
    half, r = 0.5 * H, H.shape[2]  # exact: half margins come out bit for bit
    z = np.zeros((Q, 2 * r + k + 1, 1))  # per query [v_a, v_b, t, 1]
    z[:, -1] = 1.0
    keep = np.diag(np.full(r, 1.0 + mu - lr * l2))
    keep[-1, :-1], keep[-1, -1] = lr * l2 * coef, 1.0 + mu  # the bias is exempt from l2
    M = np.empty((2, Q, r, z.shape[1]))  # one step matrix per slot holding v
    M[0, :, :, :r] = M[1, :, :, r : 2 * r] = keep
    M[0, :, :, r : 2 * r] = M[1, :, :, :r] = -mu * np.eye(r)
    M[:, :, :, 2 * r : -1] = grad * (-lr / k)
    M[:, :, :, -1] = (M[0, :, :, 2 * r : -1] @ (1.0 - 2.0 * y)[:, :, None])[:, :, 0]
    # a lone query runs on 2-D views, where np.dot skips matmul's gufunc dispatch
    h, S, w, prod = (half[0], M[:, 0], z[0], np.dot) if Q == 1 else (half, M, z, np.matmul)
    v, t = (w[..., :r, :], w[..., r : 2 * r, :]), w[..., 2 * r : -1, :]
    step = np.empty(v[0].shape)
    for p in (np.arange(DEFAULT_DISC.epochs) % 2).tolist():
        prod(h, v[p], out=t)
        np.tanh(t, out=t)
        prod(S[p], w, out=step)
        v[1 - p][...] = step
    margins = (read.transpose(0, 2, 1) @ v[DEFAULT_DISC.epochs % 2])[:, 0, 0]
    if not np.isfinite(margins).all():  # as is each from a non-finite state
        raise Divergence(DEFAULT_DISC.epochs - 1)
    return margins


def _route_margins(features: np.ndarray, binaries: np.ndarray, X: np.ndarray,
                   k: int) -> np.ndarray:
    """Signed margins (G, Q) toward the easy side for the queries X under G
    splits, binaries (G, n), of the same pooled points features (n, d).

    Each query's k nearest pooled points are found once for all splits.
    Unanimous neighbourhoods give +-inf. A mixed (split, query) pair's margin
    depends only on the query and its neighbours' labels, so each distinct
    such problem is solved once, in stacks of about _SOLVE_BYTES of step matrices.
    """
    k = min(k, len(features))
    idx = np.empty((len(X), k), dtype=np.int64)
    for i, x in enumerate(X):
        idx[i] = _nearest_indices(features, x, k)
    nb_binary = binaries.astype(bool)[:, idx]
    easy_votes = nb_binary.sum(axis=2)
    margins = np.where(easy_votes == k, np.inf, -np.inf)
    mixed = np.nonzero((easy_votes > 0) & (easy_votes < k))
    queries, labels = mixed[1], nb_binary[mixed]
    first = inverse = slice(None)
    if len(binaries) > 1:  # one split has no repeats
        _, first, inverse = np.unique(np.column_stack([queries, labels]), axis=0,
                                      return_index=True, return_inverse=True)
    q, y = queries[first], labels[first]
    solved = np.empty(len(q))
    r = min(k, features.shape[1]) + 1  # _discriminator_margins' state size
    chunk = max(1, _SOLVE_BYTES // (16 * r * (2 * r + k + 1)))
    for lo in range(0, len(q), chunk):
        c = slice(lo, lo + chunk)
        solved[c] = _discriminator_margins(features[idx[q[c]]], y[c], X[q[c]])
    margins[mixed] = solved[inverse].reshape(-1)  # numpy 2.0.0's inverse is 2-D
    return margins


@dataclass(frozen=True)
class RoutedPrediction:
    route: str
    label: int
    discriminator_margin: float


def cpc_predict(model: CpcModel, x) -> RoutedPrediction:
    """Route one query, then defer to the routed expert; the margin is
    signed toward the easy side, and infinite for a unanimous neighbourhood."""
    return cpc_predict_many(model, np.reshape(x, (1, -1)))[0]


def cpc_predict_many(model: CpcModel, X) -> list[RoutedPrediction]:
    """Route every row of X, then let each expert predict its rows at once:
    cpc_predict_grid with one model.

    The discriminators of all mixed-neighbourhood rows are solved together
    as stacked fits. Single-subspace models defer to their lone expert with
    an infinite margin.
    """
    margins, labels = cpc_predict_grid([model], X)
    return [
        RoutedPrediction(ROUTE_EASY if m > 0 else ROUTE_DIFFICULT, int(label), float(m))
        for label, m in zip(labels[0], margins[0])
    ]


def cpc_predict_grid(models: list[CpcModel], X) -> tuple[np.ndarray, np.ndarray]:
    """Margins and labels (G, Q) of every row of X under each of G models
    that split the same pooled points, with one neighbourhood size: the
    grid of a theta sweep.

    The queries' neighbours are searched once for all models and the
    discriminators of every mixed (model, query) pair are solved together.
    Each model's experts then predict its rows as cpc_predict_many does.
    """
    first = models[0]
    if any(
        m.pooled_features is not first.pooled_features
        or m.discriminator_k != first.discriminator_k
        for m in models
    ):
        raise BadSpec("grid models must share their pooled points and disc_k")
    X = _as_queries(X, first.input_dim)
    binaries = np.stack([m.pooled_binary for m in models])
    margins = _route_margins(first.pooled_features, binaries, X, first.discriminator_k)
    labels = np.zeros(margins.shape, dtype=np.int64)
    for g, m in enumerate(models):
        easy = margins[g] > 0
        for rows, expert in ((easy, m.easy_expert), (~easy, m.difficult_expert)):
            if rows.any():
                labels[g, rows] = expert.predict_many(X[rows])
    return margins, labels


# end-to-end orchestration --------------------------------------------------

@dataclass(frozen=True)
class CpcConfig:
    """The routed pipeline's settings, checked when built; k_folds above
    the training set's size is refused when the ensemble trains."""

    base_spec: ClassifierSpec
    expert_spec: ClassifierSpec
    k_folds: int = 5
    repetitions: int = 3
    theta: float = 0.5
    disc_k: int = 25
    ease_mode: str = INCLUDE_ALL
    fold_training: str = SINGLE_FOLD
    seed: int = 0

    def __post_init__(self):
        if self.k_folds < 2:
            raise BadK(f"k_folds={self.k_folds} must be at least 2")
        if self.repetitions < 1:
            raise BadSpec(f"repetitions={self.repetitions} must be at least 1")
        check_theta(self.theta)
        check_disc(self.disc_k)
        _check_choice("ease mode", self.ease_mode, (INCLUDE_ALL, EXCLUDE_IN_FOLD))
        _check_choice("fold_training", self.fold_training, (SINGLE_FOLD, COMPLEMENT))


def ease_scores(train: LabeledDataset, cfg: CpcConfig) -> EaseScores:
    """The ease scores of train under the base ensemble of cfg."""
    ens = train_base_ensemble(
        train,
        cfg.k_folds,
        cfg.repetitions,
        cfg.base_spec,
        seed=cfg.seed,
        fold_training=cfg.fold_training,
    )
    return compute_ease(ens, train, mode=cfg.ease_mode)


def train_cpc(train: LabeledDataset, cfg: CpcConfig) -> CpcModel:
    """Ensemble, ease scores, partition, experts, in one call."""
    part = partition(train, ease_scores(train, cfg), cfg.theta)
    return fit_cpc(part, cfg.expert_spec, disc_k=cfg.disc_k)
