"""Self-contained classifier families behind a single train/predict contract.

Four kinds: multinomial softmax regression, one-vs-rest linear SVM, a random
forest, and k-nearest-neighbors. The linear models train with
_momentum_sgd, the package's one mini-batch SGD loop with classical
momentum, which the MLP extractor and the routing discriminators share.
Everything is deterministic for a fixed spec and seed; fits never mutate
their input dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import LabeledDataset
from .errors import (
    BadHyperparams,
    BadSpec,
    DimMismatch,
    Divergence,
    EmptyDataset,
    LengthMismatch,
)

SOFTMAX = "softmax"
LINEAR_SVM = "linear_svm"
RANDOM_FOREST = "random_forest"
KNN = "knn"

@dataclass(frozen=True)
class SoftmaxParams:
    learning_rate: float = 0.05
    epochs: int = 100
    batch_size: int = 128
    l2: float = 1e-4
    momentum: float = 0.5
    seed: int = 0


@dataclass(frozen=True)
class SvmParams:
    learning_rate: float = 0.05
    epochs: int = 100
    batch_size: int = 128
    l2: float = 1e-4
    momentum: float = 0.5
    hinge_margin: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class ForestParams:
    tree_count: int = 100
    max_depth: int | None = None  # None grows to purity
    feature_subsample: int | None = None  # None means ceil(sqrt(d))
    seed: int = 0


@dataclass(frozen=True)
class KnnParams:
    k: int = 5


@dataclass(frozen=True)
class ClassifierSpec:
    """A classifier kind plus its kind-specific hyperparameters."""

    kind: str
    hyperparams: SoftmaxParams | SvmParams | ForestParams | KnnParams

    def __post_init__(self):
        expected = _PARAM_TYPES.get(self.kind)
        if expected is None:
            raise BadSpec(f"unknown classifier kind {self.kind!r}")
        if not isinstance(self.hyperparams, expected):
            raise BadSpec(
                f"{self.kind} expects {expected.__name__}, "
                f"got {type(self.hyperparams).__name__}"
            )


_PARAM_TYPES = {
    SOFTMAX: SoftmaxParams,
    LINEAR_SVM: SvmParams,
    RANDOM_FOREST: ForestParams,
    KNN: KnnParams,
}


def softmax_spec(**kw) -> ClassifierSpec:
    return ClassifierSpec(SOFTMAX, SoftmaxParams(**kw))


def svm_spec(**kw) -> ClassifierSpec:
    return ClassifierSpec(LINEAR_SVM, SvmParams(**kw))


def forest_spec(**kw) -> ClassifierSpec:
    return ClassifierSpec(RANDOM_FOREST, ForestParams(**kw))


def knn_spec(**kw) -> ClassifierSpec:
    return ClassifierSpec(KNN, KnnParams(**kw))


def with_seed(spec: ClassifierSpec, seed: int) -> ClassifierSpec:
    """Copy of spec with its seed replaced; a no-op for seedless kinds."""
    if spec.kind == KNN:
        return spec
    return ClassifierSpec(spec.kind, replace(spec.hyperparams, seed=int(seed)))


def _validate(spec: ClassifierSpec) -> None:
    hp = spec.hyperparams
    if isinstance(hp, (SoftmaxParams, SvmParams)):
        if hp.learning_rate <= 0:
            raise BadHyperparams("learning_rate must be positive")
        if hp.epochs < 0:
            raise BadHyperparams("epochs must be non-negative")
        if hp.batch_size < 1:
            raise BadHyperparams("batch_size must be at least 1")
        if hp.l2 < 0:
            raise BadHyperparams("l2 must be non-negative")
        if not 0 <= hp.momentum < 1:
            raise BadHyperparams("momentum must lie in [0, 1)")
        if isinstance(hp, SvmParams) and hp.hinge_margin <= 0:
            raise BadHyperparams("hinge_margin must be positive")
    elif isinstance(hp, ForestParams):
        if hp.tree_count < 1:
            raise BadHyperparams("tree_count must be at least 1")
        if hp.max_depth is not None and hp.max_depth < 1:
            raise BadHyperparams("max_depth must be at least 1")
        if hp.feature_subsample is not None and hp.feature_subsample < 1:
            raise BadHyperparams("feature_subsample must be at least 1")
    elif isinstance(hp, KnnParams):
        if hp.k < 1:
            raise BadHyperparams("k must be at least 1")


@dataclass
class TrainedClassifier:
    """Fitted state for any kind. predict only returns classes seen in training."""

    spec: ClassifierSpec
    classes_seen: np.ndarray
    input_dim: int
    state: object

    def predict(self, x) -> int:
        return int(self.predict_many(np.asarray(x, dtype=np.float64)[None, :])[0])

    def predict_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise DimMismatch(
                f"classifier expects d={self.input_dim}, got shape {X.shape}"
            )
        return _PREDICTORS[self.spec.kind](self, X)

    def decision_scores(self, X) -> np.ndarray:
        """Per-class scores over classes_seen: margins for the linear kinds,
        vote counts for forest and knn."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise DimMismatch(
                f"classifier expects d={self.input_dim}, got shape {X.shape}"
            )
        return _SCORERS[self.spec.kind](self, X)


def fit(spec: ClassifierSpec, ds: LabeledDataset) -> TrainedClassifier:
    """Train a classifier of the given kind on ds: fit_many with one job."""
    return fit_many([spec], [ds])[0]


def fit_many(specs, datasets) -> list[TrainedClassifier]:
    """Train specs[i] on datasets[i] for every i, with the results fit gives
    for each job alone.

    Linear jobs of one kind whose hyperparameters differ at most in the
    seed, with equal d and an equal class count, train as one stacked
    momentum-SGD run. Jobs with a single class or a single feature train
    alone: numpy sums and multiplies their one-column arrays in a float
    order that depends on the batch width. Forest and knn jobs run one by one.
    Every spec and dataset is checked before anything trains.
    """
    if len(specs) != len(datasets):
        raise LengthMismatch(f"{len(specs)} specs for {len(datasets)} datasets")
    jobs = []
    for spec, ds in zip(specs, datasets):
        _validate(spec)
        if ds.n == 0:
            raise EmptyDataset("cannot fit on an empty dataset")
        classes_seen = np.unique(ds.labels)
        jobs.append((spec, ds, classes_seen, np.searchsorted(classes_seen, ds.labels)))
    groups = {}
    for i, (spec, ds, classes_seen, _) in enumerate(jobs):
        C = len(classes_seen)
        if spec.kind in _LINEAR_STEPS and min(C, ds.d) > 1:
            key = (spec.kind, replace(spec.hyperparams, seed=0), ds.d, C)
        else:
            key = i
        groups.setdefault(key, []).append(i)
    states = [None] * len(jobs)
    for members in groups.values():
        fits = [(jobs[i][0].hyperparams, jobs[i][1].features, jobs[i][3]) for i in members]
        kind, C = jobs[members[0]][0].kind, len(jobs[members[0]][2])
        if kind in _LINEAR_STEPS:
            fitted = _fit_linear_group(kind, fits, C)
        else:
            fitted = [_FITTERS[kind](*fits[0], C)]
        for i, state in zip(members, fitted):
            states[i] = state
    return [
        TrainedClassifier(spec=spec, classes_seen=classes_seen, input_dim=ds.d, state=state)
        for (spec, ds, classes_seen, _), state in zip(jobs, states)
    ]


# shared SGD machinery ---------------------------------------------------

def _momentum_sgd(params, grad, ns, epochs, batch_size, learning_rate, momentum,
                  rngs=None, lr_decay=1.0):
    """Mini-batch SGD with classical momentum, v = mu v - lr g; p += v, for
    one fit or a stack of them, updating the arrays in params in place.
    Returns one loss trace per fit.

    ns holds each fit's sample count, ordered so that batches per epoch
    never increase; with more than one fit every param has a leading fit
    axis. Every fit walks its samples in batches of min(batch_size, max(ns)),
    its last batch shorter, in order or in a fresh permutation drawn from its
    rng each epoch when rngs gives one. The fits that still have a batch at
    a step are a prefix of the stack, and only their slice of each param
    moves. grad(rows) gets one row per such fit, holding the sample indices
    of its batch and -1 where it is shorter than the widest; it returns
    (losses, grads) for those fits, evaluated before the update. The grads
    are scratch arrays the loop may overwrite. A fit's trace holds its mean
    batch loss per epoch unless grad reports None for the losses. lr is
    multiplied by lr_decay after every epoch. Raises Divergence at the
    first non-finite epoch loss, or when the final params are not finite.
    """
    ns = np.asarray(ns, dtype=np.int64)
    G = len(ns)
    batch = min(batch_size, int(ns.max()))
    steps = -(-ns // batch)
    order = np.full((G, steps[0] * batch), -1, dtype=np.int64)
    for i, n in enumerate(ns):
        order[i, :n] = np.arange(n)
    shuffled = [(i, n, rng) for i, (n, rng) in enumerate(zip(ns, rngs or [None] * G))
                if rng is not None]
    vel = [np.zeros_like(p) for p in params]
    plan = []  # per step: live fits, their batch rows, and the slices that move
    for j in range(steps[0]):
        a = int(np.count_nonzero(steps > j))
        width = min(batch, int(ns[:a].max()) - j * batch)
        moving = [(p, v) if a == G else (p[:a], v[:a]) for p, v in zip(params, vel)]
        plan.append((a, order[:a, j * batch : j * batch + width], moving))
    runs = [(steps == s, s) for s in np.unique(steps)]  # fits by batches per epoch
    losses = np.empty((G, len(plan)))
    traces = np.empty((epochs, G))
    recorded = 0
    lr = learning_rate
    for epoch in range(epochs):
        for i, n, rng in shuffled:
            order[i, :n] = rng.permutation(n)
        for j, (a, rows, moving) in enumerate(plan):
            loss, grads = grad(rows)
            if loss is not None:
                losses[:a, j] = loss
            for (p, v), g in zip(moving, grads):
                v *= momentum
                g *= lr
                v -= g
                p += v
        if loss is not None:
            for fits, s in runs:
                traces[epoch, fits] = losses[fits, :s].mean(axis=1)
            bad = np.flatnonzero(~np.isfinite(traces[epoch]))
            if bad.size:
                raise Divergence(epoch, float(traces[epoch, bad[0]]))
            recorded += 1
        lr *= lr_decay
    if not all(np.isfinite(p).all() for p in params):
        raise Divergence(epochs - 1)
    return traces[:recorded].T.tolist()


@dataclass
class _LinearState:
    weights: np.ndarray  # (C', d)
    bias: np.ndarray  # (C',)
    loss_trace: list[float]


def _fit_linear_group(kind, fits, C):
    """Momentum SGD from zero weights for linear fits of one kind that share
    their hyperparameters but for the seed, d and the class count C, as one
    stacked run. fits holds each fit's (hyperparams, X, y); returns their
    states in order.

    Each fit keeps its own seed's shuffle, and a batch padded to the widest
    one of its step adds only zeros after its own rows, so every fit gets
    the weights, bias and loss trace it gets alone. A fit whose whole set
    fits in one batch skips the shuffle: sample order cannot change a
    whole-set gradient.
    """
    hp = fits[0][0]
    G, d = len(fits), fits[0][1].shape[1]
    ns = [len(y) for _, _, y in fits]
    order = sorted(range(G), key=lambda i: -ns[i])  # most batches per epoch first
    X = np.concatenate([fits[i][1] for i in order] + [np.zeros((1, d))])
    y = np.concatenate([fits[i][2] for i in order] + [np.zeros(1, dtype=np.int64)])
    first = np.cumsum([0] + [ns[i] for i in order[:-1]])[:, None]
    W = np.zeros((G, C, d))
    b = np.zeros((G, C))
    rngs = [np.random.default_rng(fits[i][0].seed) if hp.batch_size < ns[i] else None
            for i in order]
    step = _LINEAR_STEPS[kind]

    def grad(rows):
        a = len(rows)
        pad = rows < 0
        idx = rows + first[:a]
        idx[pad] = -1  # the zero row after the last fit's samples
        nb = rows.shape[1] - np.count_nonzero(pad, axis=1)
        loss, gW, gb = step(hp, W[:a], b[:a], np.take(X, idx, axis=0), y[idx], pad, nb)
        return loss, (gW, gb)

    traces = _momentum_sgd(
        [W, b], grad, [ns[i] for i in order], hp.epochs, hp.batch_size,
        hp.learning_rate, hp.momentum, rngs,
    )
    states = [None] * G
    for slot, i in enumerate(order):
        states[i] = _LinearState(
            weights=W[slot].copy(), bias=b[slot].copy(), loss_trace=traces[slot]
        )
    return states


def _batch_scores(W, b, X, nb):
    """X @ W.T + b for each fit of a stack of batches X (a, w, d). A one-row
    batch padded wider is scored alone, because numpy multiplies a lone row
    as a vector, in another float order than a matrix product."""
    S = X @ W.transpose(0, 2, 1) + b[:, None, :]
    if X.shape[1] > 1:
        for i in np.flatnonzero(nb == 1):
            S[i, :1] = X[i, :1] @ W[i].T + b[i]
    return S


def _batch_means(T, nb):
    """Mean of row i of T over its first nb[i] entries. A padded row is
    averaged on its own slice, so its pairwise sum runs as in an unpadded
    batch."""
    out = T.sum(axis=1) / nb
    for i in np.flatnonzero(nb < T.shape[1]):
        out[i] = T[i, : nb[i]].mean()
    return out


def _sq_norms(W):
    return (W * W).reshape(len(W), -1).sum(axis=1)


def _weight_grads(coef, X, nb, l2, W):
    return coef.transpose(0, 2, 1) @ X / nb[:, None, None] + l2 * W


def _label_index(y, C):
    """Flat positions of each row's label entry in an (a, w, C) array."""
    return np.arange(y.size).reshape(y.shape) * C + y


def _softmax_step(hp: SoftmaxParams, W, b, X, y, pad, nb):
    """Objectives and gradients of a stack of softmax batches; rows marked
    in pad are zero padding and weigh nothing."""
    S = _batch_scores(W, b, X, nb)
    # a max is exact in any order; over a leading axis it is much faster
    S -= np.ascontiguousarray(S.transpose(2, 0, 1)).max(axis=0)[..., None]
    expS = np.exp(S)
    z = expS.sum(axis=2)
    at = _label_index(y, W.shape[1])
    ce = _batch_means(np.log(z) - S.reshape(-1)[at], nb)
    loss = ce + 0.5 * hp.l2 * _sq_norms(W)
    delta = expS / z[..., None]
    delta.reshape(-1)[at] -= 1.0
    delta[pad] = 0.0
    return loss, _weight_grads(delta, X, nb, hp.l2, W), delta.sum(axis=1) / nb[:, None]


def _svm_step(hp: SvmParams, W, b, X, y, pad, nb):
    """Objectives and gradients of a stack of one-vs-rest hinge batches;
    rows marked in pad are zero padding and weigh nothing."""
    T = np.full(y.shape + (W.shape[1],), -1.0)
    T.reshape(-1)[_label_index(y, W.shape[1])] = 1.0
    margins = hp.hinge_margin - T * _batch_scores(W, b, X, nb)
    hinge = np.maximum(margins, 0.0)
    coef = -((margins > 0) * T)
    hinge[pad] = 0.0
    coef[pad] = 0.0
    loss = (hinge.sum(axis=1) / nb[:, None]).sum(axis=1) + 0.5 * hp.l2 * _sq_norms(W)
    return loss, _weight_grads(coef, X, nb, hp.l2, W), coef.sum(axis=1) / nb[:, None]


def _predict_linear(clf, X):
    s = clf.state
    scores = X @ s.weights.T + s.bias
    return clf.classes_seen[np.argmax(scores, axis=1)]


def _scores_linear(clf, X):
    s = clf.state
    return X @ s.weights.T + s.bias


# random forest ----------------------------------------------------------

# A tree is a dict of equal-length arrays with one entry per node in DFS
# preorder, node 0 being the root. Leaves have feature = left = right = -1
# and their class in leaf; inner nodes have leaf = -1 and send a row with
# x[feature] <= threshold left.
_TREE_ARRAYS = {
    "feature": np.int64,
    "threshold": np.float64,
    "left": np.int64,
    "right": np.int64,
    "leaf": np.int64,
}


def _as_tree(columns) -> dict:
    return {name: np.asarray(columns[name], dtype=dt) for name, dt in _TREE_ARRAYS.items()}


@dataclass
class _ForestState:
    trees: list[dict]  # see _TREE_ARRAYS


def _best_split(Xs, y, counts, eye):
    """Best (row of Xs, threshold) by weighted Gini, or None when no row
    holds two distinct values.

    Xs is (n_sub, n): one row per drawn feature, over the node's samples
    with labels y and class counts counts; eye is the (C, C) integer
    identity that one-hot encodes the labels. Ties go to the first cut within
    a row, then to the first row. Class counts are exact integers, so the
    costs match a one-feature-at-a-time search bit for bit; the order of
    equal values within a row cannot change the counts at a cut between
    distinct values, so the sort need not be stable.
    """
    k, n = Xs.shape
    order = Xs.argsort(axis=1)
    ks = np.arange(k)[:, None]
    xs = Xs[ks, order]
    ys = y[order]
    left = eye.take(ys, axis=0).cumsum(axis=1)
    left = left[:, :-1]  # (k, n-1, C) counts after taking i+1 smallest
    sq_left = np.einsum("knc,knc->kn", left, left)
    # sum of (counts - left)**2 over classes, expanded
    sq_right = counts @ counts - 2 * counts[ys[:, :-1]].cumsum(axis=1) + sq_left
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl
    gl = 1.0 - sq_left / nl**2
    gr = 1.0 - sq_right / nr**2
    cost = (nl * gl + nr * gr) / n
    cost[xs[:, :-1] == xs[:, 1:]] = np.inf
    cut = cost.argmin(axis=1)
    best = cost[ks[:, 0], cut]
    f = int(best.argmin())
    if best[f] == np.inf:
        return None
    c = cut[f]
    return f, float((xs[f, c] + xs[f, c + 1]) / 2.0)


def _grow_tree(Xt, y, bag, C, rng, max_depth, n_sub):
    """Grow one tree on rows bag of Xt.T with an explicit stack.

    Nodes are numbered in DFS preorder, left subtree first, which is also
    the order in which splitting nodes draw their feature subsets.
    """
    feature, threshold, left, right, leaf = [], [], [], [], []
    eye = np.eye(C, dtype=np.int64)
    stack = [(bag, 0, -1, left)]  # rows, depth, parent, parent's child list
    while stack:
        rows, depth, parent, side = stack.pop()
        node = len(feature)
        if parent >= 0:
            side[parent] = node
        counts = np.bincount(y[rows], minlength=C)
        majority = int(counts.argmax())  # ties fall to the lower id
        found = None
        if counts[majority] < len(rows) and (max_depth is None or depth < max_depth):
            feats = rng.permutation(Xt.shape[0])[:n_sub]
            found = _best_split(Xt[feats[:, None], rows], y[rows], counts, eye)
        if found is None:
            feature.append(-1)
            threshold.append(0.0)
            leaf.append(majority)
        else:
            f, thr = feats[found[0]], found[1]
            feature.append(int(f))
            threshold.append(thr)
            leaf.append(-1)
            go_left = Xt[f, rows] <= thr
            stack.append((rows[~go_left], depth + 1, node, right))
            stack.append((rows[go_left], depth + 1, node, left))
        left.append(-1)
        right.append(-1)
    return _as_tree(
        {"feature": feature, "threshold": threshold, "left": left, "right": right, "leaf": leaf}
    )


def _fit_forest(hp: ForestParams, X, y, C):
    n, d = X.shape
    n_sub = hp.feature_subsample if hp.feature_subsample is not None else int(np.ceil(np.sqrt(d)))
    n_sub = min(n_sub, d)
    Xt = np.ascontiguousarray(X.T)
    trees = []
    for t in range(hp.tree_count):
        rng = np.random.default_rng(np.random.SeedSequence([hp.seed, t]))
        bag = rng.integers(0, n, size=n)
        trees.append(_grow_tree(Xt, y, bag, C, rng, hp.max_depth, n_sub))
    return _ForestState(trees=trees)


def _tree_leaves(tree: dict, X) -> np.ndarray:
    """Leaf class for every row: all rows descend one level per step."""
    node = np.zeros(len(X), dtype=np.int64)
    rows = np.arange(len(X))
    while rows.size:
        at = node[rows]
        f = tree["feature"][at]
        inner = f >= 0
        rows, at, f = rows[inner], at[inner], f[inner]
        go_left = X[rows, f] <= tree["threshold"][at]
        node[rows] = np.where(go_left, tree["left"][at], tree["right"][at])
    return tree["leaf"][node]


def _forest_votes(clf, X):
    votes = np.zeros((len(X), len(clf.classes_seen)))
    rows = np.arange(len(X))
    for tree in clf.state.trees:
        votes[rows, _tree_leaves(tree, X)] += 1.0
    return votes


def _predict_forest(clf, X):
    votes = _forest_votes(clf, X)
    return clf.classes_seen[np.argmax(votes, axis=1)]  # vote ties -> lower id


# k-nearest-neighbors -----------------------------------------------------

@dataclass
class _KnnState:
    features: np.ndarray
    labels: np.ndarray  # dense positions into classes_seen


def _nearest_indices(features: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest rows by Euclidean distance, ascending.

    Distance ties break toward the lower index; k larger than the row count
    clamps to all rows.
    """
    dist = np.sum((features - x) ** 2, axis=1)
    order = np.argsort(dist, kind="stable")
    return order[: min(k, len(features))]


def neighbors(ds: LabeledDataset, x, k: int) -> np.ndarray:
    """k nearest sample positions in ds for query x, nearest first."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != ds.d:
        raise DimMismatch(f"query has d={x.shape[0]}, dataset has d={ds.d}")
    if k < 1:
        raise BadHyperparams("k must be at least 1")
    return _nearest_indices(ds.features, x, k)


def _fit_knn(hp: KnnParams, X, y, C):
    return _KnnState(features=X.copy(), labels=y.copy())


def _knn_vote(clf, x):
    s = clf.state
    idx = _nearest_indices(s.features, x, clf.spec.hyperparams.k)
    votes = np.bincount(s.labels[idx], minlength=len(clf.classes_seen))
    top = votes.max()
    tied = np.flatnonzero(votes == top)
    winner = int(tied[0])
    if len(tied) > 1:
        for i in idx:  # vote tie: the tied class holding the nearest member wins
            if votes[s.labels[i]] == top:
                winner = int(s.labels[i])
                break
    return winner, votes


def _predict_knn(clf, X):
    return clf.classes_seen[[_knn_vote(clf, x)[0] for x in X]]


def _scores_knn(clf, X):
    return np.stack([_knn_vote(clf, x)[1] for x in X]).astype(np.float64)


_LINEAR_STEPS = {
    SOFTMAX: _softmax_step,
    LINEAR_SVM: _svm_step,
}

_FITTERS = {
    RANDOM_FOREST: _fit_forest,
    KNN: _fit_knn,
}

_PREDICTORS = {
    SOFTMAX: _predict_linear,
    LINEAR_SVM: _predict_linear,
    RANDOM_FOREST: _predict_forest,
    KNN: _predict_knn,
}

_SCORERS = {
    SOFTMAX: _scores_linear,
    LINEAR_SVM: _scores_linear,
    RANDOM_FOREST: _forest_votes,
    KNN: _scores_knn,
}


# serialization -----------------------------------------------------------

def _params_to_json(clf: TrainedClassifier) -> dict:
    if clf.spec.kind in (SOFTMAX, LINEAR_SVM):
        return {
            "weights": clf.state.weights.tolist(),
            "bias": clf.state.bias.tolist(),
            "loss_trace": clf.state.loss_trace,
        }
    if clf.spec.kind == RANDOM_FOREST:
        return {
            "trees": [{name: a.tolist() for name, a in t.items()} for t in clf.state.trees]
        }
    return {
        "features": clf.state.features.tolist(),
        "labels": clf.state.labels.tolist(),
    }


def classifier_to_json(clf: TrainedClassifier) -> dict:
    from dataclasses import asdict

    return {
        "kind": clf.spec.kind,
        "hyperparams": asdict(clf.spec.hyperparams),
        "classes_seen": clf.classes_seen.tolist(),
        "input_dim": clf.input_dim,
        "params": _params_to_json(clf),
    }


def classifier_from_json(obj: dict) -> TrainedClassifier:
    kind = obj["kind"]
    spec = ClassifierSpec(kind, _PARAM_TYPES[kind](**obj["hyperparams"]))
    params = obj["params"]
    if kind in (SOFTMAX, LINEAR_SVM):
        state = _LinearState(
            weights=np.asarray(params["weights"], dtype=np.float64),
            bias=np.asarray(params["bias"], dtype=np.float64),
            loss_trace=list(params["loss_trace"]),
        )
    elif kind == RANDOM_FOREST:
        state = _ForestState(trees=[_as_tree(t) for t in params["trees"]])
    else:
        state = _KnnState(
            features=np.asarray(params["features"], dtype=np.float64),
            labels=np.asarray(params["labels"], dtype=np.int64),
        )
    return TrainedClassifier(
        spec=spec,
        classes_seen=np.asarray(obj["classes_seen"], dtype=np.int64),
        input_dim=int(obj["input_dim"]),
        state=state,
    )
