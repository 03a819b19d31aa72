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
from .errors import BadHyperparams, BadSpec, DimMismatch, Divergence, EmptyDataset

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
    """Train a classifier of the given kind on ds."""
    _validate(spec)
    if ds.n == 0:
        raise EmptyDataset("cannot fit on an empty dataset")
    classes_seen = np.unique(ds.labels)
    y = np.searchsorted(classes_seen, ds.labels)
    state = _FITTERS[spec.kind](spec.hyperparams, ds.features, y, len(classes_seen))
    return TrainedClassifier(
        spec=spec, classes_seen=classes_seen, input_dim=ds.d, state=state
    )


# shared SGD machinery ---------------------------------------------------

def _momentum_sgd(params, grad, n, epochs, batch_size, learning_rate, momentum,
                  rng=None, lr_decay=1.0):
    """Mini-batch SGD with classical momentum, v = mu v - lr g; p += v,
    updating the arrays in params in place. Returns the loss trace.

    grad(rows) returns (loss, grads) for the samples picked by rows,
    evaluated before the update; the grads are scratch arrays the loop may
    overwrite. Batches of min(batch_size, n) samples run in order, or in a
    fresh permutation drawn from rng each epoch when one is given. The
    trace holds the mean batch loss per epoch unless grad reports None for
    the loss. lr is multiplied by lr_decay after every epoch. Raises
    Divergence at the first non-finite epoch loss, or when the final params
    are not finite.
    """
    vel = [np.zeros_like(p) for p in params]
    batch = min(batch_size, n)
    lr = learning_rate
    trace = []
    for epoch in range(epochs):
        order = None if rng is None else rng.permutation(n)
        losses = []
        for start in range(0, n, batch):
            rows = slice(start, start + batch) if order is None else order[start : start + batch]
            loss, grads = grad(rows)
            losses.append(loss)
            for p, v, g in zip(params, vel, grads):
                v *= momentum
                g *= lr
                v -= g
                p += v
        if losses[0] is not None:
            loss = float(np.mean(losses))
            if not np.isfinite(loss):
                raise Divergence(epoch, loss)
            trace.append(loss)
        lr *= lr_decay
    if not all(np.isfinite(p).all() for p in params):
        raise Divergence(epochs - 1)
    return trace


@dataclass
class _LinearState:
    weights: np.ndarray  # (C', d)
    bias: np.ndarray  # (C',)
    loss_trace: list[float]


def _fit_linear(hp, X, y, C, step_fn):
    """Momentum SGD from zero weights; step_fn(W, b, Xb, yb) returns
    (objective, grad_W, grad_b) for one batch. Full batches skip the
    shuffle: sample order cannot change a whole-set gradient."""
    n, d = X.shape
    W = np.zeros((C, d))
    b = np.zeros(C)
    rng = np.random.default_rng(hp.seed) if hp.batch_size < n else None

    def grad(rows):
        loss, gW, gb = step_fn(W, b, X[rows], y[rows])
        return loss, (gW, gb)

    trace = _momentum_sgd(
        [W, b], grad, n, hp.epochs, hp.batch_size, hp.learning_rate, hp.momentum, rng
    )
    return _LinearState(weights=W, bias=b, loss_trace=trace)


def _fit_softmax(hp: SoftmaxParams, X, y, C):
    eye = np.eye(C)

    def step(W, b, Xb, yb):
        nb = len(yb)
        logits = Xb @ W.T + b
        logits -= logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        z = expl.sum(axis=1)
        ce = float(np.mean(np.log(z) - logits[np.arange(nb), yb]))
        loss = ce + 0.5 * hp.l2 * float(np.sum(W * W))
        P = expl / z[:, None]
        delta = P - eye[yb]
        gW = delta.T @ Xb / nb + hp.l2 * W
        gb = delta.mean(axis=0)
        return loss, gW, gb

    return _fit_linear(hp, X, y, C, step)


def _fit_svm(hp: SvmParams, X, y, C):
    def step(W, b, Xb, yb):
        nb = len(yb)
        T = -np.ones((nb, C))
        T[np.arange(nb), yb] = 1.0
        margins = hp.hinge_margin - T * (Xb @ W.T + b)
        active = margins > 0
        loss = float(np.maximum(margins, 0.0).mean(axis=0).sum())
        loss += 0.5 * hp.l2 * float(np.sum(W * W))
        coef = -(active * T)
        gW = coef.T @ Xb / nb + hp.l2 * W
        gb = coef.mean(axis=0)
        return loss, gW, gb

    return _fit_linear(hp, X, y, C, step)


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


_FITTERS = {
    SOFTMAX: _fit_softmax,
    LINEAR_SVM: _fit_svm,
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
