"""Self-contained classifier families behind a single train/predict contract.

Four kinds: multinomial softmax regression, one-vs-rest linear SVM, a random
forest, and k-nearest-neighbors. The linear models train with
_momentum_sgd, the package's one mini-batch SGD loop with classical
momentum, which the MLP extractor shares. cpc's routing discriminators run
its full-batch case as a fixed-matrix recursion; tests check them against it.
Everything is deterministic for a fixed spec and seed; fits never mutate
their input dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import LabeledDataset, check_seed
from .errors import (
    BadHyperparams,
    BadSpec,
    DataError,
    DimMismatch,
    Divergence,
    EmptyDataset,
    LengthMismatch,
    NonFinite,
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
    """A classifier kind plus its kind-specific hyperparameters, checked
    when built: a bad kind raises BadSpec, a bad value BadHyperparams."""

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
        _validate(self)


_PARAM_TYPES = {SOFTMAX: SoftmaxParams, LINEAR_SVM: SvmParams,
                RANDOM_FOREST: ForestParams, KNN: KnnParams}


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


def check_sgd(hp, error) -> None:
    """Raise error unless hp's momentum-SGD settings and seed are in range."""
    check_seed(hp.seed, error)
    if not 0 < hp.learning_rate < np.inf:
        raise error("learning_rate must be finite and positive")
    if not 0 <= hp.momentum < 1:
        raise error("momentum must lie in [0, 1)")
    if hp.batch_size < 1:
        raise error("batch_size must be at least 1")
    if hp.epochs < 0:
        raise error("epochs must be non-negative")


def _validate(spec: ClassifierSpec) -> None:
    hp = spec.hyperparams
    if isinstance(hp, (SoftmaxParams, SvmParams)):
        check_sgd(hp, BadHyperparams)
        if not 0 <= hp.l2 < np.inf:
            raise BadHyperparams("l2 must be finite and non-negative")
        if isinstance(hp, SvmParams) and hp.hinge_margin <= 0:
            raise BadHyperparams("hinge_margin must be positive")
    elif isinstance(hp, ForestParams):
        check_seed(hp.seed, BadHyperparams)
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
    """Fitted state for any kind. Predictions are classes seen in training."""

    spec: ClassifierSpec
    classes_seen: np.ndarray
    input_dim: int
    state: object

    def predict_many(self, X) -> np.ndarray:
        """The class of the top score, ties to the lower class id; knn
        breaks vote ties toward the class of the nearest member."""
        X = _as_queries(X, self.input_dim)
        if self.spec.kind == KNN:
            return self.classes_seen[[_knn_vote(self, x)[0] for x in X]]
        return self.classes_seen[np.argmax(_SCORERS[self.spec.kind](self, X), axis=1)]

    def decision_scores(self, X) -> np.ndarray:
        """Per-class scores over classes_seen: margins for the linear kinds,
        vote counts for forest and knn."""
        return _SCORERS[self.spec.kind](self, _as_queries(X, self.input_dim))


def _as_queries(X, d: int) -> np.ndarray:
    """X as float64 rows of d finite features; raises DimMismatch or NonFinite."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != d:
        raise DimMismatch(f"expected rows of d={d}, got shape {X.shape}")
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise NonFinite(f"query row {row}, column {col} is {X[row, col]}")
    return X


def fit(spec: ClassifierSpec, ds: LabeledDataset) -> TrainedClassifier:
    """Train a classifier of the given kind on ds: fit_many with one job."""
    return fit_many([spec], [ds])[0]


def fit_many(specs, datasets) -> list[TrainedClassifier]:
    """Train specs[i] on datasets[i] for every i, with the results fit gives
    for each job alone.

    Jobs of one kind whose hyperparameters differ at most in the seed, with
    equal d and an equal class count, train as one group: linear jobs as one
    stacked momentum-SGD run, forests grown in lockstep. Linear jobs with a
    single class or a single feature train alone: numpy sums and multiplies
    their one-column arrays in a float order that depends on the batch
    width. Knn jobs run one by one. Every dataset is checked before
    anything trains; each spec checked itself when it was built.
    """
    if len(specs) != len(datasets):
        raise LengthMismatch(f"{len(specs)} specs for {len(datasets)} datasets")
    jobs = []
    for spec, ds in zip(specs, datasets):
        if ds.n == 0:
            raise EmptyDataset("cannot fit on an empty dataset")
        classes_seen = np.unique(ds.labels)
        jobs.append((spec, ds, classes_seen, np.searchsorted(classes_seen, ds.labels)))
    groups = {}
    for i, (spec, ds, classes_seen, _) in enumerate(jobs):
        C = len(classes_seen)
        if spec.kind == RANDOM_FOREST or spec.kind in _LINEAR_STEPS and min(C, ds.d) > 1:
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
        elif kind == RANDOM_FOREST:
            fitted = _fit_forest_group(fits, C)
        else:
            fitted = [_fit_knn(*fits[0], C)]
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
    moves. grad(rows, layout) gets one row per such fit, holding the sample
    indices of its batch and -1 where it is shorter than the widest, and the
    step's _Layout, which depends on ns alone (a shuffle permutes only each
    fit's first n entries) and is built once per run. It returns (losses,
    grads) for those fits, evaluated before the update, in scratch arrays
    the loop may overwrite. A fit's trace holds its mean
    batch loss per epoch: the mean of its row of batch losses, which numpy
    sums pairwise as it sums any row, taken for every epoch at once when the
    run ends. lr is multiplied by lr_decay after every epoch. Raises
    Divergence at the first non-finite epoch loss, or when the final params
    are not finite; a non-finite batch loss ends the run early.
    """
    ns = np.asarray(ns, dtype=np.int64)
    G = len(ns)
    batch = min(batch_size, int(ns.max()))
    steps = -(-ns // batch)
    cols = np.arange(steps[0] * batch)
    order = np.where(cols < ns[:, None], cols, -1)  # -1 past each fit's n samples
    shuffled = [(i, n, rng) for i, (n, rng) in enumerate(zip(ns, rngs or [None] * G))
                if rng is not None]
    vel = [np.zeros_like(p) for p in params]
    plan = []  # per step: live fits, their batch rows and layout, the slices that move
    for j in range(steps[0]):
        a = int(np.count_nonzero(steps > j))
        rows = order[:a, j * batch : j * batch + min(batch, int(ns[:a].max()) - j * batch)]
        moving = [(p, v) if a == G else (p[:a], v[:a]) for p, v in zip(params, vel)]
        plan.append((a, rows, _Layout(rows), moving))
    losses = np.zeros((epochs, G, len(plan)))  # a fit's steps past its last stay 0
    done = epochs
    lr = learning_rate
    # overflow surfaces as a non-finite epoch loss or final param: Divergence
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            for i, n, rng in shuffled:
                order[i, :n] = rng.permutation(n)
            for j, (a, rows, layout, moving) in enumerate(plan):
                losses[epoch, :a, j], grads = grad(rows, layout)
                for (p, v), g in zip(moving, grads):
                    v *= momentum
                    g *= lr
                    v -= g
                    p += v
            if not np.isfinite(losses[epoch]).all():
                done = epoch + 1
                break
            lr *= lr_decay
        # an epoch's mean may also overflow from finite batch losses
        traces = np.empty((done, G))
        for s in np.unique(steps):  # fits by batches per epoch
            traces[:, steps == s] = losses[:done, steps == s, :s].mean(axis=2)
    bad = np.argwhere(~np.isfinite(traces))
    if bad.size:
        epoch, i = bad[0]
        raise Divergence(int(epoch), float(traces[epoch, i]))
    if not all(np.isfinite(p).all() for p in params):
        raise Divergence(epochs - 1)
    return traces.T.tolist()


class _Layout:
    """What padding alone decides in a stacked batch (a, w): the padded
    entries, each fit's batch size nb (floats divide as the counts do), the
    fits with one row in a wider step, (fit, nb) of each padded fit, and
    each entry's flat position."""

    def __init__(self, rows):
        w = rows.shape[1]
        self.pad = rows < 0
        self.nb = (w - np.count_nonzero(self.pad, axis=1)).astype(float)
        self.ones = [i for i, k in enumerate(self.nb) if k == 1 and w > 1]
        self.short = [(i, int(k)) for i, k in enumerate(self.nb) if k < w]
        self.at = np.arange(rows.size).reshape(rows.shape)


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
    whole-set gradient. Each fit's rows follow a zero row of label 0, where
    its padding (sample -1) lands.
    """
    hp = fits[0][0]
    G, d = len(fits), fits[0][1].shape[1]
    ns = [len(y) for _, _, y in fits]
    order = sorted(range(G), key=lambda i: -ns[i])  # most batches per epoch first
    X = np.concatenate([part for i in order for part in (np.zeros((1, d)), fits[i][1])])
    y = np.concatenate([part for i in order for part in ([0], fits[i][2])])
    first = np.cumsum([1] + [ns[i] + 1 for i in order[:-1]])[:, None]
    W = np.zeros((G, C, d))
    b = np.zeros((G, C))
    rngs = [np.random.default_rng(fits[i][0].seed) if hp.batch_size < ns[i] else None
            for i in order]
    step = _LINEAR_STEPS[kind]

    def grad(rows, layout):
        a = len(rows)
        idx = rows + first[:a]
        return step(hp, W[:a], b[:a], np.take(X, idx, axis=0), y[idx], layout)

    traces = _momentum_sgd(
        [W, b], grad, [ns[i] for i in order], hp.epochs, hp.batch_size,
        hp.learning_rate, hp.momentum, rngs,
    )
    return [_LinearState(W[slot].copy(), b[slot].copy(), traces[slot])
            for slot in np.argsort(order)]


def _batch_scores(W, X, layout):
    """X @ W.T for each fit of a stack of batches X (a, w, d), without the
    bias, which each step adds in its own layout. A one-row batch padded
    wider is scored alone, because numpy multiplies a lone row as a vector,
    in another float order than a matrix product."""
    S = X @ W.transpose(0, 2, 1)
    for i in layout.ones:
        S[i, :1] = X[i, :1] @ W[i].T
    return S


def _batch_means(T, layout):
    """Mean of row i of T over its first nb[i] entries. A padded row is
    summed on its own slice, so its pairwise sum runs as in an unpadded
    batch, then divided by nb[i], as .mean() would divide it."""
    out = T.sum(axis=1) / layout.nb
    for i, k in layout.short:
        out[i] = T[i, :k].sum() / k
    return out


def _batch_sums(T):
    """T.sum(axis=1) of an (a, w, C) stack, bit for bit: numpy adds the w
    rows in order there, as it does down the leading axis of a (w, a, C)
    copy, where one add covers every fit and class."""
    return np.ascontiguousarray(T.transpose(1, 0, 2)).sum(axis=0)


def _sq_norms(W):
    return (W * W).reshape(len(W), -1).sum(axis=1)


def _grads(coef, X, layout, l2, W):
    """Weight and bias gradients of a stack from its loss slopes coef (a, w, C)."""
    nb = layout.nb[:, None]
    return coef.transpose(0, 2, 1) @ X / nb[:, :, None] + l2 * W, _batch_sums(coef) / nb


def _softmax_step(hp: SoftmaxParams, W, b, X, y, layout):
    """Objectives and gradients of a stack of softmax batches; rows marked
    in layout.pad are zero padding and weigh nothing.

    Scores are held class-major, (C, a, w), so the max, exp and class sum
    run down the leading axis. numpy sums a row of fewer than 8 values in
    order, as it sums a leading axis; a longer row it sums pairwise, so from
    C = 8 on the class sum runs along the rows of an (a, w, C) copy, a lone
    fit's own layout. Batch sums keep their order through _batch_sums, and
    the weight gradients get an (a, w, C) operand, the layout their
    product's bits depend on."""
    S = np.ascontiguousarray(_batch_scores(W, X, layout).transpose(2, 0, 1))
    S += b.T[:, :, None]
    S -= S.max(axis=0)
    expS = np.exp(S)
    if W.shape[1] < 8:
        z = expS.sum(axis=0)
    else:
        z = np.ascontiguousarray(expS.transpose(1, 2, 0)).sum(axis=2)
    at = y * y.size + layout.at  # label entries of (C, a, w)
    ce = _batch_means(np.log(z) - S.reshape(-1)[at], layout)
    loss = ce + 0.5 * hp.l2 * _sq_norms(W)
    delta = expS / z
    delta.reshape(-1)[at] -= 1.0
    if layout.short:
        delta[:, layout.pad] = 0.0
    return loss, _grads(np.ascontiguousarray(delta.transpose(1, 2, 0)), X, layout, hp.l2, W)


def _svm_step(hp: SvmParams, W, b, X, y, layout):
    """Objectives and gradients of a stack of one-vs-rest hinge batches;
    rows marked in layout.pad are zero padding and weigh nothing. Batch sums
    keep numpy's order through _batch_sums."""
    T = np.full(y.shape + (W.shape[1],), -1.0)
    T.reshape(-1)[layout.at * W.shape[1] + y] = 1.0  # label entries of (a, w, C)
    margins = hp.hinge_margin - T * (_batch_scores(W, X, layout) + b[:, None, :])
    hinge = np.maximum(margins, 0.0)
    coef = -((margins > 0) * T)
    if layout.short:
        hinge[layout.pad] = 0.0
        coef[layout.pad] = 0.0
    loss = (_batch_sums(hinge) / layout.nb[:, None]).sum(axis=1) + 0.5 * hp.l2 * _sq_norms(W)
    return loss, _grads(coef, X, layout, hp.l2, W)


def _scores_linear(clf, X):
    s = clf.state
    return X @ s.weights.T + s.bias


# random forest ----------------------------------------------------------

# A forest is one node table, tree t's nodes in DFS preorder from roots[t],
# left subtree first: a node's left child is the next node, its right child
# skip nodes on. An inner node sends a row with x[code] <= threshold left.
@dataclass
class _ForestState:
    code: np.ndarray  # int32: the split feature, or ~class at a leaf
    threshold: np.ndarray
    skip: np.ndarray  # int32, 0 at a leaf
    roots: np.ndarray


_SPLIT_CHUNK = 1 << 14  # about the most (row, feature) pairs sorted at once
_DRAW_BLOCK = 32  # feature subsets a tree draws at once


def _split_nodes(buf, wt, a, m, feats, counts, ranks, y):
    """Split node i, the distinct rows buf[a[i]:a[i] + m[i]] drawn wt times
    each, with weighted class counts counts[i], at its best cut by weighted
    Gini over the features feats[i], and put its rows back in that feature's
    rank order, left rows first. Returns per node the feature, or -1 with no
    cut (a leaf, its rows in its first feature's order), the rows (2, K)
    either side of the cut, and the class counts left of it and where its
    right child starts in buf, both read off the cut scan, not recounted.
    Ties go to the first feature, then the first cut. Nodes go in chunks.
    """
    K, n_sub = feats.shape
    C, n = counts.shape[1], ranks.shape[1]
    rb, sb = n.bit_length(), (n + _SPLIT_CHUNK).bit_length()  # a rank; an entry's slot
    if rb + sb + (n_sub * K).bit_length() > 63:  # sort keys are segment | rank | slot
        raise DataError(f"{n} rows are too many for one forest group")
    s_mask = (1 << sb) - 1
    feature = np.full(K, -1)
    cut = np.zeros((2, K), dtype=np.int64)
    left = np.zeros((K, C), dtype=np.int64)
    right = np.zeros(K, dtype=np.int64)
    chunk = (np.cumsum(m) - m) * n_sub // _SPLIT_CHUNK
    bounds = [0, *(np.flatnonzero(np.diff(chunk)) + 1), K]
    for k0, k1 in zip(bounds, bounds[1:]):
        k, mc = np.arange(k0, k1), m[k0:k1]
        run = np.cumsum(mc) - mc
        node = np.repeat(np.arange(len(k)), mc)
        pos = np.arange(len(node)) - run[node]  # within the node
        idx = a[k][node] + pos
        r, w = buf[idx], wt[idx].astype(np.int64)
        # segment node * n_sub + slot: the node's rows sorted by the slot's feature
        key = ranks.reshape(-1)[(feats[k].T * n).take(node, axis=1) + r].astype(np.int64)
        key <<= sb
        key += (node.astype(np.int64) * n_sub << rb + sb) + np.arange(len(node))
        key += (np.arange(n_sub) << rb + sb)[:, None]
        key = key.reshape(-1)
        key.sort()
        at, s, cost, lc = _cut_costs(key, rb, sb, np.repeat(mc, n_sub), counts[k], node, y[r], w)
        # a node's cuts run slot by slot, each slot's in rank order: the first of least cost wins
        cuts = np.bincount(s // n_sub, minlength=len(k))
        has = np.flatnonzero(cuts)
        runs = (np.cumsum(cuts) - cuts)[has]
        low = np.repeat(np.minimum.reduceat(cost, runs), cuts[has])
        j = np.minimum.reduceat(np.where(cost == low, np.arange(len(at)), len(at)), runs)
        i, g = at[j], k0 + has
        slot = np.zeros(len(k), dtype=np.int64)  # a leaf's rows go in its first feature's order
        slot[has] = s[j] % n_sub
        seg = run * n_sub + slot * mc  # where each node's segment for its slot starts in key
        feature[g], cut[:, g] = feats[g, slot[has]], (r[key[i] & s_mask], r[key[i + 1] & s_mask])
        left[g], right[g] = lc[:, j].T, a[g] + i + 1 - seg[has]
        # partition: each node's rows in its slot's rank order, left rows first
        e = key[seg[node] + pos] & s_mask
        buf[idx], wt[idx] = r[e], w[e]
    return feature, cut, left, right


def _cut_costs(key, rb, sb, sizes, counts, node, label, wt):
    """(at, segment, cost, left) of the cuts between distinct values, after
    key[at], in the sorted segments of key of the given sizes, the K nodes'
    segments in turn, len(sizes) // K to a node. A key's low sb bits are its
    entry's slot, the index of its row's node, label and weight in node,
    label and wt; the next rb bits are its rank. What a row adds to the
    running sums is worked out once per row and gathered per entry through
    the slot; the sums restart at each segment and are read only at the cuts,
    which gives left (C, cuts), the weighted class counts left of each cut.
    Class counts are exact integers, summed in any order, so the costs match
    a one-node search of the drawn copies bit for bit."""
    K, C = counts.shape
    start = np.cumsum(sizes) - sizes
    hi = key >> sb
    at = hi[:-1] != hi[1:]
    at[start[1:] - 1] = False  # a segment's last row
    at = np.flatnonzero(at)
    s = hi[at] >> rb
    del hi  # the chunk's largest arrays go as soon as they are used
    # Per row: its weight in the w-bit field of its class c, in int64 word
    # c // (63 // w), and its weight times its node's count of its class. A
    # field holds a node's total weight, so none carries into the next.
    w = (int(counts.sum(axis=1).max()) + 1).bit_length()
    word, shift = np.divmod(np.arange(C), 63 // w)
    shift *= w
    per_row = np.zeros((word[-1] + 2, len(label)), dtype=np.int64)
    per_row[word[label], np.arange(len(label))] = wt << shift[label]
    per_row[-1] = counts[node, label] * wt
    run = per_row.take(key & (1 << sb) - 1, axis=1)  # .take: far faster than [:, idx]
    run[:, start[1:]] -= np.add.reduceat(run, start, axis=1)[:, :-1]  # restart per segment
    np.cumsum(run, axis=1, out=run)
    run = run.take(at, axis=1)  # the sums left of each cut
    left = run[word]
    left >>= shift[:, None]
    left &= (1 << w) - 1
    k = s // (len(sizes) // K)
    sq_left = np.einsum("ca,ca->a", left, left)
    sq_right = np.einsum("kc,kc->k", counts, counts)[k] - 2 * run[-1] + sq_left
    nl = left.sum(axis=0).astype(np.float64)
    del run
    n = counts.sum(axis=1)[k].astype(np.float64)
    nr = n - nl
    return at, s, (nl * (1.0 - sq_left / nl**2) + nr * (1.0 - sq_right / nr**2)) / n, left


def _fit_forest_group(fits, C):
    """Grow the forests of jobs, each job's (hyperparams, X, y) in fits, that
    share their hyperparameters but for the seed, d and the class count C.

    Tree i of job j draws from its own SeedSequence([seed_j, i]) generator
    its bag, then one feature subset per split node in DFS preorder, left
    subtree first, and keeps its own DFS stack, so it comes out node for
    node as grown alone. It grows on the bag's distinct rows, each weighted
    by its draw count, which gives the splits of the drawn copies. Each step
    pops one node from every tree that still has one and splits them
    together. Each job's node table is a view of the group's.
    """
    hp, T0 = fits[0][0], fits[0][0].tree_count
    d = fits[0][1].shape[1]
    n_sub = min(hp.feature_subsample or int(np.ceil(np.sqrt(d))), d)
    X = np.concatenate([Xj for _, Xj, _ in fits])  # one row table; buf holds its row ids
    y = np.concatenate([y for _, _, y in fits])
    # ranks[f, i]: the position of row i's value of f among the distinct values of f
    ranks = np.empty((d, len(y)), dtype=np.min_scalar_type(len(y)))
    for f in range(d):
        ranks[f] = np.unique(X[:, f], return_inverse=True)[1]
    n_job = np.array([len(Xj) for _, Xj, _ in fits])
    row0 = np.cumsum(n_job) - n_job
    rngs = [np.random.default_rng(np.random.SeedSequence([hpj.seed, i]))
            for hpj, _, _ in fits for i in range(T0)]
    mult = [np.bincount(rng.integers(0, nt, size=nt), minlength=nt)
            for nt, rng in zip(np.repeat(n_job, T0), rngs)]
    sizes = np.array([np.count_nonzero(mt) for mt in mult])
    start = np.cumsum(sizes) - sizes
    # the bags, partitioned in place as the trees grow: a node holds the rows
    # buf[a:b], drawn wt[a:b] times
    buf = np.empty(sizes.sum(), dtype=np.min_scalar_type(len(y)))
    wt = np.empty_like(buf)
    # stack entries: a, b, depth, parent if a right child else -1, class counts
    stack = np.zeros((len(sizes), 16, 4 + C), dtype=np.int32)
    for t, mt in enumerate(mult):
        rows, bag = np.flatnonzero(mt), slice(start[t], start[t] + sizes[t])
        buf[bag], wt[bag] = rows + row0[t // T0], mt[rows]
        stack[t, 0] = [bag.start, bag.stop, 0, -1, *np.bincount(y[buf[bag]], wt[bag], minlength=C)]
    del mult
    # each tree's next feature subsets, drawn _DRAW_BLOCK at a time: the rows of
    # rng.permuted(deck, axis=1) are the permutations rng.permutation(d) would give
    deck = np.tile(np.arange(d), (_DRAW_BLOCK, 1))
    draws = np.empty((len(rngs), _DRAW_BLOCK, n_sub), dtype=np.int64)
    drawn = np.full(len(rngs), _DRAW_BLOCK)  # subsets of the block used so far
    sp = np.ones(len(rngs), dtype=np.int64)
    grown = np.zeros(len(rngs), dtype=np.int32)
    steps = []  # per step: trees popped, their feature or ~class, parent, threshold
    while (live := np.flatnonzero(sp)).size:
        sp[live] -= 1
        top = stack[live, sp[live]]
        (a, b, depth, parent), counts = top[:, :4].T, top[:, 4:]
        node = grown[live]
        grown[live] += 1
        code = ~counts.argmax(axis=1)  # a leaf's class; ties fall to the lower id
        c = np.flatnonzero((counts[np.arange(len(live)), ~code] < counts.sum(axis=1))
                           & (depth < (hp.max_depth or np.inf)))
        threshold = np.zeros(len(live))
        if c.size:
            t = live[c]
            for u in t[drawn[t] == _DRAW_BLOCK]:
                draws[u], drawn[u] = rngs[u].permuted(deck, axis=1)[:, :n_sub], 0
            feats = draws[t, drawn[t]]
            drawn[t] += 1
            f, rows, nl, at = _split_nodes(buf, wt, a[c], (b - a)[c], feats, counts[c], ranks, y)
            found = f >= 0
            c, f, rows, nl, at = c[found], f[found], rows[:, found], nl[found], at[found]
            code[c], t = f, live[c]
            x = X[rows, f]  # the values either side of the cut
            with np.errstate(over="ignore"):
                mid = (x[0] + x[1]) / 2.0
            # a midpoint rounded up to the upper value, or inf, would send every row left
            threshold[c] = np.where((x[0] <= mid) & (mid < x[1]), mid, x[0])
            if len(t) and sp[t].max() + 2 > stack.shape[1]:
                stack = np.concatenate([stack, np.zeros_like(stack)], axis=1)
            stack[t, sp[t]] = np.column_stack([at, b[c], depth[c] + 1, node[c], counts[c] - nl])
            stack[t, sp[t] + 1] = np.column_stack([a[c], at, depth[c] + 1, -np.ones_like(t), nl])
            sp[t] += 2
        steps.append((live.astype(np.min_scalar_type(len(sp))), code.astype(np.int32),
                      parent.copy(), threshold))
    del X, buf, wt, stack, ranks, rngs, draws
    tree, code, parent, threshold = (np.concatenate(col) for col in zip(*steps))
    order = np.argsort(tree, kind="stable")  # each tree's nodes were popped in preorder
    code, parent, threshold = code[order], parent[order], threshold[order]
    del tree, order
    roots = np.cumsum(grown, dtype=np.int32) - grown
    up = np.repeat(roots, grown) + parent  # a right child's parent in the table
    child = parent >= 0
    skip = np.zeros(len(code), dtype=np.int32)
    skip[up[child]] = (np.arange(len(code), dtype=np.int32) - up)[child]
    bounds = [*roots[::T0], len(code)]
    return [_ForestState(code[lo:hi], threshold[lo:hi], skip[lo:hi], r - lo)
            for lo, hi, r in zip(bounds, bounds[1:], roots.reshape(-1, T0))]


def _forest_votes(clf, X):
    """Vote counts over classes_seen: every row descends every tree together,
    one level per step, until each (row, tree) pair is at a leaf."""
    s, C, T = clf.state, len(clf.classes_seen), len(clf.state.roots)
    node = np.tile(s.roots, len(X))  # node[r * T + t]: row r's node in tree t
    live = np.flatnonzero(s.code[node] >= 0)  # the pairs at an inner node
    while live.size:
        at = node[live]
        at += np.where(X[live // T, s.code[at]] <= s.threshold[at], 1, s.skip[at])
        node[live] = at
        live = live[s.code[at] >= 0]
    votes = ~s.code[node] + np.repeat(np.arange(len(X)) * C, T)
    return np.bincount(votes, minlength=len(X) * C).reshape(len(X), C).astype(np.float64)


# k-nearest-neighbors -----------------------------------------------------

@dataclass
class _KnnState:
    features: np.ndarray
    labels: np.ndarray  # dense positions into classes_seen


def _nearest_indices(features: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest rows by Euclidean distance, ascending.

    Distance ties break toward the lower index; k larger than the row count
    clamps to all rows. Only the rows within the k-th smallest squared
    distance are sorted, which is the full stable sort's first k. Where the
    k-th overflowed, or the nearest nonzero one is not a normal float, or a
    zero is not a duplicate of x (squares underflowed), each row's
    differences are scaled by the power of two of its largest one, which
    keeps every rounding, and rows rank by the exponent, then the fraction,
    of the scaled sum's power-of-two form: the order an unbounded exponent
    range gives.
    """
    k = min(k, len(features))
    with np.errstate(over="ignore"):
        dist = ((features - x) ** 2).sum(axis=1)
    kth = np.partition(dist, k - 1)[k - 1]
    if kth < np.inf:
        near = np.flatnonzero(dist <= kth)
        idx = near[np.argsort(dist[near], kind="stable")[:k]]
        if dist[idx[0]] >= 2.0**-1022:  # the smallest normal float
            return idx
        z = np.count_nonzero(dist[idx] == 0)  # duplicates of x, or squares that underflowed
        if (z == k or dist[idx[z]] >= 2.0**-1022) and (features[idx[:z]] == x).all():
            return idx
    half = features / 2 - x / 2  # cannot overflow
    _, e = np.frexp(np.abs(half).max(axis=1))
    frac, exp = np.frexp(np.sum(np.ldexp(half, -e[:, None]) ** 2, axis=1))
    return np.lexsort((frac, 2 * e + exp, frac > 0))[:k]  # rows at zero first


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


def _scores_knn(clf, X):
    return np.stack([_knn_vote(clf, x)[1] for x in X]).astype(np.float64)


_LINEAR_STEPS = {SOFTMAX: _softmax_step, LINEAR_SVM: _svm_step}

_SCORERS = {SOFTMAX: _scores_linear, LINEAR_SVM: _scores_linear,
            RANDOM_FOREST: _forest_votes, KNN: _scores_knn}
