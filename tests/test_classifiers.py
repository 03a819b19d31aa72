"""The four classifier kinds behind the shared train/predict contract."""

import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cpckit.classifiers as clf_mod
from cpckit.classifiers import (
    ClassifierSpec,
    KnnParams,
    fit,
    fit_many,
    forest_spec,
    knn_spec,
    softmax_spec,
    svm_spec,
    with_seed,
    _nearest_indices,
)
from cpckit.dataset import LabeledDataset
from cpckit.errors import (
    BadHyperparams,
    BadSpec,
    DataError,
    DimMismatch,
    Divergence,
    EmptyDataset,
    LengthMismatch,
    NonFinite,
)

from conftest import run_python


def blobs(n=150, d=2, C=3, seed=0, margin=6.0):
    """Gaussian clusters on a circle, min center distance = margin sigmas."""
    rng = np.random.default_rng(seed)
    ang = 2 * np.pi * np.arange(C) / C
    r = margin / (2 * np.sin(np.pi / C))
    centers = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    if d > 2:
        centers = np.column_stack([centers, np.zeros((C, d - 2))])
    labels = np.arange(n) % C
    feats = rng.standard_normal((n, d)) + centers[labels]
    return LabeledDataset(feats, labels, C)


ALL_SPECS = [
    softmax_spec(seed=0),
    svm_spec(seed=0),
    forest_spec(seed=0),
    knn_spec(k=5),
]


class TestSpecValidation:
    def test_kind_param_mismatch(self):
        with pytest.raises(BadSpec):
            ClassifierSpec("softmax", KnnParams(k=3))

    def test_unknown_kind(self):
        with pytest.raises(BadSpec):
            ClassifierSpec("boosting", KnnParams(k=3))

    def test_bad_hyperparams(self):
        for make, kw in (
            (softmax_spec, {"learning_rate": 0.0}),
            (softmax_spec, {"epochs": -1}),
            (softmax_spec, {"batch_size": 0}),
            (softmax_spec, {"l2": -0.1}),
            (softmax_spec, {"momentum": 1.0}),
            (svm_spec, {"hinge_margin": 0.0}),
            (forest_spec, {"tree_count": 0}),
            (forest_spec, {"max_depth": 0}),
            (knn_spec, {"k": 0}),
            # seeds numpy's default_rng cannot take, refused before any fit
            (softmax_spec, {"seed": -1}),
            (softmax_spec, {"seed": 1.5}),
            (svm_spec, {"seed": -1}),
            (forest_spec, {"seed": -1}),
            (forest_spec, {"seed": "0"}),
        ):
            with pytest.raises(BadHyperparams):
                make(**kw)
        for seed in (np.int64(3), np.uint32(2**32 - 1), True, 0):
            for make in (softmax_spec, svm_spec, forest_spec):
                assert make(seed=seed).hyperparams.seed is seed

    def test_with_seed(self):
        assert with_seed(softmax_spec(seed=0), 7).hyperparams.seed == 7
        base = knn_spec(k=3)
        assert with_seed(base, 7) is base  # seedless kind passes through


class TestFitContract:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_separable_training_accuracy(self, spec):
        ds = blobs(150, 2, 3, seed=1)
        clf = fit(spec, ds)
        acc = float(np.mean(clf.predict_many(ds.features) == ds.labels))
        assert acc >= 0.99

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_deterministic(self, spec):
        ds = blobs(60, 3, 3, seed=2)
        probe = np.random.default_rng(3).normal(size=(20, 3)) * 4.0
        a = fit(spec, ds).predict_many(probe)
        b = fit(spec, ds).predict_many(probe)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_predictions_use_original_label_ids(self, spec):
        # training labels {1, 3} must come back as 1 or 3, never 0 or 2
        ds = blobs(40, 2, 2, seed=4)
        shifted = LabeledDataset(ds.features, ds.labels * 2 + 1, class_count=4)
        preds = fit(spec, shifted).predict_many(ds.features)
        assert set(np.unique(preds).tolist()) <= {1, 3}

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_dim_mismatch(self, spec):
        clf = fit(spec, blobs(30, 2, 2))
        with pytest.raises(DimMismatch):
            clf.predict_many(np.zeros((5, 3)))
        with pytest.raises(DimMismatch):
            clf.decision_scores(np.zeros((5, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_non_finite_query(self, spec, value):
        clf = fit(spec, blobs(30, 2, 2))
        X = np.zeros((5, 2))
        X[3, 1] = value
        with pytest.raises(NonFinite, match="row 3, column 1"):
            clf.predict_many(X)
        with pytest.raises(NonFinite):
            clf.decision_scores(X)

    def test_empty_dataset(self):
        empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), class_count=2)
        with pytest.raises(EmptyDataset):
            fit(softmax_spec(), empty)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_single_class_training(self, spec):
        ds = LabeledDataset(np.random.default_rng(5).normal(size=(10, 2)),
                            np.full(10, 2, dtype=int), class_count=3)
        clf = fit(spec, ds)
        assert np.all(clf.predict_many(np.zeros((4, 2))) == 2)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_decision_scores_align_with_predictions(self, spec):
        ds = blobs(90, 2, 3, seed=6)
        clf = fit(spec, ds)
        probe = ds.features[:25]
        scores = clf.decision_scores(probe)
        assert scores.shape == (25, 3)
        picked = clf.classes_seen[np.argmax(scores, axis=1)]
        assert np.array_equal(picked, clf.predict_many(probe))


class TestSgd:
    def test_full_batch_loss_monotone(self):
        # plain gradient descent on a convex objective with a small step
        ds = blobs(200, 2, 2, seed=0)
        spec = softmax_spec(
            learning_rate=0.01, epochs=200, batch_size=4096, momentum=0.0, l2=0.0
        )
        trace = np.array(fit(spec, ds).state.loss_trace)
        assert len(trace) == 200
        assert np.all(np.diff(trace) <= 1e-9)

    def test_svm_loss_decreases(self):
        ds = blobs(200, 2, 2, seed=1)
        spec = svm_spec(learning_rate=0.01, epochs=100, batch_size=4096, momentum=0.0)
        trace = fit(spec, ds).state.loss_trace
        assert trace[-1] < trace[0] * 0.5

    def test_zero_epochs_keeps_zero_weights(self):
        ds = blobs(30, 2, 2)
        clf = fit(softmax_spec(epochs=0), ds)
        assert clf.state.loss_trace == []
        assert np.all(clf.state.weights == 0.0)

    def test_minibatch_path_deterministic(self):
        ds = blobs(100, 2, 2, seed=2)
        spec = softmax_spec(batch_size=16, epochs=20, seed=9)
        a = fit(spec, ds)
        b = fit(spec, ds)
        assert np.array_equal(a.state.weights, b.state.weights)
        assert a.state.loss_trace == b.state.loss_trace

    def test_minibatch_order_matters_via_seed(self):
        # different shuffles should give (slightly) different weights,
        # confirming the mini-batch path actually permutes
        ds = blobs(100, 2, 2, seed=2)
        a = fit(softmax_spec(batch_size=16, epochs=5, seed=0), ds)
        b = fit(softmax_spec(batch_size=16, epochs=5, seed=1), ds)
        assert not np.array_equal(a.state.weights, b.state.weights)

    @pytest.mark.parametrize("make", [softmax_spec, svm_spec], ids=["softmax", "svm"])
    @pytest.mark.parametrize("batch_size", [16, 4096], ids=["minibatch", "fullbatch"])
    def test_divergence_raises(self, make, batch_size):
        ds = blobs(60, 2, 3, seed=4, margin=20.0)
        spec = make(learning_rate=1e6, momentum=0.9, l2=1.0, batch_size=batch_size)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Divergence) as err:
                fit(spec, ds)
        assert 0 <= err.value.epoch < spec.hyperparams.epochs

    @pytest.mark.parametrize("make", [softmax_spec, svm_spec], ids=["softmax", "svm"])
    @pytest.mark.parametrize("batch_size", [16, 4096], ids=["minibatch", "fullbatch"])
    @pytest.mark.parametrize("lr", [1e6, 1e50])  # minibatch at 1e50 ends in a NaN loss
    def test_divergence_reports_the_first_non_finite_epoch(self, make, batch_size, lr):
        ds = blobs(60, 2, 3, seed=4, margin=20.0)
        spec = make(learning_rate=lr, momentum=0.9, l2=1.0, batch_size=batch_size)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Divergence) as err:
                fit(spec, ds)
            _, _, trace = _ref_sgd(ds.features, ds.labels, 3, spec.hyperparams,
                                   _REF_STEPS[spec.kind](spec.hyperparams, 3))
        epoch = int(np.flatnonzero(~np.isfinite(trace))[0])
        assert err.value.epoch == epoch
        np.testing.assert_equal(err.value.loss, trace[epoch])  # NaN matches NaN

    def test_l2_shrinks_weights(self):
        ds = blobs(100, 2, 2, seed=3)
        w_free = fit(softmax_spec(l2=0.0, seed=0), ds).state.weights
        w_reg = fit(softmax_spec(l2=1.0, seed=0), ds).state.weights
        assert np.linalg.norm(w_reg) < np.linalg.norm(w_free)


# The linear models' own momentum-SGD loop and batch steps, before they
# moved onto the shared loop, kept only as a reference: fits must match them
# bit for bit.

def _ref_sgd(X, y, C, hp, step_fn):
    n, d = X.shape
    rng = np.random.default_rng(hp.seed)
    W = np.zeros((C, d))
    b = np.zeros(C)
    vW = np.zeros_like(W)
    vb = np.zeros_like(b)
    batch = min(hp.batch_size, n)
    full = batch >= n
    trace = []
    for epoch in range(hp.epochs):
        if full:
            loss, gW, gb = step_fn(W, b, X, y)
            vW = hp.momentum * vW - hp.learning_rate * gW
            vb = hp.momentum * vb - hp.learning_rate * gb
            W = W + vW
            b = b + vb
        else:
            perm = rng.permutation(n)
            losses = []
            for start in range(0, n, batch):
                sel = perm[start : start + batch]
                loss, gW, gb = step_fn(W, b, X[sel], y[sel])
                losses.append(loss)
                vW = hp.momentum * vW - hp.learning_rate * gW
                vb = hp.momentum * vb - hp.learning_rate * gb
                W = W + vW
                b = b + vb
            loss = float(np.mean(losses))
        trace.append(loss)
    return W, b, trace


def _ref_softmax_step(hp, C):
    eye = np.eye(C)

    def step(W, b, Xb, yb):
        nb = len(yb)
        logits = Xb @ W.T + b
        logits -= logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        z = expl.sum(axis=1)
        ce = float(np.mean(np.log(z) - logits[np.arange(nb), yb]))
        loss = ce + 0.5 * hp.l2 * float(np.sum(W * W))
        delta = expl / z[:, None] - eye[yb]
        return loss, delta.T @ Xb / nb + hp.l2 * W, delta.mean(axis=0)

    return step


def _ref_svm_step(hp, C):
    def step(W, b, Xb, yb):
        nb = len(yb)
        T = -np.ones((nb, C))
        T[np.arange(nb), yb] = 1.0
        margins = hp.hinge_margin - T * (Xb @ W.T + b)
        loss = float(np.maximum(margins, 0.0).mean(axis=0).sum())
        loss += 0.5 * hp.l2 * float(np.sum(W * W))
        coef = -((margins > 0) * T)
        return loss, coef.T @ Xb / nb + hp.l2 * W, coef.mean(axis=0)

    return step


_REF_STEPS = {"softmax": _ref_softmax_step, "linear_svm": _ref_svm_step}


def assert_linear_fit_matches_reference(got, ds, spec):
    C = len(got.classes_seen)
    y = np.searchsorted(got.classes_seen, ds.labels)
    W, b, trace = _ref_sgd(ds.features, y, C, spec.hyperparams,
                           _REF_STEPS[spec.kind](spec.hyperparams, C))
    assert np.array_equal(got.state.weights, W)
    assert np.array_equal(got.state.bias, b)
    assert got.state.loss_trace == trace


class TestClassSumPaths:
    """Softmax sums its classes down a leading axis below C = 8 and along a
    row from C = 8 on; fits on either side of that switch, lone and stacked,
    match the reference bit for bit, and so do SVM fits."""

    @pytest.mark.parametrize("C", [2, 9])
    @pytest.mark.parametrize(
        "make",
        # at hinge margin 50 every row violates its margin, the lone last one too
        [softmax_spec, svm_spec, lambda **kw: svm_spec(hinge_margin=50.0, **kw)],
        ids=["softmax", "svm", "svm-margin50"],
    )
    @pytest.mark.parametrize("batch_size", [16, 4096], ids=["minibatch", "fullbatch"])
    def test_lone_fit_bitwise(self, make, batch_size, C):
        ds = blobs(145, 3, C, seed=8)  # 145 = 9 * 16 + 1: a lone-row last batch
        spec = make(epochs=15, batch_size=batch_size, momentum=0.7, l2=1e-3, seed=5)
        assert_linear_fit_matches_reference(fit(spec, ds), ds, spec)

    @pytest.mark.parametrize("C", [2, 9])
    @pytest.mark.parametrize("make", [softmax_spec, svm_spec], ids=["softmax", "svm"])
    def test_ragged_group_bitwise(self, make, C):
        # batch 16: n % 16 == 1 (a lone last row), == 0, other, and n < 16
        sizes = [33, 32, 41, 17, 9]
        datasets = [blobs(n, 3, C, seed=40 + i) for i, n in enumerate(sizes)]
        specs = [make(epochs=6, batch_size=16, momentum=0.7, l2=1e-3, seed=200 + i)
                 for i in range(len(datasets))]
        for spec, ds, got in zip(specs, datasets, fit_many(specs, datasets)):
            assert len(got.classes_seen) == C
            assert_linear_fit_matches_reference(got, ds, spec)


class TestLinearMatchesReference:
    @pytest.mark.parametrize(
        "make, ref_step",
        [(softmax_spec, _ref_softmax_step), (svm_spec, _ref_svm_step)],
        ids=["softmax", "svm"],
    )
    @pytest.mark.parametrize("batch_size", [16, 37, 4096], ids=["minibatch", "ragged", "fullbatch"])
    def test_weights_bias_and_trace_bitwise(self, make, ref_step, batch_size):
        ds = blobs(150, 3, 4, seed=8)
        spec = make(epochs=25, batch_size=batch_size, momentum=0.7, l2=1e-3, seed=5)
        clf = fit(spec, ds)
        W, b, trace = _ref_sgd(ds.features, ds.labels, 4, spec.hyperparams,
                               ref_step(spec.hyperparams, 4))
        assert np.array_equal(clf.state.weights, W)
        assert np.array_equal(clf.state.bias, b)
        assert clf.state.loss_trace == trace


def assert_same_linear_fit(got, want):
    assert np.array_equal(got.classes_seen, want.classes_seen)
    assert np.array_equal(got.state.weights, want.state.weights)
    assert np.array_equal(got.state.bias, want.state.bias)
    assert got.state.loss_trace == want.state.loss_trace


def labelled(X, labels, C):
    return LabeledDataset(X, np.asarray(labels), C)


class TestFitManyMatchesFit:
    """fit_many stacks compatible linear fits into one SGD run; each result
    must equal fitting that job alone, bit for bit."""

    @pytest.mark.parametrize("make", [softmax_spec, svm_spec], ids=["softmax", "svm"])
    def test_ragged_group_bitwise(self, make):
        rng = np.random.default_rng(3)
        # batch 16: n % 16 == 0, == 1 (a lone last row), other, and n < 16
        sizes = [32, 33, 41, 9, 17, 16, 1]
        datasets = [blobs(n, 3, 4, seed=20 + i) for i, n in enumerate(sizes)]
        # one job lacks a class, so it has its own class count and group
        datasets.append(labelled(rng.standard_normal((40, 3)), np.arange(40) % 3 + 1, 4))
        specs = [
            make(epochs=6, batch_size=16, momentum=0.7, l2=1e-3, seed=100 + i)
            for i in range(len(datasets))
        ]
        many = fit_many(specs, datasets)
        for spec, ds, got in zip(specs, datasets, many):
            assert_same_linear_fit(got, fit(spec, ds))
            C = len(got.classes_seen)
            y = np.searchsorted(got.classes_seen, ds.labels)
            W, b, trace = _ref_sgd(ds.features, y, C, spec.hyperparams,
                                   (_ref_softmax_step if make is softmax_spec
                                    else _ref_svm_step)(spec.hyperparams, C))
            assert np.array_equal(got.state.weights, W)
            assert np.array_equal(got.state.bias, b)
            assert got.state.loss_trace == trace

    def test_mixed_kinds_and_hyperparameters(self):
        ds = [blobs(50, 2, 3, seed=i) for i in range(6)]
        specs = [
            softmax_spec(epochs=5, batch_size=8, seed=1),
            svm_spec(epochs=5, batch_size=8, seed=1),
            softmax_spec(epochs=5, batch_size=8, learning_rate=0.2, seed=2),
            softmax_spec(epochs=5, batch_size=8, seed=3),
            forest_spec(tree_count=4, seed=4),
            knn_spec(k=3),
        ]
        many = fit_many(specs, ds)
        for spec, d, got in zip(specs, ds, many):
            want = fit(spec, d)
            assert got.spec == spec
            if spec.kind in ("softmax", "linear_svm"):
                assert_same_linear_fit(got, want)
            elif spec.kind == "random_forest":
                assert_same_trees(got, want)
            else:
                assert np.array_equal(got.state.features, want.state.features)
                assert np.array_equal(got.state.labels, want.state.labels)

    def test_single_class_and_single_feature_jobs(self):
        rng = np.random.default_rng(4)
        datasets = [
            labelled(rng.standard_normal((30, 2)), np.full(30, 2), 3),
            labelled(rng.standard_normal((30, 1)), np.arange(30) % 2, 2),
            labelled(rng.standard_normal((31, 1)), np.arange(31) % 2, 2),
        ]
        specs = [svm_spec(epochs=4, batch_size=8, seed=i) for i in range(3)]
        for spec, ds, got in zip(specs, datasets, fit_many(specs, datasets)):
            assert_same_linear_fit(got, fit(spec, ds))

    @given(
        jobs=st.lists(
            st.tuples(st.integers(1, 60), st.integers(0, 2**16)), min_size=1, max_size=6
        ),
        batch=st.integers(1, 40),
        C=st.integers(2, 9),  # both class-sum paths
        d=st.integers(2, 4),
        kind=st.sampled_from(["softmax", "svm"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_groups_match_fit(self, jobs, batch, C, d, kind):
        # fit is fit_many of one job, so a fault in both would pass the first
        # check; the reference loop catches it.
        make = softmax_spec if kind == "softmax" else svm_spec
        datasets, specs = [], []
        for n, seed in jobs:
            rng = np.random.default_rng(seed)
            datasets.append(labelled(rng.standard_normal((n, d)), rng.integers(0, C, n), C))
            specs.append(make(epochs=3, batch_size=batch, momentum=0.6, seed=seed))
        for spec, ds, got in zip(specs, datasets, fit_many(specs, datasets)):
            assert_same_linear_fit(got, fit(spec, ds))
            assert_linear_fit_matches_reference(got, ds, spec)

    def test_divergence_in_a_group_raises(self):
        specs = [softmax_spec(learning_rate=1e6, epochs=50, batch_size=8, seed=i)
                 for i in range(3)]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Divergence):
            fit_many(specs, [blobs(40, 2, 3, seed=i) for i in range(3)])

    def test_checks_every_job_before_training(self):
        with pytest.raises(LengthMismatch):
            fit_many([softmax_spec()], [])
        with pytest.raises(EmptyDataset):
            fit_many([softmax_spec(), softmax_spec()],
                     [blobs(20), LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 3)])


def assert_same_trees(got, want):
    for name in ("code", "threshold", "skip", "roots"):
        assert np.array_equal(getattr(got.state, name), getattr(want.state, name))


class TestFitManyForestGroups:
    """fit_many grows the forests of jobs that differ at most in the seed
    and n as one lockstep group; each must equal its lone fit node for node."""

    def test_ragged_groups_match_lone_fits(self, monkeypatch):
        groups = []
        real_group = clf_mod._fit_forest_group

        def spy(fits, C):
            groups.append(len(fits))
            return real_group(fits, C)

        monkeypatch.setattr(clf_mod, "_fit_forest_group", spy)
        rng = np.random.default_rng(6)
        datasets, specs = [], []
        for i, n in enumerate([40, 3, 17, 64]):
            datasets.append(labelled(rng.standard_normal((n, 3)), np.arange(n) % 3, 3))
            specs.append(forest_spec(tree_count=4, max_depth=3, seed=10 + i))
        for i, n in enumerate([25, 9]):
            datasets.append(labelled(rng.standard_normal((n, 3)), np.arange(n) % 3, 3))
            specs.append(forest_spec(tree_count=3, feature_subsample=3, seed=20 + i))
        datasets += [labelled(rng.standard_normal((1, 3)), [1], 3),
                     labelled(rng.standard_normal((20, 3)), np.full(20, 2), 3),
                     blobs(30, 3, 3, seed=7), blobs(31, 3, 3, seed=8)]
        specs += [forest_spec(tree_count=2, seed=30), forest_spec(tree_count=2, seed=31),
                  softmax_spec(epochs=3, batch_size=8, seed=1),
                  svm_spec(epochs=3, batch_size=8, seed=2)]
        many = fit_many(specs, datasets)
        assert sorted(groups) == [2, 2, 4]  # the n = 1 and one-class jobs share C = 1
        for spec, ds, got in zip(specs, datasets, many):
            assert got.spec == spec
            if spec.kind == "random_forest":
                assert_same_trees(got, fit(spec, ds))
            else:
                assert_same_linear_fit(got, fit(spec, ds))

    @given(
        jobs=st.lists(
            st.tuples(st.integers(1, 30), st.integers(0, 2**16)), min_size=1, max_size=5
        ),
        d=st.integers(1, 3),
        C=st.integers(1, 3),
        max_depth=st.sampled_from([None, 1, 3]),
        subsample=st.sampled_from([None, 1, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_integer_features_with_ties(self, jobs, d, C, max_depth, subsample):
        datasets, specs = [], []
        for n, seed in jobs:
            rng = np.random.default_rng(seed)
            X = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
            datasets.append(labelled(X, rng.integers(0, C, n), C))
            specs.append(forest_spec(tree_count=2, max_depth=max_depth,
                                     feature_subsample=subsample, seed=seed))
        for spec, ds, got in zip(specs, datasets, fit_many(specs, datasets)):
            assert_same_trees(got, fit(spec, ds))


class TestForest:
    def test_memorizes_training_set(self):
        ds = blobs(150, 2, 3, seed=1)
        clf = fit(forest_spec(seed=0), ds)
        assert float(np.mean(clf.predict_many(ds.features) == ds.labels)) == 1.0

    def test_max_depth_one_is_a_stump_ensemble(self):
        ds = blobs(60, 2, 2, seed=7)
        clf = fit(forest_spec(max_depth=1, seed=0), ds)
        assert tree_depth(clf.state) <= 1

    def test_single_tree_no_subsample_is_deterministic(self):
        ds = blobs(60, 4, 3, seed=8)
        spec = forest_spec(tree_count=1, feature_subsample=4, seed=5)
        a = fit(spec, ds).predict_many(ds.features)
        b = fit(spec, ds).predict_many(ds.features)
        assert np.array_equal(a, b)

    def test_duplicate_points_with_conflicting_labels_terminate(self):
        ds = conflicting_duplicates()
        clf = fit(forest_spec(tree_count=5, seed=0), ds)
        preds = clf.predict_many(ds.features)
        assert preds.shape == (8,)

    def test_query_at_threshold_goes_left(self):
        ds = LabeledDataset(np.repeat([[0.0], [1.0]], 10, axis=0),
                            np.repeat([0, 1], 10), class_count=2)
        clf = fit(forest_spec(tree_count=1, max_depth=1, seed=0), ds)
        assert clf.state.threshold[clf.state.roots[0]] == 0.5
        assert clf.predict_many(np.array([[0.5], [0.5000001]])).tolist() == [0, 1]

    @pytest.mark.parametrize("lo, hi", [(1 + 2**-52, 1 + 2**-51), (1e308, 1.7e308)],
                             ids=["rounds_up", "overflows"])
    def test_adjacent_values_whose_midpoint_is_not_below_the_upper_one(self, lo, hi):
        # the midpoint is hi or inf, so splitting there would send every row
        # left and split the same node forever; the split falls back to lo
        code = textwrap.dedent(f"""
            import numpy as np
            from cpckit.classifiers import fit, forest_spec
            from cpckit.dataset import LabeledDataset
            X = np.array([[{lo!r}]] * 4 + [[{hi!r}]] * 4)
            ds = LabeledDataset(X, np.repeat([0, 1], 4), class_count=2)
            clf = fit(forest_spec(tree_count=3, seed=0), ds)
            print(clf.state.threshold[clf.state.roots[0]] == {lo!r},
                  clf.predict_many(X).tolist() == ds.labels.tolist())
        """)
        done = run_python(["-c", code], timeout=30)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["True", "True"]

    def test_group_too_large_for_the_sort_keys_is_refused(self):
        # 2**31 rows need 32 bits for a rank and 32 for a slot, which leaves
        # no bits for the segment in a 63-bit key; a broadcast view gives the
        # row count without the memory
        ranks = np.broadcast_to(np.zeros(1, dtype=np.uint32), (1, 1 << 31))
        with pytest.raises(DataError):
            clf_mod._split_nodes(np.zeros(2, dtype=np.uint32), np.ones(2, dtype=np.uint32),
                                 np.array([0]), np.array([2]), np.zeros((1, 1), dtype=np.int64),
                                 np.array([[1, 1]]), ranks, np.array([0, 1]))

    @given(
        n=st.integers(2, 60),
        d=st.integers(1, 4),
        C=st.integers(1, 4),
        s=st.integers(-1000, 1000),
        seed=st.integers(0, 10_000),
    )
    @example(n=60, d=2, C=3, s=-1000, seed=0)
    @example(n=60, d=2, C=3, s=1000, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_forest_does_not_depend_on_scale(self, n, d, C, s, seed):
        # splits compare ranks, and a threshold is a midpoint: eighths from
        # -3 to 3 times 2^s keep every feature and every midpoint sum a
        # normal float over this range of s, where halving scales exactly
        rng = np.random.default_rng(seed)
        X = rng.integers(-24, 25, size=(n, d)) / 8
        y = rng.integers(0, C, size=n)
        spec = forest_spec(tree_count=3, seed=seed)
        want = fit(spec, LabeledDataset(X, y, class_count=C)).state
        got = fit(spec, LabeledDataset(np.ldexp(X, s), y, class_count=C)).state
        for name in ("code", "skip", "roots"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.threshold.tobytes() == np.ldexp(want.threshold, s).tobytes()

    def test_vote_counts_sum_to_tree_count(self):
        ds = blobs(40, 2, 2, seed=9)
        clf = fit(forest_spec(tree_count=31, seed=0), ds)
        votes = clf.decision_scores(ds.features[:10])
        assert np.all(votes.sum(axis=1) == 31)


# The recursive dict-node forest the flat-array forest replaced, kept only
# as a reference: the new trees must match it node for node.

def _ref_gini_split(Xcol, y, C):
    order = np.argsort(Xcol, kind="stable")
    xs = Xcol[order]
    ys = y[order]
    n = len(ys)
    onehot = np.zeros((n, C))
    onehot[np.arange(n), ys] = 1.0
    left = np.cumsum(onehot, axis=0)
    total = left[-1]
    cut = np.flatnonzero(xs[:-1] < xs[1:])
    if cut.size == 0:
        return None
    nl = (cut + 1).astype(np.float64)
    nr = n - nl
    gl = 1.0 - np.sum(left[cut] ** 2, axis=1) / nl**2
    gr = 1.0 - np.sum((total - left[cut]) ** 2, axis=1) / nr**2
    cost = (nl * gl + nr * gr) / n
    best = int(np.argmin(cost))
    thr = (xs[cut[best]] + xs[cut[best] + 1]) / 2.0
    return float(cost[best]), float(thr)


def _ref_grow_tree(X, y, C, rng, max_depth, n_sub, depth=0):
    counts = np.bincount(y, minlength=C)
    majority = int(np.argmax(counts))
    if counts[majority] == len(y) or (max_depth is not None and depth >= max_depth):
        return {"leaf": majority}
    feats = rng.permutation(X.shape[1])[:n_sub]
    best = None
    for f in feats:
        found = _ref_gini_split(X[:, f], y, C)
        if found is not None and (best is None or found[0] < best[0]):
            best = (found[0], int(f), found[1])
    if best is None:
        return {"leaf": majority}
    _, f, thr = best
    go_left = X[:, f] <= thr
    return {
        "feature": f,
        "threshold": thr,
        "left": _ref_grow_tree(X[go_left], y[go_left], C, rng, max_depth, n_sub, depth + 1),
        "right": _ref_grow_tree(X[~go_left], y[~go_left], C, rng, max_depth, n_sub, depth + 1),
    }


def _ref_forest(ds, hp):
    """Reference trees flattened to one node table, lists of code (feature,
    or ~class at a leaf), threshold, skip (right child's offset) and roots,
    each tree in DFS preorder, plus the reference votes on the training rows."""
    classes = np.unique(ds.labels)
    y = np.searchsorted(classes, ds.labels)
    n, d = ds.features.shape
    n_sub = min(hp.feature_subsample or int(np.ceil(np.sqrt(d))), d)
    flat = {"code": [], "threshold": [], "skip": [], "roots": []}
    votes = np.zeros((n, len(classes)))
    for t in range(hp.tree_count):
        rng = np.random.default_rng(np.random.SeedSequence([hp.seed, t]))
        bag = rng.integers(0, n, size=n)
        root = _ref_grow_tree(ds.features[bag], y[bag], len(classes), rng,
                              hp.max_depth, n_sub)
        for i, x in enumerate(ds.features):
            node = root
            while "leaf" not in node:
                node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
            votes[i, node["leaf"]] += 1.0

        def visit(node):
            i = len(flat["code"])
            flat["skip"].append(0)
            if "leaf" in node:
                flat["code"].append(~node["leaf"])
                flat["threshold"].append(0.0)
                return i
            flat["code"].append(node["feature"])
            flat["threshold"].append(node["threshold"])
            visit(node["left"])  # node i + 1
            flat["skip"][i] = visit(node["right"]) - i
            return i

        flat["roots"].append(visit(root))
    return flat, votes


def assert_matches_reference(ds, spec):
    clf = fit(spec, ds)
    want_table, want_votes = _ref_forest(ds, spec.hyperparams)
    for name, want in want_table.items():
        assert getattr(clf.state, name).tolist() == want
    assert np.array_equal(clf.decision_scores(ds.features), want_votes)


def tree_depth(state):
    """The depth of the deepest node of any tree in a forest's node table."""
    depth = np.zeros(len(state.code), dtype=int)  # a root's depth stays 0
    for i, f in enumerate(state.code):  # preorder: parents come first
        if f >= 0:
            depth[i + 1] = depth[i + state.skip[i]] = depth[i] + 1
    return depth.max()


def conflicting_duplicates():
    X = np.array([[1.0, 1.0]] * 6 + [[2.0, 2.0]] * 2)
    y = np.array([0, 1, 0, 1, 0, 0, 1, 1])
    return LabeledDataset(X, y, class_count=2)


# (row, feature) pairs a split chunk holds in the small-chunk tests: at most
# a few nodes of the 2-40 row cases each
SMALL_CHUNK = 16

INTEGER_TIES = dict(
    n=st.integers(2, 40),
    d=st.integers(1, 4),
    C=st.integers(1, 4),
    max_depth=st.sampled_from([None, 1, 2, 3]),
    subsample=st.sampled_from([None, 1, 2, 4]),
    seed=st.integers(0, 10_000),
)


def assert_integer_ties_match_reference(n, d, C, max_depth, subsample, seed):
    rng = np.random.default_rng(seed)
    ds = LabeledDataset(rng.integers(-2, 3, size=(n, d)).astype(np.float64),
                        rng.integers(0, C, size=n), class_count=C)
    spec = forest_spec(tree_count=3, max_depth=max_depth, feature_subsample=subsample, seed=seed)
    assert_matches_reference(ds, spec)


class TestForestMatchesReference:
    @pytest.mark.parametrize(
        "kw",
        [{}, {"max_depth": 1}, {"max_depth": 3}, {"feature_subsample": 4}],
        ids=["full", "depth1", "depth3", "all_features"],
    )
    def test_blobs(self, kw):
        assert_matches_reference(blobs(120, 4, 3, seed=13), forest_spec(tree_count=8, seed=2, **kw))

    def test_conflicting_duplicates(self):
        assert_matches_reference(conflicting_duplicates(), forest_spec(tree_count=5, seed=0))

    def test_conflicting_duplicates_in_small_chunks(self, monkeypatch):
        # nodes without a cut, searched over several chunks
        monkeypatch.setattr(clf_mod, "_SPLIT_CHUNK", SMALL_CHUNK)
        self.test_conflicting_duplicates()

    def test_sixteen_classes(self):
        # 3 of 6 features over 400 rows: 1200-row segments, 11-bit class
        # counters, 5 to an int64 word, so the counts span 4 words
        ds = blobs(400, 6, 16, seed=5, margin=1.0)
        assert_matches_reference(ds, forest_spec(tree_count=4, seed=7))

    @pytest.mark.parametrize("d", [1, 2, 7, 40, 41])
    def test_block_draws_are_successive_permutations(self, d):
        # the forest draws each tree's feature subsets a block at a time
        B = clf_mod._DRAW_BLOCK
        for seed in range(20):
            one, block = np.random.default_rng(seed), np.random.default_rng(seed)
            want = [one.permutation(d) for _ in range(2 * B)]
            got = [block.permuted(np.tile(np.arange(d), (B, 1)), axis=1) for _ in range(2)]
            assert np.array_equal(np.concatenate(got), want)

    @given(**INTEGER_TIES)
    @settings(max_examples=60, deadline=None)
    def test_integer_features_with_ties(self, n, d, C, max_depth, subsample, seed):
        assert_integer_ties_match_reference(n, d, C, max_depth, subsample, seed)

    @given(**INTEGER_TIES)
    @settings(max_examples=60, deadline=None)
    def test_integer_features_with_ties_in_small_chunks(self, n, d, C, max_depth, subsample,
                                                        seed):
        # small nodes share a chunk, where some have a cut and some do not
        # and every node's rows are written back in its chosen feature's order
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clf_mod, "_SPLIT_CHUNK", SMALL_CHUNK)
            assert_integer_ties_match_reference(n, d, C, max_depth, subsample, seed)


class TestWeightedBagsMatchReference:
    """A tree grows on its bag's distinct rows, weighted by how often the bag
    drew each; at 300 rows some are drawn 4 or more times, which the small
    cases above seldom reach. 7 of 40 features a split, the default."""

    def test_realistic_size(self):
        bag = np.random.default_rng(np.random.SeedSequence([3, 0])).integers(0, 300, size=300)
        assert np.bincount(bag).max() >= 4
        assert_matches_reference(blobs(300, 40, 4, seed=11, margin=1.0),
                                 forest_spec(tree_count=10, seed=3))

    def test_realistic_size_in_small_chunks(self, monkeypatch):
        # about one node a chunk: many chunk bounds, each chunk's running
        # counts restarting at every one of its segments
        monkeypatch.setattr(clf_mod, "_SPLIT_CHUNK", 64)
        self.test_realistic_size()

    def test_ragged_group(self):
        # equal hyperparameters but the seed, equal d and C: one lockstep group
        datasets = [blobs(n, 40, 2, seed=n, margin=1.0) for n in (300, 299, 3, 2)]
        specs = [forest_spec(tree_count=10, seed=40 + i) for i in range(len(datasets))]
        for ds, spec, got in zip(datasets, specs, fit_many(specs, datasets)):
            want_table, want_votes = _ref_forest(ds, spec.hyperparams)
            for name, want in want_table.items():
                assert getattr(got.state, name).tolist() == want
            assert np.array_equal(got.decision_scores(ds.features), want_votes)


class TestKnn:
    def test_distance_tie_breaks_to_lower_index(self):
        # query equidistant from both points; index 0 must win the tie
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        y = np.array([1, 0])
        clf = fit(knn_spec(k=2), LabeledDataset(X, y, class_count=2))
        assert clf.predict_many([[0.5, 0.0]]).tolist() == [1]

    def test_vote_tie_goes_to_class_of_nearest(self):
        # two votes each; the nearest neighbor belongs to class 1
        X = np.array([[1.0, 0.0], [2.0, 0.0], [-1.5, 0.0], [-2.5, 0.0]])
        y = np.array([1, 1, 0, 0])
        clf = fit(knn_spec(k=4), LabeledDataset(X, y, class_count=2))
        assert clf.predict_many([[0.0, 0.0]]).tolist() == [1]

    def test_k_one_copies_nearest_label(self):
        ds = blobs(50, 2, 3, seed=10)
        clf = fit(knn_spec(k=1), ds)
        assert float(np.mean(clf.predict_many(ds.features) == ds.labels)) == 1.0

    def test_k_clamps_to_sample_count(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        y = np.array([0, 0, 1])
        clf = fit(knn_spec(k=50), LabeledDataset(X, y, class_count=2))
        assert clf.predict_many([[0.0, 0.0]]).tolist() == [0]  # majority of all three

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e300, 1e307])
    def test_neighbors_survive_overflowing_squares(self, scale):
        # squared distances overflow above about 1e154; the order must not change
        X = np.random.default_rng(0).standard_normal((50, 3)) * scale
        assert _nearest_indices(X, X[30], 3).tolist() == [30, 44, 26]

    def test_one_far_row_leaves_the_others_ordered(self):
        # an outlier whose squared distance overflows must not blur the rest
        X = np.random.default_rng(0).standard_normal((50, 3))
        out = np.vstack([X, np.full((1, 3), 1e200)])
        for q in X[:10]:
            assert _nearest_indices(out, q, 51).tolist() == [*_nearest_indices(X, q, 50), 50]

    def test_far_rows_keep_their_order(self):
        X = np.vstack([np.random.default_rng(0).standard_normal((20, 3)),
                       [[3e200, 0, 0], [-1.7e308, 0, 0], [1e200, 0, 0], [0, 2e200, 0]]])
        assert _nearest_indices(X, np.zeros(3), 24)[20:].tolist() == [22, 23, 20, 21]
        # from a far query, near rows tie at 1e200 and keep their index order
        want = [22, *range(20), 20, 23, 21]
        assert _nearest_indices(X, np.array([1e200, 0.0, 0.0]), 24).tolist() == want

    def test_duplicate_comes_before_an_underflowed_row(self):
        # (2^-600)^2 underflows to 0, the distance of a duplicate of the query
        X = np.array([[2.0**-600, 0.0], [0.0, 0.0], [1.0, 0.0]])
        assert _nearest_indices(X, np.zeros(2), 2).tolist() == [1, 0]

    @given(
        n=st.integers(1, 200),
        d=st.integers(1, 4),
        k=st.integers(1, 210),
        s=st.integers(-1019, 1020),
        seed=st.integers(0, 10_000),
    )
    @example(n=200, d=2, k=25, s=-600, seed=0)  # every square underflows
    @example(n=200, d=2, k=25, s=1000, seed=0)  # every square overflows
    @settings(max_examples=80, deadline=None)
    def test_neighbors_do_not_depend_on_scale(self, n, d, k, s, seed):
        # eighths from -3 to 3 times 2^s keep every feature, query and
        # difference a normal float over this range of s, and in an
        # unbounded exponent range every squared distance would scale exactly
        rng = np.random.default_rng(seed)
        X = rng.integers(-24, 25, size=(n, d)) / 8
        q = rng.integers(-24, 25, size=d) / 8
        want = _nearest_indices(X, q, k).tolist()
        assert _nearest_indices(np.ldexp(X, s), np.ldexp(q, s), k).tolist() == want

    def test_knn_predict_is_scale_free(self):
        ds = blobs(90, 3, 3, seed=11, margin=2.0)
        queries = blobs(40, 3, 3, seed=12, margin=2.0).features
        want = fit(knn_spec(k=5), ds).predict_many(queries)
        big = LabeledDataset(ds.features * 1e160, ds.labels, ds.class_count)
        got = fit(knn_spec(k=5), big).predict_many(queries * 1e160)
        assert np.array_equal(got, want)

    @given(
        n=st.integers(1, 300),
        k=st.integers(1, 320),
        far_share=st.sampled_from([0.0, 0.0, 0.1]),
        seed=st.integers(0, 10_000),
    )
    @example(n=300, k=290, far_share=0.1, seed=0)  # the k-th neighbour is far
    @example(n=300, k=20, far_share=0.1, seed=1)
    @settings(max_examples=80, deadline=None)
    def test_neighbors_match_brute_force(self, n, k, far_share, seed):
        # integer grid coordinates make distance ties common and exact, also
        # at the k-th distance; far rows sit 1e200 to 3e200 along the first
        # axis, where squared distances overflow, and rank by that coordinate
        rng = np.random.default_rng(seed)
        X = rng.integers(-3, 4, size=(n, 2)).astype(np.float64)
        far = rng.random(n) < far_share
        X[far, 0] = rng.integers(1, 4, size=far.sum()) * 1e200
        q = rng.integers(-3, 4, size=2).astype(np.float64)
        got = _nearest_indices(X, q, k)
        d2 = np.sum((np.where(far[:, None], 0.0, X) - q) ** 2, axis=1)
        want = sorted(range(n), key=lambda i: (far[i], X[i, 0] * far[i], d2[i], i))
        assert got.tolist() == want[: min(k, n)]

