"""Ease scoring, subspace partitioning, experts, and per-query routing."""

import multiprocessing
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpckit.classifiers import ClassifierSpec, fit, knn_spec, softmax_spec
from cpckit.cpc import (
    COMPLEMENT,
    DEFAULT_DISC,
    EXCLUDE_IN_FOLD,
    ROUTE_DIFFICULT,
    ROUTE_EASY,
    SINGLE_FOLD,
    CpcConfig,
    EaseScores,
    SubspacePartition,
    compute_ease,
    cpc_predict,
    cpc_predict_grid,
    cpc_predict_many,
    fit_cpc,
    fit_cpc_many,
    partition,
    train_base_ensemble,
    train_cpc,
)
from cpckit.dataset import EASY_TAG, LabeledDataset, generate_two_regime, take
from cpckit.errors import (
    BadK,
    BadSpec,
    DimMismatch,
    Divergence,
    EmptyPartition,
    LengthMismatch,
    NonFinite,
)
from cpckit.harness import PipelineConfig, cross_validate, theta_sweep

from conftest import force_cpus


def small_ds(n=40, d=3, C=3, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=5.0, size=(C, d))
    labels = np.arange(n) % C
    feats = rng.standard_normal((n, d)) + centers[labels]
    return LabeledDataset(feats, labels, C)


def two_clusters(per=100, gap=12.0, seed=0):
    """Two well-separated point clouds, each holding both class labels."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((per, 2))
    B = rng.standard_normal((per, 2)) + np.array([gap, 0.0])
    X = np.vstack([A, B])
    y = np.concatenate([np.arange(per) % 2, np.arange(per) % 2])
    return LabeledDataset(X, y, class_count=2)


def easy_mask(n, rows):
    """The easy mask of n rows that puts rows easy and the rest difficult."""
    easy = np.zeros(n, dtype=bool)
    easy[rows] = True
    return easy


def cluster_model(per=100, disc_k=25, seed=0):
    ds = two_clusters(per=per, seed=seed)
    part = SubspacePartition(ds, 0.5, easy_mask(2 * per, np.arange(per)))
    return ds, fit_cpc(part, softmax_spec(seed=0), disc_k=disc_k)


class TestBaseEnsemble:
    def test_member_count(self):
        ds = small_ds()
        ens = train_base_ensemble(ds, 4, 3, softmax_spec(epochs=5), seed=0)
        assert ens.N == len(ens.trained_on) == 12

    def test_single_fold_indices_partition_each_repetition(self):
        ds = small_ds(n=30)
        ens = train_base_ensemble(ds, 5, 2, knn_spec(k=1), seed=1)
        for rep in range(2):
            rows = [np.flatnonzero(r) for r in ens.trained_on[rep * 5 : (rep + 1) * 5]]
            joined = np.sort(np.concatenate(rows))
            assert np.array_equal(joined, np.arange(30))

    def test_complement_mode_trains_on_other_folds(self):
        ds = small_ds(n=20)
        single = train_base_ensemble(ds, 4, 1, knn_spec(k=1), seed=2)
        comp = train_base_ensemble(
            ds, 4, 1, knn_spec(k=1), seed=2, fold_training=COMPLEMENT
        )
        for s, c in zip(single.trained_on, comp.trained_on):
            joined = np.concatenate([np.flatnonzero(s), np.flatnonzero(c)])
            assert np.array_equal(np.sort(joined), np.arange(20))

    def test_validation(self):
        ds = small_ds(n=10)
        with pytest.raises(BadK):
            train_base_ensemble(ds, 11, 1, knn_spec(k=1))
        with pytest.raises(BadSpec):
            train_base_ensemble(ds, 2, 0, knn_spec(k=1))
        with pytest.raises(BadSpec):
            train_base_ensemble(ds, 2, 1, knn_spec(k=1), fold_training="both")

    def test_deterministic(self):
        ds = small_ds()
        a = train_base_ensemble(ds, 3, 2, softmax_spec(epochs=5), seed=7)
        b = train_base_ensemble(ds, 3, 2, softmax_spec(epochs=5), seed=7)
        for ma, mb in zip(a.members, b.members):
            assert np.array_equal(ma.state.weights, mb.state.weights)


class TestComputeEase:
    @pytest.mark.parametrize("instance", range(6))
    def test_counts_match_flat_recount(self, instance):
        rng = np.random.default_rng(instance)
        n = int(rng.integers(10, 50))
        K = int(rng.choice([2, 3, 5]))
        m = int(rng.choice([1, 2, 3]))
        ds = small_ds(n=n, seed=instance + 10)
        ens = train_base_ensemble(ds, K, m, knn_spec(k=1), seed=instance)
        ease = compute_ease(ens)
        flat = np.zeros(n, dtype=np.int64)
        for member in ens.members:
            for i in range(n):
                flat[i] += int(member.predict_many(ds.features[i : i + 1])[0] == ds.labels[i])
        assert np.array_equal(ease.correct_counts, flat)
        assert np.array_equal(ease.ratios, flat / ens.N)

    @pytest.mark.parametrize("fold_training", [SINGLE_FOLD, COMPLEMENT])
    @pytest.mark.parametrize("instance", range(3))
    def test_exclude_mode_matches_flat_recount(self, instance, fold_training):
        rng = np.random.default_rng(100 + instance)
        n = int(rng.integers(12, 40))
        ds = small_ds(n=n, seed=instance)
        ens = train_base_ensemble(ds, 3, 2, knn_spec(k=1), seed=instance,
                                  fold_training=fold_training)
        ease = compute_ease(ens, mode=EXCLUDE_IN_FOLD)
        counts = np.zeros(n, dtype=np.int64)
        denoms = np.zeros(n, dtype=np.int64)
        for member, rows in zip(ens.members, ens.trained_on):
            in_fold = np.zeros(n, dtype=bool)
            in_fold[rows] = True
            for i in range(n):
                if in_fold[i]:
                    continue
                denoms[i] += 1
                counts[i] += int(member.predict_many(ds.features[i : i + 1])[0] == ds.labels[i])
        assert np.array_equal(ease.correct_counts, counts)
        assert np.array_equal(ease.ratios, counts / denoms)
        # single-fold members leave each sample out of exactly N - m folds,
        # complement members out of exactly m
        assert np.all(denoms == (ens.N - 2 if fold_training == SINGLE_FOLD else 2))

    def test_in_fold_members_usually_memorize(self):
        # a 1-NN member always classifies its own training points correctly,
        # so include_all counts at least m successes per sample
        ds = small_ds(n=24, seed=5)
        ens = train_base_ensemble(ds, 4, 3, knn_spec(k=1), seed=5)
        ease = compute_ease(ens)
        assert np.all(ease.correct_counts >= 3)

    def test_unknown_mode(self):
        ds = small_ds(n=12)
        ens = train_base_ensemble(ds, 2, 1, knn_spec(k=1))
        with pytest.raises(BadSpec):
            compute_ease(ens, mode="leave_one_out")

    def test_scores_the_set_it_was_fit_on(self):
        ds = small_ds(n=30)
        ens = train_base_ensemble(ds, 3, 1, knn_spec(k=1))
        assert ens.dataset is ds
        assert compute_ease(ens).n == ds.n
        assert ens.trained_on.shape == (ens.N, ds.n)


def manual_ease(ratios):
    ratios = np.asarray(ratios, dtype=np.float64)
    return EaseScores(correct_counts=(ratios * 16).astype(np.int64), ratios=ratios, N=16)


class TestPartition:
    def test_boundary_sample_lands_easy(self):
        # ratios k/16 are exact binary floats, so equality at the threshold
        # is well defined
        ds = small_ds(n=4)
        ease = manual_ease([0.25, 0.5, 0.75, 1.0])
        part = partition(ds, ease, 0.5)
        assert np.flatnonzero(part.easy).tolist() == [1, 2, 3]
        assert np.flatnonzero(~part.easy).tolist() == [0]

    def test_theta_zero_takes_all(self):
        ds = small_ds(n=3)
        part = partition(ds, manual_ease([0.0, 0.5, 1.0]), 0.0)
        assert np.flatnonzero(part.easy).tolist() == [0, 1, 2]
        assert np.flatnonzero(~part.easy).size == 0

    def test_theta_above_one_takes_none(self):
        ds = small_ds(n=3)
        part = partition(ds, manual_ease([0.0, 0.5, 1.0]), 1.01)
        assert np.flatnonzero(part.easy).size == 0
        assert np.flatnonzero(~part.easy).tolist() == [0, 1, 2]

    def test_only_one_bool_per_row_is_a_partition(self):
        # one mask puts every row on exactly one side, so a split that leaves
        # a row out or puts it on both sides cannot be built
        ds = small_ds(n=16)
        ratios = np.arange(16) / 16.0
        part = partition(ds, manual_ease(ratios), 0.4375)  # 7/16
        assert part.easy.dtype == bool
        assert np.flatnonzero(part.easy).tolist() == list(range(7, 16))
        given = np.ones(16, dtype=bool)
        kept = SubspacePartition(ds, 0.5, given)
        given[0] = False
        assert kept.easy.all()  # the partition keeps its own copy
        with pytest.raises(ValueError):  # which the routed model shares
            kept.easy[0] = False
        with pytest.raises(LengthMismatch):
            SubspacePartition(ds, 0.5, np.ones(10, dtype=bool))
        with pytest.raises(BadSpec):
            SubspacePartition(ds, 0.5, np.ones(16, dtype=np.int64))
        with pytest.raises(TypeError):  # the old easy and difficult rows
            SubspacePartition(ds, 0.5, np.arange(10), np.arange(0))

    def test_monotone_in_theta(self):
        ds = small_ds(n=16)
        ratios = np.arange(16) / 16.0
        ease = manual_ease(ratios)
        sizes = []
        membership = []
        for theta in np.linspace(0.0, 1.0, 21):
            part = partition(ds, ease, float(theta))
            sizes.append(len(np.flatnonzero(part.easy)))
            membership.append(part.easy)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        flips = sum(
            (a & ~b).astype(int) for a, b in zip(membership, membership[1:])
        )
        assert np.all(flips <= 1)  # easy -> difficult at most once
        regained = any(
            np.any(~a & b) for a, b in zip(membership, membership[1:])
        )
        assert not regained  # never difficult -> easy as theta rises

    def test_validation(self):
        ds = small_ds(n=4)
        with pytest.raises(LengthMismatch):
            partition(ds, manual_ease([0.5, 0.5]), 0.5)
        with pytest.raises(BadSpec):
            partition(ds, manual_ease([0.5] * 4), -0.1)
        with pytest.raises(BadSpec):
            partition(ds, manual_ease([0.5] * 4), 2.5)


class TestFitCpc:
    def test_degenerate_all_easy(self):
        ds = small_ds(n=20)
        part = SubspacePartition(ds, 0.0, easy_mask(20, np.arange(20)))
        model = fit_cpc(part, softmax_spec(seed=3))
        assert model.easy_expert is not None and model.difficult_expert is None

    def test_degenerate_all_difficult(self):
        ds = small_ds(n=20)
        part = SubspacePartition(ds, 1.01, easy_mask(20, np.arange(0)))
        model = fit_cpc(part, softmax_spec(seed=3))
        assert model.easy_expert is None and model.difficult_expert is not None

    def test_empty_partition_rejected(self):
        empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        part = SubspacePartition(empty, 0.5, easy_mask(0, np.arange(0)))
        with pytest.raises(EmptyPartition):
            fit_cpc(part, softmax_spec())

    def test_bad_disc_k(self):
        ds = small_ds(n=10)
        part = SubspacePartition(ds, 0.5, easy_mask(10, np.arange(5)))
        with pytest.raises(BadSpec):
            fit_cpc(part, softmax_spec(), disc_k=0)

    def test_boundary_collapse_matches_baseline(self):
        # degenerate partitions train the lone expert on the full set with
        # the classifier spec exactly as given, so predictions equal the
        # plain classifier's bit for bit
        from cpckit.classifiers import fit

        ds = small_ds(n=40, seed=9)
        probe = np.random.default_rng(10).normal(scale=4.0, size=(30, 3))
        baseline = fit(softmax_spec(seed=4), ds).predict_many(probe)
        for easy in (np.arange(40), np.arange(0)):
            part = SubspacePartition(ds, 0.5, easy_mask(40, easy))
            model = fit_cpc(part, softmax_spec(seed=4))
            routed = [cpc_predict(model, x) for x in probe]
            assert np.array_equal(np.array([r.label for r in routed]), baseline)
            assert all(not np.isfinite(r.discriminator_margin) for r in routed)


def same_expert(a, b):
    """Both absent, or fitted to the same classes and state bit for bit."""
    if a is None or b is None:
        return a is b
    sa, sb = vars(a.state), vars(b.state)
    return (np.array_equal(a.classes_seen, b.classes_seen) and sa.keys() == sb.keys()
            and all(np.array_equal(sa[key], sb[key]) for key in sa))


class TestFitCpcMany:
    def test_matches_lone_fits_with_one_job_per_side(self, monkeypatch):
        import cpckit.classifiers as clf_mod

        A, B = small_ds(n=40, seed=1), small_ds(n=30, seed=2)
        ease_a = manual_ease(np.random.default_rng(1).integers(0, 17, 40) / 16)
        ease_b = manual_ease(np.random.default_rng(2).integers(0, 17, 30) / 16)
        parts = [  # a repeated partition, and all-easy and all-difficult ones
            partition(A, ease_a, 0.5), partition(B, ease_b, 0.5), partition(A, ease_a, 0.5),
            partition(A, ease_a, 0.0), partition(A, ease_a, 1.5), partition(B, ease_b, 1.5),
        ]
        spec = softmax_spec(epochs=30, seed=5)
        jobs = []
        real_fit_many = clf_mod.fit_many

        def spy(specs, datasets):
            jobs.extend(datasets)
            return real_fit_many(specs, datasets)

        monkeypatch.setattr(clf_mod, "fit_many", spy)
        models = fit_cpc_many(parts, spec, 7)
        sides = [(p.dataset, rows) for p in parts
                 for rows in (p.easy, ~p.easy) if rows.any()]
        assert len(jobs) == len(sides) == 9
        for job, (ds, rows) in zip(jobs, sides):
            assert np.array_equal(job.features, ds.features[rows])
        Q = np.random.default_rng(3).normal(scale=4.0, size=(25, 3))
        for part, model in zip(parts, models):
            alone = fit_cpc(part, spec, disc_k=7)
            assert same_expert(model.easy_expert, alone.easy_expert)
            assert same_expert(model.difficult_expert, alone.difficult_expert)
            assert np.array_equal(model.pooled_binary, alone.pooled_binary)
            assert cpc_predict_many(model, Q) == cpc_predict_many(alone, Q)


def routed(model, x):
    """(route, margin) of one query through cpc_predict."""
    r = cpc_predict(model, x)
    return r.route, r.discriminator_margin


class TestDiscriminate:
    def test_unanimous_easy_neighborhood(self):
        _, model = cluster_model()
        route, margin = routed(model, np.array([0.0, 0.0]))
        assert route == ROUTE_EASY and margin == float("inf")

    def test_unanimous_difficult_neighborhood(self):
        _, model = cluster_model()
        route, margin = routed(model, np.array([12.0, 0.0]))
        assert route == ROUTE_DIFFICULT and margin == float("-inf")

    def test_cluster_agreement_on_fresh_queries(self):
        _, model = cluster_model(seed=0)
        rng = np.random.default_rng(42)
        qA = rng.standard_normal((100, 2))
        qB = rng.standard_normal((100, 2)) + np.array([12.0, 0.0])
        routes = [routed(model, q)[0] for q in np.vstack([qA, qB])]
        truth = [ROUTE_EASY] * 100 + [ROUTE_DIFFICULT] * 100
        agreement = float(np.mean([r == t for r, t in zip(routes, truth)]))
        assert agreement >= 0.95

    def mixed_line_model(self, k=6, d=2):
        # alternating subspace membership along a line guarantees any
        # neighborhood of size >= 2 is mixed; columns past two are noise
        noise = np.random.default_rng(8).standard_normal((20, d - 2))
        X = np.column_stack([np.arange(20.0), np.zeros(20), noise])
        y = np.tile([0, 1], 10)
        ds = LabeledDataset(X, y, class_count=2)
        part = SubspacePartition(ds, 0.5, easy_mask(20, np.arange(0, 20, 2)))
        return fit_cpc(part, knn_spec(k=1), disc_k=k)

    def test_mixed_neighborhood_fits_local_softmax(self):
        model = self.mixed_line_model()
        route, margin = routed(model, np.array([9.5, 0.0]))
        assert route in (ROUTE_EASY, ROUTE_DIFFICULT)
        assert np.isfinite(margin)

    def test_margin_sign_matches_route(self):
        model = self.mixed_line_model()
        for qx in (3.2, 9.5, 14.8):
            route, margin = routed(model, np.array([qx, 0.0]))
            if margin > 0:
                assert route == ROUTE_EASY
            elif margin < 0:
                assert route == ROUTE_DIFFICULT

    def test_deterministic_per_query(self):
        model = self.mixed_line_model()
        q = np.array([7.3, 0.0])
        assert routed(model, q) == routed(model, q)

    def test_dim_mismatch(self):
        _, model = cluster_model()
        with pytest.raises(DimMismatch):
            routed(model, np.zeros(3))


class TestCpcPredict:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_query(self, value):
        ds, split = cluster_model()
        lone = fit_cpc(SubspacePartition(ds, 0.0, easy_mask(ds.n, np.arange(ds.n))), softmax_spec())
        Q = np.zeros((3, 2))
        Q[1, 0] = value
        for model in (split, lone):
            with pytest.raises(NonFinite, match="row 1, column 0"):
                cpc_predict_many(model, Q)
            with pytest.raises(NonFinite):
                cpc_predict(model, Q[1])

    def test_unanimous_routes_do_not_depend_on_scale(self):
        # the README fixture times 2^-600, where every squared distance
        # underflows: each query whose 25 neighbours all fell on one side
        # routes there as unscaled. A mixed one need not: the discriminator's
        # l2 and step size are not scale-free
        from cpckit.classifiers import forest_spec

        train = generate_two_regime(400, 400, 4, 8, 6.0, 0.8, seed=0)
        test = generate_two_regime(200, 200, 4, 8, 6.0, 0.8, seed=1).features
        cfg = CpcConfig(base_spec=forest_spec(tree_count=20), expert_spec=forest_spec(tree_count=20))
        margins = []
        for s in (0, -600):
            tiny = LabeledDataset(np.ldexp(train.features, s), train.labels, 4)
            margins.append([r.discriminator_margin
                            for r in cpc_predict_many(train_cpc(tiny, cfg), np.ldexp(test, s))])
        unanimous = [(a, b) for a, b in zip(*margins) if np.isinf(a)]
        assert len(unanimous) == 191
        assert all(a == b for a, b in unanimous)

    def test_routed_label_comes_from_routed_expert(self):
        ds, model = cluster_model()
        rng = np.random.default_rng(3)
        for q in rng.standard_normal((20, 2)) * 3.0:
            r = cpc_predict(model, q)
            expert = (
                model.easy_expert if r.route == ROUTE_EASY else model.difficult_expert
            )
            assert r.label == expert.predict_many(q[None, :])[0]

    @pytest.mark.parametrize("which", ["mixed_line", "clusters"])
    def test_batched_routing_matches_per_query_fits(self, which):
        # reference: the discriminator fitted query by query through the
        # classifier API on each query's k nearest pooled points
        from cpckit.classifiers import _nearest_indices

        rng = np.random.default_rng(6)
        if which == "mixed_line":
            model = TestDiscriminate().mixed_line_model()
            Q = np.column_stack([rng.uniform(-2.0, 21.0, 40), rng.normal(size=40)])
        else:
            _, model = cluster_model()
            Q = rng.standard_normal((60, 2)) * 4.0 + np.array([6.0, 0.0])
        many = cpc_predict_many(model, Q)
        finite = 0
        for q, r in zip(Q, many):
            idx = _nearest_indices(model.pooled_features, q, model.discriminator_k)
            nb = model.pooled_binary[idx]
            if nb.min() == nb.max():
                want_route = ROUTE_EASY if nb[0] == 1 else ROUTE_DIFFICULT
                assert r.discriminator_margin == (
                    float("inf") if nb[0] == 1 else float("-inf")
                )
            else:
                local = LabeledDataset(model.pooled_features[idx], nb, 2)
                disc = fit(ClassifierSpec("softmax", replace(DEFAULT_DISC, batch_size=len(idx))),
                           local)
                s = disc.decision_scores(q[None, :])[0]
                easy = disc.predict_many(q[None, :])[0] == 1
                want_route = ROUTE_EASY if easy else ROUTE_DIFFICULT
                assert abs(r.discriminator_margin - (s[1] - s[0])) <= 1e-12
                finite += 1
            expert = (
                model.easy_expert if want_route == ROUTE_EASY
                else model.difficult_expert
            )
            assert r.route == want_route
            assert r.label == expert.predict_many(q[None, :])[0]
        assert finite > 0

    @given(
        seed=st.integers(0, 2**32 - 1),
        Q=st.integers(1, 4),
        k=st.integers(2, 30),
        d=st.one_of(st.integers(1, 9), st.integers(10, 60)),
        scale=st.floats(0.1, 5.0),
        epochs=st.sampled_from([DEFAULT_DISC.epochs, 7]),
    )
    @example(seed=0, Q=1, k=9, d=4, scale=1.0, epochs=7)  # a lone query's 2-D products
    @example(seed=1, Q=3, k=9, d=4, scale=1.0, epochs=7)
    @example(seed=2, Q=1, k=6, d=20, scale=1.0, epochs=7)  # the span state
    @example(seed=3, Q=3, k=6, d=20, scale=1.0, epochs=7)
    @settings(max_examples=60, deadline=None)
    def test_stacked_margins_match_per_query_softmax(self, seed, Q, k, d, scale, epochs):
        # random mixed neighbourhoods, each refitted alone as a binary
        # softmax through the classifier API; d > k solves in the k + 1
        # neighbour coefficients instead of the d + 1 weights. The solve
        # runs two epochs a pass, so an odd count must end on one more
        import cpckit.cpc as cpc_mod

        rng = np.random.default_rng(seed)
        P = rng.standard_normal((Q, k, d)) * scale
        y = rng.permuted(np.tile(np.arange(k) % 2, (Q, 1)), axis=1)
        X = rng.standard_normal((Q, d)) * scale
        params = replace(DEFAULT_DISC, epochs=epochs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cpc_mod, "DEFAULT_DISC", params)
            margins = cpc_mod._discriminator_margins(P, y, X)
        full_batch = ClassifierSpec("softmax", replace(params, batch_size=k))
        for q in range(Q):
            disc = fit(full_batch, LabeledDataset(P[q], y[q], 2))
            s = disc.decision_scores(X[q][None, :])[0]
            assert (margins[q] > 0) == (disc.predict_many(X[q][None, :])[0] == 1)
            assert abs(margins[q] - (s[1] - s[0])) <= 1e-12

    @pytest.mark.parametrize("scale", [1e200, 1e250, 1e300])
    def test_diverging_discriminator_raises(self, scale):
        # on features this large the per-query fits leave the finite range;
        # routing on NaN margins would send every such query to the
        # difficult expert. knn members and experts have no SGD to diverge.
        def huge(ds):
            return LabeledDataset(ds.features * scale, ds.labels, ds.class_count)

        train = huge(generate_two_regime(100, 100, 4, 8, 6.0, 0.8, seed=3))
        test = huge(generate_two_regime(50, 50, 4, 8, 6.0, 0.8, seed=4))
        cfg = CpcConfig(base_spec=knn_spec(k=1), expert_spec=knn_spec(k=3), seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            model = train_cpc(train, cfg)
            with pytest.raises(Divergence) as err:
                cpc_predict_many(model, test.features)
        assert err.value.loss is None
        assert "loss" not in str(err.value)

    @pytest.mark.parametrize("Q", [1, 2])
    def test_diverging_wide_discriminator_raises(self, Q):
        # d > k: the neighbour Gram matrix overflows before any weight does;
        # one query alone runs the 2-D products and must fail the same way
        from cpckit.cpc import _discriminator_margins

        rng = np.random.default_rng(0)
        P = rng.standard_normal((Q, 5, 40)) * 1e200
        y = np.tile([0, 1, 0, 1, 1], (Q, 1))
        with pytest.raises(Divergence) as err:
            _discriminator_margins(P, y, rng.standard_normal((Q, 40)))
        assert err.value.loss is None

    @pytest.mark.parametrize("Q, d", [(1, 784), (24, 784), (1, 8000)])
    def test_wide_solve_memory_stays_near_its_input(self, Q, d):
        # d > k = 25: the state is the k + 1 span coefficients, so the step
        # matrices are (k + 1) wide and the solve's peak stays near its
        # input; dense (d + 1)-wide step matrices would break this bound
        # more than a hundredfold. numpy reports its allocations to
        # tracemalloc, so the peak is exact where a timing is not.
        from cpckit.cpc import _discriminator_margins

        rng = np.random.default_rng(0)
        P = rng.standard_normal((Q, 25, d))
        y = rng.permuted(np.tile(np.arange(25) % 2, (Q, 1)), axis=1)
        X = rng.standard_normal((Q, d))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _discriminator_margins(P, y, X)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (P.nbytes + y.nbytes + X.nbytes)

    def test_diverging_one_query_raises(self):
        # weight state (d <= k), one query through cpc_predict
        line = TestDiscriminate().mixed_line_model()
        model = replace(line, pooled_features=line.pooled_features * 1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Divergence) as err:
                cpc_predict(model, [9.5e300, 0.0])
        assert err.value.loss is None

    @pytest.mark.parametrize("d", [2, 12], ids=["weights", "span"])
    def test_chunked_discriminator_solve_is_exact(self, monkeypatch, d):
        # one-query solves run on 2-D products; they equal the stacked
        # solve bit for bit, in the weight state (d <= k) and the span state
        import cpckit.cpc as cpc_mod

        model = TestDiscriminate().mixed_line_model(d=d)
        noise = np.random.default_rng(9).standard_normal((30, d - 2))
        Q = np.column_stack([np.linspace(-1.0, 20.0, 30), np.zeros(30), noise])
        whole = cpc_predict_many(model, Q)
        assert np.isfinite([r.discriminator_margin for r in whole]).all()
        monkeypatch.setattr(cpc_mod, "_SOLVE_BYTES", 1)  # one problem per solve
        assert cpc_predict_many(model, Q) == whole

    @pytest.mark.parametrize("d", [2, 12], ids=["weights", "span"])
    def test_chunked_discriminator_solve_is_exact_at_an_odd_epoch_count(self, monkeypatch, d):
        # two epochs a pass: the lone and the stacked loops end on the same
        # trailing epoch, and differ from the even count's margins
        import cpckit.cpc as cpc_mod

        model = TestDiscriminate().mixed_line_model(d=d)
        Q = np.column_stack([np.linspace(-1.0, 20.0, 30), np.zeros((30, d - 1))])
        even = cpc_predict_many(model, Q)
        monkeypatch.setattr(cpc_mod, "DEFAULT_DISC", replace(DEFAULT_DISC, epochs=7))
        odd = [r.discriminator_margin for r in cpc_predict_many(model, Q)]
        assert odd != [r.discriminator_margin for r in even]
        self.test_chunked_discriminator_solve_is_exact(monkeypatch, d)

    def test_grid_solves_each_distinct_problem_once(self, monkeypatch):
        # splits at nearby thresholds give many queries the same neighbour
        # labels; each (query, labels) problem is fitted once for the grid
        import cpckit.cpc as cpc_mod
        from cpckit.classifiers import _nearest_indices

        ds = small_ds(n=60, d=2, C=3, seed=6)
        ease = manual_ease(np.random.default_rng(6).integers(0, 17, 60) / 16)
        models = [fit_cpc(partition(ds, ease, theta), knn_spec(k=3), disc_k=7)
                  for theta in (0.3, 0.35, 0.55, 0.6)]
        Q = np.random.default_rng(7).standard_normal((40, 2)) * 4.0
        want = set()
        for model in models:
            for i, q in enumerate(Q):
                nb = model.pooled_binary[_nearest_indices(ds.features, q, 7)]
                if nb.min() != nb.max():
                    want.add((i, nb.astype(bool).tobytes()))
        seen = []
        real = cpc_mod._discriminator_margins

        def spy(P, y, X):
            rows = [np.flatnonzero((Q == x).all(axis=1)) for x in X]
            seen.extend((int(r[0]), labels.tobytes()) for r, labels in zip(rows, y))
            return real(P, y, X)

        force_cpus(monkeypatch, 1)  # the spy sees this process only
        monkeypatch.setattr(cpc_mod, "_discriminator_margins", spy)
        margins, _ = cpc_predict_grid(models, Q)
        assert sorted(seen) == sorted(want)
        mixed_pairs = np.isfinite(margins).sum()
        assert len(want) < mixed_pairs  # the grid repeats problems
        monkeypatch.setattr(cpc_mod, "_discriminator_margins", real)
        for model, m_row in zip(models, margins):
            alone = [r.discriminator_margin for r in cpc_predict_many(model, Q)]
            assert m_row.tobytes() == np.array(alone).tobytes()

    def test_grid_routing_matches_each_model(self):
        # one neighbour search and one stacked solve for several splits of
        # the same pooled points, degenerate ones included
        ds = small_ds(n=60, d=2, C=3, seed=6)
        ease = manual_ease(np.random.default_rng(6).integers(0, 17, 60) / 16)
        models = [
            fit_cpc(partition(ds, ease, theta), knn_spec(k=3), disc_k=7)
            for theta in (0.0, 0.3, 0.55, 0.8, 1.5)
        ]
        assert models[0].difficult_expert is None and models[4].easy_expert is None
        Q = np.random.default_rng(7).standard_normal((40, 2)) * 4.0
        margins, labels = cpc_predict_grid(models, Q)
        assert np.isfinite(margins).any()
        for model, m_row, l_row in zip(models, margins, labels):
            alone = cpc_predict_many(model, Q)
            assert m_row.tolist() == [r.discriminator_margin for r in alone]
            assert l_row.tolist() == [r.label for r in alone]
        real_unique = np.unique

        def unique_2d_inverse(*args, **kwargs):  # what numpy 2.0.0 returns
            *rest, inverse = real_unique(*args, **kwargs)
            return (*rest, inverse.reshape(-1, 1))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "unique", unique_2d_inverse)
            assert cpc_predict_grid(models, Q)[0].tobytes() == margins.tobytes()
        other = fit_cpc(partition(take(ds, np.arange(60)), ease, 0.5), knn_spec(k=3), disc_k=7)
        with pytest.raises(BadSpec):
            cpc_predict_grid([models[1], other], Q)

    def test_grid_refuses_an_empty_model_list(self):
        with pytest.raises(BadSpec, match="no models"):
            cpc_predict_grid([], np.zeros((3, 2)))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        Q=st.integers(1, 12),
        disc_k=st.integers(1, 40),
        thetas=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5]),
                        min_size=1, max_size=4, unique=True),
        duplicates=st.booleans(),
        expert=st.sampled_from(["knn", "softmax"]),
    )
    @example(seed=0, n=12, Q=8, disc_k=40, thetas=[0.0, 0.5, 1.5], duplicates=True,
             expert="knn")  # one-sided partitions, k above n, repeated rows
    @settings(max_examples=40, deadline=None)
    def test_scored_hits_match_grid_labels(self, seed, n, Q, disc_k, thetas, duplicates, expert):
        # scoring solves only the mixed pairs where exactly one expert is
        # right; every model's count of right answers is still the grid's
        from cpckit.cpc import _route_rows

        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 2)) * 3.0
        queries = rng.standard_normal((Q, 2)) * 3.0
        if duplicates:  # repeated training rows, and queries on training rows
            X[n // 2 :] = X[: n - n // 2]
            queries[: Q // 2] = X[rng.integers(0, n, Q // 2)]
        ds = LabeledDataset(X, rng.permutation(np.arange(n) % 2), 2)
        ease = manual_ease(rng.integers(0, 5, n) / 4)
        spec = knn_spec(k=3) if expert == "knn" else softmax_spec(epochs=5, seed=1)
        models = fit_cpc_many([partition(ds, ease, t) for t in thetas], spec, disc_k)
        y = rng.integers(0, 2, Q)
        hits = _route_rows(queries, models, y)
        assert hits.tolist() == (cpc_predict_grid(models, queries)[1] == y).sum(axis=1).tolist()

    def test_predict_many_matches_scalar(self):
        _, model = cluster_model()
        Q = np.random.default_rng(4).standard_normal((10, 2)) * 5.0
        many = cpc_predict_many(model, Q)
        singles = [cpc_predict(model, q) for q in Q]
        assert [r.label for r in many] == [r.label for r in singles]
        assert [r.route for r in many] == [r.route for r in singles]


class TestRoutingInShares:
    """A batch of queries routes in contiguous shares, one per usable CPU;
    its margins, labels and failures are those of a one-CPU run."""

    @pytest.mark.parametrize("Q", [1, 2, 3, 40])
    def test_answers_match_one_cpu(self, monkeypatch, Q):
        ds = small_ds(n=60, d=2, C=3, seed=6)
        ease = manual_ease(np.random.default_rng(6).integers(0, 17, 60) / 16)
        models = [fit_cpc(partition(ds, ease, theta), knn_spec(k=3), disc_k=7)
                  for theta in (0.0, 0.3, 0.55, 1.5)]
        X = np.random.default_rng(7).standard_normal((Q, 2)) * 4.0
        got = {}
        for cpus in (1, 2, 3, 4):  # Q = 2 and 3 run fewer shares than CPUs
            force_cpus(monkeypatch, cpus)
            margins, labels = cpc_predict_grid(models, X)
            many = cpc_predict_many(models[1], X)
            got[cpus] = (margins.tobytes(), labels.tolist(),
                         np.array([r.discriminator_margin for r in many]).tobytes(),
                         [(r.route, r.label) for r in many])
            assert not multiprocessing.active_children()
        assert np.isfinite(margins).any()
        assert all(got[cpus] == got[1] for cpus in got)

    def test_lone_query_bypasses_the_shares(self, monkeypatch):
        import cpckit.cpc as cpc_mod

        _, model = cluster_model()
        want = cpc_predict(model, [6.0, 0.0])
        monkeypatch.setattr(cpc_mod, "_run_shares", None)
        assert cpc_predict(model, [6.0, 0.0]) == want
        assert np.isfinite(want.discriminator_margin)

    def test_divergence_in_a_worker_raises_as_on_one_cpu(self, monkeypatch):
        # unanimous queries route without a solve; the last one, in the last
        # share, has a mixed neighbourhood whose solve overflows
        _, model = cluster_model()
        big = replace(model, pooled_features=model.pooled_features * 1e300)
        X = np.array([[0.0, 0.0], [0.5, 0.5], [12.0, 0.0], [11.0, 1.0], [6.0, 0.0]]) * 1e300
        errors = {}
        for cpus in (1, 2, 3, 4):
            force_cpus(monkeypatch, cpus)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(Divergence) as err:
                    cpc_predict_many(big, X)
            errors[cpus] = (str(err.value), err.value.epoch, err.value.loss)
            assert not multiprocessing.active_children()
        assert all(errors[cpus] == errors[1] for cpus in errors)

    def test_a_threaded_caller_never_forks(self, monkeypatch):
        # a fork copies no other thread, so one holding a lock would leave it
        # held in the worker; with a second Python thread alive, this process
        # runs every share itself
        starts, real_start = [], multiprocessing.process.BaseProcess.start
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            lambda proc: starts.append(proc) or real_start(proc))
        ds = small_ds(n=60, d=2, C=3, seed=6)
        ease = manual_ease(np.random.default_rng(6).integers(0, 17, 60) / 16)
        model = fit_cpc(partition(ds, ease, 0.3), knn_spec(k=3), disc_k=7)
        X = np.random.default_rng(7).standard_normal((40, 2)) * 4.0
        spec = softmax_spec(epochs=20)
        cfg = CpcConfig(base_spec=spec, expert_spec=spec, disc_k=9)
        train = generate_two_regime(60, 60, 3, 4, 6.0, 0.8, seed=4)
        val = generate_two_regime(30, 30, 3, 4, 6.0, 0.8, seed=104)

        def answers():
            return cpc_predict_many(model, X), theta_sweep(train, val, [0.2, 0.5, 0.8], cfg)

        force_cpus(monkeypatch, 1)
        want = answers()
        force_cpus(monkeypatch, 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            got = answers()
        finally:
            stop.set()
            thread.join()
        assert starts == []
        assert got == want
        assert np.isfinite([r.discriminator_margin for r in got[0]]).any()

    def test_a_share_never_forks_again(self, monkeypatch, tmp_path):
        # cv in cpc mode routes each fold's test rows inside its share: on 4
        # CPUs 5 folds run as 4 shares, and only this process starts workers
        starts, real_start = tmp_path / "starts", multiprocessing.process.BaseProcess.start

        def spy(proc):
            with open(starts, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real_start(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", spy)
        force_cpus(monkeypatch, 4)
        spec = softmax_spec(epochs=5)
        cfg = PipelineConfig(CpcConfig(base_spec=spec, expert_spec=spec, disc_k=5))
        report = cross_validate(generate_two_regime(40, 40, 3, 4, 6.0, 0.8, seed=2), cfg)
        assert all(fold["routes"] is not None for fold in report["folds"])
        assert starts.read_text().split() == [str(os.getpid())] * 3
        assert not multiprocessing.active_children()


class TestTrainCpc:
    def test_end_to_end_on_two_regimes(self):
        train = generate_two_regime(100, 100, 4, 8, 6.0, 0.8, seed=3)
        cfg = CpcConfig(
            base_spec=softmax_spec(epochs=30, seed=0),
            expert_spec=softmax_spec(seed=0),
            theta=0.5,
            seed=0,
        )
        model = train_cpc(train, cfg)
        assert model.theta == 0.5
        assert model.easy_expert is not None and model.difficult_expert is not None
        preds = cpc_predict_many(model, train.features[:20])
        assert len(preds) == 20

    @pytest.mark.parametrize("bad", [{"ease_mode": "nope"}, {"fold_training": "bogus"}],
                             ids=["ease-mode", "fold-training"])
    def test_bad_mode_refused_when_built(self, monkeypatch, bad):
        # a bad ease_mode built, and train_cpc ran all 15 ensemble fits
        # before compute_ease refused it
        import cpckit.classifiers as clf_mod

        fits = []
        real_fit_many = clf_mod.fit_many

        def spy(specs, datasets):
            fits.append(len(specs))
            return real_fit_many(specs, datasets)

        monkeypatch.setattr(clf_mod, "fit_many", spy)
        train = generate_two_regime(40, 40, 4, 8, 6.0, 0.8, seed=3)

        def build():
            return CpcConfig(base_spec=softmax_spec(epochs=5, seed=0),
                             expert_spec=softmax_spec(seed=0), **bad)

        with pytest.raises(BadSpec, match="unknown"):
            build()
        with pytest.raises(BadSpec, match="unknown"):
            train_cpc(train, build())
        assert fits == []

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", None], ids=["negative", "fraction", "str", "none"])
    def test_bad_seed_refused_when_built(self, seed):
        # it built, and train_cpc raised numpy's bare ValueError or TypeError
        with pytest.raises(BadSpec, match="non-negative integer"):
            CpcConfig(base_spec=knn_spec(), expert_spec=knn_spec(), seed=seed)

    def test_integer_seeds_are_taken(self):
        for seed in (np.int64(3), np.uint32(2**32 - 1), True, 0):
            assert CpcConfig(base_spec=knn_spec(), expert_spec=knn_spec(), seed=seed).seed is seed

    @pytest.mark.parametrize("field", ["repetitions", "disc_k"])
    @pytest.mark.parametrize("value", [1.5, 2.0, "3"])
    def test_non_integer_counts_refused_when_built(self, field, value):
        # they built, then training or routing raised a bare TypeError
        with pytest.raises(BadSpec, match=f"{field}=.* must be an integer"):
            CpcConfig(base_spec=knn_spec(), expert_spec=knn_spec(), **{field: value})

    @pytest.mark.parametrize("field", ["repetitions", "disc_k"])
    def test_integer_counts_are_taken(self, field):
        for value in (np.int64(3), np.uint8(2), 3):
            cfg = CpcConfig(base_spec=knn_spec(), expert_spec=knn_spec(), **{field: value})
            assert getattr(cfg, field) is value

    def test_non_integer_counts_refused_by_the_stages(self):
        ds = small_ds()
        with pytest.raises(BadSpec, match="m=1.5"):
            train_base_ensemble(ds, 5, 1.5, knn_spec())
        part = SubspacePartition(ds, 0.5, easy_mask(ds.n, np.arange(10)))
        with pytest.raises(BadSpec, match="disc_k=2.5"):
            fit_cpc(part, knn_spec(), disc_k=2.5)

    def test_ease_scores_separate_the_regimes(self):
        train = generate_two_regime(100, 100, 4, 8, 6.0, 0.8, seed=3)
        ens = train_base_ensemble(train, 5, 3, softmax_spec(seed=0), seed=0)
        ease = compute_ease(ens)
        tags = np.array(train.regime_tags)
        easy_mean = float(ease.ratios[tags == EASY_TAG].mean())
        hard_mean = float(ease.ratios[tags != EASY_TAG].mean())
        assert easy_mean > hard_mean + 0.2
