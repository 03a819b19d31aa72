"""Confusion algebra, reports, the pipeline, cross-validation, sweeps."""

import json
from dataclasses import replace

import numpy as np
import pytest

import cpckit.classifiers as clf_mod
from cpckit.classifiers import ClassifierSpec, forest_spec, knn_spec, softmax_spec
from cpckit.cpc import (
    CpcConfig,
    compute_ease,
    cpc_predict_many,
    fit_cpc,
    partition,
    train_base_ensemble,
    train_cpc,
)
from cpckit.dataset import LabeledDataset, generate_two_regime, kfold, take
from cpckit.errors import (
    BadK,
    BadSpec,
    ConfigError,
    DimMismatch,
    EmptyDataset,
    LabelOutOfRange,
    LengthMismatch,
)
from cpckit.harness import (
    ExtractorConfig,
    PipelineConfig,
    PreprocessConfig,
    confusion,
    cross_validate,
    evaluate,
    run_pipeline,
    theta_sweep,
    write_report,
    write_sweep_curve,
)
from cpckit.mlp import TrainConfig, build_mlp, extract_features, parse_arch, train
from cpckit.preprocess import apply_whitening, fit_zca, normalize_samples

from conftest import force_cpus


def blobs(n=100, d=2, C=4, seed=0, margin=8.0):
    rng = np.random.default_rng(seed)
    ang = 2 * np.pi * np.arange(C) / C
    r = margin / (2 * np.sin(np.pi / C))
    centers = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    labels = np.arange(n) % C
    feats = rng.standard_normal((n, d)) + centers[labels]
    return LabeledDataset(feats, labels, C)


class TestConfusion:
    def test_counts_against_manual_tally(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 4, size=200)
        preds = rng.integers(0, 4, size=200)
        counts = confusion(preds, truth, 4)
        manual = np.zeros((4, 4), dtype=np.int64)
        for p, t in zip(preds, truth):
            manual[t, p] += 1
        assert np.array_equal(counts, manual)

    def test_row_sums_are_truth_counts(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 3, size=150)
        preds = rng.integers(0, 3, size=150)
        counts = confusion(preds, truth, 3)
        assert np.array_equal(counts.sum(axis=1), np.bincount(truth, minlength=3))

    def test_trace_over_n_is_accuracy(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 5, size=137)
        preds = rng.integers(0, 5, size=137)
        rep = evaluate(preds, truth, 5)
        direct = float(np.mean(preds == truth))
        assert abs(rep["accuracy"] - direct) <= 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 4, size=120)
        preds = rng.integers(0, 4, size=120)
        base = confusion(preds, truth, 4)
        for _ in range(10):
            perm = rng.permutation(4)
            relabeled = confusion(perm[preds], perm[truth], 4)
            assert np.array_equal(relabeled[np.ix_(perm, perm)], base)

    def test_per_class_none_for_absent_class(self):
        per = evaluate([0, 0, 2], [0, 0, 2], 3)["per_class"]
        assert per[0] == 1.0 and per[1] is None and per[2] == 1.0

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            confusion([0, 1], [0], 2)
        with pytest.raises(LengthMismatch):
            confusion([], [], 2)
        with pytest.raises(LabelOutOfRange):
            confusion([0, 2], [0, 1], 2)
        with pytest.raises(LabelOutOfRange):
            confusion([0, -1], [0, 1], 2)

    def test_refuses_values_that_are_not_whole_numbers(self):
        for preds, truth in (([0.5, 1.7], [0, 1]), ([0, 1], [0, np.nan]), ([np.inf, 0], [1, 0])):
            with pytest.raises(BadSpec, match="whole numbers"):
                confusion(preds, truth, 2)
        assert confusion([1.0, 0.0], [1, 0], 2).tolist() == [[1, 0], [0, 1]]


class TestEvaluate:
    # every form of a "+"/"-" sequence; a str must not become one 0-d array
    @pytest.mark.parametrize("routes", [["+", "+", "-", "-", "-"], ("+", "+", "-", "-", "-"),
                                        "++---", np.array(["+", "+", "-", "-", "-"])])
    def test_route_stats(self, routes):
        preds = [0, 1, 1, 0, 1]
        truth = [0, 1, 0, 0, 0]
        rep = evaluate(preds, truth, 2, routes=routes)
        assert rep["routes"] == {
            "+": 2,
            "-": 3,
            "acc+": 1.0,
            "acc-": pytest.approx(1 / 3),
        }

    def test_unused_route_has_none_accuracy(self):
        rep = evaluate([0, 1], [0, 1], 2, routes=["+", "+"])
        assert rep["routes"]["-"] == 0
        assert rep["routes"]["acc-"] is None

    @pytest.mark.parametrize("routes", [["+"], "+"])
    def test_routes_length_checked(self, routes):
        with pytest.raises(LengthMismatch):
            evaluate([0, 1], [0, 1], 2, routes=routes)

    # each was counted as "-" where it was not "+"
    @pytest.mark.parametrize("routes, first", [(np.array([True, False]), "True"),
                                               (["+", "x"], "x"),
                                               (["easy", "difficult"], "easy"),
                                               ("+ ", " ")])
    def test_routes_other_than_plus_and_minus_are_refused(self, routes, first):
        with pytest.raises(BadSpec, match=f"not '{first}'"):
            evaluate([0, 1], [0, 1], 2, routes=routes)

    def test_no_routes_no_stats(self):
        rep = evaluate([0, 1], [0, 1], 2)
        assert rep["routes"] is None

    def test_config_and_seed_echoed(self):
        rep = evaluate([0], [0], 1, config={"k": 5}, seed=77)
        assert rep["config"] == {"k": 5}
        assert rep["seed"] == 77


class TestReportJson:
    def test_schema_keys(self):
        obj = evaluate([0, 1], [0, 1], 2, routes=["+", "-"], seed=3)
        assert set(obj) == {"accuracy", "per_class", "confusion", "routes", "config", "seed"}
        assert obj["accuracy"] == 1.0
        assert obj["confusion"] == [[1, 0], [0, 1]]

    def test_write_is_byte_deterministic(self, tmp_path):
        rep = evaluate([0, 1, 1], [0, 1, 0], 2, config={"b": 1, "a": 2}, seed=1)
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(rep, p1)
        write_report(rep, p2)
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        assert b1.endswith(b"\n")
        assert json.loads(b1)["seed"] == 1

    def test_null_per_class_survives_json(self):
        rep = evaluate([0, 0], [0, 0], 2)
        text = json.dumps(rep)
        assert json.loads(text)["per_class"] == [1.0, None]


class TestPipeline:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig("ensemble")
        with pytest.raises(ConfigError):
            PipelineConfig(None)
        spec = knn_spec()
        for bad in ({"k_folds": 1}, {"repetitions": 0}, {"disc_k": 0}, {"theta": 3.0}):
            with pytest.raises(ConfigError):
                CpcConfig(base_spec=spec, expert_spec=spec, **bad)
        for epsilon in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                PreprocessConfig(zca=False, epsilon=epsilon)
        # arches refused without data: a bad token, a zero width, one class,
        # an add block whose width is not its input's, no input
        for arch in ("in:8 bogus:4 head:4", "in:8 fc:0 head:4", "in:8 fc:4 head:1",
                     "in:8 add:4 head:4", "in:0 fc:4 head:4"):
            with pytest.raises(ConfigError):
                ExtractorConfig(arch)

    def test_baseline_with_preprocessing(self):
        train = blobs(seed=0)
        test = blobs(seed=1)
        cfg = PipelineConfig(knn_spec(k=3), preprocess=PreprocessConfig(zca=True))
        [(preds, routes)] = run_pipeline([(train, test)], cfg)
        assert routes is None
        assert float(np.mean(preds == test.labels)) >= 0.95

    def test_extractor_arch_must_match_data(self):
        train = blobs(seed=2)
        test = blobs(seed=3)
        bad_width = PipelineConfig(knn_spec(), extractor=ExtractorConfig(arch="in:5 fc:8 head:4"))
        with pytest.raises(ConfigError):
            run_pipeline([(train, test)], bad_width)
        bad_head = PipelineConfig(knn_spec(), extractor=ExtractorConfig(arch="in:2 fc:8 head:3"))
        with pytest.raises(ConfigError):
            run_pipeline([(train, test)], bad_head)

    def test_extractor_feeds_classifier(self):
        train = blobs(seed=4)
        test = blobs(seed=5)
        cfg = PipelineConfig(
            knn_spec(k=3),
            extractor=ExtractorConfig(
                arch="in:2 concat:8 head:4",
                train=TrainConfig(epochs=15, dropout=0.0, seed=0),
            ),
        )
        [(preds, _)] = run_pipeline([(train, test)], cfg)
        assert float(np.mean(preds == test.labels)) >= 0.9

    def test_cpc_mode_returns_routes(self):
        train = blobs(n=60, seed=6)
        test = blobs(n=20, seed=7)
        cpc_cfg = CpcConfig(
            base_spec=knn_spec(k=1), expert_spec=knn_spec(k=3), theta=0.5, disc_k=5
        )
        cfg = PipelineConfig(cpc_cfg)
        [(preds, routes)] = run_pipeline([(train, test)], cfg)
        assert len(routes) == test.n
        assert set(routes) <= {"+", "-"}

    def test_modes_match_fit_and_train_cpc(self):
        # baseline mode gives fit's answers; cpc mode, with the spec as both
        # base and expert learner, those of train_cpc and cpc_predict_many
        train = generate_two_regime(60, 60, 3, 4, 6.0, 0.8, seed=4)
        test = generate_two_regime(30, 30, 3, 4, 6.0, 0.8, seed=5)
        specs = [softmax_spec(epochs=30, seed=0), knn_spec(k=3)]
        for theta in (0.4, 0.8):
            cfg = CpcConfig(base_spec=specs[0], expert_spec=specs[0], theta=theta, disc_k=5,
                            seed=0)
            for spec in specs:
                [(base, _)] = run_pipeline([(train, test)], PipelineConfig(spec))
                routed_cfg = replace(cfg, base_spec=spec, expert_spec=spec)
                [(routed, _)] = run_pipeline([(train, test)], PipelineConfig(routed_cfg))
                got = float(np.mean(base == test.labels)), float(np.mean(routed == test.labels))
                assert got == _ref_accuracies(train, test, spec, cfg)


def _ref_accuracies(train, test, spec, cfg):
    """Baseline and routed accuracies of spec, from fit, train_cpc and
    cpc_predict_many."""
    base = clf_mod.fit(spec, train).predict_many(test.features)
    model = train_cpc(train, replace(cfg, base_spec=spec, expert_spec=spec))
    routed = np.array([r.label for r in cpc_predict_many(model, test.features)])
    return float(np.mean(base == test.labels)), float(np.mean(routed == test.labels))


class TestCrossValidate:
    def test_mean_is_arithmetic_mean_and_samples_partition(self):
        ds = blobs(n=83, seed=8)
        cfg = PipelineConfig(knn_spec(k=3))
        res = cross_validate(ds, cfg, folds=5, seed=0)
        accs = [r["accuracy"] for r in res["folds"]]
        assert abs(res["mean_accuracy"] - sum(accs) / len(accs)) <= 1e-12
        assert abs(res["std_accuracy"] - float(np.std(accs))) <= 1e-12
        tested = sum(int(np.sum(r["confusion"])) for r in res["folds"])
        assert tested == ds.n

    def test_fold_count_must_be_an_integer(self):
        # cross_validate raised a bare TypeError, and CpcConfig built
        ds = blobs(n=20, seed=9)
        with pytest.raises(BadK):
            cross_validate(ds, PipelineConfig(knn_spec(k=1)), folds=2.5)
        with pytest.raises(BadK):
            CpcConfig(base_spec=knn_spec(), expert_spec=knn_spec(), k_folds=2.5)
        assert CpcConfig(base_spec=knn_spec(), expert_spec=knn_spec(), k_folds=np.int64(3))

    def test_fold_config_recorded(self):
        ds = blobs(n=40, seed=9)
        cfg = PipelineConfig(knn_spec(k=1))
        res = cross_validate(ds, cfg, folds=4, seed=1)
        assert [r["config"]["fold"] for r in res["folds"]] == [0, 1, 2, 3]

    def test_cpc_mode(self):
        ds = blobs(n=50, seed=10)
        cpc_cfg = CpcConfig(
            base_spec=knn_spec(k=1), expert_spec=knn_spec(k=3), theta=0.5, disc_k=5
        )
        cfg = PipelineConfig(cpc_cfg)
        res = cross_validate(ds, cfg, folds=3, seed=2)
        assert all(r["routes"] is not None for r in res["folds"])


def _ref_cross_validate(ds, cfg, folds, seed):
    """cross_validate as one whole pipeline per fold, preprocessing to
    prediction, kept only as a reference for the stage-by-stage run."""
    fold_of = kfold(ds, folds, seed=seed)
    reports = []
    for f in range(folds):
        train_ds = take(ds, np.flatnonzero(fold_of != f))
        test_ds = take(ds, np.flatnonzero(fold_of == f))
        truth = test_ds.labels
        if cfg.preprocess.normalize:
            train_ds = normalize_samples(train_ds)
            test_ds = normalize_samples(test_ds)
        if cfg.preprocess.zca:
            t = fit_zca(train_ds, cfg.preprocess.epsilon)
            train_ds = apply_whitening(t, train_ds)
            test_ds = apply_whitening(t, test_ds)
        if cfg.extractor is not None:
            model = build_mlp(*parse_arch(cfg.extractor.arch), seed=cfg.extractor.train.seed)
            model, _ = train(model, train_ds, cfg.extractor.train)
            train_ds = extract_features(model, train_ds)
            test_ds = extract_features(model, test_ds)
        if isinstance(cfg.learner, ClassifierSpec):
            preds = clf_mod.fit(cfg.learner, train_ds).predict_many(test_ds.features)
            routes = None
        else:
            routed = cpc_predict_many(train_cpc(train_ds, cfg.learner), test_ds.features)
            preds = np.array([r.label for r in routed], dtype=np.int64)
            routes = [r.route for r in routed]
        reports.append(evaluate(preds, truth, ds.class_count, routes=routes,
                                config={"fold": f}, seed=seed))
    return reports


class TestStagedCrossValidate:
    @pytest.mark.parametrize("mode", ["baseline", "cpc"])
    def test_fold_reports_match_per_fold_pipelines(self, mode):
        ds = blobs(n=90, seed=13, margin=3.0)
        forest = forest_spec(tree_count=6, seed=3)
        cfg = PipelineConfig(
            CpcConfig(base_spec=softmax_spec(epochs=10, seed=0), expert_spec=forest, disc_k=7)
            if mode == "cpc" else forest,
            preprocess=PreprocessConfig(zca=True),
            extractor=ExtractorConfig(arch="in:2 concat:8 head:4",
                                      train=TrainConfig(epochs=4, seed=2)),
        )
        res = cross_validate(ds, cfg, folds=4, seed=5)
        want = _ref_cross_validate(ds, cfg, folds=4, seed=5)
        assert res["folds"] == want


def _ref_theta_sweep(train_ds, val_ds, grid, cfg):
    """theta_sweep as one fit_cpc and one cpc_predict_many per grid point,
    kept only as a reference for the stacked sweep."""
    ens = train_base_ensemble(
        train_ds, cfg.k_folds, cfg.repetitions, cfg.base_spec,
        seed=cfg.seed, fold_training=cfg.fold_training,
    )
    ease = compute_ease(ens, mode=cfg.ease_mode)
    baseline = clf_mod.fit(cfg.expert_spec, train_ds)
    baseline_acc = float(np.mean(baseline.predict_many(val_ds.features) == val_ds.labels))
    accuracies = []
    for theta in grid:
        model = fit_cpc(partition(train_ds, ease, theta), cfg.expert_spec, disc_k=cfg.disc_k)
        routed = cpc_predict_many(model, val_ds.features)
        preds = np.array([r.label for r in routed], dtype=np.int64)
        accuracies.append(float(np.mean(preds == val_ds.labels)))
    return accuracies, baseline_acc, grid[int(np.argmax(accuracies))]


class TestThetaSweep:
    def sweep_setup(self, seed=0):
        train = generate_two_regime(60, 60, 3, 4, 6.0, 0.8, seed=seed)
        val = generate_two_regime(30, 30, 3, 4, 6.0, 0.8, seed=seed + 100)
        cfg = CpcConfig(
            base_spec=softmax_spec(epochs=20, seed=0),
            expert_spec=softmax_spec(epochs=40, seed=0),
            disc_k=9,
            seed=0,
        )
        return train, val, cfg

    def test_grid_validation(self):
        train, val, cfg = self.sweep_setup()
        with pytest.raises(ConfigError):
            theta_sweep(train, val, [], cfg)
        with pytest.raises(ConfigError):
            theta_sweep(train, val, [0.5, 0.5], cfg)
        with pytest.raises(ConfigError):
            theta_sweep(train, val, [0.5, 0.1], cfg)

    @pytest.mark.parametrize("experts", ["softmax", "knn"])
    def test_matches_per_grid_point_reference(self, experts):
        train, val, cfg = self.sweep_setup(seed=4)
        if experts == "knn":
            cfg = CpcConfig(base_spec=knn_spec(k=1), expert_spec=knn_spec(k=3), disc_k=7)
        grid = [0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0, 1.5]
        res = theta_sweep(train, val, grid, cfg)
        accuracies, baseline_acc, best = _ref_theta_sweep(train, val, grid, cfg)
        assert res.accuracies == accuracies
        assert res.baseline_accuracy == baseline_acc
        assert res.best_theta == best
        assert res.accuracies[0] == res.baseline_accuracy
        assert len(set(res.accuracies)) > 2  # the grid is not all degenerate

    def test_one_sided_partitions_reuse_the_baseline(self, monkeypatch):
        train, val, cfg = self.sweep_setup(seed=4)
        grid = [0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0, 1.5]
        accuracies, baseline_acc, _ = _ref_theta_sweep(train, val, grid, cfg)
        force_cpus(monkeypatch, 1)  # the spy sees this process only
        jobs = []
        real_fit_many = clf_mod.fit_many

        def spy(specs, datasets):
            jobs.extend(datasets)
            return real_fit_many(specs, datasets)

        monkeypatch.setattr(clf_mod, "fit_many", spy)
        res = theta_sweep(train, val, grid, cfg)
        assert sum(ds.n == train.n for ds in jobs) == 1  # the baseline alone
        assert res.accuracies == accuracies
        assert res.baseline_accuracy == baseline_acc

    def test_grid_points_with_equal_easy_sets_fit_once(self, monkeypatch):
        # ratios of only 0 and 1: theta 0.3 and 0.7 split the same rows, so
        # the sweep fits three row sets, all rows and the two subspaces
        import cpckit.harness as harness_mod
        from cpckit.cpc import EaseScores

        force_cpus(monkeypatch, 1)  # the spy sees this process only
        train, val, cfg = self.sweep_setup(seed=4)
        ratios = (np.arange(train.n) % 3 == 0).astype(np.float64)
        ease = EaseScores(correct_counts=16 * ratios.astype(np.int64), ratios=ratios, N=16)
        monkeypatch.setattr(harness_mod, "ease_scores", lambda ds, c: ease)
        jobs = []
        real_fit_many = clf_mod.fit_many

        def spy(specs, datasets):
            jobs.extend(datasets)
            return real_fit_many(specs, datasets)

        monkeypatch.setattr(clf_mod, "fit_many", spy)
        res = theta_sweep(train, val, [0.3, 0.7], cfg)
        row_sets = [ds.features.tobytes() for ds in jobs]
        assert len(row_sets) == len(set(row_sets)) == 3
        assert sorted(ds.n for ds in jobs) == [40, 80, 120]
        assert res.accuracies[0] == res.accuracies[1]

    def test_theta_zero_is_routed_once(self, monkeypatch):
        # theta 0 is the baseline's easy set whether or not the grid holds it
        train, val, cfg = self.sweep_setup(seed=4)
        calls = []
        real_predict_many = clf_mod.TrainedClassifier.predict_many

        def spy(self, X):
            calls.append(len(X))
            return real_predict_many(self, X)

        monkeypatch.setattr(clf_mod.TrainedClassifier, "predict_many", spy)
        counts = []
        for grid in ([0.5], [0.0, 0.5]):
            calls.clear()
            theta_sweep(train, val, grid, cfg)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("experts", ["softmax", "knn"])
    def test_solves_only_pairs_one_expert_gets_right(self, monkeypatch, experts):
        # a mixed pair whose experts are both right, or both wrong, scores
        # the same whichever way it routes, so only the others are solved,
        # each distinct (query, neighbour labels) problem once
        import cpckit.cpc as cpc_mod
        from cpckit.classifiers import _nearest_indices
        from cpckit.cpc import ease_scores

        train, val, cfg = self.sweep_setup(seed=4)
        if experts == "knn":
            cfg = CpcConfig(base_spec=knn_spec(k=1), expert_spec=knn_spec(k=3), disc_k=7)
        grid = [0.2, 0.4, 0.5, 0.6, 0.8]
        ease = ease_scores(train, cfg)
        want, mixed = set(), set()
        for theta in grid:
            m = fit_cpc(partition(train, ease, theta), cfg.expert_spec, cfg.disc_k)
            if not 0 < m.pooled_binary.sum() < train.n:  # one-sided: nothing is mixed
                continue
            easy = m.easy_expert.predict_many(val.features) == val.labels
            hard = m.difficult_expert.predict_many(val.features) == val.labels
            for i, x in enumerate(val.features):
                nb = m.pooled_binary[_nearest_indices(train.features, x, cfg.disc_k)]
                if nb.min() != nb.max():
                    mixed.add((i, nb.tobytes()))
                    if easy[i] != hard[i]:
                        want.add((i, nb.tobytes()))
        seen = []
        real = cpc_mod._discriminator_margins

        def spy(P, y, X):
            rows = [np.flatnonzero((val.features == x).all(axis=1)) for x in X]
            seen.extend((int(r[0]), labels.tobytes()) for r, labels in zip(rows, y))
            return real(P, y, X)

        force_cpus(monkeypatch, 1)  # the spy sees this process only
        monkeypatch.setattr(cpc_mod, "_discriminator_margins", spy)
        res = theta_sweep(train, val, grid, cfg)
        assert len(seen) == len(want)
        assert set(seen) == want
        assert 0 < len(want) < len(mixed)  # some mixed problems are skipped
        assert res.accuracies == _ref_theta_sweep(train, val, grid, cfg)[0]

    def test_fine_grid_routes_each_easy_set_once(self, monkeypatch):
        import cpckit.harness as harness_mod

        force_cpus(monkeypatch, 1)  # the spy sees this process only
        train, val, cfg = self.sweep_setup(seed=4)
        routed = []
        real_route = harness_mod._route_rows

        def route_spy(X, models, y):
            routed.append(len(models))
            return real_route(X, models, y)

        monkeypatch.setattr(harness_mod, "_route_rows", route_spy)
        fine = [i / 1000 for i in range(1001)]
        res = theta_sweep(train, val, fine, cfg)
        ratios = compute_ease(
            train_base_ensemble(train, cfg.k_folds, cfg.repetitions, cfg.base_spec,
                                seed=cfg.seed)).ratios
        assert routed[-1] == len({tuple(ratios >= t) for t in fine})
        coarse = theta_sweep(train, val, fine[::100], cfg)
        assert res.accuracies[::100] == coarse.accuracies
        assert res.baseline_accuracy == coarse.baseline_accuracy
        # above every ratio the easy set is empty, and theta 0's full set
        # stands for it
        high = [i / 10 for i in range(16)]
        res = theta_sweep(train, val, high, cfg)
        easy_sets = {tuple(ratios >= (t if t <= ratios.max() else 0.0)) for t in high}
        assert routed[-1] == len(easy_sets)
        assert res.accuracies[-1] == res.baseline_accuracy

    def test_bad_grid_value_refused_before_any_fit(self, monkeypatch):
        train, val, cfg = self.sweep_setup()
        jobs = []
        real_fit_many = clf_mod.fit_many

        def spy(specs, datasets):
            jobs.extend(specs)
            return real_fit_many(specs, datasets)

        monkeypatch.setattr(clf_mod, "fit_many", spy)
        with pytest.raises(BadSpec):
            theta_sweep(train, val, [0.0, 0.5, 2.5], cfg)
        with pytest.raises(BadSpec):
            theta_sweep(train, val, [0.5], replace(cfg, disc_k=0))
        assert jobs == []

    def test_empty_validation_set_refused_before_any_fit(self, monkeypatch):
        # gave accuracies [nan, nan], a nan baseline and best theta 0.2,
        # with two numpy RuntimeWarnings
        train, _, cfg = self.sweep_setup()
        jobs = []
        real_fit_many = clf_mod.fit_many

        def spy(specs, datasets):
            jobs.extend(specs)
            return real_fit_many(specs, datasets)

        monkeypatch.setattr(clf_mod, "fit_many", spy)
        with pytest.raises(EmptyDataset):
            theta_sweep(train, take(train, []), [0.2, 0.5], cfg)
        assert jobs == []

    def test_validation_set_of_another_width_refused_before_any_fit(self, monkeypatch):
        # it was refused only when the first share routed, after every fit
        train, val, cfg = self.sweep_setup()
        jobs = []
        real_fit_many = clf_mod.fit_many

        def spy(specs, datasets):
            jobs.extend(specs)
            return real_fit_many(specs, datasets)

        monkeypatch.setattr(clf_mod, "fit_many", spy)
        narrow = LabeledDataset(val.features[:, :3], val.labels, val.class_count)
        with pytest.raises(DimMismatch):
            theta_sweep(train, narrow, [0.2, 0.5], cfg)
        assert jobs == []

    def test_degenerate_grid_ends_match_baseline_exactly(self):
        # theta 0 rebuilds the baseline as the lone easy expert; theta above
        # 1 rebuilds it as the lone difficult expert
        train, val, cfg = self.sweep_setup(seed=1)
        res = theta_sweep(train, val, [0.0, 0.5, 1.01], cfg)
        assert res.accuracies[0] == res.baseline_accuracy
        assert res.accuracies[2] == res.baseline_accuracy

    def test_tie_breaks_toward_smaller_theta(self):
        # every member memorizes blobs, so all ratios are 1.0 and any two
        # thresholds at or below 1.0 give identical all-easy partitions
        train = blobs(n=40, seed=11)
        val = blobs(n=20, seed=12)
        cfg = CpcConfig(base_spec=knn_spec(k=1), expert_spec=knn_spec(k=3), disc_k=5)
        res = theta_sweep(train, val, [0.3, 0.7], cfg)
        assert res.accuracies[0] == res.accuracies[1]
        assert res.best_theta == 0.3

    def test_ensemble_trains_exactly_once(self, monkeypatch):
        # distinct kinds per role make the counters separable: forest only
        # appears as the base ensemble, so its fit count must be K * m
        train, val, _ = self.sweep_setup(seed=2)
        cfg = CpcConfig(
            base_spec=forest_spec(tree_count=3, seed=0),
            expert_spec=knn_spec(k=3),
            k_folds=4,
            repetitions=2,
            disc_k=5,
            seed=0,
        )
        kinds = []
        real_fit_many = clf_mod.fit_many

        def spy(specs, datasets):
            kinds.extend(spec.kind for spec in specs)
            return real_fit_many(specs, datasets)

        monkeypatch.setattr(clf_mod, "fit_many", spy)
        theta_sweep(train, val, [0.0, 0.3, 0.6, 0.9], cfg)
        assert kinds.count("random_forest") == 4 * 2

    def test_curve_csv_round_trips(self, tmp_path):
        train, val, cfg = self.sweep_setup(seed=3)
        res = theta_sweep(train, val, [0.0, 0.5, 1.0], cfg)
        path = tmp_path / "curve.csv"
        write_sweep_curve(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "theta,accuracy"
        parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert [t for t, _ in parsed] == res.thetas
        assert [a for _, a in parsed] == res.accuracies

