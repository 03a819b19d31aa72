"""Feature-extractor MLP: width algebra, exact gradients, training loop."""

import copy

import numpy as np
import pytest

from cpckit.dataset import LabeledDataset
from cpckit.errors import BadArch, DimMismatch, Divergence, EmptyDataset, load_json, save_json
from cpckit.mlp import (
    LR_DECAY_PER_EPOCH,
    PLAIN,
    RESIDUAL_ADD,
    RESIDUAL_CONCAT,
    BlockSpec,
    MlpModel,
    TrainConfig,
    _forward_batch,
    _params,
    block_widths,
    build_mlp,
    extract_features,
    format_arch,
    loss_and_gradients,
    mlp_from_json,
    mlp_to_json,
    parse_arch,
    train,
)


def blobs(n=150, d=2, C=3, seed=0, margin=6.0):
    rng = np.random.default_rng(seed)
    ang = 2 * np.pi * np.arange(C) / C
    r = margin / (2 * np.sin(np.pi / C))
    centers = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    if d > 2:
        centers = np.column_stack([centers, np.zeros((C, d - 2))])
    labels = np.arange(n) % C
    feats = rng.standard_normal((n, d)) + centers[labels]
    return LabeledDataset(feats, labels, C)


class TestWidthAlgebra:
    def test_plain_replaces_width(self):
        assert block_widths(8, [BlockSpec(PLAIN, 32)]) == [32]

    def test_add_preserves_width(self):
        assert block_widths(8, [BlockSpec(RESIDUAL_ADD, 8)]) == [8]

    def test_concat_sums_widths(self):
        specs = [BlockSpec(RESIDUAL_CONCAT, 16), BlockSpec(RESIDUAL_CONCAT, 4)]
        assert block_widths(8, specs) == [24, 28]

    def test_add_width_mismatch(self):
        with pytest.raises(BadArch):
            block_widths(8, [BlockSpec(RESIDUAL_ADD, 16)])

    def test_mixed_chain(self):
        specs = [
            BlockSpec(RESIDUAL_CONCAT, 8),  # 8 -> 16
            BlockSpec(RESIDUAL_ADD, 16),  # stays 16
            BlockSpec(PLAIN, 5),  # -> 5
        ]
        assert block_widths(8, specs) == [16, 16, 5]

    def test_bad_block_spec(self):
        with pytest.raises(BadArch):
            BlockSpec("conv", 8)
        with pytest.raises(BadArch):
            BlockSpec(PLAIN, 0)


class TestArchStrings:
    def test_parse(self):
        d, blocks, C = parse_arch("in:8 concat:16 add:24 fc:32 head:4")
        assert d == 8 and C == 4
        assert [b.kind for b in blocks] == [RESIDUAL_CONCAT, RESIDUAL_ADD, PLAIN]
        assert [b.hidden_width for b in blocks] == [16, 24, 32]

    def test_format_round_trip(self):
        text = "in:3 fc:7 concat:2 head:2"
        d, blocks, C = parse_arch(text)
        m = build_mlp(d, blocks, C, seed=0)
        assert format_arch(m) == text

    @pytest.mark.parametrize(
        "bad",
        [
            "in:8 head:4",  # no blocks
            "fc:8 fc:4 head:2",  # missing in:
            "in:8 fc:4",  # missing head:
            "in:8 conv:4 head:2",  # unknown block
            "in:8 fc:x head:2",  # non-integer width
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(BadArch):
            parse_arch(bad)


class TestBuild:
    def test_glorot_bounds_and_zero_biases(self):
        m = build_mlp(6, [BlockSpec(PLAIN, 10)], 3, seed=1)
        bound = np.sqrt(6.0 / (6 + 10))
        assert np.all(np.abs(m.weights[0]) <= bound)
        assert np.any(np.abs(m.weights[0]) > bound / 2)  # not degenerate
        assert np.all(m.biases[0] == 0.0)
        assert np.all(m.head_b == 0.0)

    def test_feature_tap_defaults_to_last(self):
        m = build_mlp(4, [BlockSpec(PLAIN, 8), BlockSpec(PLAIN, 6)], 2)
        assert m.feature_tap == 1

    def test_feature_tap_validated(self):
        with pytest.raises(BadArch):
            build_mlp(4, [BlockSpec(PLAIN, 8)], 2, feature_tap=1)

    def test_minimum_shape(self):
        with pytest.raises(BadArch):
            build_mlp(4, [], 2)
        with pytest.raises(BadArch):
            build_mlp(4, [BlockSpec(PLAIN, 8)], 1)
        with pytest.raises(BadArch):
            build_mlp(0, [BlockSpec(PLAIN, 8)], 2)


def random_model_and_batch(seed):
    """A model containing all three block kinds, plus inputs that keep every
    pre-activation at least 1e-3 from the ReLU kink so a 1e-5 parameter
    perturbation cannot cross it."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 6))
    C = int(rng.integers(2, 5))
    kinds = [PLAIN, RESIDUAL_ADD, RESIDUAL_CONCAT]
    rng.shuffle(kinds)
    extra = int(rng.integers(0, 2))
    for _ in range(extra):
        kinds.append([PLAIN, RESIDUAL_CONCAT][int(rng.integers(0, 2))])
    blocks = []
    w = d
    for kind in kinds:
        if kind == RESIDUAL_ADD:
            h = w
        else:
            h = int(rng.integers(2, 6))
        blocks.append(BlockSpec(kind, h))
        w = block_widths(d, blocks)[-1]
    m = build_mlp(d, blocks, C, seed=seed)
    for _ in range(200):
        X = rng.normal(size=(3, d))
        ok = True
        xi = X
        for spec, W, b in zip(m.block_specs, m.weights, m.biases):
            z = xi @ W.T + b
            if np.min(np.abs(z)) < 1e-3:
                ok = False
                break
            a = np.maximum(z, 0.0)
            if spec.kind == PLAIN:
                xi = a
            elif spec.kind == RESIDUAL_ADD:
                xi = a + xi
            else:
                xi = np.concatenate([a, xi], axis=1)
        if ok:
            y = rng.integers(0, C, size=3)
            return m, X, y
    raise AssertionError("could not find kink-clear inputs")


def numeric_gradients(m, X, y, step=1e-5):
    """Central finite differences over every parameter, in _params order."""

    def loss_of(model):
        return loss_and_gradients(model, X, y)[0]

    def diff_array(arr):
        out = np.zeros_like(arr)
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_of(m)
            flat[i] = orig - step
            lo = loss_of(m)
            flat[i] = orig
            out.reshape(-1)[i] = (hi - lo) / (2 * step)
        return out

    return [diff_array(p) for p in _params(m)]


def max_relative_error(analytic, numeric):
    pairs = list(zip(analytic, numeric))
    scale = max(max(np.max(np.abs(a)), np.max(np.abs(n))) for a, n in pairs)
    scale = max(scale, 1e-8)
    worst = max(np.max(np.abs(a - n)) for a, n in pairs)
    return worst / scale


class TestGradients:
    @pytest.mark.parametrize("seed", range(10))
    def test_relu_matches_finite_differences(self, seed):
        m, X, y = random_model_and_batch(seed)
        _, analytic = loss_and_gradients(m, X, y)
        numeric = numeric_gradients(m, X, y)
        assert max_relative_error(analytic, numeric) <= 1e-8

    def test_saturated_softmax_has_tiny_gradients(self):
        # when the head already assigns the true class overwhelming mass the
        # loss surface is flat
        m, X, y = random_model_and_batch(7)
        m = copy.deepcopy(m)
        m.head_w[:] = 0.0
        m.head_b[:] = -50.0
        m.head_b[int(y[0])] = 50.0
        y_all = np.full_like(y, y[0])
        _, g = loss_and_gradients(m, X, y_all)
        worst = max(np.max(np.abs(a)) for a in g)
        assert worst <= 1e-6


class TestForward:
    def test_dim_mismatch(self):
        m = build_mlp(4, [BlockSpec(PLAIN, 8)], 2)
        with pytest.raises(DimMismatch):
            extract_features(m, LabeledDataset(np.zeros((1, 5)), np.zeros(1, dtype=int), 2))

    def test_dropout_zeroes_or_rescales(self):
        m = build_mlp(4, [BlockSpec(PLAIN, 50)], 2, seed=2)
        x = np.random.default_rng(5).normal(size=(1, 4))
        _, eval_acts, _ = _forward_batch(m, x)
        _, train_acts, _ = _forward_batch(m, x, dropout=0.5, rng=np.random.default_rng(11))
        kept = train_acts[0] != 0.0
        assert 0 < kept.sum() < 50  # both branches exercised
        np.testing.assert_allclose(
            train_acts[0][kept], eval_acts[0][kept] * 2.0, rtol=1e-12
        )


class TestTrain:
    def test_loss_decreases_and_fits(self):
        ds = blobs()
        m = build_mlp(2, [BlockSpec(RESIDUAL_CONCAT, 16)], 3, seed=0)
        m2, trace = train(m, ds, TrainConfig(epochs=30, dropout=0.0, seed=0))
        assert len(trace) == 30
        assert trace[-1] < trace[0]
        assert trace[-1] < 0.15
        scores, _, _ = _forward_batch(m2, ds.features)
        acc = float(np.mean(np.argmax(scores, axis=1) == ds.labels))
        assert acc >= 0.99

    def test_original_model_untouched(self):
        ds = blobs(60)
        m = build_mlp(2, [BlockSpec(PLAIN, 8)], 3, seed=1)
        before = [w.copy() for w in m.weights]
        train(m, ds, TrainConfig(epochs=3, seed=0))
        assert all(np.array_equal(a, b) for a, b in zip(before, m.weights))

    def test_zero_epochs_returns_copy(self):
        ds = blobs(60)
        m = build_mlp(2, [BlockSpec(PLAIN, 8)], 3, seed=1)
        m2, trace = train(m, ds, TrainConfig(epochs=0))
        assert trace == []
        assert m2 is not m
        assert all(np.array_equal(a, b) for a, b in zip(m.weights, m2.weights))

    def test_deterministic_per_seed(self):
        ds = blobs(80)
        m = build_mlp(2, [BlockSpec(PLAIN, 8)], 3, seed=4)
        a, _ = train(m, ds, TrainConfig(epochs=5, seed=9))
        b, _ = train(m, ds, TrainConfig(epochs=5, seed=9))
        c, _ = train(m, ds, TrainConfig(epochs=5, seed=10))
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))

    def test_divergence_raises_with_epoch(self):
        ds = blobs(60)
        m = build_mlp(2, [BlockSpec(PLAIN, 8)], 3, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Divergence) as exc:
                train(m, ds, TrainConfig(learning_rate=1e6, epochs=60, dropout=0.0))
        assert exc.value.epoch >= 0

    def test_label_exceeding_head_raises(self):
        ds = blobs(30, 2, 3)
        m = build_mlp(2, [BlockSpec(PLAIN, 8)], 2, seed=0)
        with pytest.raises(DimMismatch):
            train(m, ds, TrainConfig(epochs=1))

    def test_empty_dataset_raises(self):
        empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 3)
        m = build_mlp(2, [BlockSpec(PLAIN, 8)], 3, seed=0)
        with pytest.raises(EmptyDataset):
            train(m, empty, TrainConfig(epochs=1))

    @pytest.mark.parametrize("bad", [
        {"learning_rate": 0.0}, {"momentum": 1.0}, {"dropout": 1.0}, {"batch_size": 0},
        {"epochs": -1}, {"seed": -1}, {"seed": 1.5}, {"seed": "0"},
    ], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
    def test_bad_config_refused_when_built(self, bad):
        # the seed cases built before, and train raised numpy's bare ValueError or TypeError
        with pytest.raises(BadArch):
            TrainConfig(**bad)

    def test_integer_seeds_are_taken(self):
        for seed in (np.int64(3), np.uint32(2**32 - 1), True, 0):
            assert TrainConfig(seed=seed).seed is seed


# mlp.train's own momentum-SGD loop, before it moved onto the shared loop,
# and the forward and backward passes before the parameters became views of
# one flat vector, kept only as a reference: training must match them bit
# for bit.

def _ref_forward(m, X, dropout, rng):
    caches, x = [], X
    for spec, W, b in zip(m.block_specs, m.weights, m.biases):
        z = x @ W.T + b
        a = np.maximum(z, 0.0)
        mask = None
        if dropout > 0.0 and rng is not None:
            mask = (rng.random(a.shape) >= dropout) / (1.0 - dropout)
            a = a * mask
        if spec.kind == PLAIN:
            out = a
        elif spec.kind == RESIDUAL_ADD:
            out = a + x
        else:
            out = np.concatenate([a, x], axis=1)
        caches.append((x, z, mask))
        x = out
    return x @ m.head_w.T + m.head_b, x, caches


def _ref_loss_and_gradients(m, X, y, dropout, rng):
    scores, last, caches = _ref_forward(m, X, dropout, rng)
    n = len(y)
    shifted = scores - scores.max(axis=1, keepdims=True)
    expl = np.exp(shifted)
    rowsum = expl.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(rowsum[:, 0]) - shifted[np.arange(n), y]))
    P = expl / rowsum
    P[np.arange(n), y] -= 1.0
    g = P / n
    gh_w, gh_b, g_x = g.T @ last, g.sum(axis=0), g @ m.head_w
    gws, gbs = [None] * len(caches), [None] * len(caches)
    for i in range(len(caches) - 1, -1, -1):
        x_in, z, mask = caches[i]
        h = z.shape[1]
        kind = m.block_specs[i].kind
        if kind == PLAIN:
            g_a, g_skip = g_x, 0.0
        elif kind == RESIDUAL_ADD:
            g_a, g_skip = g_x, g_x
        else:
            g_a, g_skip = g_x[:, :h], g_x[:, h:]
        if mask is not None:
            g_a = g_a * mask
        g_z = g_a * (z > 0)
        gws[i], gbs[i] = g_z.T @ x_in, g_z.sum(axis=0)
        if i:
            g_x = g_z @ m.weights[i] + g_skip
    return loss, gws + gbs + [gh_w, gh_b]


def _ref_train(m, ds, cfg):
    model = copy.deepcopy(m)
    rng = np.random.default_rng(cfg.seed)
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    vel_hw = np.zeros_like(model.head_w)
    vel_hb = np.zeros_like(model.head_b)
    lr = cfg.learning_rate
    batch = min(cfg.batch_size, ds.n)
    trace = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(ds.n)
        losses = []
        for start in range(0, ds.n, batch):
            sel = perm[start : start + batch]
            loss, g = _ref_loss_and_gradients(
                model, ds.features[sel], ds.labels[sel], cfg.dropout, rng
            )
            losses.append(loss)
            L = len(model.weights)
            for i in range(L):
                vel_w[i] = cfg.momentum * vel_w[i] - lr * g[i]
                vel_b[i] = cfg.momentum * vel_b[i] - lr * g[L + i]
                model.weights[i] = model.weights[i] + vel_w[i]
                model.biases[i] = model.biases[i] + vel_b[i]
            vel_hw = cfg.momentum * vel_hw - lr * g[2 * L]
            vel_hb = cfg.momentum * vel_hb - lr * g[2 * L + 1]
            model.head_w = model.head_w + vel_hw
            model.head_b = model.head_b + vel_hb
        trace.append(float(np.mean(losses)))
        lr *= LR_DECAY_PER_EPOCH
    return model, trace


class TestTrainMatchesReference:
    @pytest.mark.parametrize("batch_size", [16, 45, 4096], ids=["minibatch", "ragged", "fullbatch"])
    def test_parameters_and_trace_bitwise(self, batch_size):
        ds = blobs(150, 4, 3, seed=6)
        blocks = [BlockSpec(RESIDUAL_CONCAT, 6), BlockSpec(RESIDUAL_ADD, 10), BlockSpec(PLAIN, 5)]
        m = build_mlp(4, blocks, 3, seed=2)
        cfg = TrainConfig(
            learning_rate=0.1, momentum=0.8, dropout=0.3, batch_size=batch_size,
            epochs=6, seed=4,
        )
        got, trace = train(m, ds, cfg)
        want, want_trace = _ref_train(m, ds, cfg)
        assert trace == want_trace
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(got.head_w, want.head_w)
        assert np.array_equal(got.head_b, want.head_b)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_gradients_into_views_match_fresh_arrays(self, dropout):
        ds = blobs(40, 4, 3, seed=6)
        blocks = [BlockSpec(RESIDUAL_CONCAT, 6), BlockSpec(RESIDUAL_ADD, 10), BlockSpec(PLAIN, 5)]
        m = build_mlp(4, blocks, 3, seed=2)
        params = _params(m)
        flat = np.full(sum(p.size for p in params), np.nan)
        ends = np.cumsum([p.size for p in params])[:-1]
        views = [part.reshape(p.shape) for part, p in zip(np.split(flat, ends), params)]
        runs = [
            loss_and_gradients(m, ds.features, ds.labels, dropout, np.random.default_rng(1),
                               out=views),
            loss_and_gradients(m, ds.features, ds.labels, dropout, np.random.default_rng(1)),
            _ref_loss_and_gradients(m, ds.features, ds.labels, dropout, np.random.default_rng(1)),
        ]
        assert runs[0][1] is views
        for loss, grads in runs[1:]:
            assert loss == runs[0][0]
            assert all(np.array_equal(a, b) for a, b in zip(grads, views))


class TestExtractFeatures:
    def test_tap_width_and_metadata(self):
        ds = blobs(40, 2, 2)
        m = build_mlp(
            2, [BlockSpec(RESIDUAL_CONCAT, 6), BlockSpec(PLAIN, 5)], 2, feature_tap=0
        )
        feats = extract_features(m, ds)
        assert feats.features.shape == (40, 8)  # concat: 6 + 2
        assert np.array_equal(feats.labels, ds.labels)
        assert feats.class_count == ds.class_count

    def test_deterministic(self):
        ds = blobs(20, 2, 2)
        m = build_mlp(2, [BlockSpec(PLAIN, 7)], 2, seed=5)
        a = extract_features(m, ds)
        b = extract_features(m, ds)
        assert np.array_equal(a.features, b.features)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        m, X, y = random_model_and_batch(6)
        back = mlp_from_json(mlp_to_json(m))
        s1, _, _ = _forward_batch(m, X[:1])
        s2, _, _ = _forward_batch(back, X[:1])
        assert np.array_equal(s1, s2)
        assert back.feature_tap == m.feature_tap

        path = tmp_path / "model.json"
        save_json(mlp_to_json(m), path)
        loaded = load_json(path, mlp_from_json)
        s3, _, _ = _forward_batch(loaded, X[:1])
        assert np.array_equal(s1, s3)
